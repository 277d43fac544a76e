"""Command-line front end: point queries, sweeps, convergence reports.

Every subcommand maps 1:1 onto a library operation and emits a
machine-readable record: JSON for point queries and convergence
reports, JSON or CSV for sweeps.  Output is deterministic byte for
byte at fixed inputs: floats are serialized with repr round-tripping
in JSON and 17 significant digits in CSV, rows are ordered t-major,
and nothing is seeded from the clock.

Exit codes: 0 success, 2 validation failure (one-line diagnostic on
stderr), 3 numerical non-convergence (partial record still emitted,
marked converged: false).  A result with a non-finite number is such a
failure: no NaN or infinity is ever written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .plane import ConvergenceError, PlanePoint, QuadratureError, SkParams
from . import cw_exact, hj_limit, sk_finite, sk_rs

_NUMERICAL_ERRORS = (ConvergenceError, QuadratureError, FloatingPointError, OverflowError)


class _Parser(argparse.ArgumentParser):
    # argparse prints usage plus message; the contract wants one line on stderr
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(rows, columns, stream) -> None:
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_csv_cell(row.get(c)) for c in columns) + "\n")


def _emit(payload, out_path, as_csv=False, columns=None) -> None:
    if out_path is None:
        stream = sys.stdout
        close = False
    else:
        stream = open(out_path, "w")
        close = True
    try:
        if as_csv:
            _write_csv(payload, columns, stream)
        else:
            json.dump(payload, stream, indent=2, allow_nan=False)
            stream.write("\n")
    finally:
        if close:
            stream.close()


def _record(command: str, echo: dict) -> dict:
    return {"command": command, "version": __version__, "input": echo}


def _start(args, command: str, echo: dict) -> dict:
    # stashed on the namespace so a numerical failure can still emit the echo;
    # a copy, so the results a handler adds to its record stay out of it
    record = _record(command, echo)
    args.partial_record = dict(record)
    return record


def _non_finite(value, name=None) -> list:
    """Names of the fields under `value` holding a NaN or an infinity."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [name]
    if isinstance(value, dict):
        return [bad for key, item in value.items() for bad in _non_finite(item, key)]
    if isinstance(value, (list, tuple)):
        return [bad for item in value for bad in _non_finite(item, name)]
    return []


def _require_finite(record: dict) -> None:
    bad = _non_finite(record)
    if bad:
        raise FloatingPointError(f"non-finite result in {', '.join(dict.fromkeys(bad))}")


# ---------------------------------------------------------------- point queries

def _cmd_cw_exact(args):
    record = _start(args, "cw exact", {"x": args.x, "t": args.t, "n": args.n,
                                       "k_max": args.k_max})
    fields = cw_exact.exact_fields(PlanePoint(args.x, args.t), args.n, k_max=args.k_max)
    record.update(converged=True, phi=fields.phi, u=fields.u, potential=fields.potential,
                  moments=list(fields.moments))
    return record


def _cmd_cw_limit(args):
    record = _start(args, "cw limit", {"x": args.x, "t": args.t, "branch": args.branch})
    sol = hj_limit.lax_action(PlanePoint(args.x, args.t), branch=args.branch)
    record.update(converged=True, phi=sol.phi, u=sol.u, y_star=sol.y_star,
                  on_shock=sol.on_shock, branch=sol.branch)
    return record


def _cmd_cw_shock(args):
    record = _start(args, "cw shock", {"t": args.t})
    u_minus, u_plus = hj_limit.shock_jump(args.t)
    record.update(converged=True, u_minus=u_minus, u_plus=u_plus)
    return record


def _cmd_cw_critical_line(args):
    record = _start(args, "cw critical-line", {"t": args.t})
    record.update(converged=True, x_c=hj_limit.critical_line(args.t))
    return record


def _cmd_cw_identities(args):
    record = _start(args, "cw identities", {"x": args.x, "t": args.t, "n": args.n})
    r1, r2, r3 = cw_exact.conservation_residuals(PlanePoint(args.x, args.t), args.n)
    record.update(converged=True, r1=r1, r2=r2, r3=r3)
    return record


def _cmd_sk_rs(args):
    record = _start(args, "sk rs", {"x": args.x, "t": args.t, "beta_h": args.beta_h})
    sol = sk_rs.rs_action(SkParams(args.x, args.t, args.beta_h))
    record.update(converged=True, q_bar=sol.q_bar, u=sol.u, phi_rs=sol.phi_rs,
                  pressure=sol.pressure, caustic_margin=sol.caustic_margin,
                  y_star=sol.y_star)
    return record


def _cmd_sk_caustic(args):
    record = _start(args, "sk caustic", {"x": args.x, "t": args.t, "beta_h": args.beta_h})
    record.update(converged=True,
                  margin=sk_rs.caustic_margin(SkParams(args.x, args.t, args.beta_h)))
    return record


def _cmd_sk_finite(args):
    record = _start(args, "sk finite", {"x": args.x, "t": args.t, "beta_h": args.beta_h,
                                   "n": args.n, "samples": args.samples, "seed": args.seed})
    moments = sk_finite.sk_identity_residuals(
        SkParams(args.x, args.t, args.beta_h), args.n, args.samples, args.seed)
    record.update(converged=True, q1=moments.q1, q2=moments.q2,
                  poly_p1=moments.poly_p1, poly_p2=moments.poly_p2,
                  poly_p3=moments.poly_p3, poly_p4=moments.poly_p4,
                  std_errors=list(moments.std_errors),
                  v_n=moments.v_n, v_n_std_error=moments.v_n_std_error)
    return record


# --------------------------------------------------------------------- sweeps

def _sweep_row_cw_limit(x, t, args):
    sol = hj_limit.lax_action(PlanePoint(x, t), branch=args.branch)
    return {"t": t, "x": x, "phi": sol.phi, "u": sol.u, "y_star": sol.y_star,
            "on_shock": sol.on_shock}


def _sweep_row_cw_exact(x, t, args):
    if args.n is None:
        raise ValueError("sweep quantity 'exact' requires --n")
    fields = cw_exact.exact_fields(PlanePoint(x, t), args.n)
    return {"t": t, "x": x, "n": args.n, "phi": fields.phi, "u": fields.u,
            "potential": fields.potential}


def _sweep_row_cw_identities(x, t, args):
    if args.n is None:
        raise ValueError("sweep quantity 'identities' requires --n")
    r1, r2, r3 = cw_exact.conservation_residuals(PlanePoint(x, t), args.n)
    return {"t": t, "x": x, "n": args.n, "r1": r1, "r2": r2, "r3": r3}


def _sweep_row_cw_shock(t, args):
    u_minus, u_plus = hj_limit.shock_jump(t)
    return {"t": t, "u_minus": u_minus, "u_plus": u_plus}


def _sweep_row_cw_critical_line(t, args):
    return {"t": t, "x_c": hj_limit.critical_line(t)}


def _sweep_row_sk_rs(x, t, args):
    sol = sk_rs.rs_action(SkParams(x, t, args.beta_h))
    return {"t": t, "x": x, "beta_h": args.beta_h, "q_bar": sol.q_bar,
            "phi_rs": sol.phi_rs, "caustic_margin": sol.caustic_margin,
            "y_star": sol.y_star, "pressure": sol.pressure}


def _sweep_row_sk_caustic(x, t, args):
    return {"t": t, "x": x, "beta_h": args.beta_h,
            "margin": sk_rs.caustic_margin(SkParams(x, t, args.beta_h))}


def _sweep_row_sk_finite(x, t, args):
    if args.n is None or args.samples is None or args.seed is None:
        raise ValueError("sk-finite sweeps require --n, --samples and --seed")
    m = sk_finite.sk_identity_residuals(SkParams(x, t, args.beta_h),
                                        args.n, args.samples, args.seed)
    se = m.std_errors
    return {"t": t, "x": x, "beta_h": args.beta_h, "n": m.n,
            "n_samples": m.n_samples, "seed": m.seed,
            "q1": m.q1, "q1_std_error": se[0], "q2": m.q2, "q2_std_error": se[1],
            "p1": m.poly_p1, "p1_std_error": se[2], "p2": m.poly_p2,
            "p2_std_error": se[3], "p3": m.poly_p3, "p3_std_error": se[4],
            "p4": m.poly_p4, "p4_std_error": se[5],
            "v_n": m.v_n, "v_n_std_error": m.v_n_std_error}


# flags that must be present before a sweep starts; missing ones are a
# configuration error (exit 2), not a per-row failure
_SWEEP_REQUIRED = {
    ("cw", "exact"): ("n",),
    ("cw", "identities"): ("n",),
    ("sk-finite", "identities"): ("n", "samples", "seed"),
}

# echo columns that stay meaningful on a failed row
_SWEEP_ECHO = (("beta_h", "beta_h"), ("n", "n"),
               ("n_samples", "samples"), ("seed", "seed"))

# (model, quantity) -> (per-point evaluator or per-t evaluator, columns, needs_x_axis)
_SWEEP_TABLE = {
    ("cw", "limit"): (_sweep_row_cw_limit,
                      ["t", "x", "phi", "u", "y_star", "on_shock", "converged"], True),
    ("cw", "exact"): (_sweep_row_cw_exact,
                      ["t", "x", "n", "phi", "u", "potential", "converged"], True),
    ("cw", "identities"): (_sweep_row_cw_identities,
                           ["t", "x", "n", "r1", "r2", "r3", "converged"], True),
    ("cw", "shock"): (_sweep_row_cw_shock, ["t", "u_minus", "u_plus", "converged"], False),
    ("cw", "critical-line"): (_sweep_row_cw_critical_line, ["t", "x_c", "converged"], False),
    ("sk-rs", "rs"): (_sweep_row_sk_rs,
                      ["t", "x", "beta_h", "q_bar", "phi_rs", "caustic_margin",
                       "y_star", "pressure", "converged"], True),
    ("sk-rs", "caustic"): (_sweep_row_sk_caustic,
                           ["t", "x", "beta_h", "margin", "converged"], True),
    ("sk-finite", "identities"): (_sweep_row_sk_finite,
                                  ["t", "x", "beta_h", "n", "n_samples", "seed",
                                   "q1", "q1_std_error", "q2", "q2_std_error",
                                   "p1", "p1_std_error", "p2", "p2_std_error",
                                   "p3", "p3_std_error", "p4", "p4_std_error",
                                   "v_n", "v_n_std_error", "converged"], True),
}


def _axis(lo: float, hi: float, count: int, name: str):
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} range must be finite")
    if count == 1:
        return [lo]
    return list(np.linspace(lo, hi, count))


def _cmd_sweep(args):
    key = (args.model, args.quantity)
    if key not in _SWEEP_TABLE:
        allowed = sorted(q for (m, q) in _SWEEP_TABLE if m == args.model)
        raise ValueError(
            f"quantity {args.quantity!r} not available for model {args.model!r};"
            f" choose from {allowed}")
    evaluator, columns, needs_x = _SWEEP_TABLE[key]
    for flag in _SWEEP_REQUIRED.get(key, ()):
        if getattr(args, flag, None) is None:
            raise ValueError(
                f"sweep {args.model}/{args.quantity} requires --{flag.replace('_', '-')}")
    if args.t_min < 0:
        raise ValueError(f"t_min must be >= 0, got {args.t_min}")
    ts = _axis(args.t_min, args.t_max, args.n_t, "n_t")
    xs = _axis(args.x_min, args.x_max, args.n_x, "n_x") if needs_x else [None]

    rows = []
    all_ok = True
    for t in ts:
        for x in xs:
            try:
                row = evaluator(x, t, args) if needs_x else evaluator(t, args)
                _require_finite(row)
                row["converged"] = True
            except (ValueError, *_NUMERICAL_ERRORS):
                row = {"t": t, "converged": False}
                if needs_x:
                    row["x"] = x
                for column, attr in _SWEEP_ECHO:
                    if column in columns:
                        row[column] = getattr(args, attr, None)
                all_ok = False
            rows.append(row)

    if args.format == "csv":
        _emit(rows, args.out, as_csv=True, columns=columns)
    else:
        _emit([{c: r.get(c) for c in columns} for r in rows], args.out)
    return None if all_ok else 3


# -------------------------------------------------------------- convergence

def _parse_n_list(text: str):
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {text!r}")
    if len(values) < 3:
        raise ValueError("--n-list needs at least 3 entries")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("--n-list must be strictly increasing")
    return values


def _cmd_convergence(args):
    sizes = _parse_n_list(args.n_list)
    echo = {"model": args.model, "x": args.x, "t": args.t, "n_list": sizes}
    _start(args, "convergence", echo)
    entries = []
    if args.model in ("cw-action", "cw-velocity"):
        point = PlanePoint(args.x, args.t)
        limit = hj_limit.lax_action(point, branch="plus")
        target = limit.phi if args.model == "cw-action" else limit.u
        for n in sizes:
            fields = cw_exact.exact_fields(point, n)
            value = fields.phi if args.model == "cw-action" else fields.u
            entries.append({"n": n, "error": abs(value - target)})
        errors = [e["error"] for e in entries]
    else:
        if args.samples is None or args.seed is None:
            raise ValueError("sk-identities convergence requires --samples and --seed")
        echo.update(beta_h=args.beta_h, samples=args.samples, seed=args.seed)
        params = SkParams(args.x, args.t, args.beta_h)
        for n in sizes:
            m = sk_finite.sk_identity_residuals(params, n, args.samples, args.seed)
            entries.append({"n": n, "p4": m.poly_p4, "p4_std_error": m.std_errors[5],
                            "error": abs(m.poly_p4)})
        errors = [e["error"] for e in entries]

    if any(err == 0.0 for err in errors):
        raise ValueError("zero error in the sequence makes the log-log fit undefined")
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    ratios = [b / a for a, b in zip(errors, errors[1:])]

    record = _record("convergence", echo)
    record.update(converged=True, entries=entries, slope=slope, ratios=ratios)
    return record


# ------------------------------------------------------------------- parser

def _add_plane_flags(parser, with_x=True):
    if with_x:
        parser.add_argument("--x", type=float, required=True, help="cavity-strength coordinate")
    parser.add_argument("--t", type=float, required=True, help="interaction-strength coordinate")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinflow",
                     description="mean-field spin thermodynamics as plane mechanics")
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)

    cw = top.add_parser("cw", help="ferromagnetic model commands")
    cw_sub = cw.add_subparsers(dest="subcommand", required=True)

    q = cw_sub.add_parser("exact", help="finite-size action, velocity and moments")
    _add_plane_flags(q)
    q.add_argument("--n", type=int, required=True, help="system size")
    q.add_argument("--k-max", type=int, default=4, help="number of moments (>= 4)")
    q.set_defaults(handler=_cmd_cw_exact)

    q = cw_sub.add_parser("limit", help="variational limit solution")
    _add_plane_flags(q)
    q.add_argument("--branch", choices=["plus", "minus"], default="plus",
                   help="branch selector on the shock line")
    q.set_defaults(handler=_cmd_cw_limit)

    q = cw_sub.add_parser("shock", help="velocity jump across the shock line")
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(handler=_cmd_cw_shock)

    q = cw_sub.add_parser("critical-line", help="boundary of the characteristic-crossing region")
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(handler=_cmd_cw_critical_line)

    q = cw_sub.add_parser("identities", help="finite-size conservation residuals")
    _add_plane_flags(q)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(handler=_cmd_cw_identities)

    sk = top.add_parser("sk", help="glassy model commands")
    sk_sub = sk.add_subparsers(dest="subcommand", required=True)

    q = sk_sub.add_parser("rs", help="self-consistent action and overlap")
    _add_plane_flags(q)
    q.add_argument("--beta-h", type=float, default=0.0, help="external field combination")
    q.set_defaults(handler=_cmd_sk_rs)

    q = sk_sub.add_parser("caustic", help="characteristic-crossing stability margin")
    _add_plane_flags(q)
    q.add_argument("--beta-h", type=float, default=0.0)
    q.set_defaults(handler=_cmd_sk_caustic)

    q = sk_sub.add_parser("finite", help="quenched overlap moments and identity polynomials")
    _add_plane_flags(q)
    q.add_argument("--beta-h", type=float, default=0.0)
    q.add_argument("--n", type=int, required=True, help="site count (<= 14)")
    q.add_argument("--samples", type=int, required=True, help="number of disorder samples")
    q.add_argument("--seed", type=int, required=True, help="stream seed (no clock seeding)")
    q.set_defaults(handler=_cmd_sk_finite)

    q = top.add_parser("sweep", help="rectangular grid evaluation, one row per point")
    q.add_argument("--model", choices=["cw", "sk-rs", "sk-finite"], required=True)
    q.add_argument("--quantity", required=True,
                   help="cw: limit|exact|identities|shock|critical-line;"
                        " sk-rs: rs|caustic; sk-finite: identities")
    q.add_argument("--x-min", type=float, default=0.0)
    q.add_argument("--x-max", type=float, default=0.0)
    q.add_argument("--n-x", type=int, default=1)
    q.add_argument("--t-min", type=float, required=True)
    q.add_argument("--t-max", type=float, required=True)
    q.add_argument("--n-t", type=int, required=True)
    q.add_argument("--beta-h", type=float, default=0.0)
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--samples", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--branch", choices=["plus", "minus"], default="plus")
    q.add_argument("--format", choices=["json", "csv"], default="json")
    q.add_argument("--out", default=None, help="output path (default: standard output)")
    q.set_defaults(handler=_cmd_sweep, raw=True)

    q = top.add_parser("convergence", help="error decay against the limit solver")
    q.add_argument("--model", choices=["cw-action", "cw-velocity", "sk-identities"],
                   required=True)
    _add_plane_flags(q)
    q.add_argument("--beta-h", type=float, default=0.0)
    q.add_argument("--n-list", required=True, help="strictly increasing sizes, e.g. 50,100,200")
    q.add_argument("--samples", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.set_defaults(handler=_cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_path = getattr(args, "out", None)
    try:
        result = args.handler(args)
        if not getattr(args, "raw", False):
            _require_finite(result)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as err:
        record = getattr(args, "partial_record", None) or _record(args.command, {})
        record.update(converged=False, error=str(err))
        _emit(record, out_path)
        return 3
    if getattr(args, "raw", False):
        return result or 0
    _emit(result, out_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
