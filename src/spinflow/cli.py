"""Command-line front end: point queries, sweeps, convergence reports.

Each quantity has one evaluator, ``(x, t, args) -> result fields``,
around one library call.  A point query echoes its flags and adds the
evaluator's fields at one plane point; a sweep calls the same evaluator
on a grid, one row per point; a convergence report calls it along a
ladder of sizes.  Every command emits a machine-readable record: JSON
for point queries and convergence reports, JSON or CSV for sweeps.
Output is deterministic byte for byte at fixed inputs: floats are
serialized with repr round-tripping in JSON and 17 significant digits
in CSV, rows are ordered t-major, and nothing is seeded from the clock.

Exit codes: 0 success, 2 validation failure (one-line diagnostic on
stderr), 3 numerical non-convergence (partial record still emitted,
marked converged: false).  A result with a non-finite number is such a
failure: no NaN or infinity is ever written.
"""

from __future__ import annotations

import argparse
import functools
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


def _start(args, command: str, echo: dict) -> dict:
    # stashed on the namespace so a numerical failure can still emit the echo;
    # a copy, so the results a handler adds to its record stay out of it
    record = {"command": command, "version": __version__, "input": echo}
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


# ------------------------------------------------------------------ evaluators
# Library calls stay attribute lookups at call time, so a patched module
# attribute reaches every command.

def _cw_exact(x, t, args):
    fields = cw_exact.exact_fields(PlanePoint(x, t), args.n, k_max=args.k_max)
    return {"phi": fields.phi, "u": fields.u, "potential": fields.potential,
            "moments": list(fields.moments)}


def _cw_limit(x, t, args):
    sol = hj_limit.lax_action(PlanePoint(x, t), branch=args.branch)
    return {"phi": sol.phi, "u": sol.u, "y_star": sol.y_star, "on_shock": sol.on_shock,
            "branch": sol.branch}


def _cw_shock(x, t, args):
    u_minus, u_plus = hj_limit.shock_jump(t)
    return {"u_minus": u_minus, "u_plus": u_plus}


def _cw_critical_line(x, t, args):
    return {"x_c": hj_limit.critical_line(t)}


def _cw_identities(x, t, args):
    r1, r2, r3 = cw_exact.conservation_residuals(PlanePoint(x, t), args.n)
    return {"r1": r1, "r2": r2, "r3": r3}


def _sk_rs(x, t, args):
    sol = sk_rs.rs_action(SkParams(x, t, args.beta_h))
    return {"q_bar": sol.q_bar, "u": sol.u, "phi_rs": sol.phi_rs, "pressure": sol.pressure,
            "caustic_margin": sol.caustic_margin, "y_star": sol.y_star}


def _sk_caustic(x, t, args):
    return {"margin": sk_rs.caustic_margin(SkParams(x, t, args.beta_h))}


_OVERLAP_NAMES = ("q1", "q2", "p1", "p2", "p3", "p4")


def _sk_finite(x, t, args):
    m = sk_finite.quenched_overlap_moments(SkParams(x, t, args.beta_h),
                                           args.n, args.samples, args.seed)
    return {"q1": m.q1, "q2": m.q2, "poly_p1": m.poly_p1, "poly_p2": m.poly_p2,
            "poly_p3": m.poly_p3, "poly_p4": m.poly_p4, "std_errors": list(m.std_errors),
            "v_n": m.v_n, "v_n_std_error": m.v_n_std_error}


def _sk_finite_flat(x, t, args):
    # sweep rows are flat: poly_pk becomes pk, and each moment gets a std-error column
    fields = _sk_finite(x, t, args)
    for name in _OVERLAP_NAMES[2:]:
        fields[name] = fields.pop(f"poly_{name}")
    for name, error in zip(_OVERLAP_NAMES, fields.pop("std_errors")):
        fields[f"{name}_std_error"] = error
    return fields


# ---------------------------------------------------------------- point queries

# namespace entries that are not flags of a point subcommand
_NOT_ECHOED = ("command", "subcommand", "handler", "evaluator")


def _cmd_point(args):
    # argparse sets every flag of the subcommand, in the order they were added
    echo = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    record = _start(args, f"{args.command} {args.subcommand}", echo)
    record.update(converged=True, **args.evaluator(getattr(args, "x", None), args.t, args))
    return record


# --------------------------------------------------------------------- sweeps

# (model, quantity) -> (evaluator, columns); quantities without an "x" column
# are evaluated once per t
_SWEEP_TABLE = {
    ("cw", "limit"): (_cw_limit, ["t", "x", "phi", "u", "y_star", "on_shock", "converged"]),
    ("cw", "exact"): (_cw_exact, ["t", "x", "n", "phi", "u", "potential", "converged"]),
    ("cw", "identities"): (_cw_identities, ["t", "x", "n", "r1", "r2", "r3", "converged"]),
    ("cw", "shock"): (_cw_shock, ["t", "u_minus", "u_plus", "converged"]),
    ("cw", "critical-line"): (_cw_critical_line, ["t", "x_c", "converged"]),
    ("sk-rs", "rs"): (_sk_rs, ["t", "x", "beta_h", "q_bar", "phi_rs", "caustic_margin",
                               "y_star", "pressure", "converged"]),
    ("sk-rs", "caustic"): (_sk_caustic, ["t", "x", "beta_h", "margin", "converged"]),
    ("sk-finite", "identities"): (_sk_finite_flat,
                                  ["t", "x", "beta_h", "n", "n_samples", "seed",
                                   "q1", "q1_std_error", "q2", "q2_std_error",
                                   "p1", "p1_std_error", "p2", "p2_std_error",
                                   "p3", "p3_std_error", "p4", "p4_std_error",
                                   "v_n", "v_n_std_error", "converged"]),
}
_SWEEP_MODELS = list(dict.fromkeys(model for model, _ in _SWEEP_TABLE))
_QUANTITY_HELP = "; ".join(f"{model}: " + "|".join(q for m, q in _SWEEP_TABLE if m == model)
                           for model in _SWEEP_MODELS)

# echo column -> the flag it repeats; a sweep writing such a column needs
# the flag before it starts (exit 2), and a failed row keeps it
_SWEEP_ECHO = {"beta_h": "beta_h", "n": "n", "n_samples": "samples", "seed": "seed"}


def _axis(lo: float, hi: float, count: int, name: str):
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} range must be finite")
    if count == 1:
        return [lo]
    if not math.isfinite(hi - lo):
        raise ValueError(f"{name} range spans more than the largest float")
    # Python floats: numpy scalars would turn an overflow downstream into a warning
    return np.linspace(lo, hi, count).tolist()


def _cmd_sweep(args):
    key = (args.model, args.quantity)
    if key not in _SWEEP_TABLE:
        allowed = sorted(q for (m, q) in _SWEEP_TABLE if m == args.model)
        raise ValueError(
            f"quantity {args.quantity!r} not available for model {args.model!r};"
            f" choose from {allowed}")
    evaluator, columns = _SWEEP_TABLE[key]
    echo = {column: getattr(args, flag) for column, flag in _SWEEP_ECHO.items()}
    for column, flag in _SWEEP_ECHO.items():
        value = echo[column]
        if column in columns and value is None:
            raise ValueError(
                f"sweep {args.model}/{args.quantity} requires --{flag.replace('_', '-')}")
        # the point query's refusal, before a row is written
        if column in columns and isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{column} must be finite, got {value}")
    if args.t_min < 0:
        raise ValueError(f"t_min must be >= 0, got {args.t_min}")
    ts = _axis(args.t_min, args.t_max, args.n_t, "n_t")
    xs = _axis(args.x_min, args.x_max, args.n_x, "n_x") if "x" in columns else [None]

    def keep(row):
        return {c: row.get(c) for c in columns}

    rows = []
    for t in ts:
        for x in xs:
            point = {"t": t, "x": x, **echo}
            try:
                row = keep({**point, **evaluator(x, t, args), "converged": True})
                _require_finite(row)
            except (ValueError, *_NUMERICAL_ERRORS):
                row = keep({**point, "converged": False})
            rows.append(row)

    _emit(rows, args.out, as_csv=args.format == "csv", columns=columns)
    return None if all(row["converged"] for row in rows) else 3


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
    record = _start(args, "convergence", echo)
    entries = []
    if args.model in ("cw-action", "cw-velocity"):
        field = "phi" if args.model == "cw-action" else "u"
        target = _cw_limit(args.x, args.t, argparse.Namespace(branch="plus"))[field]
        for n in sizes:
            value = _cw_exact(args.x, args.t, argparse.Namespace(n=n, k_max=4))[field]
            entries.append({"n": n, "error": abs(value - target)})
    else:
        if args.samples is None or args.seed is None:
            raise ValueError("sk-identities convergence requires --samples and --seed")
        echo.update(beta_h=args.beta_h, samples=args.samples, seed=args.seed)
        for n in sizes:
            m = _sk_finite(args.x, args.t, argparse.Namespace(
                beta_h=args.beta_h, n=n, samples=args.samples, seed=args.seed))
            entries.append({"n": n, "p4": m["poly_p4"], "p4_std_error": m["std_errors"][5],
                            "error": abs(m["poly_p4"])})
    errors = [e["error"] for e in entries]

    if any(err == 0.0 for err in errors):
        raise ValueError("zero error in the sequence makes the log-log fit undefined")
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    record.update(converged=True, entries=entries, slope=slope, ratios=ratios)
    return record


# ------------------------------------------------------------------- parser

def _add_plane_flags(parser, with_x=True):
    if with_x:
        parser.add_argument("--x", type=float, required=True, help="cavity-strength coordinate")
    parser.add_argument("--t", type=float, required=True, help="interaction-strength coordinate")


@functools.cache
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
    q.set_defaults(handler=_cmd_point, evaluator=_cw_exact)

    q = cw_sub.add_parser("limit", help="variational limit solution")
    _add_plane_flags(q)
    q.add_argument("--branch", choices=["plus", "minus"], default="plus",
                   help="branch selector on the shock line")
    q.set_defaults(handler=_cmd_point, evaluator=_cw_limit)

    q = cw_sub.add_parser("shock", help="velocity jump across the shock line")
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(handler=_cmd_point, evaluator=_cw_shock)

    q = cw_sub.add_parser("critical-line", help="boundary of the characteristic-crossing region")
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(handler=_cmd_point, evaluator=_cw_critical_line)

    q = cw_sub.add_parser("identities", help="finite-size conservation residuals")
    _add_plane_flags(q)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(handler=_cmd_point, evaluator=_cw_identities)

    sk = top.add_parser("sk", help="glassy model commands")
    sk_sub = sk.add_subparsers(dest="subcommand", required=True)

    q = sk_sub.add_parser("rs", help="self-consistent action and overlap")
    _add_plane_flags(q)
    q.add_argument("--beta-h", type=float, default=0.0, help="external field combination")
    q.set_defaults(handler=_cmd_point, evaluator=_sk_rs)

    q = sk_sub.add_parser("caustic", help="characteristic-crossing stability margin")
    _add_plane_flags(q)
    q.add_argument("--beta-h", type=float, default=0.0)
    q.set_defaults(handler=_cmd_point, evaluator=_sk_caustic)

    q = sk_sub.add_parser("finite", help="quenched overlap moments and identity polynomials")
    _add_plane_flags(q)
    q.add_argument("--beta-h", type=float, default=0.0)
    q.add_argument("--n", type=int, required=True, help="site count (<= 14)")
    q.add_argument("--samples", type=int, required=True, help="number of disorder samples")
    q.add_argument("--seed", type=int, required=True, help="stream seed (no clock seeding)")
    q.set_defaults(handler=_cmd_point, evaluator=_sk_finite)

    q = top.add_parser("sweep", help="rectangular grid evaluation, one row per point")
    q.add_argument("--model", choices=_SWEEP_MODELS, required=True)
    q.add_argument("--quantity", required=True, help=_QUANTITY_HELP)
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
    # no --k-max: exact rows carry the four moments the identities need
    q.set_defaults(handler=_cmd_sweep, raw=True, k_max=4)

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
        record = args.partial_record
        record.update(converged=False, error=str(err))
        _emit(record, out_path)
        return 3
    if getattr(args, "raw", False):
        return result or 0
    _emit(result, out_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
