"""Command-line front end: point queries, sweeps, convergence reports.

Each quantity has one evaluator, ``(points, flags) -> one result or
error per point``, around one library call.  A point query echoes its
flags and adds the evaluator's fields at one plane point; a sweep hands
the same evaluator its whole grid, one row per point, so that the
replica-symmetric quantities solve the grid's fixed points in lockstep;
a convergence report calls it at one point per size of a ladder, except
that the SK identity ladder is one call that draws each disorder sample
once for all sizes.  Every
command emits a machine-readable record: JSON for point queries and
convergence reports, JSON or CSV for sweeps.
Output is deterministic byte for byte at fixed inputs, whatever the
BLAS thread count: floats are serialized with repr round-tripping in
JSON and 17 significant digits in CSV, rows are ordered t-major, and
nothing is seeded from the clock.
Sweep rows are flat, one scalar per column.  A row keeps only the
evaluator's fields, read in column order by one itemgetter and checked
finite; its t, x and echo cells are formatted once per sweep, by grid
position.  One writer fills a template built per sweep with those cells
and the row's fields, formatting only the fields, so its JSON is byte
for byte that of ``json.dumps(rows, indent=2)``, whose pure-Python
encoder would walk every row.  Point records and reports nest, and go
through ``json.dumps`` with ``allow_nan=False`` after a recursive finite
check.

Importing this module executes no library module: a command reaches each
through the package at call time, so it runs only its own route.

Exit codes: 0 success, 2 validation failure (one-line diagnostic on
stderr), 3 numerical non-convergence (partial record still emitted,
marked converged: false).  A result with a non-finite number is such a
failure: no computed NaN or infinity is ever written.  A CSV cell with
no value, JSON's null (the fields of a failed row, the pressure off
x = 0), is written as the placeholder nan.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import operator
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

import spinflow
from .plane import ConvergenceError, PlanePoint, QuadratureError, SkParams

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


def _output(path):
    """Standard output, or `path` opened for writing; an unwritable path is invalid input."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as err:
        raise ValueError(f"cannot write --out {path}: {err.strerror}") from None


def _json_cell(value) -> str:
    # the scalars of json's own encoder; any other type raises TypeError, as there
    if isinstance(value, float):
        return float.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return encode_basestring_ascii(value)


def _write_rows(stream, columns, axes, rows, fmt: str) -> None:
    """Write a grid's rows under `columns` as JSON or CSV.

    A row's leading cells are its point of the product of `axes`, the value
    lists of the leading columns, last axis fastest; each of `rows` holds
    the row's other cells.  Each axis value is formatted once, at its
    position, never looked up by value: ``-0.0 == 0.0``.  The JSON is
    ``json.dumps`` of the rows as dicts with ``indent=2``, byte for byte,
    from one ``%`` template for the whole grid: with ``indent``, ``json``
    itself walks every row in pure Python.  The cells must hold finite
    floats only.  The text goes out a row at a time through ``writelines``,
    so that no copy of the whole text is held, nor encoded again by a file.
    """
    cell = _csv_cell if fmt == "csv" else _json_cell
    grid = zip(itertools.product(*[list(map(cell, axis)) for axis in axes]), rows)
    if fmt == "csv":
        template = ",".join(["%s"] * len(columns)) + "\n"
        lines = (template % (*point, *map(cell, row)) for point, row in grid)
        stream.write(",".join(columns) + "\n")
        separator, end = "", ""
    else:
        template = "  {\n" + ",\n".join(
            f"    {encode_basestring_ascii(c).replace('%', '%%')}: %s" for c in columns) + "\n  }"
        # "%s" writes a float as its repr; a subclass (a numpy scalar) may write otherwise
        lines = (template % (*point, *[v if type(v) is float else cell(v) for v in row])
                 for point, row in grid)
        stream.write("[\n" if rows else "[]\n")
        separator, end = ",\n", "\n]\n" if rows else ""
    # the separator goes before every row after the first
    stream.writelines(separator + line if i else line for i, line in enumerate(lines))
    stream.write(end)


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
# An evaluator takes a list of (x, t) points and a mapping of flag names to
# values, and returns one field dict, or the input or numerical error, per
# point.  Library calls stay attribute lookups at call time, so a patched
# module attribute reaches every command.

def _attempt(evaluate, *args):
    """``evaluate(*args)``, or the input or numerical error it raises."""
    try:
        return evaluate(*args)
    except (ValueError, *_NUMERICAL_ERRORS) as err:
        return err


def _pointwise(fields):
    """The evaluator of a quantity that ``fields(x, t, flags)`` gives one point at a time."""
    return lambda points, flags: [_attempt(fields, x, t, flags) for x, t in points]


def _at(evaluator, x, t, flags) -> dict:
    """The evaluator's fields at one point; its error is raised."""
    (fields,) = evaluator([(x, t)], flags)
    if isinstance(fields, Exception):
        raise fields
    return fields


@_pointwise
def _cw_exact(x, t, flags):
    fields = spinflow.cw_exact.exact_fields(PlanePoint(x, t), flags["n"])
    return {"phi": fields.phi, "u": fields.u, "potential": fields.potential,
            "moments": list(fields.moments)}


@_pointwise
def _cw_limit(x, t, flags):
    sol = spinflow.hj_limit.lax_action(PlanePoint(x, t), branch=flags["branch"])
    return {"phi": sol.phi, "u": sol.u, "y_star": sol.y_star, "on_shock": sol.on_shock,
            "branch": sol.branch}


@_pointwise
def _cw_shock(x, t, flags):
    u_minus, u_plus = spinflow.hj_limit.shock_jump(t)
    return {"u_minus": u_minus, "u_plus": u_plus}


@_pointwise
def _cw_critical_line(x, t, flags):
    return {"x_c": spinflow.hj_limit.critical_line(t)}


@_pointwise
def _cw_identities(x, t, flags):
    r1, r2, r3 = spinflow.cw_exact.conservation_residuals(PlanePoint(x, t), flags["n"])
    return {"r1": r1, "r2": r2, "r3": r3}


def _sk_lockstep(solve, points, flags) -> list:
    # one call of the lockstep ``solve`` on the points that make valid parameters
    params = [_attempt(SkParams, x, t, flags["beta_h"]) for x, t in points]
    solved = iter(solve([p for p in params if isinstance(p, SkParams)]))
    return [next(solved) if isinstance(p, SkParams) else p for p in params]


def _sk_rs(points, flags):
    return [sol if isinstance(sol, Exception) else
            {"q_bar": sol.q_bar, "u": sol.u, "phi_rs": sol.phi_rs, "pressure": sol.pressure,
             "caustic_margin": sol.caustic_margin, "y_star": sol.y_star}
            for sol in _sk_lockstep(spinflow.sk_rs.rs_actions, points, flags)]


def _sk_caustic(points, flags):
    return [margin if isinstance(margin, Exception) else {"margin": margin}
            for margin in _sk_lockstep(spinflow.sk_rs.caustic_margins, points, flags)]


_OVERLAP_NAMES = ("q1", "q2", "p1", "p2", "p3", "p4")


@_pointwise
def _sk_finite(x, t, flags):
    m = spinflow.sk_finite.quenched_overlap_moments(SkParams(x, t, flags["beta_h"]),
                                                    flags["n"], flags["samples"], flags["seed"])
    return {"q1": m.q1, "q2": m.q2, "poly_p1": m.poly_p1, "poly_p2": m.poly_p2,
            "poly_p3": m.poly_p3, "poly_p4": m.poly_p4, "std_errors": list(m.std_errors),
            "v_n": m.v_n, "v_n_std_error": m.v_n_std_error}


def _flat_overlaps(fields):
    # sweep rows are flat: poly_pk becomes pk, and each moment gets a std-error column
    for name in _OVERLAP_NAMES[2:]:
        fields[name] = fields.pop(f"poly_{name}")
    for name, error in zip(_OVERLAP_NAMES, fields.pop("std_errors")):
        fields[f"{name}_std_error"] = error
    return fields


def _sk_finite_flat(points, flags):
    return [fields if isinstance(fields, Exception) else _flat_overlaps(fields)
            for fields in _sk_finite(points, flags)]


# ------------------------------------------------------------- point queries

# the flags of the point queries, each declared once; sweeps and convergence
# reports take some of them too.  A flag without a default is required by
# the point queries that take it.
_FLAGS = {
    "x": dict(type=float, help="cavity-strength coordinate"),
    "t": dict(type=float, help="interaction-strength coordinate"),
    "beta_h": dict(type=float, default=0.0, help="external field combination"),
    "n": dict(type=int, help="system size (<= 14 for sk finite)"),
    "branch": dict(choices=["plus", "minus"], default="plus",
                   help="branch selector on the shock line"),
    "samples": dict(type=int, help="number of disorder samples"),
    "seed": dict(type=int, help="stream seed (no clock seeding)"),
}

# point command -> (help, evaluator, flags in echo order)
_POINTS = {
    "cw exact": ("finite-size action, velocity and moments", _cw_exact, ("x", "t", "n")),
    "cw limit": ("variational limit solution", _cw_limit, ("x", "t", "branch")),
    "cw shock": ("velocity jump across the shock line", _cw_shock, ("t",)),
    "cw critical-line": ("boundary of the characteristic-crossing region", _cw_critical_line,
                         ("t",)),
    "cw identities": ("finite-size conservation residuals", _cw_identities, ("x", "t", "n")),
    "sk rs": ("self-consistent action and overlap", _sk_rs, ("x", "t", "beta_h")),
    "sk caustic": ("characteristic-crossing stability margin", _sk_caustic,
                   ("x", "t", "beta_h")),
    "sk finite": ("quenched overlap moments and identity polynomials", _sk_finite,
                  ("x", "t", "beta_h", "n", "samples", "seed")),
}
_GROUPS = {"cw": "ferromagnetic model commands", "sk": "glassy model commands"}


def _report(command: str, echo: dict, evaluate) -> int:
    """Emit the echo and the fields of ``evaluate()`` as one record.

    On a numerical failure the record keeps its echo, is marked
    converged: false with the error, and the exit code is 3.
    """
    record = {"command": command, "version": spinflow.__version__, "input": echo}
    try:
        result = {**record, "converged": True, **evaluate()}
        _require_finite(result)
    except _NUMERICAL_ERRORS as err:
        result = {**record, "converged": False, "error": str(err)}
    sys.stdout.write(json.dumps(result, indent=2, allow_nan=False) + "\n")
    return 0 if result["converged"] else 3


def _cmd_point(command, evaluator, flags, args) -> int:
    echo = {flag: getattr(args, flag) for flag in flags}
    return _report(command, echo, lambda: _at(evaluator, echo.get("x"), echo["t"], echo))


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
# the flags a sweep shares with the point queries, all optional there
_SWEEP_FLAGS = (*_SWEEP_ECHO.values(), "branch")


# points per sweep: its rows are Python objects held until they are written, then
# go out one at a time.  Written to a file, a sweep's traced heap peaks at
# 0.34-1.3 kB a point (tracemalloc, 64 x 64 on x in [-1, 1], t in [0.1, 2]: cw limit
# 339 B in JSON and in CSV, the rows themselves; sk-rs rs 1 190 B in JSON and 1 283 B
# in CSV, which its lockstep solve sets)
_MAX_SWEEP_POINTS = 1 << 20


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
    values = np.linspace(lo, hi, count).tolist()
    # linspace forms its first value as 0 * step + lo, which drops the sign of lo = -0.0;
    # its last value is hi itself
    values[0] = lo
    return values


def _cmd_sweep(args) -> int:
    key = (args.model, args.quantity)
    if key not in _SWEEP_TABLE:
        allowed = sorted(q for (m, q) in _SWEEP_TABLE if m == args.model)
        raise ValueError(
            f"quantity {args.quantity!r} not available for model {args.model!r};"
            f" choose from {allowed}")
    evaluator, columns = _SWEEP_TABLE[key]
    flags = vars(args)
    echo = {column: flags[flag] for column, flag in _SWEEP_ECHO.items()}
    # the point query's own library checks, run once before the first row, since every
    # row would fail them alike
    check = {}
    if args.model == "cw" and "n" in columns:
        check = {"n": spinflow.cw_exact._check_spins}
    elif args.model == "sk-finite":
        check = {"n": spinflow.sk_finite._check_site_count,
                 "n_samples": spinflow.sk_finite._check_sample_count,
                 "seed": functools.partial(spinflow.sk_finite._check_key, "seed")}
    for column, flag in _SWEEP_ECHO.items():
        value = echo[column]
        if column not in columns:
            continue
        if value is None:
            raise ValueError(
                f"sweep {args.model}/{args.quantity} requires --{flag.replace('_', '-')}")
        # the point query's refusal, before a row is written
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{column} must be finite, got {value}")
        if column in check:
            check[column](value)
    if args.t_min < 0:
        raise ValueError(f"t_min must be >= 0, got {args.t_min}")
    n_x = args.n_x if "x" in columns else 1
    if args.n_t * n_x > _MAX_SWEEP_POINTS:
        raise ValueError(f"a sweep takes at most 2^20 points, got n_t={args.n_t} by n_x={n_x}")
    ts = _axis(args.t_min, args.t_max, args.n_t, "n_t")
    xs = _axis(args.x_min, args.x_max, args.n_x, "n_x") if "x" in columns else [None]

    # the leading columns are the axes and the echoed flags, all finite by now; then come
    # the evaluator's fields in column order, then "converged"
    axes = {"t": ts, "x": xs, **{column: [value] for column, value in echo.items()}}
    lead = [column for column in columns if column in axes]
    names = columns[len(lead):-1]
    pick = operator.itemgetter(*names)
    if len(names) == 1:  # an itemgetter of one key returns the bare value
        pick = lambda fields, one=pick: (one(fields),)
    failed = (None,) * len(names) + (False,)

    # opened before any row is evaluated, so that a bad --out fails at once
    with _output(args.out) as stream:
        rows, converged = [], True
        for fields in evaluator([(x, t) for t in ts for x in xs], flags):
            if not isinstance(fields, Exception):
                values = pick(fields)
                if all(math.isfinite(v) for v in values if isinstance(v, float)):
                    rows.append((*values, True))
                    continue
            converged = False
            rows.append(failed)
        _write_rows(stream, columns, [axes[column] for column in lead], rows, args.format)
    return 0 if converged else 3


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


def _convergence(echo):
    x, t, sizes = echo["x"], echo["t"], echo["n_list"]
    if echo["model"] == "sk-identities":
        ladder = spinflow.sk_finite.quenched_overlap_ladder(SkParams(x, t, echo["beta_h"]),
                                                            sizes, echo["samples"], echo["seed"])
        entries = [{"n": n, "p4": m.poly_p4, "p4_std_error": m.std_errors[5],
                    "error": abs(m.poly_p4)} for n, m in zip(sizes, ladder)]
    else:
        field = "phi" if echo["model"] == "cw-action" else "u"
        target = _at(_cw_limit, x, t, {"branch": "plus"})[field]
        entries = [{"n": n, "error": abs(_at(_cw_exact, x, t, {"n": n})[field] - target)}
                   for n in sizes]
    errors = [e["error"] for e in entries]

    if any(err == 0.0 for err in errors):
        raise ValueError("zero error in the sequence makes the log-log fit undefined")
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    return {"entries": entries, "slope": slope, "ratios": ratios}


def _cmd_convergence(args) -> int:
    echo = {"model": args.model, "x": args.x, "t": args.t, "n_list": _parse_n_list(args.n_list)}
    if args.model == "sk-identities":
        if args.samples is None or args.seed is None:
            raise ValueError("sk-identities convergence requires --samples and --seed")
        echo.update(beta_h=args.beta_h, samples=args.samples, seed=args.seed)
    return _report("convergence", echo, lambda: _convergence(echo))


# ------------------------------------------------------------------- parser

def _add_flags(parser, names, optional=False):
    for name in names:
        spec = _FLAGS[name]
        parser.add_argument("--" + name.replace("_", "-"),
                            required=not optional and "default" not in spec, **spec)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinflow",
                     description="mean-field spin thermodynamics as plane mechanics")
    parser.add_argument("--version", action="version", version=spinflow.__version__)
    top = parser.add_subparsers(dest="command", required=True)

    groups = {group: top.add_parser(group, help=text).add_subparsers(dest="subcommand",
                                                                     required=True)
              for group, text in _GROUPS.items()}
    for command, (text, evaluator, flags) in _POINTS.items():
        group, name = command.split()
        q = groups[group].add_parser(name, help=text)
        _add_flags(q, flags)
        q.set_defaults(handler=functools.partial(_cmd_point, command, evaluator, flags))

    q = top.add_parser("sweep", help="rectangular grid evaluation, one row per point")
    q.add_argument("--model", choices=_SWEEP_MODELS, required=True)
    q.add_argument("--quantity", required=True, help=_QUANTITY_HELP)
    q.add_argument("--x-min", type=float, default=0.0)
    q.add_argument("--x-max", type=float, default=0.0)
    q.add_argument("--n-x", type=int, default=1)
    q.add_argument("--t-min", type=float, required=True)
    q.add_argument("--t-max", type=float, required=True)
    q.add_argument("--n-t", type=int, required=True)
    _add_flags(q, _SWEEP_FLAGS, optional=True)
    q.add_argument("--format", choices=["json", "csv"], default="json")
    q.add_argument("--out", default=None, help="output path (default: standard output)")
    q.set_defaults(handler=_cmd_sweep)

    q = top.add_parser("convergence", help="error decay against the limit solver")
    q.add_argument("--model", choices=["cw-action", "cw-velocity", "sk-identities"],
                   required=True)
    _add_flags(q, ("x", "t", "beta_h"))
    q.add_argument("--n-list", required=True, help="strictly increasing sizes, e.g. 50,100,200")
    _add_flags(q, ("samples", "seed"), optional=True)
    q.set_defaults(handler=_cmd_convergence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
