"""Span tracing around the public functions of each spinflow layer.

The tracer replaces module attributes with wrappers, so every call that goes
through the attribute (from the command line, from another module, or from
the benchmark) records one span: name, start, end, parent span and pass id.
Spans are kept in flat in-memory columns and written out when the run ends.

A layer's self time is its spans' durations minus the time their child spans
cover, because calls nest (``rs_action -> solve_qbar -> gaussian_expectation``).
The counters below count calls across these public functions only: a later
version that stops calling through one of them reads 0 there, and the report
marks such a metric as "not called" rather than as a measurement.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

from workloads import is_near_critical


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sectors(args, kwargs):
    return 1.0, _arg(args, kwargs, 1, "n") + 1.0


def _samples(args, kwargs):
    return _arg(args, kwargs, 2, "n_samples"), 2.0 ** _arg(args, kwargs, 1, "n")


def _near_critical(args, kwargs):
    p = _arg(args, kwargs, 0, "params")
    return float(is_near_critical(p.x, p.t, p.beta_h)), 0.0


# (module, attribute, layer, (work, size) recorded with the span)
TRACED = (
    ("spinflow.cli", "main", "cli", None),
    ("spinflow.cw_exact", "exact_fields", "cw_exact", _sectors),
    ("spinflow.hj_limit", "viscous_action", "hj_limit", None),
    ("spinflow.hj_limit", "viscous_velocity", "hj_limit", None),
    ("spinflow.hj_limit", "lax_action", "hj_limit", None),
    ("spinflow.hj_limit", "self_consistent_magnetization", "hj_limit", None),
    ("spinflow.sk_rs", "rs_action", "sk_rs", None),
    ("spinflow.sk_rs", "caustic_margin", "sk_rs", None),
    ("spinflow.sk_rs", "caustic_root", "sk_rs", None),
    ("spinflow.sk_rs", "solve_qbar", "sk_rs", _near_critical),
    ("spinflow.sk_rs", "gaussian_expectation", "sk_rs", None),
    ("spinflow.sk_finite", "quenched_overlap_moments", "sk_finite", _samples),
    ("spinflow.sk_finite", "draw_disorder", "sk_finite", None),
    ("spinflow.sk_finite", "GibbsCorrelators", "sk_finite", None),
)
LAYERS = ("cli", "cw_exact", "hj_limit", "sk_rs", "sk_finite")
NAMES = tuple(f"{module.rsplit('.', 1)[1]}.{attr}" for module, attr, _, _ in TRACED)

_QUAD = ("hj_limit.viscous_action", "hj_limit.viscous_velocity")
_ROOTS = ("hj_limit.lax_action", "hj_limit.self_consistent_magnetization")
# the traced functions behind each per-layer metric; with no calls to any of
# them on a workload, the metric's 0 is not a measurement
METRIC_SOURCES = {
    "cli.calls": ("cli.main",),
    "cli.self_s": ("cli.main",),
    "cw_exact.calls": ("cw_exact.exact_fields",),
    "cw_exact.busy_s": ("cw_exact.exact_fields",),
    "cw_exact.sectors_per_s": ("cw_exact.exact_fields",),
    "hj_limit.quad.calls": _QUAD,
    "hj_limit.quad.busy_s": _QUAD,
    "hj_limit.roots.calls": _ROOTS,
    "hj_limit.roots.busy_s": _ROOTS,
    "hj_limit.failed": _QUAD + _ROOTS,
    "sk_rs.solves": ("sk_rs.solve_qbar",),
    "sk_rs.solve_busy_s": ("sk_rs.solve_qbar",),
    "sk_rs.busy_s": tuple(n for n in NAMES if n.startswith("sk_rs.")),
    "sk_rs.gh_evals": ("sk_rs.gaussian_expectation",),
    "sk_rs.gh_evals_per_solve.near_critical": ("sk_rs.solve_qbar",),
    "sk_rs.gh_evals_per_solve.generic": ("sk_rs.solve_qbar",),
    "sk_rs.caustic_root.busy_s": ("sk_rs.caustic_root",),
    "sk_rs.caustic_root.gh_evals": ("sk_rs.caustic_root",),
    "sk_rs.failed": tuple(n for n in NAMES if n.startswith("sk_rs.")),
    "sk_finite.samples": ("sk_finite.quenched_overlap_moments",),
    "sk_finite.draw_busy_s": ("sk_finite.draw_disorder",),
    "sk_finite.enumerate_busy_s": ("sk_finite.GibbsCorrelators",),
    "sk_finite.stats_busy_s": ("sk_finite.quenched_overlap_moments",),
    "sk_finite.configs_per_s": ("sk_finite.quenched_overlap_moments",),
}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the attributes."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("q")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.size = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._pass = -1
        self._originals = []

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id

    def _wrap(self, fn, name_id, work):
        clock = time.perf_counter
        stack = self._stack
        name_ids, parents, passes = self.name_id, self.parent, self.pass_id
        starts, ends, raised = self.start, self.end, self.raised
        works, sizes = self.work, self.size

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            passes.append(self._pass)
            amount, size = work(args, kwargs) if work else (0.0, 0.0)
            works.append(amount)
            sizes.append(size)
            raised.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name_id, (module_name, attr, _, work) in enumerate(TRACED):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name_id, work))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def columns(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "pass_id": np.frombuffer(self.pass_id, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "work": np.frombuffer(self.work), "size": np.frombuffer(self.size),
                "raised": np.frombuffer(self.raised, dtype=np.int8)}

    def calls(self, pass_id: int) -> dict:
        """Number of spans of each traced function in one pass."""
        c = self.columns()
        counts = np.bincount(c["name_id"][c["pass_id"] == pass_id], minlength=len(NAMES))
        return dict(zip(NAMES, counts.tolist()))

    def write(self, path) -> None:
        """Write a header line, then one JSON array per span:
        [pass, id, parent, name, start_s, end_s, raised], times from the first span."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["pass", "id", "parent", "name", "start_s",
                                             "end_s", "raised"], "names": NAMES}) + "\n")
            for i, span in enumerate(zip(self.pass_id, self.parent, self.name_id,
                                         self.start, self.end, self.raised)):
                pass_id, parent, name_id, start, end, raised = span
                out.write(f"[{pass_id},{i},{parent},{name_id},{start - origin:.9f},"
                          f"{end - origin:.9f},{raised}]\n")


def _nearest(parent, is_target, index):
    """For each span in ``index``, its nearest ancestor with ``is_target`` (or -1)."""
    cur = parent[index]
    for _ in range(64):
        open_ = (cur >= 0) & ~is_target[np.maximum(cur, 0)]
        if not open_.any():
            break
        cur = np.where(open_, parent[np.maximum(cur, 0)], cur)
    return np.where(cur >= 0, cur, -1)


def layer_metrics(tracer: Tracer, pass_id: int, pass_s: float) -> dict:
    """Per-layer counts and times of one traced pass."""
    c = tracer.columns()
    mask = c["pass_id"] == pass_id
    offset = int(np.argmax(mask)) if mask.any() else 0
    name = c["name_id"][mask]
    parent = np.where(c["parent"][mask] >= 0, c["parent"][mask] - offset, -1)
    dur = (c["end"] - c["start"])[mask]
    work, size = c["work"][mask], c["size"][mask]
    raised = c["raised"][mask].astype(bool)

    layer = np.array([LAYERS.index(layer) for _, _, layer, _ in TRACED])[name]
    has_parent = parent >= 0
    up = np.maximum(parent, 0)
    child = np.bincount(up[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    # outermost span of its layer: a failure is counted once, where it leaves the layer
    outer = ~has_parent | (layer[up] != layer)

    def pick(*names):
        return np.isin(name, [NAMES.index(n) for n in names])

    def in_layer(label):
        return layer == LAYERS.index(label)

    def total(values, sel):
        return float(values[sel].sum())

    def rate(amount, busy):
        return amount / busy if busy > 0 else 0.0

    m = {}
    sel = pick("cli.main")
    m["cli.calls"] = int(sel.sum())
    m["cli.self_s"] = total(self_s, sel)

    sel = pick("cw_exact.exact_fields")
    m["cw_exact.calls"] = int(sel.sum())
    m["cw_exact.busy_s"] = total(self_s, in_layer("cw_exact"))
    m["cw_exact.sectors_per_s"] = rate(total(work * size, sel), m["cw_exact.busy_s"])

    for group, names in (("quad", ("hj_limit.viscous_action", "hj_limit.viscous_velocity")),
                         ("roots", ("hj_limit.lax_action",
                                    "hj_limit.self_consistent_magnetization"))):
        sel = pick(*names)
        m[f"hj_limit.{group}.calls"] = int(sel.sum())
        m[f"hj_limit.{group}.busy_s"] = total(dur, sel)
    m["hj_limit.failed"] = int((raised & outer & in_layer("hj_limit")).sum())

    solves = pick("sk_rs.solve_qbar")
    gh = np.flatnonzero(pick("sk_rs.gaussian_expectation"))
    m["sk_rs.solves"] = int(solves.sum())
    m["sk_rs.solve_busy_s"] = total(dur, solves)
    m["sk_rs.busy_s"] = total(self_s, in_layer("sk_rs"))
    m["sk_rs.gh_evals"] = int(gh.size)
    owner = _nearest(parent, solves, gh)
    near = work[owner[owner >= 0]] > 0
    for label, evals, count in (("near_critical", near, solves & (work > 0)),
                                ("generic", ~near, solves & (work == 0))):
        m[f"sk_rs.gh_evals_per_solve.{label}"] = rate(float(evals.sum()), float(count.sum()))
    root = pick("sk_rs.caustic_root")
    m["sk_rs.caustic_root.busy_s"] = total(dur, root)
    m["sk_rs.caustic_root.gh_evals"] = int((_nearest(parent, root, gh) >= 0).sum())
    m["sk_rs.failed"] = int((raised & outer & in_layer("sk_rs")).sum())

    sel = pick("sk_finite.quenched_overlap_moments") & outer
    busy = total(dur, sel)
    m["sk_finite.samples"] = int(total(work, sel))
    m["sk_finite.draw_busy_s"] = total(dur, pick("sk_finite.draw_disorder"))
    m["sk_finite.enumerate_busy_s"] = total(dur, pick("sk_finite.GibbsCorrelators"))
    m["sk_finite.stats_busy_s"] = (busy - m["sk_finite.draw_busy_s"]
                                   - m["sk_finite.enumerate_busy_s"])
    m["sk_finite.configs_per_s"] = rate(total(work * size, sel), busy)

    m["trace.pass_s"] = pass_s
    m["trace.unattributed_frac"] = (pass_s - total(dur, ~has_parent)) / pass_s
    return m
