"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds runs as ``run.py`` appends them to ``perfbench/results/runs.jsonl``;
only untraced runs (``--trace 0``) are used.  Make the runs in alternating
pairs, parent and change, switching which side goes first; the i-th run of a
workload in one file is paired with the i-th run of it in the other.

For every workload and end-to-end metric this prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither side),
and a verdict, using the bounds in ``BENCHMARK.json``:

- improved: at least ten pairs, the change wins at least nine tenths of them,
  and the medians differ in its favour by more than the parent's spread (the
  distance between its quartiles);
- unresolved: the parent's spread, as a share of its median, is wider than
  the bound, unless every change run reads better than every parent run
  (then unchanged); also any comparison with fewer than ten pairs that would
  otherwise read improved;
- regressed: the change's median is worse than the parent's by more than the
  bound, as a share of the parent's median;
- unchanged: everything else.

Exits 1 when any metric regressed or is unresolved, or a workload has runs on
one side only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict:
    """Untraced runs of each workload, in file order: workload -> [metric values]."""
    runs = {}
    with open(path) as lines:
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise SystemExit(f"error: {path}:{number}: not JSON ({err})")
            if record.get("trace", 0) == 0 and "workload" in record:
                values = {k: v["value"] for k, v in record["metrics"].items()}
                runs.setdefault(record["workload"], []).append(values)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better: str, bound: float):
    """(verdict, change wins, pairs) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    spread = (p_q3 - p_q1) / abs(p_med)
    gain = sign * (c_med - p_med)
    if wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved"), wins, len(pairs)
    if spread > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return ("unchanged" if all_better else "unresolved"), wins, len(pairs)
    if -gain > bound * abs(p_med):
        return "regressed", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare parent and change benchmark runs")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)

    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change':>8} {'wins':>7}  verdict")
    worst = 0
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:<16} only in {'parent' if workload in parent else 'change'} runs")
            worst = max(worst, 1)
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [run[name] for run in parent[workload]]
            c = [run[name] for run in change[workload]]
            result, wins, pairs = verdict(p, c, metric["better"], metric["bound"])
            p_med, c_med = statistics.median(p), statistics.median(c)
            shown = [f"{statistics.median(v):.5g} [{quartiles(v)[0]:.5g}, {quartiles(v)[1]:.5g}]"
                     for v in (p, c)]
            print(f"{workload:<16} {name:<12} {shown[0]:>34} {shown[1]:>34} "
                  f"{(c_med - p_med) / p_med:>+8.2%} {wins:>3}/{pairs:<3}  {result}"
                  f" ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})")
            if result in ("regressed", "unresolved"):
                worst = max(worst, 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
