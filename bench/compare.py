"""``python3 -m bench.compare A.json B.json``: judge B against parent A.

Both files are results written by ``python3 -m bench`` (any number of
runs per workload). For every workload x end-to-end metric the bound from
``BENCHMARK.json`` is applied to the medians:

* ``REGRESSION`` - B's median is worse than A's by more than the bound;
* ``unresolved`` - A's own spread (interquartile range over median) is
  wider than the bound, so the pair cannot be called unchanged - unless
  every B run reads better than every A run (``better``);
* ``ok`` otherwise.

A workload whose share of failed ops rose is a regression too. Exact
counts and simulated statistics of traced runs with the same seed are
compared for equality and differences listed (reported, not judged: a
change may move them on purpose). Exit status 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from bench import UNGATED

ROOT = Path(__file__).resolve().parent.parent
#: units of per-layer metrics that must repeat exactly for a seed
EXACT_UNITS = ("count", "sim-ms", "sim-ratio")


def _load_runs(path: str) -> List[dict]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _by_workload(runs: List[dict], trace: int) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for run in runs:
        if run["trace"] == trace:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _values(runs: List[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def judge(a: List[float], b: List[float], better: str, bound: float
          ) -> Tuple[str, float, float]:
    """``(verdict, worse_share, a_spread)`` for one workload x metric."""
    a_q1, a_med, a_q3 = _quartiles(a)
    _, b_med, _ = _quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b_med - a_med) / a_med
    spread = (a_q3 - a_q1) / a_med
    if spread > bound:
        all_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
        return ("better" if all_better else "unresolved"), worse, spread
    return ("REGRESSION" if worse > bound else "ok"), worse, spread


def compare(a_runs: List[dict], b_runs: List[dict], benchmark: dict
            ) -> Tuple[List[str], int]:
    """The report's lines and the number of regressions."""
    lines, regressions = [], 0
    a_by, b_by = _by_workload(a_runs, 0), _by_workload(b_runs, 0)
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in a_by or workload not in b_by:
            continue
        a, b = a_by[workload], b_by[workload]
        lines.append(f"{workload}  (A: {len(a)} runs, B: {len(b)} runs)")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a_values, b_values = _values(a, name), _values(b, name)
            verdict, worse, spread = judge(a_values, b_values,
                                           metric["better"], metric["bound"])
            regressions += verdict == "REGRESSION"
            a_q1, a_med, a_q3 = _quartiles(a_values)
            b_q1, b_med, b_q3 = _quartiles(b_values)
            lines.append(
                f"  {name:12s} {metric['unit']:4s} "
                f"A {a_med:11.4f} [{a_q1:.4f}, {a_q3:.4f}]  "
                f"B {b_med:11.4f} [{b_q1:.4f}, {b_q3:.4f}]  "
                f"worse by {worse * 100:+6.2f}% (bound {metric['bound']:.0%}, "
                f"A spread {spread * 100:.2f}%)  {verdict}")

        for name in UNGATED:
            if all(name in run for run in a + b):
                _, a_med, _ = _quartiles([run[name] for run in a])
                _, b_med, _ = _quartiles([run[name] for run in b])
                lines.append(f"  {name:12s} ms   A {a_med:11.4f}  "
                             f"B {b_med:11.4f}  "
                             f"{(b_med - a_med) / a_med * 100:+6.2f}%  "
                             f"(reported, ungated)")

        def fail_share(runs: List[dict]) -> float:
            return (sum(r["failed"] for r in runs)
                    / sum(r["attempted"] for r in runs))

        if fail_share(b) > fail_share(a):
            regressions += 1
            lines.append(f"  fail_share   A {fail_share(a):.4f}  "
                         f"B {fail_share(b):.4f}  REGRESSION")
    lines.extend(_exact_differences(a_runs, b_runs, benchmark))
    return lines, regressions


def _exact_differences(a_runs: List[dict], b_runs: List[dict],
                       benchmark: dict) -> List[str]:
    exact = [m["name"] for m in benchmark["per_layer"]
             if m["unit"] in EXACT_UNITS]
    a_traced = {(r["workload"], r["seed"]): r for r in a_runs
                if r["trace"] == 1}
    lines, compared = [], 0
    for run in b_runs:
        parent = a_traced.get((run["workload"], run["seed"]))
        if run["trace"] != 1 or parent is None:
            continue
        for name in exact:
            old = parent["metrics"][name]["value"]
            new = run["metrics"][name]["value"]
            compared += 1
            if old != new:
                lines.append(f"  {run['workload']} seed {run['seed']}: "
                             f"{name} {old:g} -> {new:g}")
    head = (f"exact counts and simulated statistics: {compared} compared, "
            f"{len(lines)} differ")
    return [head] + lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare",
                                     description=__doc__)
    parser.add_argument("parent", help="results of the parent commit (A)")
    parser.add_argument("change", help="results of the change (B)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    lines, regressions = compare(_load_runs(args.parent),
                                 _load_runs(args.change), benchmark)
    print("\n".join(lines))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
