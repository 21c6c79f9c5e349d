"""Run one workload in this process: set-up, timed loop, checks, result.

Untraced (``--trace 0``): set up several times (``setup_s`` is the
median), cycle the seeded pool for ``--seconds`` of wall clock, report the
end-to-end metrics. Traced (``--trace 1``): set up once, run a *fixed*
number of ops untraced and the same ops again with span wrappers
installed, run the layer probes, report the per-layer metrics. One
closed-loop client on one thread in both.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from bench import THREAD_VARIABLES, UNGATED
from bench.trace import SpanRecorder, inclusive_seconds
from bench.workloads import WORKLOADS
from bench.workloads.base import Workload, busy_ms_per_op

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: an untraced run never stops before this many timed ops
MIN_OPS = 3


def declared_metrics(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


class _Loop:
    """Ops run so far in one phase: durations, work done, failures."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.work = 0
        self.failed = 0

    @property
    def ops(self) -> int:
        return len(self.seconds)

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.seconds, q)) * 1e3

    def absorb(self, other: "_Loop") -> None:
        self.seconds += other.seconds
        self.work += other.work
        self.failed += other.failed


def _run_op(workload: Workload, index: int, loop: Optional[_Loop],
            rec: Optional[SpanRecorder]) -> None:
    """One op plus its untimed check. ``loop=None`` is a warm-up op: it is
    checked (its failure raises) but not counted."""
    item = workload.pool[index % len(workload.pool)]
    start = perf_counter()
    try:
        if rec is None:
            out = workload.op(item)
        else:
            out = rec.run_op(loop.ops, "op", workload.op, item)
        error = None
    except Exception:  # boundary: a failed op is counted, the run goes on
        error = traceback.format_exc()
    elapsed = perf_counter() - start
    ok = error is None and workload.after_op(index, item, out)
    if loop is None:
        if not ok:
            raise RuntimeError(f"warm-up op {index} failed\n{error or ''}")
        return
    loop.seconds.append(elapsed)
    if error is None:
        loop.work += workload.work(out)
    if not ok:
        loop.failed += 1
        if loop.failed == 1:
            print(f"op {index} failed\n{error or '(correctness check)'}",
                  file=sys.stderr)


def _run_phase(workload: Workload, first_index: int, seconds: float,
               fixed_ops: Optional[int],
               rec: Optional[SpanRecorder] = None) -> _Loop:
    """The measured loop. ``fixed_ops`` runs exactly that many ops;
    otherwise ops run until ``seconds`` have passed (and ``MIN_OPS``)."""
    loop = _Loop()
    gc.collect()
    gc.disable()
    try:
        deadline = perf_counter() + seconds
        while True:
            _run_op(workload, first_index + loop.ops, loop, rec)
            # Cyclic garbage (autograd graphs) is dropped between ops, not
            # inside them, so memory does not grow with the op count.
            gc.collect(0)
            if fixed_ops is not None:
                if loop.ops >= fixed_ops:
                    break
            elif perf_counter() >= deadline and loop.ops >= MIN_OPS:
                break
    finally:
        gc.enable()
    return loop


def _set_up(workload: Workload) -> float:
    """Build the system and warm it up; returns the seconds it took."""
    gc.collect()
    start = perf_counter()
    workload.setup()
    for index in range(workload.warmup_ops):
        _run_op(workload, index, None, None)
    elapsed = perf_counter() - start
    _take_samples(workload)           # drop the warm-up samples
    return elapsed


def _take_samples(workload: Workload) -> Dict[str, List[float]]:
    samples, workload.samples = workload.samples, {}
    return samples


def _latency_summary(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """p50 and p95 of each workload-specific latency (TTFT, TBT)."""
    return {f"{stem}_p{q}": float(np.percentile(values, q))
            for stem, values in samples.items() for q in (50, 95)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: Workload, seconds: float, quick: bool
                 ) -> Tuple[Dict[str, float], _Loop, Dict[str, object]]:
    setups = [_set_up(workload) for _ in range(1 if quick else SETUPS)]
    loop = _run_phase(workload, workload.warmup_ops, seconds, None)
    peak_rss = _peak_rss_mb()
    metrics = {
        "setup_s": float(np.median(setups)),
        "op_ms_p50": loop.percentile_ms(50),
        "work_per_s": loop.work / sum(loop.seconds),
        "peak_rss_mb": peak_rss,
    }
    detail = {"setup_samples_s": setups,
              "op_ms_p95": loop.percentile_ms(95),
              "op_ms_mean": float(np.mean(loop.seconds)) * 1e3,
              **_latency_summary(_take_samples(workload))}
    return metrics, loop, detail


def run_traced(workload: Workload, quick: bool
               ) -> Tuple[Dict[str, float], _Loop, Dict[str, object]]:
    """Untraced ops before *and* after the traced ones, so a drift of the
    host's speed during the run cancels out of the tracing overhead."""
    _set_up(workload)
    ops = 2 if quick else workload.traced_ops
    first, half = workload.warmup_ops, ops // 2
    plain = _run_phase(workload, first, 0.0, half)
    samples = _take_samples(workload)
    metrics = dict(workload.probes(quick))

    rec = SpanRecorder()
    workload.instrument(rec)
    wrapped = len(rec.wrapped)
    before = workload.counts()
    traced = _run_phase(workload, first, 0.0, ops, rec)
    after = workload.counts()
    counts = {name: after[name] - before[name] for name in after}
    rec.uninstall()
    _take_samples(workload)

    later = _run_phase(workload, first + half, 0.0, ops - half)
    for stem, values in _take_samples(workload).items():
        samples[stem] = samples.get(stem, []) + values
    plain.absorb(later)

    spans = rec.select(0, ops)
    busy = busy_ms_per_op(spans, ops)
    metrics.update(busy)
    metrics.update(workload.layer_metrics(spans, ops, counts))
    metrics.update(_latency_summary(samples))
    op_ms = inclusive_seconds(spans, "op") * 1e3 / ops
    metrics["op_ms_p95"] = plain.percentile_ms(95)
    metrics["trace.untraced_op_ms_p50"] = plain.percentile_ms(50)
    metrics["trace.traced_op_ms_p50"] = traced.percentile_ms(50)
    metrics["trace.overhead_share"] = (
        traced.percentile_ms(50) / plain.percentile_ms(50) - 1.0)
    metrics["trace.attributed_share"] = 1.0 - busy["op.self_ms"] / op_ms
    metrics["trace.spans_per_op"] = len(spans) / ops

    RESULTS_DIR.mkdir(exist_ok=True)
    rec.dump(str(RESULTS_DIR / f"trace_{workload.name}.json"),
             {"workload": workload.name, "seed": workload.seed, "ops": ops})
    plain.absorb(traced)
    detail = {"traced_ops": ops, "spans": len(rec.spans), "wrapped": wrapped}
    return metrics, plain, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> Tuple[Dict[str, object],
                                               Dict[str, object]]:
    """Run one workload; returns ``(result, detail)``. ``result`` has
    exactly the keys the benchmark contract names."""
    workload = WORKLOADS[name](seed)
    inputs_sha256 = workload.make_inputs()
    if trace:
        values, loop, detail = run_traced(workload, quick)
    else:
        values, loop, detail = run_untraced(workload, seconds, quick)
    errors = workload.final_check()
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    units = declared_metrics("per_layer" if trace else "end_to_end")
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A per-layer metric of a layer this workload never enters is 0.
    metrics = {metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
               for metric, unit in units.items()}
    result = {"correct": loop.failed == 0 and not errors,
              "attempted": loop.ops, "failed": loop.failed,
              "metrics": metrics}

    detail.update({"workload": name, "seed": seed, "trace": int(trace),
                   "seconds": seconds, "quick": quick,
                   "work_unit": workload.work_unit,
                   "inputs_sha256": inputs_sha256, "errors": errors,
                   "env": environment()})
    return result, detail


def print_result(result: Dict[str, object], detail: Dict[str, object]
                 ) -> None:
    """Every metric by name with its unit and sample count, the detail
    line, then the contract's JSON object as the last line."""
    samples = result["attempted"]
    print(f"== {detail['workload']} seed={detail['seed']} "
          f"trace={detail['trace']} ops={samples} "
          f"failed={result['failed']} ==")
    for name, entry in result["metrics"].items():
        if entry["value"] != 0.0:
            print(f"{name:36s} {entry['value']:14.6g} {entry['unit']:8s} "
                  f"(n={samples})")
    for name in UNGATED:
        if name in detail:
            print(f"{name:36s} {detail[name]:14.6g} {'ms':8s} "
                  f"(n={samples}, ungated)")
    print("#detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
