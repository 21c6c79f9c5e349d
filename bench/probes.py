"""Layer probes: small fixed-size measurements of one layer in isolation.

Probes run only in the traced run, each in the workload whose end-to-end
metric the probed layer should move (bench/README.md lists the homes).
They use fixed seeds, so a probe measures the same inputs on every run.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Sequence

import numpy as np

from repro.costmodel.latency import oram_latency, sqrt_oram_latency
from repro.oblivious.primitives import (
    ct_eq,
    ct_select,
    oblivious_argmax_vectorized,
)
from repro.oblivious.trace import READ, MemoryTracer
from repro.oram import CircuitORAM, PathORAM, RingORAM, SqrtORAM

SCHEMES = {"path": PathORAM, "circuit": CircuitORAM, "ring": RingORAM,
           "sqrt": SqrtORAM}


def median_ms(fn: Callable[[], object], repeats: int) -> float:
    """Median wall time of ``fn()`` in ms, after one warm-up call."""
    fn()
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return float(np.median(samples)) * 1e3


def loglog_slope(sizes: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) over log(size)."""
    x = np.log(np.asarray(sizes, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    return float(np.polyfit(x, y, 1)[0])


def scalar_primitives_us(calls: int) -> float:
    """µs per scalar ``ct_eq`` + ``ct_select`` pair (the flat position
    map's inner loop)."""
    start = perf_counter()
    acc = 0
    for index in range(calls):
        acc = ct_select(ct_eq(index, 7), index, acc)
    return (perf_counter() - start) * 1e6 / calls


def argmax_us(repeats: int) -> float:
    logits = np.random.default_rng(21).standard_normal(2048)
    return median_ms(lambda: oblivious_argmax_vectorized(logits),
                     repeats) * 1e3


def tracer_record_us(calls: int) -> float:
    tracer = MemoryTracer()
    start = perf_counter()
    for index in range(calls):
        tracer.record(READ, "probe", index)
    return (perf_counter() - start) * 1e6 / calls


def _access_ms(oram, num_blocks: int, repeats: int) -> float:
    ids = np.random.default_rng(22).integers(0, num_blocks, size=repeats + 1)
    samples = []
    for block_id in ids:
        start = perf_counter()
        oram.read(int(block_id))
        samples.append(perf_counter() - start)
    return float(np.median(samples[1:])) * 1e3


def oram_probes(quick: bool) -> Dict[str, float]:
    """One read per scheme on a 2048 x 64 table (the LLM vocabulary's
    size), measured beside the cost model, and the Table I shape of a
    Circuit ORAM read over n."""
    repeats = 2 if quick else 9
    rows, dim = 2048, 64
    payloads = np.random.default_rng(23).standard_normal((rows, dim))
    out = {}
    for scheme, oram_class in SCHEMES.items():
        oram = oram_class(rows, dim, initial_payloads=payloads, rng=24)
        out[f"oram.{scheme}.access_ms_p50"] = _access_ms(oram, rows, repeats)
    for scheme in ("path", "circuit"):
        out[f"costmodel.{scheme}_ratio"] = (
            out[f"oram.{scheme}.access_ms_p50"]
            / (1e3 * oram_latency(scheme, rows, dim, 1)))
    out["costmodel.sqrt_ratio"] = (
        out["oram.sqrt.access_ms_p50"]
        / (1e3 * sqrt_oram_latency(rows, dim, 1)))

    sizes = (256, 1024, 4096)
    access_ms = [
        _access_ms(CircuitORAM(size, 16, rng=25), size, repeats)
        for size in sizes]
    out["shape.oram_slope"] = loglog_slope(sizes, access_ms)
    return out


def lookahead_probes(quick: bool) -> Dict[str, float]:
    """``access_batch(16)`` against sixteen ``access`` calls on a twin
    ORAM built from the same seed (the training tables' configuration).
    LAORAM predicts a ratio well below 1."""
    repeats = 2 if quick else 7
    rows, dim, batch = 4096, 16, 16
    batch_ms, ratios = [], []
    for scheme in (PathORAM, CircuitORAM):
        batched, sequential = (
            scheme(rows, dim, rng=26, stash_capacity=rows,
                   recursion_cutoff=64) for _ in range(2))
        id_rng = np.random.default_rng(27)
        for _ in range(repeats):
            ids = [int(v) for v in id_rng.integers(0, rows, size=batch)]
            start = perf_counter()
            batched.access_batch(ids)
            middle = perf_counter()
            for block_id in ids:
                sequential.access(block_id)
            end = perf_counter()
            batch_ms.append((middle - start) * 1e3)
            ratios.append((middle - start) / (end - middle))
    return {"lookahead.batch_ms_p50": float(np.median(batch_ms)),
            "lookahead.seq_ratio": float(np.median(ratios))}
