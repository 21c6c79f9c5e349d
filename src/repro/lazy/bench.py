"""``python -m repro.lazy.bench`` — the gated eager-vs-captured dispatch sim.

Sweeps the three rewired oblivious hot paths over the Fig 12 batch sizes
(1, 8, 32, 128):

* the DHE decoder stack (``DHEEmbedding.forward`` under an active runtime),
* the masked-onehot linear scan (``linear_scan_batch_vectorized``),
* the DLRM Kaggle bottom MLP (the ``repro.nn`` layer stack via ``capture``),

and reports, per cell, the recorded-op count (what eager execution
dispatches one Python/autograd op at a time), the fused kernel count the
captured graph replays instead, and whether replay output is *byte*-
identical to eager. Five gates with teeth:

* **parity** — every captured replay bit-for-bit equals eager;
* **fusion** — every cell fuses (kernels strictly fewer than ops);
* **graph_cache** — re-running a swept batch shape hits the runtime cache
  (no re-capture);
* **buffer_reuse** — replays reuse warm-up buffers (steady-state footprint
  is flat);
* **audit_oblivious / leak_detector_teeth** — the
  :class:`~repro.telemetry.audit.LeakageAuditor` finds the honest
  scheduler's kernel-launch traces secret-independent, and *catches* the
  in-tree :class:`~repro.lazy.schedule.IndexLeakingScheduler` negative
  control.

The JSON report contains only counted, seed-determined quantities — two
runs with the same seed produce byte-identical files (CI ``cmp``-gates
this); eager-vs-replay wall clock is measured by ``bench/`` (the
``lazy.dhe_decode_ms`` / ``lazy.scan_ms`` rows, see ``bench/README.md``).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence

import numpy as np

from repro.costmodel.latency import DheShape
from repro.experiments import ExperimentResult, gated
from repro.lazy.capture import CapturedGraph, capture
from repro.lazy.runtime import NumpyRuntime, use_runtime
from repro.lazy.schedule import IndexLeakingScheduler
from repro.oblivious.linear_scan import linear_scan_batch_vectorized
from repro.oblivious.trace import MemoryTracer
from repro.telemetry.audit import (
    MODE_EXACT,
    AuditSubject,
    LeakageAuditor,
    contrasting_secrets,
)

#: Fig 12 serving batch sizes
BATCHES = (1, 8, 32, 128)
#: table geometry for the scan/DHE paths (a Fig 13-sized small table)
TABLE_ROWS = 4096
EMBEDDING_DIM = 16
#: bench-sized DHE decoder (same structure as DLRM-DHE, scaled for CI)
BENCH_DHE_SHAPE = DheShape(k=256, fc_sizes=(128, 64), out_dim=EMBEDDING_DIM)
#: DLRM Kaggle bottom MLP widths (13 dense features in, 16 out)
MLP_LAYER_SIZES = (13, 512, 256, 64, 16)
#: audit geometry (mirrors the standing audit's small subjects)
AUDIT_ROWS = 16
AUDIT_DIM = 4
AUDIT_SECRET_LENGTH = 12


def _cell(path: str, batch: int, graph: CapturedGraph,
          parity: bool) -> Dict[str, object]:
    return {
        "path": path,
        "batch": batch,
        "eager_ops": graph.num_ops,
        "kernels": graph.num_kernels,
        "dispatch_ratio": round(graph.dispatch_ratio, 4),
        "buffer_bytes": graph.buffer_bytes(),
        "replays": graph.replays,
        "parity": parity,
        # structural hash only: the default signature mixes in source-array
        # identity (id()), which is process-specific — not reproducible
        "signature": graph.schedule.output.signature(
            include_source_identity=False)[:16],
    }


def _find_graph(runtime: NumpyRuntime, name: str) -> CapturedGraph:
    for graph in runtime.cached_graphs():
        if getattr(graph, "name", "") == name:
            return graph
    raise KeyError(f"no cached capture named {name!r}")


def run_bench(seed: int = 0) -> Dict[str, object]:
    """The full sweep + gates; deterministic for a given seed."""
    from repro.embedding.dhe import DHEEmbedding
    from repro.nn.layers import MLP
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(seed)
    runtime = NumpyRuntime()

    dhe = DHEEmbedding(TABLE_ROWS, EMBEDDING_DIM, shape=BENCH_DHE_SHAPE,
                       rng=seed)
    dhe.eval()
    table = rng.normal(size=(TABLE_ROWS, EMBEDDING_DIM))
    mlp = MLP(MLP_LAYER_SIZES, rng=seed)
    mlp.eval()

    cells: List[Dict[str, object]] = []
    parity_ok = True

    for batch in BATCHES:
        indices = rng.integers(0, TABLE_ROWS, size=batch)
        dense = rng.normal(size=(batch, MLP_LAYER_SIZES[0]))

        # --- DHE decode (capture happens inside forward) ---------------
        eager = dhe.forward(indices).data
        with use_runtime(runtime):
            warm = dhe.forward(indices).data
            replay = dhe.forward(indices).data
        graph = _find_graph(runtime, f"dhe.decode.b{batch}")
        parity = (eager.tobytes() == warm.tobytes() == replay.tobytes())
        parity_ok = parity_ok and parity
        cells.append(_cell("dhe-decode", batch, graph, parity))

        # --- masked-onehot scan ----------------------------------------
        eager = linear_scan_batch_vectorized(table, indices)
        with use_runtime(runtime):
            warm = linear_scan_batch_vectorized(table, indices)
            replay = linear_scan_batch_vectorized(table, indices)
        graph = _find_graph(runtime, f"scan.matmul.b{batch}")
        parity = (eager.tobytes() == warm.tobytes() == replay.tobytes())
        parity_ok = parity_ok and parity
        cells.append(_cell("scan", batch, graph, parity))

        # --- DLRM bottom MLP (direct capture of the nn stack) ----------
        eager = mlp(Tensor(dense)).data
        graph = runtime.captured(
            ("bench.mlp", dense.shape),
            lambda: capture(lambda x: mlp(Tensor(x)), [dense],
                            runtime=runtime, name=f"mlp.b{batch}"))
        warm = graph(dense)
        replay = graph(dense)
        parity = (eager.tobytes() == warm.tobytes() == replay.tobytes())
        parity_ok = parity_ok and parity
        cells.append(_cell("dlrm-mlp", batch, graph, parity))

    # A single-op graph (the scan's one matmul) has nothing to fuse and
    # legitimately maps 1 op -> 1 kernel; fusion must win wherever there
    # is a chain to collapse, and may never emit more kernels than ops.
    fusion_ok = all(
        cell["kernels"] < cell["eager_ops"] if cell["eager_ops"] > 1
        else cell["kernels"] == cell["eager_ops"]
        for cell in cells)

    # --- graph_cache: replaying a swept shape must not re-capture -------
    cache_before = runtime.cache_size()
    probe = rng.integers(0, TABLE_ROWS, size=BATCHES[-1])
    with use_runtime(runtime):
        dhe.forward(probe)
        linear_scan_batch_vectorized(table, probe)
    cache_ok = runtime.cache_size() == cache_before

    # --- buffer_reuse: steady-state footprint is flat across replays ----
    graph = _find_graph(runtime, f"dhe.decode.b{BATCHES[-1]}")
    bytes_before = graph.buffer_bytes()
    with use_runtime(runtime):
        dhe.forward(probe)
    buffer_ok = graph.buffer_bytes() == bytes_before and graph.replays >= 3

    # --- leakage audit over the fused kernels ---------------------------
    audit_dhe = DHEEmbedding(AUDIT_ROWS, AUDIT_DIM, k=16, fc_sizes=(16,),
                             num_buckets=1024, rng=seed)
    audit_dhe.eval()
    audit_table = np.random.default_rng(seed).normal(
        size=(AUDIT_ROWS, AUDIT_DIM))

    def run_lazy_dhe(tracer: MemoryTracer, secret: Sequence[int]) -> None:
        with use_runtime(NumpyRuntime(tracer=tracer)):
            audit_dhe.generate_traced(np.asarray(secret), tracer)

    def run_lazy_scan(tracer: MemoryTracer, secret: Sequence[int]) -> None:
        with use_runtime(NumpyRuntime(tracer=tracer)):
            linear_scan_batch_vectorized(audit_table, secret)

    def run_leaky_scan(tracer: MemoryTracer, secret: Sequence[int]) -> None:
        leaky = NumpyRuntime(scheduler=IndexLeakingScheduler(), tracer=tracer)
        with use_runtime(leaky):
            linear_scan_batch_vectorized(audit_table, secret)

    auditor = LeakageAuditor()
    secrets = contrasting_secrets(AUDIT_ROWS, AUDIT_SECRET_LENGTH)
    report = auditor.run([
        AuditSubject("lazy-dhe-decode", run_lazy_dhe, secrets,
                     mode=MODE_EXACT),
        AuditSubject("lazy-scan", run_lazy_scan, secrets, mode=MODE_EXACT),
        AuditSubject("index-leaking-scheduler", run_leaky_scan, secrets,
                     mode=MODE_EXACT, expect_oblivious=False),
    ])
    audit_ok = (report.finding("lazy-dhe-decode").passed
                and report.finding("lazy-scan").passed)
    teeth_ok = report.finding("index-leaking-scheduler").leak_detected

    gates = gated.gate_dict(
        parity=parity_ok,
        fusion=fusion_ok,
        graph_cache=cache_ok,
        buffer_reuse=buffer_ok,
        audit_oblivious=audit_ok,
        leak_detector_teeth=teeth_ok,
    )

    return {
        "seed": seed,
        "batches": list(BATCHES),
        "table_rows": TABLE_ROWS,
        "embedding_dim": EMBEDDING_DIM,
        "dhe_shape": {"k": BENCH_DHE_SHAPE.k,
                      "fc_sizes": list(BENCH_DHE_SHAPE.fc_sizes),
                      "out_dim": BENCH_DHE_SHAPE.out_dim},
        "mlp_layer_sizes": list(MLP_LAYER_SIZES),
        "runtime": runtime.name,
        "cached_graphs": runtime.cache_size(),
        "cells": cells,
        "audit": report.to_dict(),
        "gates": gates,
    }


def tabulate(report: Dict[str, object]) -> ExperimentResult:
    """Per-cell recorded-op vs fused-kernel counts and replay parity."""
    shape = report["dhe_shape"]
    result = ExperimentResult(
        experiment_id="lazy",
        title=f"eager vs captured dispatch (seed={report['seed']}, "
              f"table {report['table_rows']}x{report['embedding_dim']}, "
              f"DHE k={shape['k']} fc={tuple(shape['fc_sizes'])}, "
              f"runtime={report['runtime']})",
        headers=("path", "batch", "eager_ops", "kernels", "dispatch_ratio",
                 "buffer_kib", "replays", "parity"),
    )
    for cell in report["cells"]:
        result.add_row(cell["path"], cell["batch"], cell["eager_ops"],
                       cell["kernels"], f"{cell['dispatch_ratio']:.2f}x",
                       f"{cell['buffer_bytes'] / 1024:.1f}",
                       cell["replays"],
                       "ok" if cell["parity"] else "MISMATCH")
    result.notes = (
        f"{report['cached_graphs']} cached graphs; "
        f"gates: {gated.verdicts(report['gates'])}; "
        "replays are byte-identical to eager and the kernel-launch "
        "trace is fixed at compile time — the index-leaking scheduler "
        "negative control is caught by the exact-mode audit")
    return result


BENCH = gated.GatedBench(
    id="lazy",
    description="Eager-vs-captured dispatch sweep over the oblivious hot "
                "paths, with parity and leakage gates.",
    run=run_bench,
    tabulate=tabulate,
)

main = functools.partial(gated.main, BENCH)


if __name__ == "__main__":
    raise SystemExit(main())
