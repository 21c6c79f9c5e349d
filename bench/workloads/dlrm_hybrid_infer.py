"""``dlrm_hybrid_infer``: the paper's headline deployment (hybrid scan + DHE).

One op is one batch-32 ``DLRM.predict_proba`` through ``HybridEmbedding``
features after Algorithm 3 chose scan or DHE per table. ``embedding.dhe``,
``embedding.scan`` and ``nn`` do all the work; no ORAM code runs, so an
ORAM optimisation must show no change here.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.costmodel import DLRM_DHE_UNIFORM_16
from repro.costmodel.latency import dhe_latency, linear_scan_latency
from repro.data import KAGGLE_SPEC
from repro.data.criteo import SyntheticCtrDataset, scaled_spec
from repro.embedding.dhe import DHEEmbedding
from repro.embedding.hybrid import TECHNIQUE_DHE, TECHNIQUE_SCAN, HybridEmbedding
from repro.embedding.scan import LinearScanEmbedding
from repro.hybrid import (
    allocate_for_configuration,
    apply_allocations,
    count_scan_features,
)
from repro.lazy import NumpyRuntime, use_runtime
from repro.models.dlrm import DLRM, KAGGLE_BOTTOM, KAGGLE_TOP_HIDDEN
from repro.oblivious.linear_scan import linear_scan_batch_vectorized

from bench import probes
from bench.trace import SpanRecorder
from bench.workloads.base import (
    Workload,
    counter_value,
    digest_arrays,
    modelled_thresholds,
)

BATCH = 32
POOL = 64
MAX_ROWS = 50_000
MODEL_SEED = 1101
#: pool batches re-run through the all-DHE model by the final check
PARITY_BATCHES = 4


class DlrmHybridInfer(Workload):
    name = "dlrm_hybrid_infer"
    work_unit = "CTR samples"
    warmup_ops = 3
    traced_ops = 100

    def make_inputs(self) -> str:
        self.spec = scaled_spec(KAGGLE_SPEC, max_rows=MAX_ROWS)
        self.pool = SyntheticCtrDataset(self.spec, seed=self.seed).batches(
            BATCH, POOL)
        return digest_arrays(a for b in self.pool for a in (b.dense, b.sparse))

    def setup(self) -> None:
        spec = self.spec
        uniform = DLRM_DHE_UNIFORM_16
        thresholds = modelled_thresholds(uniform, spec.embedding_dim, BATCH)
        generator = np.random.default_rng(MODEL_SEED)
        self.hybrids: List[HybridEmbedding] = []

        def factory(size: int, dim: int) -> HybridEmbedding:
            hybrid = HybridEmbedding(
                DHEEmbedding.varied(size, dim, uniform, rng=generator))
            self.hybrids.append(hybrid)
            return hybrid

        self.model = DLRM(spec, factory, bottom_sizes=KAGGLE_BOTTOM,
                          top_hidden_sizes=KAGGLE_TOP_HIDDEN, rng=generator)
        self.model.eval()
        # Algorithm 3 for the live configuration (batch 32, one thread);
        # selecting "scan" materialises that feature's table from its DHE.
        self.allocations = allocate_for_configuration(
            spec.table_sizes, thresholds, spec.embedding_dim, BATCH, 1)
        apply_allocations(self.hybrids, self.allocations)
        self.first_outputs: Dict[int, np.ndarray] = {}

    def op(self, batch) -> np.ndarray:
        return self.model.predict_proba(batch.dense, batch.sparse)

    def work(self, out) -> int:
        return BATCH

    def after_op(self, index: int, batch, out) -> bool:
        if index < PARITY_BATCHES and index not in self.first_outputs:
            self.first_outputs[index] = out.copy()
        return (out.shape == (BATCH,) and bool(np.isfinite(out).all())
                and bool(((out > 0.0) & (out < 1.0)).all()))

    def final_check(self) -> List[str]:
        # Algorithm 2 materialises each scan table from the feature's DHE,
        # so the all-DHE model must predict the same probabilities.
        errors = []
        for hybrid in self.hybrids:
            hybrid.select(TECHNIQUE_DHE)
        try:
            for index, seen in sorted(self.first_outputs.items()):
                batch = self.pool[index]
                expected = self.model.predict_proba(batch.dense, batch.sparse)
                worst = float(np.max(np.abs(expected - seen)))
                if not worst <= 1e-9:
                    errors.append(f"pool batch {index}: hybrid differs from "
                                  f"the all-DHE model by {worst:.3e}")
        finally:
            apply_allocations(self.hybrids, self.allocations)
        return errors

    # -- traced run ------------------------------------------------------
    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(self.model, "forward", "dlrm.forward")
        rec.wrap(self.model.bottom, "forward", "nn.mlp")
        rec.wrap(self.model.top, "forward", "nn.mlp")
        for hybrid in self.hybrids:
            if hybrid.active == TECHNIQUE_SCAN:
                rec.wrap(hybrid, "forward", "scan.forward")
            else:
                rec.wrap(hybrid.dhe, "forward", "dhe.forward")
                rec.wrap(hybrid.dhe.encoder, "encode", "dhe.encode")
                rec.wrap(hybrid.dhe.decoder, "forward", "dhe.decode")

    def counts(self) -> Dict[str, float]:
        return {
            "dhe_queries": counter_value("embedding.dhe.queries_total"),
            "rows_swept": counter_value("embedding.scan.rows_swept_total"),
        }

    def layer_metrics(self, spans, ops, counts) -> Dict[str, float]:
        scans = count_scan_features(self.allocations)
        return {
            "dhe.queries": counts["dhe_queries"] / ops,
            "scan.rows_swept": counts["rows_swept"] / ops,
            "hybrid.scan_features": float(scans),
            "hybrid.dhe_features": float(len(self.allocations) - scans),
        }

    def probes(self, quick: bool) -> Dict[str, float]:
        repeats = 2 if quick else 15
        out = {}
        table = np.random.default_rng(7).standard_normal((4096, 16))
        indices = np.random.default_rng(8).integers(0, 4096, size=BATCH)
        out["oblivious.scan_batch_ms"] = probes.median_ms(
            lambda: linear_scan_batch_vectorized(table, indices), repeats)
        out.update(self._lazy_probe(repeats))

        # Table I shapes: scan O(n), DHE O(1); and measured / modelled.
        sizes = (256, 1024, 4096)
        scan_ms, dhe_ms = [], []
        for size in sizes:
            ids = np.random.default_rng(9).integers(0, size, size=BATCH)
            scan = LinearScanEmbedding(size, 16, rng=10).eval()
            dhe = DHEEmbedding(size, 16, shape=DLRM_DHE_UNIFORM_16,
                               rng=10).eval()
            scan_ms.append(probes.median_ms(lambda: scan.generate(ids),
                                            repeats))
            dhe_ms.append(probes.median_ms(lambda: dhe.generate(ids),
                                           repeats))
        out["shape.scan_slope"] = probes.loglog_slope(sizes, scan_ms)
        out["shape.dhe_slope"] = probes.loglog_slope(sizes, dhe_ms)
        out["costmodel.scan_ratio"] = scan_ms[-1] / (
            1e3 * linear_scan_latency(sizes[-1], 16, BATCH))
        out["costmodel.dhe_ratio"] = dhe_ms[-1] / (
            1e3 * dhe_latency(DLRM_DHE_UNIFORM_16, BATCH))
        return out

    def _lazy_probe(self, repeats: int) -> Dict[str, float]:
        """This model's features on one pool batch, replayed from the lazy
        runtime's graph cache (steady state), summed per technique so the
        numbers sit beside ``dhe.decode_ms`` and ``scan.forward_ms``.

        A replayed graph never calls ``decoder.forward``, so the decode
        share is the feature's time minus its (eager) hash encode.
        """
        batch = self.pool[0]
        runtime = NumpyRuntime()
        out = {"lazy.dhe_decode_ms": 0.0, "lazy.scan_ms": 0.0}
        with use_runtime(runtime):
            for feature, hybrid in enumerate(self.hybrids):
                ids = batch.sparse[:, feature]
                hybrid.generate(ids)          # capture once
                total = probes.median_ms(lambda: hybrid.generate(ids),
                                         repeats)
                if hybrid.active == TECHNIQUE_SCAN:
                    out["lazy.scan_ms"] += total
                else:
                    out["lazy.dhe_decode_ms"] += total - probes.median_ms(
                        lambda: hybrid.dhe.encoder.encode(ids), repeats)
        out["lazy.graph_captures"] = float(runtime.cache_size())
        return out
