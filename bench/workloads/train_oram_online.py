"""``train_oram_online``: one secure online-training step per op.

The step is composed from the public pieces ``TrainingLoop.run`` uses:
announce -> DLRM forward (one batched lookahead read per table) -> BCE
loss -> backward -> ``apply_gradients`` (batched oblivious write-back) ->
``Adam.step``. It uses the ORAM layer differently from
``llm_oram_generate``: writes beside reads, lookahead batches instead of
single accesses, and a *recursive* position map (``recursion_cutoff=64``,
the ZeroTrace configuration), so the flat scan is a small share here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.data.criteo import DlrmDatasetSpec, SyntheticCtrDataset
from repro.models.dlrm import DLRM
from repro.nn.losses import bce_with_logits
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.oram import CircuitORAM, PathORAM
from repro.training import OnlineOramEmbedding

from bench import probes
from bench.trace import SpanRecorder, calls_by_name, inclusive_seconds
from bench.workloads.base import (
    Workload,
    calls_per_op,
    digest_arrays,
    instrument_oram,
    oram_counts,
)

ROWS, DIM, BATCH, NUM_DENSE = 4096, 16, 16, 4
POOL = 64
RECURSION_CUTOFF = 64
ORAM_CLASSES = (PathORAM, CircuitORAM)
SCHEMES = ("path", "circuit")
MODEL_SEED = 3101
DENSE_LR, EMBEDDING_LR = 0.02, 0.1
#: steps whose losses must match the sequential (``batched=False``) arm
PARITY_STEPS = 8


class _Trainer:
    """The model, its ORAM-resident tables and the dense optimizer."""

    def __init__(self, spec: DlrmDatasetSpec, batched: bool) -> None:
        generator = np.random.default_rng(MODEL_SEED)
        self.embeddings: List[OnlineOramEmbedding] = []

        def factory(size: int, dim: int) -> OnlineOramEmbedding:
            embedding = OnlineOramEmbedding(
                size, dim, oram_class=ORAM_CLASSES[len(self.embeddings)],
                rng=generator, batched=batched,
                recursion_cutoff=RECURSION_CUTOFF)
            self.embeddings.append(embedding)
            return embedding

        self.model = DLRM(spec, factory, bottom_sizes=(NUM_DENSE, 16, DIM),
                          top_hidden_sizes=(16,), rng=generator)
        self.model.train()
        self.optimizer = Adam(list(self.model.parameters()), lr=DENSE_LR)
        self.backward = Tensor.backward

    def step(self, batch) -> float:
        for feature, embedding in enumerate(self.embeddings):
            embedding.announce(batch.sparse[:, feature])
        self.optimizer.zero_grad()
        logits = self.model(batch.dense, batch.sparse)
        loss = bce_with_logits(logits, batch.labels)
        self.backward(loss)
        for embedding in self.embeddings:
            embedding.apply_gradients(EMBEDDING_LR)
        self.optimizer.step()
        return float(loss.item())


class TrainOramOnline(Workload):
    name = "train_oram_online"
    work_unit = "training samples"
    warmup_ops = 3
    traced_ops = 40

    def make_inputs(self) -> str:
        self.spec = DlrmDatasetSpec("bench-train", NUM_DENSE, (ROWS, ROWS),
                                    DIM)
        self.pool = SyntheticCtrDataset(self.spec, seed=self.seed).batches(
            BATCH, POOL)
        return digest_arrays(a for b in self.pool
                             for a in (b.dense, b.sparse, b.labels))

    def setup(self) -> None:
        self.trainer = _Trainer(self.spec, batched=True)
        #: (pool index, loss) of every step since set-up, warm-ups included
        self.history: List[Tuple[int, float]] = []

    def op(self, batch) -> float:
        return self.trainer.step(batch)

    def work(self, out) -> int:
        return BATCH

    def after_op(self, index: int, batch, out) -> bool:
        if len(self.history) < PARITY_STEPS:
            self.history.append((index, out))
        return bool(np.isfinite(out))

    def final_check(self) -> List[str]:
        errors = []
        # PR 9's parity contract: a freshly built trainer's first steps
        # (warm-ups included) match the sequential arm bit for bit.
        sequential = _Trainer(self.spec, batched=False)
        losses = [loss for _, loss in self.history]
        expected = [sequential.step(self.pool[index % POOL])
                    for index, _ in self.history]
        if expected != losses:
            errors.append(f"first {len(losses)} losses differ from the "
                          f"sequential arm: {losses} vs {expected}")
        for scheme, embedding in zip(SCHEMES, self.trainer.embeddings):
            oram = embedding.oram
            if oram.total_resident_blocks() != oram.num_blocks:
                errors.append(f"{scheme} ORAM holds "
                              f"{oram.total_resident_blocks()} blocks, "
                              f"expected {oram.num_blocks}")
            if oram.stash.occupancy > oram.persistent_stash_capacity:
                errors.append(f"{scheme} stash {oram.stash.occupancy} over "
                              f"its bound {oram.persistent_stash_capacity}")
        return errors

    # -- traced run ------------------------------------------------------
    def _orams(self):
        return [embedding.oram for embedding in self.trainer.embeddings]

    def instrument(self, rec: SpanRecorder) -> None:
        trainer = self.trainer
        rec.wrap(trainer.model, "forward", "dlrm.forward")
        rec.wrap(trainer.model.bottom, "forward", "nn.mlp")
        rec.wrap(trainer.model.top, "forward", "nn.mlp")
        rec.wrap(trainer, "backward", "nn.backward")
        rec.wrap(trainer.optimizer, "step", "nn.optim_step")
        for scheme, embedding in zip(SCHEMES, trainer.embeddings):
            rec.wrap(embedding, "forward", "train.read")
            rec.wrap(embedding, "apply_gradients", "train.writeback")
            rec.wrap(embedding.oram, "access_batch", "lookahead.batch")
            instrument_oram(rec, embedding.oram, scheme)

    def counts(self) -> Dict[str, float]:
        return oram_counts(self._orams())

    def layer_metrics(self, spans, ops, counts) -> Dict[str, float]:
        step_ms = inclusive_seconds(spans, "op") * 1e3 / ops
        read_ms = inclusive_seconds(spans, "train.read") * 1e3 / ops
        writeback_ms = inclusive_seconds(spans, "train.writeback") * 1e3 / ops
        batches = calls_by_name(spans)["lookahead.batch"]
        return {
            "train.read_ms": read_ms,
            "train.writeback_ms": writeback_ms,
            "train.dense_ms": step_ms - read_ms - writeback_ms,
            "posmap.recursive_total_ms": inclusive_seconds(
                spans, "posmap.recursive") * 1e3 / ops,
            "posmap.flat_calls": calls_per_op(spans, "posmap.flat", ops),
            "posmap.ops_per_access": counts["posmap_ops"] / counts["accesses"],
            "stash.calls": calls_per_op(spans, "stash", ops),
            "stash.peak_occupancy": float(max(
                oram.stash.peak_occupancy for oram in self._orams())),
            "tree.bucket_reads": counts["bucket_reads"] / ops,
            "tree.bucket_writes": counts["bucket_writes"] / ops,
            "lookahead.fetched_buckets": counts["top_bucket_reads"] / batches,
        }

    def probes(self, quick: bool) -> Dict[str, float]:
        return probes.lookahead_probes(quick)
