"""End-to-end secure online training: batcher -> lookahead ORAM -> autograd.

One :class:`TrainingLoop` run wires the whole pipeline together:

1. a synthetic CTR trace is pushed through the serving
   :class:`~repro.serving.batcher.DynamicBatcher`, whose ``lookahead`` hook
   hands each *formed* batch's sparse ids over before dispatch;
2. each formed batch is announced to the per-feature
   :class:`~repro.training.embedding.OnlineOramEmbedding` tables and served
   with one batched lookahead ORAM access per table;
3. the DLRM forward/backward runs through ``repro.nn`` autograd;
   embedding-row gradients are written back through the *same* oblivious
   batched path, and the dense (MLP) weights are updated in place by a
   ``repro.nn.optim`` optimizer — so lazily captured graphs replay the
   fresh values without re-capture.

The loop is deterministic given ``(config, seed)``; ``batched=False``
builds the identical model over the sequential ORAM fallback, which is the
baseline arm of the value-parity and amortization gates in
``repro.training.bench``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.data.criteo import DlrmDatasetSpec, SyntheticCtrDataset
from repro.models.dlrm import DLRM
from repro.nn.losses import bce_with_logits
from repro.nn.optim import Adam
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.serving.batcher import BatchingPolicy, DynamicBatcher, ScheduledBatch
from repro.training.embedding import OnlineOramEmbedding
from repro.utils.rng import new_rng
from repro.utils.validation import check_in, check_positive

_ORAM_CLASSES = {"path": PathORAM, "circuit": CircuitORAM}

#: the model every run trains (small by design: a run is a gate)
TABLE_SIZES = (64, 64)
NUM_DENSE = 4
EMBEDDING_DIM = 8
BOTTOM_HIDDEN = 16
TOP_HIDDEN = 16
#: Adam's step size on the dense weights; the oblivious SGD step size on
#: the embedding rows
DENSE_LR = 0.02
EMBEDDING_LR = 0.1
#: arrival trace shape fed to the DynamicBatcher. The wait bound is
#: generous so every training batch forms full and deterministically.
ARRIVAL_RATE_RPS = 256.0
SERVICE_SECONDS = 0.004
MAX_WAIT_SECONDS = 1e6


@dataclass(frozen=True)
class TrainingConfig:
    """One secure-online-training run."""

    steps: int = 24
    batch_size: int = 16
    scheme: str = "path"                 # "path" | "circuit"
    batched: bool = True

    def __post_init__(self) -> None:
        check_positive("steps", self.steps)
        check_positive("batch_size", self.batch_size)
        check_in("scheme", self.scheme, tuple(_ORAM_CLASSES))

    def to_dict(self) -> Dict:
        return {
            "steps": self.steps,
            "batch_size": self.batch_size,
            "scheme": self.scheme,
            "table_sizes": list(TABLE_SIZES),
            "num_dense": NUM_DENSE,
            "embedding_dim": EMBEDDING_DIM,
            "optimizer": "adam",
            "dense_lr": DENSE_LR,
            "embedding_lr": EMBEDDING_LR,
            "batched": self.batched,
        }


@dataclass(frozen=True)
class StepMetrics:
    """Loss and ORAM work done by one training step (deltas, not totals)."""

    step: int
    loss: float
    embedding_grad_norm: float
    oram_accesses: int
    posmap_ops: int
    bucket_io: int
    stash_high_water: int

    def to_dict(self) -> Dict:
        return {
            "step": self.step,
            "loss": self.loss,
            "embedding_grad_norm": self.embedding_grad_norm,
            "oram_accesses": self.oram_accesses,
            "posmap_ops": self.posmap_ops,
            "bucket_io": self.bucket_io,
            "stash_high_water": self.stash_high_water,
        }


@dataclass
class TrainingReport:
    """Everything a gate needs to judge one training run."""

    config: TrainingConfig
    seed: int
    steps: List[StepMetrics] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def losses(self) -> List[float]:
        return [m.loss for m in self.steps]

    def loss_window_means(self, window: int = 4) -> Tuple[float, float]:
        """Mean loss over the first and last ``window`` steps."""
        losses = self.losses
        window = min(window, len(losses))
        return (float(np.mean(losses[:window])),
                float(np.mean(losses[-window:])))

    def total_accesses(self) -> int:
        return sum(m.oram_accesses for m in self.steps)

    def posmap_ops_per_access(self) -> float:
        return sum(m.posmap_ops for m in self.steps) / max(
            1, self.total_accesses())

    def bucket_io_per_access(self) -> float:
        return sum(m.bucket_io for m in self.steps) / max(
            1, self.total_accesses())

    def stash_high_water(self) -> int:
        return max((m.stash_high_water for m in self.steps), default=0)

    def to_dict(self) -> Dict:
        first, last = self.loss_window_means()
        return {
            "config": self.config.to_dict(),
            "seed": self.seed,
            "steps": [m.to_dict() for m in self.steps],
            "summary": {
                "first_window_loss": first,
                "last_window_loss": last,
                "total_accesses": self.total_accesses(),
                "posmap_ops_per_access": self.posmap_ops_per_access(),
                "bucket_io_per_access": self.bucket_io_per_access(),
                "stash_high_water": self.stash_high_water(),
            },
        }


class TrainingLoop:
    """Drives secure online training of a DLRM over ORAM-resident tables."""

    def __init__(self, config: TrainingConfig = TrainingConfig(),
                 seed: int = 0) -> None:
        self.config = config
        self.seed = int(seed)
        spec = DlrmDatasetSpec(name="train-synthetic", num_dense=NUM_DENSE,
                               table_sizes=TABLE_SIZES,
                               embedding_dim=EMBEDDING_DIM)
        self.dataset = SyntheticCtrDataset(spec, seed=self.seed)

        # One generator feeds model init and every per-table ORAM, in a
        # fixed construction order, so (config, seed) pins the whole run.
        generator = new_rng(self.seed)
        oram_class = _ORAM_CLASSES[config.scheme]
        self.embeddings: List[OnlineOramEmbedding] = []

        def factory(size: int, dim: int) -> OnlineOramEmbedding:
            emb = OnlineOramEmbedding(size, dim, oram_class=oram_class,
                                      rng=generator, batched=config.batched)
            self.embeddings.append(emb)
            return emb

        self.model = DLRM(
            spec, factory,
            bottom_sizes=(NUM_DENSE, BOTTOM_HIDDEN, EMBEDDING_DIM),
            top_hidden_sizes=(TOP_HIDDEN,),
            rng=generator)
        # model.parameters() holds only the dense MLP weights — the
        # embedding rows live in the ORAMs, not in autograd Parameters.
        self.optimizer = Adam(list(self.model.parameters()), lr=DENSE_LR)
        self.batcher = DynamicBatcher(
            BatchingPolicy(max_batch_size=config.batch_size,
                           max_wait_seconds=MAX_WAIT_SECONDS),
            lookahead=self._on_batch_formed)
        self._formed: List[Tuple[ScheduledBatch, np.ndarray]] = []

    def _on_batch_formed(self, batch: ScheduledBatch,
                         block_ids: np.ndarray) -> None:
        """The DynamicBatcher lookahead consumer: queue formed batches."""
        self._formed.append((batch, np.asarray(block_ids)))

    # ------------------------------------------------------------------
    def run(self) -> TrainingReport:
        config = self.config
        num_requests = config.steps * config.batch_size
        drawn = [self.dataset.batch(config.batch_size)
                 for _ in range(config.steps)]
        dense = np.concatenate([b.dense for b in drawn])
        sparse = np.concatenate([b.sparse for b in drawn])
        labels = np.concatenate([b.labels for b in drawn])

        # The serving seam: requests arrive as a trace, the batcher forms
        # the training batches, and its lookahead hook hands each batch's
        # ids over before dispatch.
        arrivals = np.arange(num_requests) / ARRIVAL_RATE_RPS
        self._formed.clear()
        self.batcher.schedule(arrivals,
                              lambda n: SERVICE_SECONDS,
                              block_ids=sparse)

        report = TrainingReport(config=config, seed=self.seed)
        self.model.train()
        posmap_before = self._posmap_ops()
        io_before = self._bucket_io()
        accesses_before = self._accesses()
        for step, (batch, ids) in enumerate(self._formed):
            for feature, embedding in enumerate(self.embeddings):
                embedding.announce(ids[:, feature])
            self.optimizer.zero_grad()
            logits = self.model(dense[batch.first:batch.last],
                                sparse[batch.first:batch.last])
            loss = bce_with_logits(logits, labels[batch.first:batch.last])
            loss.backward()
            grad_norm = 0.0
            for embedding in self.embeddings:
                grad_norm += embedding.apply_gradients(EMBEDDING_LR)
            self.optimizer.step()

            posmap_now = self._posmap_ops()
            io_now = self._bucket_io()
            accesses_now = self._accesses()
            report.steps.append(StepMetrics(
                step=step,
                loss=float(loss.item()),
                embedding_grad_norm=float(grad_norm),
                oram_accesses=accesses_now - accesses_before,
                posmap_ops=posmap_now - posmap_before,
                bucket_io=io_now - io_before,
                stash_high_water=max(
                    emb.oram.stash.peak_occupancy
                    for emb in self.embeddings)))
            posmap_before, io_before = posmap_now, io_now
            accesses_before = accesses_now
        return report

    # ------------------------------------------------------------------
    def _posmap_ops(self) -> int:
        return sum(emb.oram.position_map_ops() for emb in self.embeddings)

    def _bucket_io(self) -> int:
        return sum(emb.oram.stats.bucket_reads + emb.oram.stats.bucket_writes
                   for emb in self.embeddings)

    def _accesses(self) -> int:
        return sum(emb.oram.stats.accesses for emb in self.embeddings)

    def table_weights(self) -> List[np.ndarray]:
        """Current contents of every embedding table (parity checks)."""
        return [emb.dump_weights() for emb in self.embeddings]

