"""Linear-scan-protected table (§IV-A1, §V-A2).

The scan is ``onehot(indices) @ table`` — the same arithmetic the AVX-512
blend performs: every row participates in every query. Training builds it
as a differentiable ``Tensor`` matmul; eval mode runs it on plain ndarrays
(:func:`~repro.oblivious.linear_scan.linear_scan_batch_vectorized`) and
wraps one ``Tensor`` at the end. Under
:meth:`~repro.embedding.base.EmbeddingGenerator.generate_traced` that same
eval-mode ``forward`` declares one full sweep of ``scan.table`` per query,
so the audit replays the path that is timed.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.costmodel.latency import linear_scan_latency
from repro.costmodel.memory import table_bytes
from repro.embedding.base import EmbeddingGenerator
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.oblivious.linear_scan import linear_scan_batch_vectorized
from repro.telemetry.runtime import get_registry
from repro.utils.rng import SeedLike, new_rng


class LinearScanEmbedding(EmbeddingGenerator):
    """Oblivious linear scan of an embedding table; trainable."""

    technique = "scan"
    is_oblivious = True

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: SeedLike = None,
                 weight: Optional[np.ndarray] = None) -> None:
        super().__init__(num_embeddings, embedding_dim)
        if weight is not None:
            weight = np.asarray(weight, dtype=np.float64)
            if weight.shape != (num_embeddings, embedding_dim):
                raise ValueError(
                    f"weight shape {weight.shape} != "
                    f"({num_embeddings}, {embedding_dim})")
            self.weight = Parameter(weight.copy())
        else:
            scale = 1.0 / math.sqrt(embedding_dim)
            self.weight = Parameter(new_rng(rng).uniform(
                -scale, scale, size=(num_embeddings, embedding_dim)))

    def forward(self, indices) -> Tensor:
        indices = self._check_indices(indices)
        registry = get_registry()
        flat = indices.reshape(-1)
        with registry.span("embedding.scan.forward", batch=int(flat.size),
                           rows=self.num_embeddings):
            if self._tracer is not None:  # one full sweep per query
                self._tracer.record_each("scan.table", np.tile(
                    np.arange(self.num_embeddings), flat.size))
            if not self.training:
                # The same masked matmul on ndarrays; no grad graph needed.
                out = Tensor(linear_scan_batch_vectorized(
                    self.weight.data, flat))
            else:
                onehot = np.zeros((flat.size, self.num_embeddings))
                onehot[np.arange(flat.size), flat] = 1.0
                out = Tensor(onehot) @ self.weight
        registry.counter("embedding.scan.queries_total").inc(int(flat.size))
        registry.counter("embedding.scan.rows_swept_total").inc(
            int(flat.size) * self.num_embeddings)
        return out.reshape(*indices.shape, self.embedding_dim)

    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        return linear_scan_latency(self.num_embeddings, self.embedding_dim,
                                   batch, threads)

    def footprint_bytes(self) -> int:
        return table_bytes(self.num_embeddings, self.embedding_dim)
