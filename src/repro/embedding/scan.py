"""Linear-scan-protected table (§IV-A1, §V-A2).

Two execution modes share the same weights:

* the *performance* mode expresses the scan as ``onehot(indices) @ table``
  (the same arithmetic the AVX-512 blend performs — every row participates
  in every query), which keeps it differentiable and fast under numpy; in
  eval mode it runs on plain ndarrays and wraps one ``Tensor`` at the end;
* the *traced* mode executes the scalar scan against a
  :class:`~repro.oblivious.trace.TracedArray` so security tests can verify
  the full-sweep access pattern row by row.
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
from repro.oblivious.linear_scan import linear_scan_batch, linear_scan_batch_vectorized
from repro.oblivious.trace import MemoryTracer, TracedArray
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
            if not self.training:
                # The same masked matmul on ndarrays (replayed from the
                # graph cache under a lazy runtime); no grad graph needed.
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

    def generate_traced(self, indices, tracer: MemoryTracer) -> np.ndarray:
        """Scalar oblivious scan with every access recorded."""
        indices = self._check_indices(indices).reshape(-1)
        traced = TracedArray(self.weight.data, name="scan.table", tracer=tracer)
        return linear_scan_batch(traced, indices)

    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        return linear_scan_latency(self.num_embeddings, self.embedding_dim,
                                   batch, threads)

    def footprint_bytes(self) -> int:
        return table_bytes(self.num_embeddings, self.embedding_dim)
