"""Non-secure table lookup — the baseline whose index leaks (Fig 2 (1))."""

from __future__ import annotations


import numpy as np

from repro.costmodel.latency import lookup_latency
from repro.costmodel.memory import table_bytes
from repro.embedding.base import EmbeddingGenerator
from repro.nn.layers import EmbeddingTable
from repro.nn.tensor import Tensor
from repro.oblivious.trace import MemoryTracer, TracedArray
from repro.utils.rng import SeedLike


class TableEmbedding(EmbeddingGenerator):
    """Plain (vulnerable) embedding-table lookup; trainable."""

    technique = "lookup"
    is_oblivious = False

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: SeedLike = None) -> None:
        super().__init__(num_embeddings, embedding_dim)
        self.table = EmbeddingTable(num_embeddings, embedding_dim, rng=rng)

    @property
    def weight(self):
        return self.table.weight

    def forward(self, indices) -> Tensor:
        return self.table(self._check_indices(indices))

    def generate_traced(self, indices, tracer: MemoryTracer) -> np.ndarray:
        """Lookup with the access pattern recorded — shows the leak."""
        indices = self._check_indices(indices).reshape(-1)
        traced = TracedArray(self.weight.data, name="table", tracer=tracer)
        return np.stack([traced.read(int(index)) for index in indices])

    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        return lookup_latency(self.num_embeddings, self.embedding_dim,
                              batch, threads)

    def footprint_bytes(self) -> int:
        return table_bytes(self.num_embeddings, self.embedding_dim)
