"""Non-secure table lookup — the baseline whose index leaks (Fig 2 (1))."""

from __future__ import annotations

from repro.costmodel.latency import lookup_latency
from repro.costmodel.memory import table_bytes
from repro.embedding.base import EmbeddingGenerator
from repro.nn.layers import EmbeddingTable
from repro.nn.tensor import Tensor
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
        indices = self._check_indices(indices)
        if self._tracer is not None:  # one read per id: the leak
            self._tracer.record_each("table", indices)
        return self.table(indices)

    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        return lookup_latency(self.num_embeddings, self.embedding_dim,
                              batch, threads)

    def footprint_bytes(self) -> int:
        return table_bytes(self.num_embeddings, self.embedding_dim)
