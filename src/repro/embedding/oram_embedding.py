"""Embedding tables protected by tree ORAM (§IV-A2).

A per-table ORAM instance holds the trained rows; each lookup is one ORAM
access (inherently sequential across a batch — the paper's §V-A1 notes the
internal structures must update between accesses, which is why ORAM scales
poorly with batch size in Fig 12).

These generators are inference-only: training uses the table/DHE
representation, which is then loaded into the ORAM (the paper trains DHE
and materialises tables; see Algorithm 2). The table trained *inside* an
ORAM, :class:`repro.training.OnlineOramEmbedding`, shares their base.
"""

from __future__ import annotations

from typing import Optional, Type

import numpy as np

from repro.costmodel.latency import oram_latency
from repro.costmodel.memory import tree_oram_bytes
from repro.embedding.base import EmbeddingGenerator
from repro.nn.tensor import Tensor
from repro.oblivious.trace import MemoryTracer
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.controller import OramController
from repro.oram.path_oram import PathORAM
from repro.utils.rng import SeedLike


class _OramEmbeddingBase(EmbeddingGenerator):
    """Shared machinery for the ORAM-table embedding generators."""

    is_oblivious = True
    oram_class: Type[OramController] = OramController

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 weight: Optional[np.ndarray] = None,
                 rng: SeedLike = None,
                 tracer: Optional[MemoryTracer] = None,
                 **oram_kwargs) -> None:
        super().__init__(num_embeddings, embedding_dim)
        if weight is None:
            weight = np.zeros((num_embeddings, embedding_dim))
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != (num_embeddings, embedding_dim):
            raise ValueError(
                f"weight shape {weight.shape} != ({num_embeddings}, {embedding_dim})")
        self.oram = self.oram_class(num_embeddings, embedding_dim,
                                    initial_payloads=weight, rng=rng,
                                    tracer=tracer, **oram_kwargs)
        #: the controller's cost-model name (for the analytic models)
        self.scheme = self.oram.scheme

    def forward(self, indices) -> Tensor:
        indices = self._check_indices(indices)
        flat = indices.reshape(-1)
        rows = np.stack([self.oram.read(int(index)) for index in flat]) \
            if flat.size else np.zeros((0, self.embedding_dim))
        return Tensor(rows.reshape(*indices.shape, self.embedding_dim))

    def generate_traced(self, indices, tracer: MemoryTracer) -> np.ndarray:
        """Refused: the ORAM records to the tracer it was built with."""
        raise TypeError(
            f"{type(self).__name__} records its accesses to the tracer its "
            "ORAM was constructed with (tracer=...), not to one per call")

    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        return oram_latency(self.scheme, self.num_embeddings,
                            self.embedding_dim, batch, threads)

    def footprint_bytes(self) -> int:
        return tree_oram_bytes(self.num_embeddings, self.embedding_dim,
                               scheme=self.scheme)


class PathOramEmbedding(_OramEmbeddingBase):
    """Embedding table inside a Path ORAM."""

    technique = "path-oram"
    oram_class = PathORAM


class CircuitOramEmbedding(_OramEmbeddingBase):
    """Embedding table inside a Circuit ORAM (the paper's best ORAM baseline)."""

    technique = "circuit-oram"
    oram_class = CircuitORAM

