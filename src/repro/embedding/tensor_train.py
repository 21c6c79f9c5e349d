"""Tensor-Train (TT) compressed embeddings — the insecure comparator (§VII).

TT-Rec (Yin et al.) factorises an (n x d) table into three small cores; a
lookup decomposes the index into per-core sub-indices and multiplies the
gathered slices. The paper cites it as a *memory* optimization that is
**not** side-channel secure: the sub-index gathers still reveal the index.
We implement it so the claim is checkable (its traced lookup leaks) and so
the DHE-vs-TT footprint/latency trade-off can be benchmarked.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.embedding.base import EmbeddingGenerator
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.oblivious.trace import READ
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive


def balanced_factors(value: int, parts: int = 3) -> Tuple[int, ...]:
    """Factors ``f_1..f_parts`` with product >= value, as balanced as possible.

    Index factorisation may over-cover (product > value); unused slots are
    simply never addressed — standard practice in TT embedding layers.
    """
    check_positive("value", value)
    check_positive("parts", parts)
    root = value ** (1.0 / parts)
    factors = [max(1, int(math.floor(root)))] * parts
    # Grow factors round-robin until the product covers the value.
    position = 0
    while math.prod(factors) < value:
        factors[position % parts] += 1
        position += 1
    return tuple(factors)


def exact_factors(value: int, parts: int = 3) -> Tuple[int, ...]:
    """Factors with an exact product (for the embedding dimension)."""
    check_positive("value", value)
    factors: List[int] = []
    remaining = value
    for index in range(parts - 1):
        target = round(remaining ** (1.0 / (parts - index)))
        divisor = 1
        # nearest divisor of `remaining` to the balanced target
        for candidate in range(1, remaining + 1):
            if remaining % candidate == 0 and \
                    abs(candidate - target) < abs(divisor - target):
                divisor = candidate
        factors.append(divisor)
        remaining //= divisor
    factors.append(remaining)
    return tuple(factors)


class TTEmbedding(EmbeddingGenerator):
    """Three-core tensor-train embedding; compressed but NOT oblivious."""

    technique = "tt"
    is_oblivious = False

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rank: int = 8, rng: SeedLike = None) -> None:
        super().__init__(num_embeddings, embedding_dim)
        check_positive("rank", rank)
        self.rank = rank
        self.index_factors = balanced_factors(num_embeddings, 3)
        self.dim_factors = exact_factors(embedding_dim, 3)
        generator = new_rng(rng)
        n1, n2, n3 = self.index_factors
        d1, d2, d3 = self.dim_factors
        scale = (1.0 / math.sqrt(embedding_dim)) ** (1.0 / 3.0)
        # Cores stored row-major by sub-index so gathers are row reads.
        self.core1 = Parameter(generator.normal(0, scale, size=(n1, d1 * rank)))
        self.core2 = Parameter(generator.normal(0, scale,
                                                size=(n2, rank * d2 * rank)))
        self.core3 = Parameter(generator.normal(0, scale, size=(n3, rank * d3)))

    # ------------------------------------------------------------------
    def split_index(self, indices: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Mixed-radix decomposition of flat indices into core sub-indices."""
        n1, n2, n3 = self.index_factors
        i3 = indices % n3
        i2 = (indices // n3) % n2
        i1 = indices // (n2 * n3)
        return i1, i2, i3

    def forward(self, indices) -> Tensor:
        indices = self._check_indices(indices)
        flat = indices.reshape(-1)
        batch = flat.size
        i1, i2, i3 = self.split_index(flat)
        if self._tracer is not None:  # the per-core gathers: the leak
            for parts in zip(i1.tolist(), i2.tolist(), i3.tolist()):
                for core, part in zip(("tt.core1", "tt.core2", "tt.core3"),
                                      parts):
                    self._tracer.record(READ, core, part)
        d1, d2, d3 = self.dim_factors
        r = self.rank
        g1 = self.core1.gather_rows(i1).reshape(batch, d1, r)
        g2 = self.core2.gather_rows(i2).reshape(batch, r, d2 * r)
        g3 = self.core3.gather_rows(i3).reshape(batch, r, d3)
        left = (g1 @ g2).reshape(batch, d1 * d2, r)
        full = (left @ g3).reshape(batch, d1 * d2 * d3)
        return full.reshape(*indices.shape, self.embedding_dim)

    # ------------------------------------------------------------------
    def parameter_count(self) -> int:
        return int(self.core1.size + self.core2.size + self.core3.size)

    def footprint_bytes(self) -> int:
        return self.parameter_count() * 4

    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        d1, d2, d3 = self.dim_factors
        r = self.rank
        flops = batch * 2 * (d1 * r * d2 * r + d1 * d2 * r * d3)
        return flops / DEFAULT_PLATFORM.flop_rate(batch, threads) + 2e-6
