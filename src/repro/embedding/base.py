"""The common interface every embedding-generation method implements.

The paper's taxonomy (Fig 2) distinguishes storage-based methods (table
lookup, linear scan, ORAM-protected table) from the computation-based DHE.
All of them are exposed here as :class:`EmbeddingGenerator` modules with:

* ``forward(indices) -> Tensor`` — generate embeddings for integer indices;
* ``is_oblivious`` — whether the access pattern is index-independent;
* ``modelled_latency(batch, threads)`` — the calibrated analytic latency
  used by the profiling/threshold machinery and the figure benchmarks;
* ``footprint_bytes()`` — the representation's memory footprint.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.validation import integer_indices


class EmbeddingGenerator(Module):
    """Base class for all embedding generation methods."""

    #: short technique identifier used by the profiler and reports
    technique: str = "abstract"
    #: whether the memory access pattern is independent of the index
    is_oblivious: bool = False

    def __init__(self, num_embeddings: int, embedding_dim: int) -> None:
        super().__init__()
        if num_embeddings <= 0:
            raise ValueError(f"num_embeddings must be positive, got {num_embeddings}")
        if embedding_dim <= 0:
            raise ValueError(f"embedding_dim must be positive, got {embedding_dim}")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim

    # ------------------------------------------------------------------
    def forward(self, indices) -> Tensor:
        raise NotImplementedError

    def generate(self, indices) -> np.ndarray:
        """Inference-only convenience: embeddings as a plain array."""
        return self.forward(np.asarray(indices)).data

    def batched_forward(self, indices,
                        batch_size: Optional[int] = None) -> np.ndarray:
        """Inference in chunks of ``batch_size`` along the leading axis.

        The seam measured execution backends drive: one call is one serving
        batch. ``batch_size=None`` runs the whole request in a single chunk.
        """
        indices = np.asarray(indices)
        if batch_size is None:
            return self.generate(indices)
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        chunks = [self.generate(indices[first:first + batch_size])
                  for first in range(0, indices.shape[0], batch_size)]
        return np.concatenate(chunks, axis=0) if chunks else np.empty(
            (0, self.embedding_dim))

    def forward_pooled(self, indices, mode: str = "sum",
                       lengths=None) -> Tensor:
        """Multi-hot lookup with pooling: (batch, bag) indices -> (batch, dim).

        Real DLRM sparse features are bags of ids (e.g. recent purchases)
        reduced by sum/mean pooling. The pooling itself is a dense reduction
        with no data-dependent access, so a generator's obliviousness is
        inherited; the *bag length* is visible, which the threat model does
        not hide (§III: the number of accesses is public).

        ``lengths`` gives the true per-row bag length for padded bags: rows
        are reduced over their first ``lengths[i]`` slots only, and mean
        pooling divides by the true length rather than the padded width.
        Padding slots must still hold valid indices (the pads are masked
        after lookup, keeping the access pattern length-independent).
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2:
            raise ValueError(
                f"pooled lookup expects (batch, bag) indices, got "
                f"{indices.shape}")
        if mode not in ("sum", "mean"):
            raise ValueError(f"mode must be 'sum' or 'mean', got {mode!r}")
        vectors = self.forward(indices)          # (batch, bag, dim)
        if lengths is None:
            pooled = vectors.sum(axis=1)
            if mode == "mean":
                pooled = pooled * (1.0 / indices.shape[1])
            return pooled
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (indices.shape[0],):
            raise ValueError(
                f"lengths must have shape ({indices.shape[0]},), got "
                f"{lengths.shape}")
        if lengths.size and (lengths.min() < 1
                             or lengths.max() > indices.shape[1]):
            raise ValueError(
                f"lengths must be in [1, {indices.shape[1]}] for bags of "
                f"width {indices.shape[1]}")
        mask = (np.arange(indices.shape[1]) < lengths[:, None])
        pooled = (vectors * mask[:, :, None].astype(np.float64)).sum(axis=1)
        if mode == "mean":
            pooled = pooled * (1.0 / lengths.astype(np.float64))[:, None]
        return pooled

    def generate_pooled(self, indices, mode: str = "sum",
                        lengths=None) -> np.ndarray:
        return self.forward_pooled(indices, mode=mode, lengths=lengths).data

    # ------------------------------------------------------------------
    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        """Calibrated analytic latency (seconds) for one batch."""
        raise NotImplementedError

    def footprint_bytes(self) -> int:
        """Memory footprint of this representation."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        """``indices`` as int64: ``TypeError`` for a non-integer dtype,
        ``IndexError`` for an id out of range."""
        indices = integer_indices(indices).astype(np.int64, copy=False)
        invalid = (indices < 0) | (indices >= self.num_embeddings)
        if indices.size and invalid.any():
            position = np.unravel_index(int(np.argmax(invalid)),
                                        indices.shape)
            raise IndexError(
                f"index {int(indices[position])} at position "
                f"{tuple(int(p) for p in position)} is out of range for "
                f"table of {self.num_embeddings} rows")
        return indices

    def __repr__(self) -> str:
        return (f"{self.__class__.__name__}(n={self.num_embeddings}, "
                f"dim={self.embedding_dim})")
