"""The common interface every embedding-generation method implements.

The paper's taxonomy (Fig 2) distinguishes storage-based methods (table
lookup, linear scan, ORAM-protected table) from the computation-based DHE.
All of them are exposed here as :class:`EmbeddingGenerator` modules with:

* ``forward(indices) -> Tensor`` — generate embeddings for integer indices;
* ``generate_traced(indices, tracer)`` — the eval-mode ``forward`` with a
  :class:`~repro.oblivious.trace.MemoryTracer` bound, to which each
  ``forward`` declares its own memory accesses (the audited run is the
  timed run, not a model of it);
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
from repro.oblivious.trace import MemoryTracer
from repro.utils.validation import integer_indices


class EmbeddingGenerator(Module):
    """Base class for all embedding generation methods."""

    #: short technique identifier used by the profiler and reports
    technique: str = "abstract"
    #: whether the memory access pattern is independent of the index
    is_oblivious: bool = False
    #: the tracer ``forward`` declares its accesses to; bound only while
    #: :meth:`generate_traced` runs, ``None`` (declare nothing) otherwise
    _tracer: Optional[MemoryTracer] = None

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
        return self.forward(integer_indices(indices)).data

    def generate_traced(self, indices, tracer: MemoryTracer) -> np.ndarray:
        """Eval-mode :meth:`generate` of the flattened ``indices`` with
        ``tracer`` bound to every generator in this module's tree, so the
        ``forward`` that runs declares its accesses to it.

        Every submodule's train/eval mode and every generator's binding are
        restored afterwards, also when ``forward`` raises.
        """
        modules = list(self.modules())
        modes = [module.training for module in modules]
        generators = [module for module in modules
                      if isinstance(module, EmbeddingGenerator)]
        bindings = [generator._tracer for generator in generators]
        try:
            for generator in generators:
                generator._tracer = tracer
            self.eval()
            return self.generate(integer_indices(indices).reshape(-1))
        finally:
            for module, mode in zip(modules, modes):
                module.training = mode
            for generator, binding in zip(generators, bindings):
                generator._tracer = binding

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
