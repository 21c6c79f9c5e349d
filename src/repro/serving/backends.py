"""Execution backends: the one seam through which latencies are resolved.

Everything that asks "how long does embedding generation take under this
configuration?" — the serving engine, the offline profiler (Algorithm 2),
DLRM's inference accounting, and the figure benches — goes through the
:class:`ExecutionBackend` protocol. Three implementations answer:

* :class:`ModelledBackend` — the calibrated analytic platform model
  (:mod:`repro.costmodel.latency`), standing in for the paper's on-SGX
  measurements;
* :class:`MeasuredBackend` — wall-clock timing of this library's executable
  :class:`~repro.embedding.base.EmbeddingGenerator` objects, driven through
  their ``batched_forward`` seam;
* :class:`LazyMeasuredBackend` — the same timing with a
  :mod:`repro.lazy` graph-capture runtime active, so the oblivious hot
  paths replay cached fused graphs (``"measured-lazy"``).

Before this seam existed the per-table latency logic was re-implemented by
the server, the profiler, and the experiment scripts; now each of them asks
a backend.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.costmodel.latency import (
    DheShape,
    dhe_latency,
    dhe_table_shape,
    linear_scan_latency,
    lookup_latency,
    oram_latency,
)
from repro.utils.timing import time_callable
from repro.utils.validation import check_positive

#: technique identifiers every backend understands
BACKEND_TECHNIQUES = ("lookup", "scan", "dhe-uniform", "dhe-varied",
                      "path-oram", "circuit-oram")


class ExecutionBackend:
    """Protocol for resolving embedding-generation latency.

    Implementations answer two kinds of question:

    * :meth:`technique_latency` — latency of an abstract (technique, table)
      pair under an execution configuration, used by the profiler and the
      allocation accounting;
    * :meth:`generator_latency` — latency of a *live*
      :class:`~repro.embedding.base.EmbeddingGenerator` object, used by the
      DLRM inference path.

    Any object with these two methods satisfies the protocol; subclassing
    is optional.
    """

    #: short identifier reported by profilers and engines
    name: str = "abstract"

    def technique_latency(self, technique: str, table_size: int, dim: int,
                          batch: int, threads: int = 1) -> float:
        """Seconds for one batch of lookups against one table."""
        raise NotImplementedError

    def generator_latency(self, generator, batch: int,
                          threads: int = 1) -> float:
        """Seconds for one batch through a live embedding generator."""
        raise NotImplementedError


class ModelledBackend(ExecutionBackend):
    """Analytic latency resolution via the calibrated platform model."""

    name = "modelled"

    def __init__(self, uniform_shape: Optional[DheShape] = None) -> None:
        self.uniform_shape = uniform_shape

    def technique_latency(self, technique: str, table_size: int, dim: int,
                          batch: int, threads: int = 1) -> float:
        check_positive("table_size", table_size)
        if technique == "lookup":
            return lookup_latency(table_size, dim, batch, threads)
        if technique == "scan":
            return linear_scan_latency(table_size, dim, batch, threads)
        if technique in ("dhe-uniform", "dhe-varied"):
            shape = dhe_table_shape(table_size, dim, self.uniform_shape,
                                    varied=technique == "dhe-varied")
            return dhe_latency(shape, batch, threads)
        if technique == "path-oram":
            return oram_latency("path", table_size, dim, batch, threads)
        if technique == "circuit-oram":
            return oram_latency("circuit", table_size, dim, batch, threads)
        raise ValueError(f"unknown technique {technique!r}")

    def generator_latency(self, generator, batch: int,
                          threads: int = 1) -> float:
        return generator.modelled_latency(batch, threads)


class MeasuredBackend(ExecutionBackend):
    """Wall-clock latency of the executable generators.

    Threads are ignored (this process is single-threaded); generators are
    cached per (technique, table size, dim) so repeated queries — a profiling
    sweep, a serving run — pay construction once.
    """

    name = "measured"

    def __init__(self, uniform_shape: Optional[DheShape] = None,
                 repeats: int = 3) -> None:
        check_positive("repeats", repeats)
        self.uniform_shape = uniform_shape
        self.repeats = repeats
        self._generators: Dict[Tuple[str, int, int], object] = {}

    def _build(self, technique: str, size: int, dim: int):
        from repro.embedding import (
            CircuitOramEmbedding,
            DHEEmbedding,
            LinearScanEmbedding,
            PathOramEmbedding,
            TableEmbedding,
        )

        if technique == "lookup":
            return TableEmbedding(size, dim, rng=0)
        if technique == "scan":
            return LinearScanEmbedding(size, dim, rng=0)
        if technique in ("dhe-uniform", "dhe-varied"):
            shape = dhe_table_shape(size, dim, self.uniform_shape,
                                    varied=technique == "dhe-varied")
            return DHEEmbedding(size, dim, shape=shape, rng=0)
        if technique == "path-oram":
            return PathOramEmbedding(size, dim, rng=0)
        if technique == "circuit-oram":
            return CircuitOramEmbedding(size, dim, rng=0)
        raise ValueError(f"unknown technique {technique!r}")

    def _generator(self, technique: str, size: int, dim: int):
        key = (technique, size, dim)
        if key not in self._generators:
            self._generators[key] = self._build(technique, size, dim)
        return self._generators[key]

    def technique_latency(self, technique: str, table_size: int, dim: int,
                          batch: int, threads: int = 1) -> float:
        check_positive("table_size", table_size)
        generator = self._generator(technique, table_size, dim)
        return self.generator_latency(generator, batch, threads)

    def generator_latency(self, generator, batch: int,
                          threads: int = 1) -> float:
        check_positive("batch", batch)
        rng = np.random.default_rng(generator.num_embeddings)
        indices = rng.integers(0, generator.num_embeddings, size=batch)
        return time_callable(lambda: generator.batched_forward(indices),
                             repeats=self.repeats)


class LazyMeasuredBackend(MeasuredBackend):
    """Wall-clock latency with the lazy graph-capture runtime active.

    Identical to :class:`MeasuredBackend` except that every timed call runs
    under an ambient :class:`repro.lazy.NumpyRuntime`: the oblivious hot
    paths (DHE decode, vectorised scan) replay cached fused graphs instead
    of dispatching op by op. Generators are timed in eval mode (captures
    are inference-only) and each capture is warmed up outside the timed
    region, so the numbers reflect steady-state replay — the regime a
    serving loop lives in — not one-off capture cost.
    """

    name = "measured-lazy"

    def __init__(self, uniform_shape: Optional[DheShape] = None,
                 repeats: int = 3, runtime=None) -> None:
        super().__init__(uniform_shape, repeats)
        if runtime is None:
            from repro.lazy import NumpyRuntime

            runtime = NumpyRuntime()
        self.runtime = runtime

    def generator_latency(self, generator, batch: int,
                          threads: int = 1) -> float:
        from repro.lazy import use_runtime

        check_positive("batch", batch)
        was_training = getattr(generator, "training", False)
        generator.eval()
        rng = np.random.default_rng(generator.num_embeddings)
        indices = rng.integers(0, generator.num_embeddings, size=batch)
        try:
            with use_runtime(self.runtime):
                generator.batched_forward(indices)  # warm-up: capture + alloc
                return time_callable(
                    lambda: generator.batched_forward(indices),
                    repeats=self.repeats)
        finally:
            generator.train(was_training)


BackendLike = Union[str, ExecutionBackend]

#: every name :func:`resolve_backend` accepts, in resolution order — the
#: single registry the error message and the docs enumerate from
BACKEND_NAMES = ("modelled", "measured", "measured-lazy")


def resolve_backend(backend: BackendLike,
                    uniform_shape: Optional[DheShape] = None
                    ) -> ExecutionBackend:
    """Turn a name from :data:`BACKEND_NAMES` or an instance into a backend.

    Any duck-typed object with ``technique_latency``/``generator_latency``
    passes through unchanged. An unknown name raises :class:`ValueError`
    listing every valid name.
    """
    if isinstance(backend, str):
        if backend == "modelled":
            return ModelledBackend(uniform_shape)
        if backend == "measured":
            return MeasuredBackend(uniform_shape)
        if backend == "measured-lazy":
            return LazyMeasuredBackend(uniform_shape)
        raise ValueError(
            f"unknown backend {backend!r}; known: "
            + ", ".join(repr(name) for name in BACKEND_NAMES))
    if hasattr(backend, "technique_latency") and \
            hasattr(backend, "generator_latency"):
        return backend
    raise TypeError(f"not an execution backend: {backend!r}")
