"""Offline profiling of embedding-generation latency (Algorithm 2, step 1).

The profiler sweeps table sizes for each technique under each execution
configuration (batch size x thread count), producing the latency database
from which the scan/DHE switching thresholds are extracted (Fig 6).

Latencies are resolved through the
:class:`~repro.serving.backends.ExecutionBackend` protocol — the same seam
the serving engine uses — so "modelled vs measured" is a backend choice,
not profiler-private logic:

* ``"modelled"`` (default) — the calibrated analytic platform model,
  standing in for the paper's on-SGX measurements;
* ``"measured"`` — wall-clock timing of this library's executable
  implementations, used by ablations to check that modelled and measured
  curves have the same shape;
* any :class:`~repro.serving.backends.ExecutionBackend` instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.costmodel.latency import DheShape
from repro.serving.backends import (
    BACKEND_TECHNIQUES,
    BackendLike,
    resolve_backend,
)
from repro.utils.validation import check_positive

#: every backend technique but the leaking ``"lookup"`` baseline
TECHNIQUES = tuple(t for t in BACKEND_TECHNIQUES if t != "lookup")

#: default table-size grid: half-decade steps over the DLRM range
DEFAULT_SIZE_GRID: Tuple[int, ...] = tuple(
    int(round(10 ** (exponent / 2)))
    for exponent in range(4, 15)  # 100 .. 10^7
)


@dataclass(frozen=True)
class ProfileKey:
    """One profiled configuration."""

    technique: str
    table_size: int
    dim: int
    batch: int
    threads: int


@dataclass
class ProfileDatabase:
    """Latency lookups for profiled configurations."""

    entries: Dict[ProfileKey, float] = field(default_factory=dict)

    def record(self, key: ProfileKey, latency: float) -> None:
        self.entries[key] = latency

    def latency(self, technique: str, table_size: int, dim: int,
                batch: int, threads: int) -> float:
        key = ProfileKey(technique, table_size, dim, batch, threads)
        if key not in self.entries:
            raise KeyError(f"configuration not profiled: {key}")
        return self.entries[key]

    def curve(self, technique: str, dim: int, batch: int, threads: int,
              sizes: Sequence[int]) -> List[float]:
        return [self.latency(technique, size, dim, batch, threads)
                for size in sizes]

    def profiled_sizes(self, technique: str, dim: int, batch: int,
                       threads: int) -> List[int]:
        sizes = sorted({key.table_size for key in self.entries
                        if key.technique == technique and key.dim == dim
                        and key.batch == batch and key.threads == threads})
        return sizes


class OfflineProfiler:
    """Builds a :class:`ProfileDatabase` over a configuration grid."""

    def __init__(self, uniform_shape: DheShape,
                 backend: BackendLike = "modelled") -> None:
        self.uniform_shape = uniform_shape
        self._backend = resolve_backend(backend, uniform_shape)

    @property
    def backend(self) -> str:
        """Short backend identifier (``"modelled"`` / ``"measured"``)."""
        return self._backend.name

    # ------------------------------------------------------------------
    def profile(self, techniques: Iterable[str] = ("scan", "dhe-uniform"),
                sizes: Sequence[int] = DEFAULT_SIZE_GRID,
                dims: Sequence[int] = (16, 64),
                batches: Sequence[int] = (32,),
                threads_list: Sequence[int] = (1,)) -> ProfileDatabase:
        database = ProfileDatabase()
        for technique, size, dim, batch, threads in itertools.product(
                techniques, sizes, dims, batches, threads_list):
            check_positive("table size", size)
            latency = self._backend.technique_latency(technique, size, dim,
                                                      batch, threads)
            database.record(ProfileKey(technique, size, dim, batch, threads),
                            latency)
        return database
