"""Switching-threshold extraction (Algorithm 2 / Fig 6).

For each execution configuration, the table size at which the linear-scan
and DHE latency curves intersect is the threshold: features with smaller
tables scan, larger ones use DHE. The intersection is interpolated
geometrically between grid points (latency curves are near power laws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costmodel.latency import (
    DLRM_DHE_UNIFORM_16,
    DLRM_DHE_UNIFORM_64,
    DheShape,
)
from repro.hybrid.profiler import OfflineProfiler, ProfileDatabase


def intersect_curves(sizes: Sequence[int], scan: Sequence[float],
                     dhe: Sequence[float]) -> Optional[float]:
    """Table size where the scan curve crosses above the DHE curve.

    Returns ``None`` when scan never exceeds DHE on the grid (scan always
    wins) and ``0`` when scan is never cheaper (DHE always wins).
    """
    if not (len(sizes) == len(scan) == len(dhe)):
        raise ValueError("sizes/scan/dhe must have equal lengths")
    if len(sizes) < 2:
        raise ValueError("need at least two grid points")
    diffs = [s - d for s, d in zip(scan, dhe)]
    if diffs[0] >= 0:
        return 0.0
    for i in range(1, len(sizes)):
        if diffs[i] >= 0:
            # Log-linear interpolation of the crossing point.
            x0, x1 = math.log(sizes[i - 1]), math.log(sizes[i])
            y0, y1 = diffs[i - 1], diffs[i]
            t = -y0 / (y1 - y0)
            return math.exp(x0 + t * (x1 - x0))
    return None


@dataclass(frozen=True)
class ThresholdKey:
    dim: int
    batch: int
    threads: int


@dataclass
class ThresholdDatabase:
    """Per-configuration scan/DHE switching thresholds."""

    dhe_technique: str
    thresholds: Dict[ThresholdKey, float] = field(default_factory=dict)

    def threshold(self, dim: int, batch: int, threads: int) -> float:
        key = ThresholdKey(dim, batch, threads)
        if key not in self.thresholds:
            raise KeyError(f"no threshold for {key}")
        return self.thresholds[key]

    def configurations(self) -> List[ThresholdKey]:
        return sorted(self.thresholds,
                      key=lambda k: (k.dim, k.batch, k.threads))


def build_threshold_database(profile: ProfileDatabase,
                             dhe_technique: str = "dhe-uniform",
                             dims: Sequence[int] = (16, 64),
                             batches: Sequence[int] = (32,),
                             threads_list: Sequence[int] = (1,)
                             ) -> ThresholdDatabase:
    """Extract thresholds from a profiled database for every configuration.

    A missing crossing (scan always cheaper on the profiled grid) records
    ``inf``; scan never cheaper records ``0``.
    """
    database = ThresholdDatabase(dhe_technique=dhe_technique)
    for dim in dims:
        for batch in batches:
            for threads in threads_list:
                sizes = profile.profiled_sizes("scan", dim, batch, threads)
                if not sizes:
                    continue
                scan_curve = profile.curve("scan", dim, batch, threads, sizes)
                dhe_curve = profile.curve(dhe_technique, dim, batch, threads,
                                          sizes)
                crossing = intersect_curves(sizes, scan_curve, dhe_curve)
                value = math.inf if crossing is None else crossing
                database.thresholds[ThresholdKey(dim, batch, threads)] = value
    return database


def dlrm_threshold_model(embedding_dim: int, batch: int
                         ) -> Tuple[DheShape, ThresholdDatabase]:
    """(uniform DHE shape, scan vs DHE-varied thresholds) as Fig 13 profiles.

    The one pricing model the serving sims share (cluster, migration,
    autoscale, cache, chaos, LLM pools), so they all cut over between scan
    and DHE at identical table sizes.
    """
    uniform = (DLRM_DHE_UNIFORM_16 if embedding_dim == 16
               else DLRM_DHE_UNIFORM_64)
    profile = OfflineProfiler(uniform).profile(
        techniques=("scan", "dhe-varied"), dims=(embedding_dim,),
        batches=(batch,), threads_list=(1,))
    thresholds = build_threshold_database(
        profile, dhe_technique="dhe-varied", dims=(embedding_dim,),
        batches=(batch,), threads_list=(1,))
    return uniform, thresholds


def hybrid_eligible_range(threshold_db: ThresholdDatabase,
                          dim: int) -> Tuple[float, float]:
    """Min/max threshold across configurations (the red band of Fig 7).

    Tables below the min always scan; above the max always use DHE; tables
    inside the band flip depending on the runtime configuration.
    """
    values = [value for key, value in threshold_db.thresholds.items()
              if key.dim == dim and math.isfinite(value)]
    if not values:
        raise ValueError(f"no finite thresholds recorded for dim {dim}")
    return min(values), max(values)
