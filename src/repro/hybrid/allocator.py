"""Online technique allocation (Algorithm 3) and hybrid-DLRM assembly.

At inference time each sparse feature picks linear scan or DHE purely from
its table size and the current execution configuration — a decision
independent of any user input, which is what keeps the hybrid scheme
oblivious (§V-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.embedding.hybrid import TECHNIQUE_DHE, TECHNIQUE_SCAN, HybridEmbedding
from repro.hybrid.thresholds import ThresholdDatabase
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FeatureAllocation:
    """Technique decision for one sparse feature."""

    feature_index: int
    table_size: int
    technique: str


def allocate_by_threshold(table_sizes: Sequence[int],
                          threshold: float) -> List[FeatureAllocation]:
    """Scan at or below the threshold, DHE above (Algorithm 3's rule)."""
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    allocations = []
    for index, size in enumerate(table_sizes):
        check_positive("table size", size)
        technique = TECHNIQUE_SCAN if size <= threshold else TECHNIQUE_DHE
        allocations.append(FeatureAllocation(index, size, technique))
    return allocations


def allocate_for_configuration(table_sizes: Sequence[int],
                               thresholds: ThresholdDatabase,
                               dim: int, batch: int, threads: int
                               ) -> List[FeatureAllocation]:
    """Allocation using the profiled threshold for the live configuration."""
    threshold = thresholds.threshold(dim, batch, threads)
    if math.isinf(threshold):
        # "scan always wins" profiles report an infinite threshold; clamp to
        # the largest table so every feature scans. The empty-table-set
        # default keeps the clamp well-defined (no tables, no allocations).
        threshold = max(table_sizes, default=0.0)
    return allocate_by_threshold(table_sizes, threshold)


def apply_allocations(embeddings: Sequence[HybridEmbedding],
                      allocations: Sequence[FeatureAllocation]) -> None:
    """Flip each hybrid feature to its allocated representation."""
    if len(embeddings) != len(allocations):
        raise ValueError(
            f"{len(embeddings)} embeddings but {len(allocations)} allocations")
    for embedding, allocation in zip(embeddings, allocations):
        if embedding.num_embeddings != allocation.table_size:
            raise ValueError(
                f"feature {allocation.feature_index}: embedding has "
                f"{embedding.num_embeddings} rows but allocation expects "
                f"{allocation.table_size}")
        embedding.select(allocation.technique)


def count_scan_features(allocations: Sequence[FeatureAllocation]) -> int:
    return sum(1 for a in allocations if a.technique == TECHNIQUE_SCAN)


def allocation_technique(allocation: FeatureAllocation,
                         varied: bool = True) -> str:
    """The backend technique an allocated feature executes: ``"scan"``, or
    ``"dhe-varied"`` / ``"dhe-uniform"`` by the DHE sizing rule."""
    if allocation.technique == TECHNIQUE_SCAN:
        return TECHNIQUE_SCAN
    if allocation.technique != TECHNIQUE_DHE:
        raise ValueError(f"feature {allocation.feature_index}: unknown "
                         f"technique {allocation.technique!r}")
    return "dhe-varied" if varied else "dhe-uniform"


def allocation_latency(allocations: Sequence[FeatureAllocation],
                       backend, dim: int, batch: int, threads: int = 1,
                       varied: bool = True,
                       overhead_seconds: float = 0.0) -> float:
    """Batch latency of an allocation, resolved through an execution backend.

    This is the *single* per-table scan/DHE latency accounting: features
    execute sequentially (§IV-C1) so per-feature latencies add on top of
    ``overhead_seconds`` (e.g. the dense MLP stack). ``backend`` is any
    :class:`~repro.serving.backends.ExecutionBackend`; ``varied`` picks the
    DHE sizing rule for DHE-allocated features.
    """
    total = overhead_seconds
    for allocation in allocations:
        total += backend.technique_latency(
            allocation_technique(allocation, varied), allocation.table_size,
            dim, batch, threads)
    return total
