"""Co-located deployment planning (§IV-C2, Figs 8, 9, 13).

Builds tenant-demand descriptions for whole DLRM models (per-feature
scan/DHE mixes included); :class:`repro.serving.dispatcher.Dispatcher`
evaluates latency/throughput as copies of one are added, using the
contention model in :mod:`repro.costmodel.colocation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.costmodel.colocation import (
    TenantDemand,
    colocated_latencies,
    dhe_demand,
    scan_demand,
)
from repro.costmodel.latency import DheShape, dhe_table_shape
from repro.embedding.hybrid import TECHNIQUE_SCAN
from repro.hybrid.allocator import FeatureAllocation
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ModelTenant:
    """Aggregate embedding-layer demand of one co-located DLRM copy."""

    demand: TenantDemand
    num_scan_features: int
    num_dhe_features: int


def dlrm_tenant(table_sizes: Sequence[int], dim: int,
                allocations: Sequence[FeatureAllocation],
                uniform_shape: DheShape, batch: int,
                varied: bool = True) -> ModelTenant:
    """Fold a model's per-feature demands into one tenant description.

    Features execute sequentially inside a model (§IV-C1), so latencies and
    bandwidth demands add; the LLC ask is the max single working set (the
    features do not need simultaneous residency).
    """
    if len(allocations) != len(table_sizes):
        raise ValueError("allocations must cover every table")
    solo = bandwidth = 0.0
    llc = 0.0
    num_scan = 0
    scan_latency = 0.0
    for size, allocation in zip(table_sizes, allocations):
        if allocation.technique == TECHNIQUE_SCAN:
            part = scan_demand(size, dim, batch)
            num_scan += 1
            scan_latency += part.solo_latency
        else:
            part = dhe_demand(dhe_table_shape(size, dim, uniform_shape,
                                              varied), batch)
        solo += part.solo_latency
        bandwidth += part.bandwidth_bytes
        llc = max(llc, part.llc_bytes)
    # A mixed model dilates like whatever dominates its runtime: a hybrid
    # model that scans only its smallest tables is still compute-bound.
    technique = "scan" if scan_latency > 0.5 * solo else "dhe"
    demand = TenantDemand(technique=technique, solo_latency=solo,
                          bandwidth_bytes=bandwidth, llc_bytes=llc)
    return ModelTenant(demand=demand, num_scan_features=num_scan,
                       num_dhe_features=len(table_sizes) - num_scan)


def mixed_allocation_latency(table_size: int, dim: int, total_models: int,
                             num_dhe: int, uniform_shape: DheShape,
                             batch: int, varied: bool = False) -> float:
    """Mean per-model latency when ``num_dhe`` of ``total_models`` copies of
    a single-table model use DHE and the rest linear scan (Fig 9)."""
    check_positive("total_models", total_models)
    if not 0 <= num_dhe <= total_models:
        raise ValueError("num_dhe out of range")
    shape = dhe_table_shape(table_size, dim, uniform_shape, varied)
    tenants = ([dhe_demand(shape, batch)] * num_dhe
               + [scan_demand(table_size, dim, batch)]
               * (total_models - num_dhe))
    latencies = colocated_latencies(tenants)
    return sum(latencies) / len(latencies)
