"""Co-location interference model (Figs 8, 9, 13; §IV-C2).

Each co-located model runs on its own core; compute throughput is therefore
unaffected until the core count is exceeded, but the shared resources —
memory bandwidth for scan/ORAM traffic and LLC capacity for table reuse —
are divided among tenants. This reproduces the paper's observations:

* linear scan of large tables degrades quickly under co-location (bandwidth
  saturation),
* DHE degrades mildly (compute-bound; only its modest activation/weight
  traffic contends),
* the scan/DHE switching threshold under co-location stays close to the
  single-model threshold (Fig 9's 4500 vs 3300).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.costmodel.latency import (
    DheShape,
    dhe_latency,
    linear_scan_latency,
    oram_access_bytes,
    oram_latency,
)
from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.utils.validation import check_in, check_positive

#: Techniques the contention model prices; the ORAMs are bandwidth-bound.
TECHNIQUES = ("scan", "dhe", "path", "circuit", "ring")
ORAM_TECHNIQUES = ("path", "circuit", "ring")


@dataclass(frozen=True)
class TenantDemand:
    """One co-located model's resource demand for its embedding work."""

    technique: str          # one of TECHNIQUES
    solo_latency: float     # seconds per batch when running alone
    bandwidth_bytes: float  # bytes streamed from DRAM per batch
    llc_bytes: float        # working set it would like resident in LLC

    def __post_init__(self) -> None:
        check_in("technique", self.technique, TECHNIQUES)


def scan_demand(num_rows: int, dim: int, batch: int) -> TenantDemand:
    table = num_rows * dim * DEFAULT_PLATFORM.element_bytes
    solo = linear_scan_latency(num_rows, dim, batch, threads=1)
    if table > DEFAULT_PLATFORM.llc_bytes:
        # Streams from DRAM already; no cache residency at stake.
        return TenantDemand("scan", solo, batch * table, 0.0)
    # LLC-resident: modest fill traffic, but residency is what co-located
    # copies fight over.
    return TenantDemand("scan", solo, 0.25 * batch * table, table)


def dhe_demand(shape: DheShape, batch: int) -> TenantDemand:
    solo = dhe_latency(shape, batch, threads=1)
    weights = shape.parameter_bytes()
    return TenantDemand("dhe", solo, 0.1 * weights * batch / max(batch, 8),
                        min(weights, DEFAULT_PLATFORM.llc_bytes // 4))


def oram_demand(scheme: str, num_rows: int, dim: int,
                batch: int) -> TenantDemand:
    solo = oram_latency(scheme, num_rows, dim, batch)
    per_batch = batch * oram_access_bytes(scheme, num_rows, dim)
    return TenantDemand(scheme, solo, per_batch,
                        min(num_rows * dim * DEFAULT_PLATFORM.element_bytes,
                            DEFAULT_PLATFORM.llc_bytes))


def colocated_latencies(tenants: Sequence[TenantDemand]) -> List[float]:
    """Per-tenant batch latency when all tenants run concurrently.

    Bandwidth: demands are summed and, past the DRAM ceiling, every tenant's
    memory time dilates by the over-subscription ratio. LLC: when combined
    working sets exceed capacity, scan tenants lose cache residency and
    their effective rate drops toward the DRAM rate.
    """
    if not tenants:
        return []
    if len(tenants) > DEFAULT_PLATFORM.cores:
        core_dilation = len(tenants) / DEFAULT_PLATFORM.cores
    else:
        core_dilation = 1.0

    total_bw = sum(t.bandwidth_bytes / max(t.solo_latency, 1e-12) for t in tenants)
    bw_dilation = max(1.0, total_bw / DEFAULT_PLATFORM.dram_total_bw)

    total_llc = sum(t.llc_bytes for t in tenants)
    llc_pressure = max(1.0, total_llc / DEFAULT_PLATFORM.llc_bytes)

    latencies = []
    for tenant in tenants:
        dilation = core_dilation
        if tenant.technique == "scan":
            # Losing LLC residency pushes the scan toward DRAM bandwidth.
            cache_penalty = min(llc_pressure,
                                DEFAULT_PLATFORM.scan_llc_bw / DEFAULT_PLATFORM.scan_dram_bw)
            dilation *= max(bw_dilation, cache_penalty if llc_pressure > 1 else 1.0)
        elif tenant.technique in ORAM_TECHNIQUES:
            dilation *= bw_dilation
        else:  # dhe — compute bound, small bandwidth share
            dilation *= 1.0 + 0.25 * (bw_dilation - 1.0) + 0.02 * (llc_pressure - 1.0)
        latencies.append(tenant.solo_latency * dilation)
    return latencies


def replicated_latencies(demand: TenantDemand, copies: int) -> List[float]:
    """Per-copy latency of ``copies`` identical tenants sharing the host.

    The homogeneous-fleet special case used by the co-location sweeps and
    the serving dispatcher (Fig 13).
    """
    check_positive("copies", copies)
    return colocated_latencies([demand] * copies)


def throughput_inferences_per_second(tenants: Sequence[TenantDemand],
                                     batch: int) -> float:
    """System throughput = sum over tenants of batch/latency."""
    check_positive("batch", batch)
    latencies = colocated_latencies(tenants)
    return sum(batch / lat for lat in latencies if lat > 0)
