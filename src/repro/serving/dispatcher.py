"""Multi-replica dispatch under co-location interference (Fig 13).

A :class:`Dispatcher` places homogeneous replicas of one model on a host
and accounts their contention through the shared-resource model in
:mod:`repro.costmodel.colocation` — the same interference math Figs 8/9/13
use, not a private copy.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.costmodel.colocation import TenantDemand, replicated_latencies
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive, check_positive_finite


class Dispatcher:
    """Evaluates a replica fleet built from one tenant demand description."""

    def __init__(self, demand: TenantDemand, batch_size: int) -> None:
        check_positive("batch_size", batch_size)
        self.demand = demand
        self.batch_size = batch_size

    # ------------------------------------------------------------------
    def replica_latencies(self, replicas: int) -> List[float]:
        """Per-replica batch latency with ``replicas`` co-located copies.

        Pure compute — ``sweep`` reports telemetry once per sweep rather
        than per evaluation, keeping this inner loop cheap.
        """
        return replicated_latencies(self.demand, replicas)

    # ------------------------------------------------------------------
    def sweep(self, max_replicas: int) -> List[Tuple[int, float, float]]:
        """(copies, worst latency, aggregate throughput) as replicas grow."""
        check_positive("max_replicas", max_replicas)
        registry = get_registry()
        with registry.span("dispatcher.sweep", max_replicas=max_replicas):
            results = []
            worst: List[float] = []
            for copies in range(1, max_replicas + 1):
                latencies = self.replica_latencies(copies)
                results.append((copies, max(latencies),
                                sum(self.batch_size / lat
                                    for lat in latencies)))
                worst.append(results[-1][1])
        if registry.enabled:
            registry.counter("dispatcher.evaluations_total").inc(max_replicas)
            registry.histogram(
                "dispatcher.replica_latency_seconds").observe_many(worst)
        return results

    def sla_bounded_throughput(self, sla_seconds: float,
                               max_replicas: int) -> float:
        """Best throughput among replica counts meeting the SLA."""
        check_positive_finite("sla_seconds", sla_seconds)
        feasible = [throughput for _, latency, throughput
                    in self.sweep(max_replicas) if latency <= sla_seconds]
        return max(feasible) if feasible else 0.0
