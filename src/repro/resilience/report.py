"""Serving reports under faults: availability, inflation, degradations.

Extends :class:`~repro.serving.report.ServingReport` with the quantities a
chaos run adds on top of the happy path — how many attempts each batch
needed, how many requests were shed at their deadline, which faults fired,
and where every degradation ladder ended up. ``to_dict`` emits only
simulated quantities (no wall-clock data), so two runs of the same seed
serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

import numpy as np

from repro.resilience.degradation import DegradationEvent
from repro.serving.report import ServingReport


@dataclass
class ResilientServingReport(ServingReport):
    """A :class:`ServingReport` annotated with fault-run accounting.

    Shed requests stay in the latency arrays (their latency is censored at
    the deadline), so percentiles reflect what clients actually saw;
    ``availability`` separates out how many got a real answer.
    """

    attempts_total: int = 0
    retries_total: int = 0
    hedges_total: int = 0
    shed_requests: int = 0
    crash_events: int = 0
    transient_faults: int = 0
    spike_events: int = 0
    degradation_events: List[DegradationEvent] = field(default_factory=list)
    fleet_snapshot: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    @property
    def availability(self) -> float:
        """Fraction of requests that completed before their deadline."""
        if self.num_requests == 0:
            return 0.0
        return 1.0 - self.shed_requests / self.num_requests

    @property
    def degradations(self) -> int:
        return len(self.degradation_events)

    def sla_violations(self, sla_seconds: float) -> int:
        """Requests over the SLA (shed requests always count)."""
        return int(np.count_nonzero(self.latencies > sla_seconds))

    def p99_inflation(self, baseline: ServingReport) -> float:
        """This run's p99 relative to a fault-free baseline's p99."""
        if baseline.p99 <= 0.0:
            return float("inf") if self.p99 > 0.0 else 1.0
        return self.p99 / baseline.p99

    # ------------------------------------------------------------------
    def to_dict(self, sla_seconds: Optional[float] = None
                ) -> Dict[str, object]:
        """JSON-stable digest: simulated quantities only, no wall clock."""
        digest: Dict[str, object] = {
            "num_requests": self.num_requests,
            "num_batches": self.num_batches,
            "scan_features": self.scan_features,
            "dhe_features": self.dhe_features,
            "p50_seconds": self.p50,
            "p95_seconds": self.p95,
            "p99_seconds": self.p99,
            "mean_queue_delay_seconds": self.mean_queue_delay,
            "throughput_rps": self.throughput(),
            "availability": self.availability,
            "attempts_total": self.attempts_total,
            "retries_total": self.retries_total,
            "hedges_total": self.hedges_total,
            "shed_requests": self.shed_requests,
            "crash_events": self.crash_events,
            "transient_faults": self.transient_faults,
            "spike_events": self.spike_events,
            "degradations": [event.to_dict()
                             for event in self.degradation_events],
        }
        if sla_seconds is not None:
            digest["sla_seconds"] = sla_seconds
            digest["sla_violations"] = self.sla_violations(sla_seconds)
            digest["sla_attainment"] = self.sla_attainment(sla_seconds)
        if self.fleet_snapshot is not None:
            digest["fleet"] = self.fleet_snapshot
        return digest

    # ------------------------------------------------------------------
    @classmethod
    def from_serving_report(cls, report: ServingReport,
                            **extras) -> "ResilientServingReport":
        """Lift a plain report into the resilient shape."""
        return cls(**{item.name: getattr(report, item.name)
                      for item in fields(ServingReport)}, **extras)
