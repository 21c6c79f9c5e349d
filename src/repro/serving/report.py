"""Per-request serving statistics: queueing delay + service latency.

The seed report carried one latency array and a pseudo-private batch-time
field mutated after construction; this report is built from its components
— per-request queueing delay and service latency — so percentiles and SLA
attainment reflect queueing for the first time, and ``batch_time_total`` is
a proper constructor argument (``throughput()`` can no longer silently
return 0.0 on a hand-built report).

This module is the only place reports combine. :meth:`ServingReport.merge`
(disjoint populations: concatenate) and :meth:`ServingReport.compose` (one
population in series: elementwise sum) share three rules:

* cache counters sum (:func:`summed_cache_fields`) — the merged hit rate is
  recomputed from the summed counters, never an average of per-report
  rates — and stay ``None`` only when no report tracks a cache;
* the queue/service split is kept only when *every* report carries it —
  substituting zeros for a missing split would silently understate
  queueing;
* if any report is a
  :class:`~repro.resilience.report.ResilientServingReport`, the result is
  lifted to that shape with the fault counters summed and degradation
  events concatenated, so a fold mixing resilient and plain reports never
  zeroes attempts, retries or sheds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.utils.validation import check_positive


@dataclass
class ServingReport:
    """Latency statistics of one simulated serving run."""

    num_requests: int
    num_batches: int
    latencies: np.ndarray            # per-request seconds (queueing + service)
    scan_features: int
    dhe_features: int
    batch_time_total: float          # replica busy time (sum of batch service)
    queue_delays: Optional[np.ndarray] = None      # per-request seconds
    service_latencies: Optional[np.ndarray] = None  # per-request seconds
    # Cache accounting (None on uncached runs — distinct from a cached run
    # that happened to see zero lookups):
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    cache_bytes_resident: Optional[int] = None
    # When each request left (absolute seconds, one value per batch) — set
    # by a single serving run so a pipeline stage can hand it downstream;
    # None on merged, gathered and multi-stage composed reports:
    departures: Optional[np.ndarray] = None

    @classmethod
    def from_components(cls, queue_delays: np.ndarray,
                        service_latencies: np.ndarray, num_batches: int,
                        scan_features: int, dhe_features: int,
                        batch_time_total: float,
                        cache_hits: Optional[int] = None,
                        cache_misses: Optional[int] = None,
                        cache_bytes_resident: Optional[int] = None,
                        departures: Optional[np.ndarray] = None
                        ) -> "ServingReport":
        """Build a report from per-request queueing + service arrays."""
        queue_delays = np.asarray(queue_delays, dtype=np.float64)
        service_latencies = np.asarray(service_latencies, dtype=np.float64)
        if queue_delays.shape != service_latencies.shape:
            raise ValueError(
                f"queue/service shapes differ: {queue_delays.shape} vs "
                f"{service_latencies.shape}")
        return cls(num_requests=int(queue_delays.size),
                   num_batches=num_batches,
                   latencies=queue_delays + service_latencies,
                   scan_features=scan_features, dhe_features=dhe_features,
                   batch_time_total=batch_time_total,
                   queue_delays=queue_delays,
                   service_latencies=service_latencies,
                   cache_hits=cache_hits, cache_misses=cache_misses,
                   cache_bytes_resident=cache_bytes_resident,
                   departures=departures)

    @classmethod
    def merge(cls, reports: Sequence["ServingReport"]) -> "ServingReport":
        """Fold reports of engines serving *disjoint request populations*.

        Every per-request array is concatenated exactly once: merged
        ``latencies`` come straight from the constituents, never recomputed
        as ``queue_delays + latencies`` (each latency already contains its
        queue wait). Requests, batches, scan/DHE features (shards of one
        model partition the feature set) and busy time add, so
        ``throughput()`` of the merged report is the fleet-aggregate rate.
        Per-replica ``fleet_snapshot``\\ s do not aggregate and are dropped.
        """
        reports = _at_least_one(reports, "merge")
        return _folded(cls, reports, np.concatenate,
                       num_requests=sum(r.num_requests for r in reports),
                       batch_time_total=math.fsum(r.batch_time_total
                                                  for r in reports))

    @classmethod
    def compose(cls, reports: Sequence["ServingReport"]) -> "ServingReport":
        """Fold the reports of *one request population served in series*.

        Stage *k+1*'s arrivals are stage *k*'s departures, so each stage's
        latency covers the contiguous interval [stage arrival, stage
        departure] and the elementwise sum is exactly final departure −
        original arrival, with every inter-stage wait counted once (as the
        downstream stage's queueing delay). ``batch_time_total`` is the
        **bottleneck** stage's busy time (max, not sum): a pipeline's
        sustained throughput is set by its slowest stage. A single report
        composes to itself — the object, subclass and departures included.
        """
        reports = _at_least_one(reports, "compose")
        if len(reports) == 1:
            return reports[0]
        if any(r.num_requests != reports[0].num_requests for r in reports):
            raise ValueError("stages disagree on the request population")
        return _folded(cls, reports, lambda arrays: np.sum(arrays, axis=0),
                       num_requests=reports[0].num_requests,
                       batch_time_total=max(r.batch_time_total
                                            for r in reports))

    # ------------------------------------------------------------------
    # Percentiles and ratios are NaN-free: a report with no requests (an
    # all-shed or empty window) answers 0.0 instead of propagating the
    # NaN np.percentile/mean would produce on an empty array.
    @property
    def p50(self) -> float:
        if self.latencies.size == 0:
            return 0.0
        return float(np.percentile(self.latencies, 50))

    @property
    def p95(self) -> float:
        if self.latencies.size == 0:
            return 0.0
        return float(np.percentile(self.latencies, 95))

    @property
    def p99(self) -> float:
        if self.latencies.size == 0:
            return 0.0
        return float(np.percentile(self.latencies, 99))

    @property
    def mean_queue_delay(self) -> float:
        """Mean per-request queueing delay (0.0 when not tracked)."""
        if self.queue_delays is None or self.queue_delays.size == 0:
            return 0.0
        return float(self.queue_delays.mean())

    @property
    def p95_queue_delay(self) -> float:
        if self.queue_delays is None or self.queue_delays.size == 0:
            return 0.0
        return float(np.percentile(self.queue_delays, 95))

    @property
    def tracks_cache(self) -> bool:
        """Whether this report carries cache accounting at all."""
        return (self.cache_hits is not None
                or self.cache_misses is not None
                or self.cache_bytes_resident is not None)

    @property
    def cache_hit_rate(self) -> float:
        """Hits over lookups, recomputed from the counters.

        0.0 both for uncached reports and for cached runs with no lookups;
        check :attr:`tracks_cache` to tell the two apart.
        """
        hits = self.cache_hits or 0
        lookups = hits + (self.cache_misses or 0)
        if lookups == 0:
            return 0.0
        return hits / lookups

    def sla_attainment(self, sla_seconds: float) -> float:
        check_positive("sla_seconds", sla_seconds)
        if self.latencies.size == 0:
            return 0.0
        return float((self.latencies <= sla_seconds).mean())

    def throughput(self) -> float:
        """Requests/second at full utilisation (replica busy time)."""
        if self.batch_time_total <= 0:
            return 0.0
        return self.num_requests / self.batch_time_total


def summed_cache_fields(reports: Sequence[ServingReport]
                        ) -> Dict[str, Optional[int]]:
    """Cache counters summed over ``reports`` (all ``None`` if none tracks).

    An uncached report contributes zero to the sums.
    """
    if not any(r.tracks_cache for r in reports):
        return {"cache_hits": None, "cache_misses": None,
                "cache_bytes_resident": None}
    return {
        "cache_hits": sum(r.cache_hits or 0 for r in reports),
        "cache_misses": sum(r.cache_misses or 0 for r in reports),
        "cache_bytes_resident": sum(r.cache_bytes_resident or 0
                                    for r in reports),
    }


def _at_least_one(reports: Sequence[ServingReport],
                  fold: str) -> List[ServingReport]:
    reports = list(reports)
    if not reports:
        raise ValueError(f"{fold} needs at least one report")
    return reports


def _folded(cls, reports: List[ServingReport],
            join: Callable[[List[np.ndarray]], np.ndarray],
            num_requests: int, batch_time_total: float) -> ServingReport:
    """The rules :meth:`~ServingReport.merge` and ``compose`` share.

    ``join`` combines one per-request array across the reports; a split
    array (queue delays, service latencies) is joined only when every
    report carries it.
    """
    def joined(name: str) -> Optional[np.ndarray]:
        arrays = [getattr(r, name) for r in reports]
        return None if any(a is None for a in arrays) else join(arrays)

    folded = cls(num_requests=num_requests,
                 num_batches=sum(r.num_batches for r in reports),
                 latencies=joined("latencies"),
                 scan_features=sum(r.scan_features for r in reports),
                 dhe_features=sum(r.dhe_features for r in reports),
                 batch_time_total=batch_time_total,
                 queue_delays=joined("queue_delays"),
                 service_latencies=joined("service_latencies"),
                 **summed_cache_fields(reports))
    resilient = [r for r in reports if hasattr(r, "attempts_total")]
    if not resilient:
        return folded
    # Deferred import: resilience builds on serving, not the reverse.
    from repro.resilience.report import ResilientServingReport

    return ResilientServingReport.from_serving_report(
        folded,
        attempts_total=sum(r.attempts_total for r in resilient),
        retries_total=sum(r.retries_total for r in resilient),
        hedges_total=sum(r.hedges_total for r in resilient),
        shed_requests=sum(r.shed_requests for r in resilient),
        crash_events=sum(r.crash_events for r in resilient),
        transient_faults=sum(r.transient_faults for r in resilient),
        spike_events=sum(r.spike_events for r in resilient),
        degradation_events=[event for r in resilient
                            for event in r.degradation_events])
