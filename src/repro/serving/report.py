"""Per-request serving statistics: queueing delay + service latency.

The seed report carried one latency array and a pseudo-private batch-time
field mutated after construction; this report is built from its components
— per-request queueing delay and service latency — so percentiles and SLA
attainment reflect queueing for the first time, and ``batch_time_total`` is
a proper constructor argument (``throughput()`` can no longer silently
return 0.0 on a hand-built report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
    # None on merged, composed and gathered reports:
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
        """Merge reports from engines serving *disjoint request populations*.

        Every per-request array is concatenated exactly once: merged
        ``latencies`` come straight from the constituents, never recomputed
        as ``queue_delays + latencies`` (each latency already contains its
        queue wait, so re-adding it would double-count queueing). The
        queue/service decomposition is kept only when *every* constituent
        carries it — substituting zeros for a missing decomposition would
        silently understate queueing in the merged percentiles.

        Counters add: requests, batches, scan/DHE features (shards of one
        model partition the feature set, so the sums recover the model's
        totals) and busy time (``throughput()`` of the merged report is the
        fleet-aggregate rate, requests over summed busy time).

        Cache counters add too — hit *counts* sum and the merged hit rate
        is recomputed from the summed counters (:attr:`cache_hit_rate`),
        never an average of per-report rates, which would weight a
        two-lookup shard the same as a two-million-lookup one. A report
        without cache fields (an uncached constituent) contributes zero to
        the sums; the merged report keeps cache fields if *any*
        constituent carried them, and stays uncached (``None``) only when
        none did.

        Heterogeneous constituents are first-class: if any report is a
        :class:`~repro.resilience.report.ResilientServingReport`, the
        merged report is lifted to that shape with the fault counters
        summed and degradation events concatenated — a pipeline fleet
        view mixing resilient and plain stages never silently zeroes
        attempts/retries/sheds. (Per-replica ``fleet_snapshot``\\ s do not
        aggregate and are dropped; drill into the constituents for those.)
        """
        reports = list(reports)
        if not reports:
            raise ValueError("merge needs at least one report")
        latencies = np.concatenate([r.latencies for r in reports])
        queue_delays: Optional[np.ndarray] = None
        service_latencies: Optional[np.ndarray] = None
        if all(r.queue_delays is not None for r in reports):
            queue_delays = np.concatenate([r.queue_delays for r in reports])
        if all(r.service_latencies is not None for r in reports):
            service_latencies = np.concatenate([r.service_latencies
                                                for r in reports])
        cache_hits: Optional[int] = None
        cache_misses: Optional[int] = None
        cache_bytes_resident: Optional[int] = None
        if any(r.tracks_cache for r in reports):
            cache_hits = sum(r.cache_hits or 0 for r in reports)
            cache_misses = sum(r.cache_misses or 0 for r in reports)
            cache_bytes_resident = sum(r.cache_bytes_resident or 0
                                       for r in reports)
        merged = cls(
            num_requests=sum(r.num_requests for r in reports),
            num_batches=sum(r.num_batches for r in reports),
            latencies=latencies,
            scan_features=sum(r.scan_features for r in reports),
            dhe_features=sum(r.dhe_features for r in reports),
            batch_time_total=math.fsum(r.batch_time_total for r in reports),
            queue_delays=queue_delays,
            service_latencies=service_latencies,
            cache_hits=cache_hits, cache_misses=cache_misses,
            cache_bytes_resident=cache_bytes_resident)
        resilient = [r for r in reports if hasattr(r, "attempts_total")]
        if resilient:
            # Deferred import: resilience builds on serving, not the
            # reverse (same idiom as the engine's fault path).
            from repro.resilience.report import ResilientServingReport

            merged = ResilientServingReport.from_serving_report(
                merged,
                attempts_total=sum(r.attempts_total for r in resilient),
                retries_total=sum(r.retries_total for r in resilient),
                hedges_total=sum(r.hedges_total for r in resilient),
                shed_requests=sum(r.shed_requests for r in resilient),
                crash_events=sum(r.crash_events for r in resilient),
                transient_faults=sum(r.transient_faults for r in resilient),
                spike_events=sum(r.spike_events for r in resilient),
                degradation_events=[event for r in resilient
                                    for event in r.degradation_events])
        return merged

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
