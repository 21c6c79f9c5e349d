"""The backend-agnostic execution engine behind every serving question.

:meth:`ExecutionEngine.serve` is the one serving loop the paper's
deployment story needs (§VI-B3, Fig 13): resolve the live configuration's
allocation once (Algorithm 3), price the schedule slot through an
:class:`~repro.serving.backends.ExecutionBackend`, run the arrival trace
through the :class:`~repro.serving.batcher.DynamicBatcher`, settle the
schedule into per-request queueing + service latency and build one report.
A cache (per-batch executed times) and a resilience policy (the fault-aware
executor in place of :func:`~repro.serving.batcher.settle`) are its two
pluggable steps; every scatter-gather shard calls the same method. The
closed-loop path (:meth:`serve_closed`) reproduces the seed simulator's
numbers bit-for-bit; an open trace (``serve(config,
RequestQueue.poisson(...))``) models the queueing the seed assumed away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.costmodel.latency import MLP_OVERHEAD_SECONDS, DheShape
from repro.serving.backends import BackendLike, resolve_backend
from repro.serving.batcher import (
    BatchingPolicy,
    DynamicBatcher,
    ScheduledBatch,
    settle,
)
from repro.serving.dispatcher import Dispatcher
from repro.serving.report import ServingReport
from repro.serving.requests import (
    ArrivalsLike,
    RequestQueue,
    batch_boundary_arrivals,
)
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive, check_positive_finite

if TYPE_CHECKING:  # runtime imports are deferred: hybrid imports serving
    from repro.cache.policy import SecretIndependentCache
    from repro.hybrid.allocator import FeatureAllocation
    from repro.hybrid.thresholds import ThresholdDatabase
    from repro.resilience.policy import ResiliencePolicy


@dataclass(frozen=True)
class ServingConfig:
    """Execution configuration of one serving replica."""

    batch_size: int = 32
    threads: int = 1
    sla_seconds: float = 0.020  # the paper's 20 ms target

    def __post_init__(self) -> None:
        check_positive("batch_size", self.batch_size)
        check_positive("threads", self.threads)
        check_positive_finite("sla_seconds", self.sla_seconds)


class ExecutionEngine:
    """Backend-agnostic serving pipeline for a hybrid-protected DLRM."""

    def __init__(self, table_sizes: Sequence[int], embedding_dim: int,
                 uniform_shape: Optional[DheShape],
                 thresholds: ThresholdDatabase,
                 backend: BackendLike = "modelled",
                 mlp_overhead_seconds: float = MLP_OVERHEAD_SECONDS,
                 resilience: Optional[ResiliencePolicy] = None,
                 cache: Optional[SecretIndependentCache] = None) -> None:
        if not table_sizes:
            raise ValueError("engine needs at least one sparse feature")
        if cache is not None:
            from repro.cache.policy import (
                IndexKeyedLRUCache,
                SecretIndependentCache,
            )

            if (not isinstance(cache, SecretIndependentCache)
                    or isinstance(cache, IndexKeyedLRUCache)):
                # The index-keyed LRU is the audit's negative control: its
                # residency is the secret request stream.
                raise TypeError(
                    f"ExecutionEngine serves through a secret-independent "
                    f"cache only, not {cache!r}")
        check_positive("embedding_dim", embedding_dim)
        self.table_sizes = tuple(table_sizes)
        self.embedding_dim = embedding_dim
        self.uniform_shape = uniform_shape
        self.thresholds = thresholds
        self.mlp_overhead_seconds = mlp_overhead_seconds
        self.backend = resolve_backend(backend, uniform_shape)
        self.resilience = resilience
        self.cache = cache

    # ------------------------------------------------------------------
    # Allocation (Algorithm 3) for the live configuration
    # ------------------------------------------------------------------
    def allocations(self, config: ServingConfig) -> List[FeatureAllocation]:
        """Per-feature scan/DHE decision for a configuration."""
        from repro.hybrid.allocator import allocate_for_configuration

        return allocate_for_configuration(self.table_sizes, self.thresholds,
                                          self.embedding_dim,
                                          config.batch_size, config.threads)

    def allocation_counts(self, config: ServingConfig) -> Tuple[int, int]:
        """(scan features, DHE features) for a configuration."""
        from repro.hybrid.allocator import count_scan_features

        allocations = self.allocations(config)
        scans = count_scan_features(allocations)
        return scans, len(allocations) - scans

    # ------------------------------------------------------------------
    # Latency resolution — everything goes through the backend
    # ------------------------------------------------------------------
    def _price(self, allocations: Sequence[FeatureAllocation],
               config: ServingConfig, overhead_seconds: float) -> float:
        from repro.hybrid.allocator import allocation_latency

        return allocation_latency(allocations, self.backend,
                                  self.embedding_dim, config.batch_size,
                                  config.threads,
                                  overhead_seconds=overhead_seconds)

    def batch_latency(self, config: ServingConfig) -> float:
        """End-to-end latency of one batch (MLP overhead + embeddings)."""
        return self._price(self.allocations(config), config,
                           self.mlp_overhead_seconds)

    # ------------------------------------------------------------------
    # The opt-in oblivious-safe cache (repro.cache)
    # ------------------------------------------------------------------
    def _cache_pricer(self, config: ServingConfig):
        from repro.cache.policy import CachePricer

        return CachePricer(backend=self.backend,
                           embedding_dim=self.embedding_dim,
                           batch_size=config.batch_size,
                           threads=config.threads,
                           overhead_seconds=self.mlp_overhead_seconds,
                           uniform_shape=self.uniform_shape)

    def _cached_batch_seconds(self, cache: SecretIndependentCache,
                              batches: Sequence[ScheduledBatch],
                              config: ServingConfig) -> List[float]:
        """Per-batch *executed* time under the cache's admission plan.

        Keyed on public batch metadata only (arrival epoch, position in the
        epoch, padded shape); the first batch carries the serve's one-off
        setup cost.
        """
        from repro.cache.policy import BatchMetadata

        epoch_len = cache.epoch_seconds
        per_epoch_counts: dict = {}
        executed_times: List[float] = []
        for batch in batches:
            epoch = (int(batch.start_seconds // epoch_len)
                     if math.isfinite(epoch_len) else 0)
            index_in_epoch = per_epoch_counts.get(epoch, 0)
            per_epoch_counts[epoch] = index_in_epoch + 1
            executed_times.append(cache.batch_seconds(BatchMetadata(
                epoch=epoch, index_in_epoch=index_in_epoch,
                size=config.batch_size)))
        if executed_times:
            executed_times[0] += cache.serve_setup_seconds()
        return executed_times

    # ------------------------------------------------------------------
    # The one serving loop: price -> schedule -> settle -> report
    # ------------------------------------------------------------------
    def serve(self, config: ServingConfig, arrivals: ArrivalsLike,
              policy: Optional[BatchingPolicy] = None) -> ServingReport:
        """Run an arrival trace through the dynamic batcher.

        Partial batches execute at the configured batch shape (the replica
        pads), so every non-empty batch is scheduled at one priced slot:
        ``batch_latency(config)``, or the cache's constant declared slot —
        queueing is never understated by an optimistic hit forecast.
        Per-request latency = queueing delay (batch start − arrival) +
        the batch's executed time, which is where cache hits pay off.

        Cache and resilience are the loop's two pluggable steps and they
        compose: the cache's per-batch executed times become the fault-free
        baseline the resilient executor stacks retries/crashes/hedges on
        (``batch_service_seconds``). Cache counters reflect the admission
        plan and the scheduled batch stream — a retried batch replays its
        already-resolved executed time rather than re-consulting the
        cache, so counters stay a function of the public schedule alone.
        """
        from repro.hybrid.allocator import count_scan_features

        queue = RequestQueue.coerce(arrivals)
        if policy is None:
            policy = BatchingPolicy(max_batch_size=config.batch_size,
                                    max_wait_seconds=0.0)
        cache = self.cache
        labels = {} if cache is None else {"cache": cache.name}
        registry = get_registry()
        with registry.span("serve", requests=len(queue),
                           batch_size=config.batch_size,
                           threads=config.threads, **labels):
            allocations = self.allocations(config)
            with registry.span("serve.price_batch"):
                if cache is None:
                    service = self._price(allocations, config,
                                          self.mlp_overhead_seconds)
                else:
                    before = cache.stats.snapshot()
                    cache.plan(allocations, config,
                               self._cache_pricer(config))
                    service = cache.schedule_seconds()
            with registry.span("serve.schedule"):
                batches = DynamicBatcher(policy).schedule(
                    queue.arrivals, lambda size: service)
            executed = ([batch.service_seconds for batch in batches]
                        if cache is None else
                        self._cached_batch_seconds(cache, batches, config))
            stats = None
            if self.resilience is None:
                queue_delays, service_latencies, departures = settle(
                    batches, queue.arrivals, executed)
            else:
                from repro.resilience.policy import execute_with_resilience

                with registry.span("serve.resilient_execute",
                                   batches=len(batches)):
                    result = execute_with_resilience(
                        batches, queue.arrivals, executed, self.resilience)
                queue_delays = result["queue_delays"]
                service_latencies = result["service_latencies"]
                departures = result["departures"]
                stats = result["stats"]
            with registry.span("serve.allocate"):
                scans = count_scan_features(allocations)
        cache_fields = {}
        if cache is not None:
            after = cache.stats
            cache_fields = dict(cache_hits=after.hits - before.hits,
                                cache_misses=after.misses - before.misses,
                                cache_bytes_resident=after.bytes_resident)
        report = ServingReport.from_components(
            queue_delays=queue_delays, service_latencies=service_latencies,
            num_batches=len(batches), scan_features=scans,
            dhe_features=len(allocations) - scans,
            batch_time_total=math.fsum(executed), departures=departures,
            **cache_fields)
        if stats is not None:
            from repro.resilience.report import ResilientServingReport

            report = ResilientServingReport.from_serving_report(report,
                                                                **stats)
        self._report_serve(registry, report)
        return report

    def _report_serve(self, registry, report: ServingReport) -> None:
        """Fold one serving run into the engine's metrics."""
        if not registry.enabled:
            return
        registry.counter("serving.requests_total").inc(report.num_requests)
        registry.counter("serving.batches_total").inc(report.num_batches)
        registry.histogram("serving.queue_delay_seconds").observe_many(
            report.queue_delays)
        registry.histogram("serving.request_latency_seconds").observe_many(
            report.latencies)
        registry.gauge("serving.scan_features").set(report.scan_features)
        registry.gauge("serving.dhe_features").set(report.dhe_features)
        if report.tracks_cache:
            registry.gauge("serving.cache_hit_rate").set(
                report.cache_hit_rate)

    def serve_closed(self, num_requests: int,
                     config: ServingConfig) -> ServingReport:
        """The seed simulator's setting: back-to-back full batches.

        Deterministic batch-boundary arrivals + the zero-wait policy make
        queueing delay identically zero, so per-request latency equals the
        batch service time — bit-for-bit the seed ``serve()`` output.
        """
        check_positive("num_requests", num_requests)
        per_batch = self.batch_latency(config)
        arrivals = batch_boundary_arrivals(num_requests, config.batch_size,
                                           per_batch)
        return self.serve(config, arrivals,
                          BatchingPolicy(max_batch_size=config.batch_size,
                                         max_wait_seconds=0.0))

    # ------------------------------------------------------------------
    # Configuration search and multi-replica dispatch
    # ------------------------------------------------------------------
    def best_configuration(self, configs: Sequence[ServingConfig],
                           num_requests: int = 1024
                           ) -> Tuple[ServingConfig, ServingReport]:
        """Highest-throughput configuration that meets its own SLA.

        Candidates are evaluated closed-loop; among SLA-meeting candidates
        the tie-break is throughput (strictly greater wins, so the earliest
        of equal-throughput candidates is kept).
        """
        if not configs:
            raise ValueError("need at least one candidate configuration")
        best: Optional[Tuple[ServingConfig, ServingReport]] = None
        for config in configs:
            report = self.serve_closed(num_requests, config)
            if report.sla_attainment(config.sla_seconds) < 1.0:
                continue
            if best is None or report.throughput() > best[1].throughput():
                best = (config, report)
        if best is None:
            raise RuntimeError("no candidate configuration meets its SLA")
        return best

    def dispatcher(self, config: ServingConfig,
                   allocations: Optional[Sequence[FeatureAllocation]] = None
                   ) -> Dispatcher:
        """Multi-replica dispatcher for this model under ``config``.

        Folds the per-feature demands into one tenant description
        (:func:`repro.hybrid.colocation_planner.dlrm_tenant`) and prices
        replica interference through :mod:`repro.costmodel.colocation`.
        """
        from repro.hybrid.colocation_planner import dlrm_tenant

        if allocations is None:
            allocations = self.allocations(config)
        tenant = dlrm_tenant(self.table_sizes, self.embedding_dim,
                             allocations, self.uniform_shape,
                             config.batch_size)
        return Dispatcher(tenant.demand, config.batch_size)
