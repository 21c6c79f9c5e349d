"""Cross-shard scatter-gather: one request, every shard, one answer.

A DLRM inference needs *every* sparse feature, so a sharded deployment
fans each batch out to all shards holding routed tables, waits for the
slowest shard, and gathers the pooled embeddings into the dense stack.
:class:`ScatterGatherEngine` models exactly that: each live node runs the
arrival trace through its own per-shard
:class:`~repro.serving.engine.ExecutionEngine` (embedding work only — the
dense MLP and the gather fan-in are priced once at the front end), and the
per-request end-to-end latency is the elementwise max over shards plus the
front-end overhead. The per-request deadline budget composes from
:class:`~repro.resilience.retry.RetryPolicy` the same way the resilient
executor's does: requests whose gathered latency exceeds the budget are
shed with their latency censored at the deadline.

Obliviousness is inherited, not re-argued: every shard serves padded,
data-independent batches (the shard's table set is fixed by the
frequency-blind plan, the batch shape by the config), so the scatter fan
and the gather barrier reveal only public quantities — batch counts and
table-to-shard topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.router import ShardRouter
from repro.costmodel.latency import MLP_OVERHEAD_SECONDS, DheShape
from repro.hybrid.thresholds import ThresholdDatabase
from repro.resilience.dispatch import ResilientDispatcher
from repro.resilience.retry import RetryPolicy
from repro.serving.batcher import BatchingPolicy
from repro.serving.engine import ExecutionEngine, ServingConfig
from repro.serving.report import ServingReport, summed_cache_fields
from repro.serving.requests import ArrivalsLike, RequestQueue
from repro.telemetry.runtime import get_registry

if TYPE_CHECKING:  # runtime import deferred (repro.cache imports serving)
    from repro.cache.policy import SecretIndependentCache

#: front-end fan-in cost per gathered shard, seconds
GATHER_OVERHEAD_SECONDS = 5e-5


class ClusterUnavailableError(RuntimeError):
    """No live shard can serve any table (the whole fleet is out)."""


@dataclass
class ClusterServingReport:
    """The gathered view of one scatter-gather run.

    ``report`` carries per-request end-to-end numbers (queue wait of the
    binding shard + slowest shard service + front-end overhead, censored at
    the deadline for shed requests); ``fleet`` is the
    :meth:`~repro.serving.report.ServingReport.merge` of the per-shard
    reports (aggregate busy time and batch counts); ``shard_reports`` keeps
    every constituent for drill-down.
    """

    report: ServingReport
    fleet: ServingReport
    shard_reports: Dict[int, ServingReport]
    assignment: Dict[int, Tuple[int, ...]]       # node -> routed table ids
    unroutable_tables: Tuple[int, ...]
    shed_requests: int
    deadline_seconds: float
    gather_overhead_seconds: float = 0.0
    capacity_rps: float = 0.0                    # saturated pipeline capacity
    shard_batch_latency_seconds: Dict[int, float] = field(default_factory=dict)
    # Autoscale event counters the control loop stamps on interval reports;
    # like every other counter they SUM under :meth:`merge`.
    scale_up_events: int = 0
    scale_down_events: int = 0
    heal_events: int = 0

    # ------------------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return self.report.num_requests

    @property
    def num_shards(self) -> int:
        return len(self.shard_reports)

    @property
    def availability(self) -> float:
        """Fraction of requests fully answered before their deadline."""
        if self.report.num_requests == 0:
            return 0.0
        return 1.0 - self.shed_requests / self.report.num_requests

    @property
    def p50(self) -> float:
        return self.report.p50

    @property
    def p95(self) -> float:
        return self.report.p95

    @property
    def p99(self) -> float:
        """Gathered p99 (0.0, not NaN, when nothing was served)."""
        return self.report.p99

    @property
    def bottleneck_busy_seconds(self) -> float:
        """Busy time of the most loaded shard (the scaling bottleneck)."""
        if not self.shard_reports:
            return 0.0
        return max(r.batch_time_total for r in self.shard_reports.values())

    def cluster_throughput(self) -> float:
        """Answered requests/second limited by the bottleneck shard.

        This is the *achieved* rate for the trace actually served; at low
        offered load padded partial batches keep it far below
        :attr:`capacity_rps`, the saturated pipeline ceiling (the Fig 13
        throughput metric, ``batch_size / slowest-stage latency``) that the
        sim's scaling gate compares. Shed requests are not answered, so a
        run that sheds everything reports 0.0 — never a division error.
        """
        busy = self.bottleneck_busy_seconds
        if busy <= 0.0:
            return 0.0
        answered = self.report.num_requests - self.shed_requests
        return max(0, answered) / busy

    def sla_violations(self, sla_seconds: float) -> int:
        return int(np.count_nonzero(self.report.latencies > sla_seconds))

    def utilisation(self, offered_rps: float) -> float:
        """Offered load over provisioned capacity, NaN/inf-free.

        A zero-capacity report (nothing routable, or a fleet moment priced
        before any shard came up) reports 0.0 rather than dividing — the
        caller that needs "is demand outrunning a dead fleet" reads
        ``capacity_rps == 0`` directly.
        """
        if self.capacity_rps <= 0.0 or offered_rps < 0.0:
            return 0.0
        return offered_rps / self.capacity_rps

    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, reports: Sequence["ClusterServingReport"]
              ) -> "ClusterServingReport":
        """Aggregate interval reports into one fleet-wide view.

        Counters — requests, shed requests, and the autoscale event
        counters — are **summed, never averaged**; latency arrays
        concatenate through :meth:`ServingReport.merge` so merged
        percentiles are percentiles of the union. ``capacity_rps`` is the
        max across constituents (peak provisioned capacity — capacities of
        the *same* fleet at different moments do not add), which also
        makes a zero-capacity constituent merge cleanly: no division, no
        NaN, no inf. Per-node shard reports merge node-wise and
        assignments union.
        """
        if not reports:
            raise ValueError("merge needs at least one report")
        shard_groups: Dict[int, List[ServingReport]] = {}
        assignment: Dict[int, set] = {}
        for interval in reports:
            for node, shard in interval.shard_reports.items():
                shard_groups.setdefault(node, []).append(shard)
            for node, tables in interval.assignment.items():
                assignment.setdefault(node, set()).update(tables)
        unroutable = sorted({table for interval in reports
                             for table in interval.unroutable_tables})
        finite_deadlines = [r.deadline_seconds for r in reports
                            if math.isfinite(r.deadline_seconds)]
        return cls(
            report=ServingReport.merge([r.report for r in reports]),
            fleet=ServingReport.merge([r.fleet for r in reports]),
            shard_reports={node: ServingReport.merge(group)
                           for node, group in shard_groups.items()},
            assignment={node: tuple(sorted(tables))
                        for node, tables in assignment.items()},
            unroutable_tables=tuple(unroutable),
            shed_requests=sum(r.shed_requests for r in reports),
            deadline_seconds=(max(finite_deadlines) if finite_deadlines
                              else math.inf),
            gather_overhead_seconds=max(r.gather_overhead_seconds
                                        for r in reports),
            capacity_rps=max(r.capacity_rps for r in reports),
            shard_batch_latency_seconds={
                node: max(r.shard_batch_latency_seconds.get(node, 0.0)
                          for r in reports)
                for node in sorted({n for r in reports
                                    for n in r.shard_batch_latency_seconds})},
            scale_up_events=sum(r.scale_up_events for r in reports),
            scale_down_events=sum(r.scale_down_events for r in reports),
            heal_events=sum(r.heal_events for r in reports))

    # ------------------------------------------------------------------
    def to_dict(self, sla_seconds: Optional[float] = None
                ) -> Dict[str, object]:
        """JSON-stable digest: simulated quantities only, NaN/inf-free.

        Safe under ``json.dumps(..., allow_nan=False)`` for every report
        the engine can produce — including zero-capacity cells and
        deadline-free runs (an infinite deadline serialises as ``None``).
        """
        digest: Dict[str, object] = {
            "num_requests": self.report.num_requests,
            "num_shards": self.num_shards,
            "assignment": {str(node): list(tables)
                           for node, tables in sorted(self.assignment.items())},
            "unroutable_tables": list(self.unroutable_tables),
            "shed_requests": self.shed_requests,
            "availability": self.availability,
            "deadline_seconds": (self.deadline_seconds
                                 if math.isfinite(self.deadline_seconds)
                                 else None),
            "p50_seconds": self.p50,
            "p95_seconds": self.p95,
            "p99_seconds": self.p99,
            "mean_queue_delay_seconds": self.report.mean_queue_delay,
            "bottleneck_busy_seconds": self.bottleneck_busy_seconds,
            "fleet_busy_seconds": self.fleet.batch_time_total,
            "fleet_batches": self.fleet.num_batches,
            "cluster_throughput_rps": self.cluster_throughput(),
            "capacity_rps": self.capacity_rps,
            "scale_up_events": self.scale_up_events,
            "scale_down_events": self.scale_down_events,
            "heal_events": self.heal_events,
            "shard_batch_latency_seconds": {
                str(node): latency for node, latency
                in sorted(self.shard_batch_latency_seconds.items())},
            "scan_features": self.report.scan_features,
            "dhe_features": self.report.dhe_features,
            "shards": {str(node): {
                "tables": list(self.assignment[node]),
                "num_batches": shard.num_batches,
                "busy_seconds": shard.batch_time_total,
                "p99_seconds": shard.p99,
            } for node, shard in sorted(self.shard_reports.items())},
        }
        if sla_seconds is not None:
            digest["sla_seconds"] = sla_seconds
            digest["sla_violations"] = self.sla_violations(sla_seconds)
            # A shed request never attains its SLA, but its latency is
            # censored at the deadline (which may sit below the SLA), so
            # the raw per-latency attainment is capped at availability —
            # an all-shed run reports 0.0, not a vacuous 1.0.
            digest["sla_attainment"] = (
                0.0 if self.report.num_requests == 0
                else min(self.report.sla_attainment(sla_seconds),
                         self.availability))
        return digest


class ScatterGatherEngine:
    """Splits per-table lookups across shards and gathers the results."""

    def __init__(self, table_sizes: Sequence[int], embedding_dim: int,
                 uniform_shape: Optional[DheShape],
                 thresholds: ThresholdDatabase,
                 router: ShardRouter,
                 retry: Optional[RetryPolicy] = None,
                 dispatcher: Optional[ResilientDispatcher] = None,
                 cache: Optional[Callable[[], SecretIndependentCache]] = None
                 ) -> None:
        if not table_sizes:
            raise ValueError("scatter-gather needs at least one table")
        if cache is not None and not callable(cache):
            # A shared instance would alias batch keys across shards (every
            # shard sees the same public arrival metadata), so the fleet
            # takes a factory and builds one cache per shard.
            raise TypeError(
                "ScatterGatherEngine takes a zero-argument cache factory "
                "(one cache is built per shard), not a cache instance")
        self.table_sizes = tuple(table_sizes)
        self.embedding_dim = embedding_dim
        self.uniform_shape = uniform_shape
        self.thresholds = thresholds
        self.router = router
        self.retry = retry
        self.dispatcher = dispatcher
        self.cache = cache
        self._engines: Dict[Tuple[int, ...], ExecutionEngine] = {}

    # ------------------------------------------------------------------
    def shard_engine(self, table_ids: Sequence[int]) -> ExecutionEngine:
        """The (cached) embedding-only engine over a shard's routed tables."""
        key = tuple(table_ids)
        if key not in self._engines:
            sizes = [self.table_sizes[table_id] for table_id in key]
            self._engines[key] = ExecutionEngine(
                sizes, self.embedding_dim, self.uniform_shape,
                self.thresholds, mlp_overhead_seconds=0.0,
                cache=None if self.cache is None else self.cache())
        return self._engines[key]

    # ------------------------------------------------------------------
    def serve(self, config: ServingConfig, arrivals: ArrivalsLike,
              policy: Optional[BatchingPolicy] = None,
              owner_map=None) -> ClusterServingReport:
        """Scatter an arrival trace across the live shards and gather.

        Every shard batches the same trace independently (its own
        :class:`~repro.serving.batcher.DynamicBatcher` run priced at the
        shard's table subset); a request completes when its slowest shard
        does, plus the front-end MLP + gather overhead. ``owner_map``
        overrides the router for the duration of this trace: a migration
        passes its :class:`~repro.cluster.migration.TransitioningOwnerMap`,
        whose in-flight tables fan out to both their source and target
        owners (double-serve). Replica health is read at time 0.
        """
        queue = RequestQueue.coerce(arrivals)
        if policy is not None and self.retry is not None:
            self.retry.validate_against(policy)
        owners = self.router if owner_map is None else owner_map
        routed, unroutable = owners.assignment(len(self.table_sizes), 0.0,
                                               self.dispatcher)
        if not routed:
            raise ClusterUnavailableError(
                "no live shard can serve any table; the fleet is out")
        registry = get_registry()
        shard_reports: Dict[int, ServingReport] = {}
        with registry.span("cluster.scatter_gather", shards=len(routed),
                           requests=len(queue)):
            shard_latency = self.shard_latencies(config, routed)
            for node in sorted(routed):
                with registry.span("cluster.shard_serve", node=node,
                                   tables=len(routed[node])):
                    shard_reports[node] = self.shard_engine(
                        routed[node]).serve(config, queue, policy)
        capacity = self.capacity_rps(config, shard_latency)
        return self._gather(queue, shard_reports, routed, unroutable,
                            capacity, shard_latency)

    def shard_latencies(self, config: ServingConfig,
                        routed: Dict[int, Sequence[int]]) -> Dict[int, float]:
        """Per-batch latency of each node's routed table set."""
        return {node: self.shard_engine(routed[node]).batch_latency(config)
                for node in sorted(routed)}

    def capacity_rps(self, config: ServingConfig,
                     shard_latency: Dict[int, float]) -> float:
        """Saturated pipeline capacity: batch size over the slowest stage.

        The shards and the front end (MLP + gather) form a two-stage
        pipeline; at saturation every stage streams full batches, so the
        sustainable rate is ``batch_size / max(stage latencies)`` — the
        same batch-over-latency throughput metric Fig 13 plots, which is
        what the sim's scaling gate compares across topologies.
        """
        front_end = (MLP_OVERHEAD_SECONDS
                     + GATHER_OVERHEAD_SECONDS * len(shard_latency))
        bottleneck = max(max(shard_latency.values()), front_end)
        if bottleneck <= 0.0:
            return 0.0
        return config.batch_size / bottleneck

    # ------------------------------------------------------------------
    def _gather(self, queue: RequestQueue,
                shard_reports: Dict[int, ServingReport],
                routed: Dict[int, List[int]],
                unroutable: List[int],
                capacity: float,
                shard_latency: Dict[int, float]) -> ClusterServingReport:
        """Join the per-shard per-request arrays into the gathered report."""
        nodes = sorted(shard_reports)
        stacked = np.stack([shard_reports[node].latencies for node in nodes])
        queue_stack = np.stack([shard_reports[node].queue_delays
                                for node in nodes])
        overhead = (MLP_OVERHEAD_SECONDS
                    + GATHER_OVERHEAD_SECONDS * len(nodes))
        total = stacked.max(axis=0) + overhead
        queue_delays = queue_stack.max(axis=0)

        deadline = (self.retry.deadline_seconds if self.retry is not None
                    else math.inf)
        if unroutable:
            # Some tables have no live owner: every request is missing
            # embeddings and fails at its deadline.
            shed_mask = np.ones(total.shape, dtype=bool)
        else:
            shed_mask = total > deadline
        shed = int(np.count_nonzero(shed_mask))
        if shed and math.isfinite(deadline):
            total = np.where(shed_mask, np.minimum(total, deadline), total)
        service = total - queue_delays

        report = ServingReport.from_components(
            queue_delays=queue_delays, service_latencies=service,
            num_batches=max(r.num_batches for r in shard_reports.values()),
            scan_features=sum(r.scan_features
                              for r in shard_reports.values()),
            dhe_features=sum(r.dhe_features for r in shard_reports.values()),
            batch_time_total=max(r.batch_time_total
                                 for r in shard_reports.values()),
            **summed_cache_fields(list(shard_reports.values())))
        fleet = ServingReport.merge(list(shard_reports.values()))
        registry = get_registry()
        if registry.enabled:
            registry.counter("cluster.requests_total").inc(len(queue))
            registry.counter("cluster.shed_total").inc(shed)
            registry.gauge("cluster.live_shards").set(len(nodes))
            registry.histogram("cluster.request_latency_seconds"
                               ).observe_many(total)
        return ClusterServingReport(
            report=report, fleet=fleet, shard_reports=shard_reports,
            assignment={node: tuple(tables)
                        for node, tables in routed.items()},
            unroutable_tables=tuple(unroutable), shed_requests=shed,
            deadline_seconds=deadline,
            gather_overhead_seconds=GATHER_OVERHEAD_SECONDS,
            capacity_rps=capacity,
            shard_batch_latency_seconds=dict(shard_latency))
