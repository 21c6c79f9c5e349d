"""Capacity-aware shard placement that is blind to observed traffic.

Partitioning embedding tables across nodes is itself a side channel: a
planner that keys placement on *observed index frequency* (put the hot
tables on the fat node) encodes user behaviour into which node serves which
table — exactly the class of data-dependent layout decision the paper's
threat model forbids (§III: the adversary sees which memory a server
touches, and node identity is the coarsest address bit there is).

:class:`ShardPlanner` therefore partitions by **static table metadata
only** — table id, table size, and the per-technique cost model — and the
invariant is *enforced*, not assumed: the planner accepts the workload
argument a frequency-keyed planner would want, routes every placement
decision through a :class:`~repro.oblivious.trace.MemoryTracer`, and
:func:`placement_subject` packages the replay of the planner under
contrasting workloads for the :class:`~repro.telemetry.audit.LeakageAuditor`
(``LeakageAuditor().require(placement_subject(...))`` is the gate). A
compliant planner produces the identical placement trace for every
workload; :class:`FrequencyKeyedPlanner` (kept as the documented
anti-pattern) does not, and the audit flags it.

Costs come from the same seams everything else uses: the hybrid
allocator's thresholds pick scan vs DHE per table (Algorithm 3), and the
:class:`~repro.cache.policy.CachePricer` the engine's caches use prices
each table's per-batch latency and the footprint of its chosen
representation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.policy import CachePricer
from repro.costmodel.latency import DheShape
from repro.hybrid.allocator import (
    allocate_for_configuration,
    allocation_technique,
)
from repro.hybrid.thresholds import ThresholdDatabase
from repro.oblivious.trace import WRITE, MemoryTracer
from repro.serving.backends import ModelledBackend
from repro.serving.engine import ServingConfig
from repro.telemetry.audit import (
    MODE_EXACT,
    AuditSubject,
    LeakageAuditor,
    contrasting_secrets,
)
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive

#: tracer region every placement decision is recorded under
PLACEMENT_REGION = "cluster.placement"
#: length of the observed-traffic secrets the cluster audits contrast
AUDIT_SECRET_LENGTH = 64


class PlacementError(ValueError):
    """The table set cannot be placed (e.g. a node capacity is exceeded)."""


@dataclass(frozen=True)
class TablePlacement:
    """One table's shard assignment plus the costs that drove it."""

    table_id: int
    table_size: int
    technique: str
    footprint_bytes: int
    latency_seconds: float       # per-batch latency of this table alone
    node: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "table_id": self.table_id,
            "table_size": self.table_size,
            "technique": self.technique,
            "footprint_bytes": self.footprint_bytes,
            "latency_seconds": self.latency_seconds,
            "node": self.node,
        }


@dataclass
class ShardPlan:
    """A full placement of the table set onto ``num_nodes`` shards."""

    num_nodes: int
    batch_size: int
    threads: int
    placements: Tuple[TablePlacement, ...]

    def __post_init__(self) -> None:
        for placement in self.placements:
            if not 0 <= placement.node < self.num_nodes:
                raise ValueError(
                    f"table {placement.table_id} placed on node "
                    f"{placement.node}, but the plan has {self.num_nodes} "
                    f"nodes")

    # ------------------------------------------------------------------
    def node_of(self, table_id: int) -> int:
        for placement in self.placements:
            if placement.table_id == table_id:
                return placement.node
        raise KeyError(f"no placement for table {table_id}")

    def node_latency_seconds(self, node: int) -> float:
        return sum(p.latency_seconds for p in self.placements
                   if p.node == node)

    def node_footprint_bytes(self, node: int) -> int:
        return sum(p.footprint_bytes for p in self.placements
                   if p.node == node)

    def latency_imbalance(self) -> float:
        """Max/mean per-node latency load (1.0 = perfectly balanced)."""
        loads = [self.node_latency_seconds(node)
                 for node in range(self.num_nodes)]
        mean = sum(loads) / len(loads)
        if mean <= 0.0:
            return 1.0
        return max(loads) / mean

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_nodes": self.num_nodes,
            "batch_size": self.batch_size,
            "threads": self.threads,
            "latency_imbalance": self.latency_imbalance(),
            "node_latency_seconds": [self.node_latency_seconds(node)
                                     for node in range(self.num_nodes)],
            "node_footprint_bytes": [self.node_footprint_bytes(node)
                                     for node in range(self.num_nodes)],
            "placements": [p.to_dict() for p in self.placements],
        }

    def digest(self) -> str:
        """Content hash of the plan (what the skew-invariance gate compares)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ShardPlanner:
    """Greedy capacity-aware placement keyed on static table metadata only.

    Tables are ordered by per-batch latency (longest-processing-time
    first, table id as the tie-break — both static quantities) and each is
    assigned to the node with the smallest accumulated latency load whose
    memory capacity still fits it. The ``workload`` argument of
    :meth:`plan` exists so the leakage audit can *try* to influence the
    planner; a compliant planner never reads it.
    """

    def __init__(self, num_nodes: int, thresholds: ThresholdDatabase,
                 embedding_dim: int,
                 uniform_shape: Optional[DheShape] = None,
                 node_capacity_bytes: Optional[int] = None) -> None:
        check_positive("num_nodes", num_nodes)
        check_positive("embedding_dim", embedding_dim)
        if node_capacity_bytes is not None:
            check_positive("node_capacity_bytes", node_capacity_bytes)
        self.num_nodes = num_nodes
        self.thresholds = thresholds
        self.embedding_dim = embedding_dim
        self.uniform_shape = uniform_shape
        self.backend = ModelledBackend(uniform_shape)
        self.node_capacity_bytes = node_capacity_bytes

    # ------------------------------------------------------------------
    def table_costs(self, table_sizes: Sequence[int],
                    config: ServingConfig) -> List[TablePlacement]:
        """Per-table technique, footprint and latency (node unassigned)."""
        allocations = allocate_for_configuration(
            table_sizes, self.thresholds, self.embedding_dim,
            config.batch_size, config.threads)
        pricer = CachePricer(self.backend, self.embedding_dim,
                             config.batch_size, config.threads,
                             uniform_shape=self.uniform_shape)
        return [TablePlacement(
            table_id=allocation.feature_index,
            table_size=allocation.table_size,
            technique=allocation_technique(allocation),
            footprint_bytes=pricer.footprint_bytes(allocation),
            latency_seconds=pricer.feature_seconds(allocation),
            node=-1) for allocation in allocations]

    def _assignment_order(self, costs: Sequence[TablePlacement],
                          workload: Optional[Sequence[int]]
                          ) -> List[TablePlacement]:
        """LPT order over static costs; ``workload`` is deliberately unread."""
        return sorted(costs, key=lambda c: (-c.latency_seconds, c.table_id))

    def _assign(self, costs: Sequence[TablePlacement],
                workload: Optional[Sequence[int]]) -> Dict[int, int]:
        """table id -> node. The seam epoch-aware planners override."""
        loads = [0.0] * self.num_nodes
        used = [0] * self.num_nodes
        assigned: Dict[int, int] = {}
        for cost in self._assignment_order(costs, workload):
            candidates = [node for node in range(self.num_nodes)
                          if self.node_capacity_bytes is None
                          or used[node] + cost.footprint_bytes
                          <= self.node_capacity_bytes]
            if not candidates:
                raise PlacementError(
                    f"table {cost.table_id} ({cost.footprint_bytes} B) fits "
                    f"no node under capacity {self.node_capacity_bytes} B")
            node = min(candidates, key=lambda n: (loads[n], n))
            loads[node] += cost.latency_seconds
            used[node] += cost.footprint_bytes
            assigned[cost.table_id] = node
        return assigned

    def for_nodes(self, num_nodes: int) -> "ShardPlanner":
        """A planner with identical static config targeting a new fleet size.

        This is the seam the plan-epoch control plane replans through: the
        cost model and thresholds are shared, only the node count changes,
        so successive epochs price tables identically.
        """
        return type(self)(num_nodes, self.thresholds, self.embedding_dim,
                          uniform_shape=self.uniform_shape,
                          node_capacity_bytes=self.node_capacity_bytes)

    # ------------------------------------------------------------------
    def plan(self, table_sizes: Sequence[int], config: ServingConfig,
             workload: Optional[Sequence[int]] = None,
             tracer: Optional[MemoryTracer] = None) -> ShardPlan:
        """Place every table on a node; record the decisions on ``tracer``.

        ``workload`` is an observed index trace (what a frequency-keyed
        planner would bin into per-table heat). This planner accepts it
        only so the :func:`placement_subject` audit can verify it is ignored.
        """
        costs = self.table_costs(table_sizes, config)
        assigned = self._assign(costs, workload)
        placements = tuple(
            TablePlacement(cost.table_id, cost.table_size, cost.technique,
                           cost.footprint_bytes, cost.latency_seconds,
                           assigned[cost.table_id])
            for cost in costs)
        if tracer is not None:
            # One event per table, in table-id order: the address encodes
            # the (table -> node) decision, so any workload-dependent
            # placement shows up as trace divergence in the audit.
            for placement in placements:
                tracer.record(WRITE, PLACEMENT_REGION,
                              placement.table_id * self.num_nodes
                              + placement.node)
        get_registry().counter("cluster.plans_total").inc()
        return ShardPlan(self.num_nodes, config.batch_size, config.threads,
                         placements)


class FrequencyKeyedPlanner(ShardPlanner):
    """The anti-pattern: placement keyed on observed index frequency.

    Bins the observed workload into per-table heat and packs hot tables
    first onto the least-hot node — the "natural" load balancer that leaks
    user behaviour through the placement itself. Kept only as the negative
    subject for the planner leakage audit and its regression test; never
    use it to serve traffic.
    """

    def _assignment_order(self, costs: Sequence[TablePlacement],
                          workload: Optional[Sequence[int]]
                          ) -> List[TablePlacement]:
        if workload is None:
            return super()._assignment_order(costs, workload)
        observed = np.asarray(workload, dtype=np.int64)
        heat = np.bincount(observed % max(1, len(costs)),
                           minlength=len(costs))
        return sorted(costs,
                      key=lambda c: (-int(heat[c.table_id]), c.table_id))


class RingPlanner(ShardPlanner):
    """Placement keyed on the consistent-hash ring — the migration planner.

    Each table's primary is its ring owner (SHA-256 over table id, the same
    ring :class:`~repro.cluster.router.ShardRouter` walks), so successive
    plan epochs inherit the ring's incremental-reshard property: growing
    the fleet from N to N+1 nodes remaps only the tables whose ring arc the
    new node captures, which is what keeps the migration move-set minimal.
    Costs (technique, footprint, latency) still come from the static cost
    model; the assignment reads nothing but table ids, so the placement
    audit passes in exact mode like the LPT planner's.
    """

    def _assign(self, costs: Sequence[TablePlacement],
                workload: Optional[Sequence[int]]) -> Dict[int, int]:
        from repro.cluster.router import ShardRouter

        ring = ShardRouter(self.num_nodes)
        return {cost.table_id: ring.owners(cost.table_id)[0]
                for cost in costs}


# ----------------------------------------------------------------------
# The planner-level leakage check (judged by LeakageAuditor end to end).
# ----------------------------------------------------------------------
def placement_subject(planner: ShardPlanner, table_sizes: Sequence[int],
                      config: ServingConfig,
                      workloads: Optional[Sequence[Sequence[int]]] = None,
                      name: str = "shard-planner",
                      expect_oblivious: bool = True) -> AuditSubject:
    """Wrap a planner as an :class:`AuditSubject`: one replay per workload.

    ``LeakageAuditor().require(placement_subject(...))`` is the loud gate
    the cluster simulators and CI run before any plan may serve traffic.
    """
    if workloads is None:
        workloads = contrasting_secrets(len(table_sizes),
                                        AUDIT_SECRET_LENGTH)

    def run(tracer: MemoryTracer, secret: Sequence[int]) -> None:
        planner.plan(table_sizes, config, workload=secret, tracer=tracer)

    return AuditSubject(name, run, workloads, mode=MODE_EXACT,
                        expect_oblivious=expect_oblivious)


class PlanBook:
    """One memoised plan per node count, each placement-audited first.

    Every fleet that resizes asks the book, never the planner: the first
    request for a node count derives that planner
    (:meth:`ShardPlanner.for_nodes`), passes
    ``LeakageAuditor().require(placement_subject(...))`` and records the
    verdict in :attr:`audits`; later requests return the same plan object.
    A ``name`` labels every record with ``"pool"`` (a fleet that is one of
    several).
    """

    def __init__(self, planner: ShardPlanner, table_sizes: Sequence[int],
                 config: ServingConfig, name: Optional[str] = None) -> None:
        self.planner = planner
        self.table_sizes = list(table_sizes)
        self.config = config
        self.name = name
        self._plans: Dict[int, ShardPlan] = {}
        self.audits: List[Dict[str, object]] = []

    @property
    def passed(self) -> bool:
        return all(audit["audit_passed"] for audit in self.audits)

    def plan_for(self, nodes: int) -> ShardPlan:
        if nodes not in self._plans:
            planner = (self.planner if self.planner.num_nodes == nodes
                       else self.planner.for_nodes(nodes))
            finding = LeakageAuditor().require(placement_subject(
                planner, self.table_sizes, self.config))
            plan = self._plans[nodes] = planner.plan(self.table_sizes,
                                                     self.config)
            audit: Dict[str, object] = {
                "num_nodes": nodes,
                "plan_digest": plan.digest(),
                "audit_divergence": finding.divergence,
                "audit_passed": finding.passed,
            }
            if self.name is not None:
                audit["pool"] = self.name
            self.audits.append(audit)
        return self._plans[nodes]
