"""Per-stage pools: three independently autoscaled fleets, one audit path.

The cluster layer was built around a single fleet: one planner, one epoch
control plane, one autoscaler. A pipeline wants one of *each per stage* —
tokenize, prefill and decode have different cost shapes, so yoking them to
one node count either starves the bottleneck or wastes the cheap stage.
:class:`StagePool` packages the standing machinery per pool:

* plans come from a :class:`~repro.cluster.placement.RingPlanner` (one
  per pool), and every node count's plan passes
  :meth:`~repro.telemetry.audit.LeakageAuditor.require` on its
  :func:`~repro.cluster.placement.placement_subject` before it may serve
  — memoised, exactly as the autoscale sim does;
* epochs are versioned by the pool's own
  :class:`~repro.cluster.epoch.EpochControlPlane`; a scale decision
  advances the epoch and the cutover is modelled through the **shared**
  migration path — a :class:`~repro.cluster.migration.MigrationEngine`
  between the two epochs whose move-set is audited through its
  :func:`~repro.cluster.migration.migration_subject` (the same subject
  the DLRM fleet's live migrations go through);
* scale decisions read the pool's own
  :class:`~repro.cluster.autoscale.signals.SignalPlane` — secret-free
  aggregates of *this stage's* offered load vs fluid capacity — and the
  pool's decision timeline replays skew-invariantly through ``require``
  on its :func:`~repro.cluster.autoscale.controller.scaling_subject`.

Node counts are public per the threat model, but *three* node counts are
three observables: the per-pool signal planes keep each one a function of
whole-stage aggregates, so the triple (tokenize, prefill, decode) sizes
still reveal only offered load, never content.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.autoscale.controller import (
    ACTION_DOWN,
    ACTION_UP,
    Autoscaler,
    AutoscaleConfig,
    scaling_subject,
)
from repro.cluster.autoscale.signals import ClusterSignals, SignalPlane
from repro.cluster.epoch import EpochControlPlane, PlanEpoch
from repro.cluster.migration import (
    BandwidthContentionModel,
    MigrationEngine,
    migration_subject,
)
from repro.cluster.placement import RingPlanner, placement_subject
from repro.cluster.sim import plan_digest
from repro.serving.engine import ServingConfig
from repro.telemetry.audit import LeakageAuditor
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive


class StagePool:
    """One pipeline stage's fleet: plans, epochs, signals, controller."""

    def __init__(self, name: str, planner: RingPlanner,
                 table_sizes: Sequence[int], config: ServingConfig,
                 per_node_capacity_rps: float,
                 autoscale_config: AutoscaleConfig,
                 start_nodes: int, replication: int = 1,
                 skews: Optional[Sequence[Sequence[int]]] = None,
                 interval_seconds: float = 0.25, step_size: int = 4,
                 contention: Optional[BandwidthContentionModel] = None
                 ) -> None:
        check_positive("per_node_capacity_rps", per_node_capacity_rps)
        check_positive("start_nodes", start_nodes)
        self.name = name
        self.table_sizes = list(table_sizes)
        self.config = config
        self.per_node_capacity_rps = per_node_capacity_rps
        self.autoscale_config = autoscale_config
        self.replication = replication
        self.skews = list(skews) if skews is not None else None
        self.step_size = step_size
        self.contention = (BandwidthContentionModel()
                           if contention is None else contention)

        self._base_planner = (planner if planner.num_nodes == start_nodes
                              else planner.for_nodes(start_nodes))
        self._plans: Dict[int, object] = {}
        self.plan_audits: List[Dict[str, object]] = []
        self.placement_ok = True

        self.control = EpochControlPlane(
            PlanEpoch.create(0, self.plan_for(start_nodes),
                             replication=replication))
        self.autoscaler = Autoscaler(autoscale_config)
        self.plane = SignalPlane(None, interval_seconds=interval_seconds)
        self.timeline: List[ClusterSignals] = []
        self.migration_audits: List[Dict[str, object]] = []
        self.migration_ok = True
        self.events = {"scale_up_events": 0, "scale_down_events": 0}

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> int:
        return self.control.current.num_nodes

    def capacity_rps(self) -> float:
        """Fluid provisioned capacity of the pool's current fleet."""
        return self.nodes * self.per_node_capacity_rps

    def plan_for(self, nodes: int):
        """Memoised, placement-audited plan for ``nodes`` (sim idiom)."""
        if nodes not in self._plans:
            planner = (self._base_planner
                       if self._base_planner.num_nodes == nodes
                       else self._base_planner.for_nodes(nodes))
            finding = LeakageAuditor().require(placement_subject(
                planner, self.table_sizes, self.config,
                workloads=self.skews))
            self.placement_ok = self.placement_ok and finding.passed
            self._plans[nodes] = planner.plan(self.table_sizes,
                                              self.config)
            self.plan_audits.append({
                "pool": self.name,
                "num_nodes": nodes,
                "plan_digest": plan_digest(self._plans[nodes]),
                "audit_divergence": finding.divergence,
                "audit_passed": finding.passed,
            })
        return self._plans[nodes]

    # ------------------------------------------------------------------
    def tick(self, offered_rps: float, queue_delay_seconds: float,
             shed_requests: int = 0,
             now_seconds: float = 0.0) -> Dict[str, object]:
        """One decision interval: snapshot signals, decide, maybe reshape.

        A scale decision advances the pool's epoch and sends the cutover
        through the shared migration path: the move-set between the two
        epochs is audited (every pool, every reshape) and the old epoch
        retires once the modelled copy is accounted. Returns the
        JSON-stable cell for the bench's interval log.
        """
        capacity = self.capacity_rps()
        signals = self.plane.snapshot(
            offered_rps=offered_rps,
            achieved_rps=min(offered_rps, capacity),
            capacity_rps=capacity,
            queue_delay_seconds=queue_delay_seconds,
            shed_requests=shed_requests,
            current_nodes=self.nodes,
            replication=self.replication,
            now_seconds=now_seconds)
        self.timeline.append(signals)
        decision = self.autoscaler.decide(signals)
        cell: Dict[str, object] = {
            "signals": signals.to_dict(),
            "decision": decision.to_dict(),
        }
        if decision.action in (ACTION_UP, ACTION_DOWN):
            source = self.control.current
            target = self.control.advance(
                self.plan_for(decision.target_nodes))
            candidate = MigrationEngine(source, target,
                                        step_size=self.step_size,
                                        contention=self.contention)
            moves = candidate.move_set()
            if moves:
                finding = LeakageAuditor().audit(migration_subject(
                    candidate,
                    name=f"{self.name}-{decision.action}"
                         f"-tick{signals.tick}"))
                self.migration_ok = self.migration_ok and finding.passed
                self.migration_audits.append({
                    "pool": self.name,
                    "tick": signals.tick,
                    "kind": decision.action,
                    "tables": len(moves),
                    "bytes_modelled": sum(move.bytes_modelled
                                          for move in moves),
                    "audit_divergence": finding.divergence,
                    "audit_passed": finding.passed,
                })
                cell["migration"] = self.migration_audits[-1]
            self.control.retire_through(self.control.current.epoch - 1)
            key = ("scale_up_events" if decision.action == ACTION_UP
                   else "scale_down_events")
            self.events[key] += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    f"llm.pool.{self.name}.{key}_total").inc()
        registry = get_registry()
        if registry.enabled:
            registry.gauge(f"llm.pool.{self.name}.nodes").set(self.nodes)
            registry.gauge(f"llm.pool.{self.name}.utilisation").set(
                signals.utilisation)
        return cell

    # ------------------------------------------------------------------
    def scaling_audit(self, skews: Sequence[Sequence[int]]):
        """Replay this pool's decisions skew-invariantly (the gate)."""
        return LeakageAuditor().require(scaling_subject(
            lambda: Autoscaler(self.autoscale_config), self.timeline,
            skews))

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "per_node_capacity_rps": self.per_node_capacity_rps,
            "replication": self.replication,
            "autoscale_config": self.autoscale_config.to_dict(),
            "final_nodes": self.nodes,
            "final_epoch": self.control.current.epoch,
            "events": dict(self.events),
            "plan_audits": self.plan_audits,
            "migration_audits": self.migration_audits,
        }
