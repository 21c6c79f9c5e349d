"""Per-stage pools: three independently autoscaled fleets, one audit path.

The cluster layer was built around a single fleet: one planner, one epoch
control plane, one autoscaler. A pipeline wants one of *each per stage* —
tokenize, prefill and decode have different cost shapes, so yoking them to
one node count either starves the bottleneck or wastes the cheap stage.
A :class:`StagePool` is an :class:`~repro.cluster.autoscale.fleet
.ElasticFleet` — the same object the autoscale storm drives — so every
pool plans, reshapes and audits exactly as that fleet does:

* plans come from the pool's own
  :class:`~repro.cluster.placement.PlanBook` over a
  :class:`~repro.cluster.placement.RingPlanner`, and every node count's
  plan passes the placement audit before it may serve;
* a scale decision advances the pool's
  :class:`~repro.cluster.epoch.EpochControlPlane` and the move-set between
  the two epochs is audited through the shared
  :func:`~repro.cluster.migration.migration_subject`;
* scale decisions read the pool's own
  :class:`~repro.cluster.autoscale.signals.SignalPlane` — secret-free
  aggregates of *this stage's* offered load vs fluid capacity — and the
  pool's decision timeline replays skew-invariantly through ``require`` on
  its :func:`~repro.cluster.autoscale.controller.scaling_subject`.

What a pool adds is the stage's pricing: capacity is fluid (nodes x
per-node rate) and the cutover completes on the modelled copy in the same
interval, since a pool serves through the LLM pipeline rather than a
scatter-gather engine the migration could execute against.

Node counts are public per the threat model, but *three* node counts are
three observables: the per-pool signal planes keep each one a function of
whole-stage aggregates, so the triple (tokenize, prefill, decode) sizes
still reveal only offered load, never content.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.autoscale.fleet import ElasticFleet, event_key
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive


class StagePool(ElasticFleet):
    """One pipeline stage's fleet, priced as fluid per-node capacity."""

    def __init__(self, name: str, per_node_capacity_rps: float,
                 **fleet) -> None:
        """``fleet`` takes :class:`ElasticFleet`'s arguments by keyword."""
        check_positive("per_node_capacity_rps", per_node_capacity_rps)
        super().__init__(name=name, **fleet)
        self.per_node_capacity_rps = per_node_capacity_rps

    def capacity_rps(self) -> float:
        """Fluid provisioned capacity of the pool's current fleet."""
        return self.nodes * self.per_node_capacity_rps

    def tick(self, offered_rps: float, queue_delay_seconds: float,
             shed_requests: int = 0,
             now_seconds: float = 0.0) -> Dict[str, object]:
        """One decision interval: snapshot signals, decide, maybe reshape.

        A reshape's audited migration completes at once on the modelled
        copy. Returns the JSON-stable cell for the bench's interval log.
        """
        capacity = self.capacity_rps()
        signals = self.plane.snapshot(
            offered_rps=offered_rps,
            achieved_rps=min(offered_rps, capacity),
            capacity_rps=capacity,
            queue_delay_seconds=queue_delay_seconds,
            shed_requests=shed_requests,
            current_nodes=self.nodes,
            replication=self.control.current.replication,
            now_seconds=now_seconds)
        decision = self.decide(signals)
        cell: Dict[str, object] = {
            "signals": signals.to_dict(),
            "decision": decision.to_dict(),
        }
        migration = self.reshape(decision)
        if migration is not None:
            # The pool accounts the copy instead of executing it.
            cell["migration"] = self.migration_audits[-1]
            cell["migration"]["bytes_modelled"] = sum(
                move.bytes_modelled for move in migration.move_set())
            self.complete()
        registry = get_registry()
        if decision.scales and registry.enabled:
            registry.counter(f"llm.pool.{self.name}."
                             f"{event_key(decision.action)}_total").inc()
        if registry.enabled:
            registry.gauge(f"llm.pool.{self.name}.nodes").set(self.nodes)
            registry.gauge(f"llm.pool.{self.name}.utilisation").set(
                signals.utilisation)
        return cell

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "per_node_capacity_rps": self.per_node_capacity_rps,
            "replication": self.control.current.replication,
            "autoscale_config": self.autoscale_config.to_dict(),
            "final_nodes": self.nodes,
            "final_epoch": self.control.current.epoch,
            "events": dict(self.events),
            "plan_audits": self.plans.audits,
            "migration_audits": self.migration_audits,
        }
