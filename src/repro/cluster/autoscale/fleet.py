"""One elastic fleet: audited plans, reshapes and heals behind one object.

Every fleet that resizes — the autoscale storm's DLRM fleet and each LLM
stage pool — runs the same loop: read secret-free signals, let the
:class:`~repro.cluster.autoscale.controller.Autoscaler` decide, and turn a
scale decision into a successor plan epoch plus the migration that moves
tables into it. :class:`ElasticFleet` owns that loop once:

* **plan** — a :class:`~repro.cluster.placement.PlanBook` memoises one
  placement-audited plan per node count;
* **reshape** — :meth:`ElasticFleet.reshape` advances the
  :class:`~repro.cluster.epoch.EpochControlPlane` to the decision's plan
  and audits the epoch diff's :func:`~repro.cluster.migration
  .migration_subject`;
* **heal** — :meth:`ElasticFleet.dead_nodes` confirms crashed replicas
  from the shared dispatcher's crash windows and :meth:`ElasticFleet.heal`
  issues a successor epoch for the *unchanged* plan whose move-set
  (:func:`heal_moves`) re-copies every table the dead nodes owned.

Either leaves one migration :attr:`~ElasticFleet.pending`. The caller
decides how the copy happens — the autoscale storm executes it live
against the next interval's traffic, a stage pool accounts the modelled
copy at once — then calls :meth:`ElasticFleet.complete`, which retires the
old epochs, releases scaled-down replica slots and swaps fresh machines
into healed ones. Move-sets are functions of the workload-blind plans and
public crash events, so every path inherits the placement and migration
audits' obliviousness story.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.autoscale.controller import (
    ACTION_DOWN,
    ACTION_UP,
    Autoscaler,
    AutoscaleConfig,
    ScaleDecision,
    scaling_subject,
)
from repro.cluster.autoscale.signals import ClusterSignals, SignalPlane
from repro.cluster.epoch import EpochControlPlane, PlanEpoch
from repro.cluster.migration import (
    BandwidthContentionModel,
    MigrationEngine,
    TableMove,
    migration_subject,
)
from repro.cluster.placement import PlanBook, ShardPlan, ShardPlanner
from repro.resilience.dispatch import ResilientDispatcher
from repro.serving.engine import ServingConfig
from repro.telemetry.audit import LeakageAuditor
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive

#: migration kind of a re-replication (scale kinds are the decision actions)
KIND_HEAL = "heal"


def event_key(action: str) -> str:
    """The ``events`` counter a scale action increments."""
    return "scale_up_events" if action == ACTION_UP else "scale_down_events"


def heal_moves(epoch: PlanEpoch,
               dead_nodes: Sequence[int]) -> List[TableMove]:
    """The re-replication move-set: one move per orphaned table.

    For every table whose owner set intersects the dead nodes, the
    surviving owners stream a fresh copy to the replacement machines in the
    dead slots — the owner set itself does not change (the plan did not),
    which is why this is an explicit override rather than an epoch diff.
    """
    dead = set(dead_nodes)
    moves: List[TableMove] = []
    for table_id in range(epoch.num_tables):
        owners = epoch.owners(table_id)
        lost = tuple(node for node in owners if node in dead)
        if not lost:
            continue
        survivors = tuple(node for node in owners if node not in dead)
        moves.append(TableMove(
            table_id=table_id, from_owners=survivors, to_owners=owners,
            new_owners=lost,
            bytes_modelled=epoch.footprint_of(table_id) * len(lost)))
    return moves


class ElasticFleet:
    """Plans, epochs, signals, controller and heals of one resizable fleet.

    ``dispatcher`` is the replica-health view shared with the serving
    engine; a fleet without one (a stage pool priced as fluid capacity)
    never sees a dead node. A ``name`` marks the fleet as one pool of
    several: its plan and migration records carry ``"pool"``.
    """

    def __init__(self, planner: ShardPlanner, table_sizes: Sequence[int],
                 config: ServingConfig, autoscale_config: AutoscaleConfig,
                 start_nodes: int, replication: int = 1,
                 dispatcher: Optional[ResilientDispatcher] = None,
                 interval_seconds: float = 0.25, step_size: int = 4,
                 confirm_ticks: int = 1,
                 name: Optional[str] = None) -> None:
        check_positive("start_nodes", start_nodes)
        check_positive("step_size", step_size)
        check_positive("confirm_ticks", confirm_ticks)
        self.name = name
        self.autoscale_config = autoscale_config
        self.step_size = step_size
        self.contention = BandwidthContentionModel()
        self.confirm_ticks = confirm_ticks
        self.plans = PlanBook(planner, table_sizes, config, name=name)
        self.control = EpochControlPlane(
            PlanEpoch.create(0, self.plans.plan_for(start_nodes),
                             replication=replication),
            dispatcher=dispatcher)
        self.autoscaler = Autoscaler(autoscale_config)
        self.plane = SignalPlane(dispatcher,
                                 interval_seconds=interval_seconds)
        self.timeline: List[ClusterSignals] = []
        self.migration_audits: List[Dict[str, object]] = []
        self.events = {"scale_up_events": 0, "scale_down_events": 0}
        self.pending: Optional[MigrationEngine] = None
        self.pending_kind: Optional[str] = None
        self._pending_dead: List[int] = []
        self._crash_streaks: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def dispatcher(self) -> Optional[ResilientDispatcher]:
        return self.control.dispatcher

    @property
    def nodes(self) -> int:
        return self.control.current.num_nodes

    @property
    def placement_ok(self) -> bool:
        return self.plans.passed

    @property
    def migration_ok(self) -> bool:
        return all(audit["audit_passed"] for audit in self.migration_audits)

    # ------------------------------------------------------------------
    def decide(self, signals: ClusterSignals) -> ScaleDecision:
        """Record one interval's signals and let the controller decide."""
        self.timeline.append(signals)
        return self.autoscaler.decide(signals)

    def reshape(self, decision: ScaleDecision) -> Optional[MigrationEngine]:
        """Act on a decision: successor epoch + audited migration.

        Returns the migration left :attr:`pending`, or ``None`` when the
        decision does not scale or the epoch diff moves nothing (the
        cutover is then immediate).
        """
        if not decision.scales:
            return None
        self._begin(self.plans.plan_for(decision.target_nodes),
                    decision.action, decision.tick)
        self.events[event_key(decision.action)] += 1
        if self.pending.move_set():
            return self.pending
        self.complete()
        return None

    # ------------------------------------------------------------------
    def dead_nodes(self, now_seconds: float) -> List[int]:
        """Confirmed-dead replicas after this observation tick.

        A replica is confirmed dead once it has sat inside a crash window
        for ``confirm_ticks`` consecutive observations — a breaker that
        merely tripped (OPEN but not crashed) is the breaker's own
        half-open probe cycle to handle. A streak lives only while its slot
        stays crashed *and* present: a slot released by a scale-down comes
        back as a fresh machine with no streak.
        """
        if self.dispatcher is None:
            return []
        self._crash_streaks = {
            index: self._crash_streaks.get(index, 0) + 1
            for index, replica in enumerate(self.dispatcher.replicas)
            if replica.crashed(now_seconds)}
        return [index for index, streak in self._crash_streaks.items()
                if streak >= self.confirm_ticks]

    def heal(self, dead_nodes: Sequence[int], tick: int) -> MigrationEngine:
        """Issue the heal epoch and the audited re-replication migration.

        The successor epoch carries the *same* plan (ownership is
        unchanged; only physical copies are missing), so routing is
        untouched while the copies stream — the dispatcher keeps excluding
        the dead slots until :meth:`complete` replaces them.
        """
        if not dead_nodes:
            raise ValueError("heal needs at least one dead node")
        source = self.control.current
        self._begin(source.plan, KIND_HEAL, tick,
                    moves=heal_moves(source, dead_nodes))
        self._pending_dead = list(dead_nodes)
        get_registry().counter("autoscale.heals_total").inc()
        return self.pending

    def complete(self) -> None:
        """The pending copy landed: retire older epochs, swap in machines.

        A scale-down releases the dropped replica slots only here, once no
        live epoch routes to them; a heal swaps fresh machines into the
        dead slots and clears their obituaries.
        """
        if self.pending is None:
            raise RuntimeError("no pending migration to complete")
        self.control.retire_through(
            self.control.current.epoch - 1,
            shrink_dispatcher=self.pending_kind == ACTION_DOWN)
        for node in self._pending_dead:
            self.dispatcher.replace_replica(node)
            self._crash_streaks.pop(node, None)
        self.pending = self.pending_kind = None
        self._pending_dead = []

    # ------------------------------------------------------------------
    def scaling_audit(self, skews: Sequence[Sequence[int]]):
        """Replay this fleet's decisions skew-invariantly (the gate)."""
        return LeakageAuditor().require(scaling_subject(
            lambda: Autoscaler(self.autoscale_config), self.timeline,
            skews))

    def _begin(self, plan: ShardPlan, kind: str, tick: int,
               moves: Optional[Sequence[TableMove]] = None) -> None:
        """Advance to ``plan``, leave the migration pending, audit it."""
        if self.pending is not None:
            raise RuntimeError(
                f"the {self.pending_kind} migration to epoch "
                f"{self.pending.target.epoch} is still pending; complete() "
                f"it before the next reshape or heal")
        source = self.control.current
        self.pending = MigrationEngine(
            source, self.control.advance(plan), step_size=self.step_size,
            moves=moves, contention=self.contention)
        self.pending_kind = kind
        moves = self.pending.move_set()
        if not moves:
            return
        label = f"{kind}-tick{tick}"
        finding = LeakageAuditor().audit(migration_subject(
            self.pending,
            name=label if self.name is None else f"{self.name}-{label}"))
        audit: Dict[str, object] = {
            "tick": tick,
            "kind": kind,
            "tables": len(moves),
            "audit_divergence": finding.divergence,
            "audit_passed": finding.passed,
        }
        if self.name is not None:
            audit["pool"] = self.name
        self.migration_audits.append(audit)
