"""Plan epochs: versioned, immutable plan snapshots routed by arrival epoch.

The static ``ShardPlan`` answered "where does table t live?" once, at
construction time. A live fleet replans — nodes join, nodes drain — and
the moment plans can change while serving, *which plan a request is routed
by* becomes part of the access pattern. The control plane here keeps that
decision public and deterministic:

* a :class:`PlanEpoch` is an immutable snapshot — a monotonically
  increasing epoch number, the plan, and the router bound to it. Nothing
  about an epoch ever mutates; "changing the plan" means *deriving the
  successor epoch*;
* the :class:`EpochControlPlane` owns the epoch sequence, and a request
  is routed **by the epoch it arrived in**: one admitted under epoch k is
  served against ``control.epoch(k).router`` (or a migration's owner map)
  even if epoch k+1 cuts over while it is in flight. Both route through
  :func:`~repro.cluster.router.route_tables`, so routing depends only on
  table id, the (public) arrival epoch and replica health;
* replica health carries over: the control plane holds one
  :class:`~repro.resilience.dispatch.ResilientDispatcher` shared by every
  epoch, grown in place when an epoch adds nodes
  (:meth:`~repro.resilience.dispatch.ResilientDispatcher.ensure_replicas`)
  — a breaker that was OPEN before the epoch change is still OPEN after
  it, because a plan change does not heal a sick node.

The move from epoch k to k+1 — who copies which table when — is the
:class:`~repro.cluster.migration.MigrationEngine`'s job; the control plane
only versions and retires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.placement import ShardPlan
from repro.cluster.router import ShardRouter
from repro.resilience.dispatch import ResilientDispatcher
from repro.telemetry.runtime import get_registry


class UnknownEpochError(KeyError):
    """A request referenced an epoch the control plane never issued
    (or one that was already retired)."""


@dataclass(frozen=True)
class PlanEpoch:
    """One immutable (epoch number, plan, router) snapshot."""

    epoch: int
    plan: ShardPlan
    router: ShardRouter

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")
        if self.router.num_nodes != self.plan.num_nodes:
            raise ValueError(
                f"router spans {self.router.num_nodes} nodes but the plan "
                f"places onto {self.plan.num_nodes}")

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, epoch: int, plan: ShardPlan,
               replication: int = 1) -> "PlanEpoch":
        """Snapshot a plan: build the router over it."""
        return cls(epoch=epoch, plan=plan,
                   router=ShardRouter(plan.num_nodes, replication, plan))

    def successor(self, plan: ShardPlan) -> "PlanEpoch":
        """Derive epoch k+1 from a new plan at the same replication."""
        return PlanEpoch.create(self.epoch + 1, plan, self.replication)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.plan.num_nodes

    @property
    def replication(self) -> int:
        return self.router.replication

    @property
    def num_tables(self) -> int:
        return len(self.plan.placements)

    def owners(self, table_id: int) -> Tuple[int, ...]:
        return self.router.owners(table_id)

    def footprint_of(self, table_id: int) -> int:
        for placement in self.plan.placements:
            if placement.table_id == table_id:
                return placement.footprint_bytes
        raise KeyError(f"no placement for table {table_id}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "num_nodes": self.num_nodes,
            "replication": self.replication,
            "num_tables": self.num_tables,
            "owners": {str(table.table_id): list(self.owners(table.table_id))
                       for table in self.plan.placements},
        }


class EpochControlPlane:
    """The epoch sequence: issue, look up by arrival epoch, retire.

    One dispatcher is shared across every epoch so per-replica breaker and
    crash state survives plan changes; :meth:`advance` grows it in place
    when the new epoch spans more nodes.
    """

    def __init__(self, initial: PlanEpoch,
                 dispatcher: Optional[ResilientDispatcher] = None) -> None:
        if dispatcher is not None:
            dispatcher.ensure_replicas(initial.num_nodes)
        self.dispatcher = dispatcher
        self._epochs: Dict[int, PlanEpoch] = {initial.epoch: initial}
        self._current = initial.epoch

    # ------------------------------------------------------------------
    @property
    def current(self) -> PlanEpoch:
        return self._epochs[self._current]

    @property
    def live_epochs(self) -> List[int]:
        """Epochs still routable (oldest first)."""
        return sorted(self._epochs)

    def epoch(self, epoch_id: int) -> PlanEpoch:
        try:
            return self._epochs[epoch_id]
        except KeyError:
            raise UnknownEpochError(
                f"epoch {epoch_id} was never issued or is retired; live "
                f"epochs: {self.live_epochs}") from None

    # ------------------------------------------------------------------
    def advance(self, plan: ShardPlan) -> PlanEpoch:
        """Issue the successor epoch; replica health carries over."""
        nxt = self.current.successor(plan)
        if self.dispatcher is not None:
            self.dispatcher.ensure_replicas(nxt.num_nodes)
        self._epochs[nxt.epoch] = nxt
        self._current = nxt.epoch
        registry = get_registry()
        registry.counter("cluster.epochs_total").inc()
        registry.gauge("cluster.current_epoch").set(nxt.epoch)
        return nxt

    def retire_through(self, epoch_id: int,
                       shrink_dispatcher: bool = False) -> None:
        """Drop epochs <= ``epoch_id`` (their in-flight requests drained).

        The current epoch can never be retired: there must always be a
        plan to route new arrivals by. With ``shrink_dispatcher`` the
        shared dispatcher is trimmed to the widest *surviving* epoch once
        the retirement lands — the autoscaler's scale-down completion:
        only after every epoch that routed to the dropped nodes has
        drained is it safe to release their replica slots. The default
        keeps the historical grow-only behaviour.
        """
        if epoch_id >= self._current:
            raise ValueError(
                f"cannot retire the current epoch {self._current}")
        for stale in [e for e in self._epochs if e <= epoch_id]:
            del self._epochs[stale]
        if shrink_dispatcher and self.dispatcher is not None:
            span = max(epoch.num_nodes for epoch in self._epochs.values())
            self.dispatcher.ensure_replicas(
                max(span, self.dispatcher.min_replicas), allow_shrink=True)

    def to_dict(self) -> Dict[str, object]:
        return {
            "current_epoch": self._current,
            "live_epochs": self.live_epochs,
            "epochs": {str(epoch_id): plan_epoch.to_dict()
                       for epoch_id, plan_epoch in
                       sorted(self._epochs.items())},
        }
