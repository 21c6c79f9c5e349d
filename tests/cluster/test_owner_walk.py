"""The one owner walk: ``route_tables`` against a per-table oracle, and a
stateful run of the epoch control plane that must never lose a table."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
import pytest

from repro.cluster.epoch import EpochControlPlane, PlanEpoch, UnknownEpochError
from repro.cluster.migration import TransitioningOwnerMap
from repro.cluster.placement import RingPlanner
from repro.cluster.router import ShardRouter, route_tables
from repro.data import TERABYTE_SPEC
from repro.hybrid import dlrm_threshold_model
from repro.resilience.dispatch import ResilientDispatcher
from repro.serving import ServingConfig

from .conftest import BATCH, DIM

SIZES = TERABYTE_SPEC.table_sizes
NUM_TABLES = len(SIZES)
NODE_COUNTS = (2, 3, 4, 5, 6)
FOREVER_SECONDS = 1e9


def _ring_plans():
    uniform, thresholds = dlrm_threshold_model(DIM, BATCH)
    planner = RingPlanner(NODE_COUNTS[0], thresholds, DIM, uniform)
    config = ServingConfig(batch_size=BATCH, threads=1)
    return {nodes: planner.for_nodes(nodes).plan(SIZES, config)
            for nodes in NODE_COUNTS}


PLANS = _ring_plans()


def reference_route(router, table_id, dispatcher):
    """The per-table walk ``ShardRouter.route`` used to do (the oracle)."""
    owner_set = router.owners(table_id)
    if dispatcher is None:
        return owner_set[0]
    admitted = set(dispatcher.admitted(0.0))
    for owner in owner_set:
        if owner in admitted:
            return owner
    return None


def reference_assignment(routes_of, num_tables):
    """Fold per-table route lists into ``(routed, unroutable)``."""
    routed, unroutable = {}, []
    for table_id in range(num_tables):
        nodes = []
        for node in routes_of(table_id):
            if node is not None and node not in nodes:
                nodes.append(node)
        if not nodes:
            unroutable.append(table_id)
        for node in nodes:
            routed.setdefault(node, []).append(table_id)
    return routed, unroutable


def crashed_dispatcher(num_replicas, crashed):
    dispatcher = ResilientDispatcher(num_replicas=num_replicas)
    for replica in crashed:
        dispatcher.mark_down(replica, until_seconds=FOREVER_SECONDS,
                             now_seconds=0.0)
    return dispatcher


@st.composite
def fleets(draw):
    """Two epochs, a replication both span, crashes and a phase split."""
    source_nodes = draw(st.sampled_from(NODE_COUNTS))
    target_nodes = draw(st.sampled_from(NODE_COUNTS))
    replication = draw(st.integers(1, min(source_nodes, target_nodes)))
    width = max(source_nodes, target_nodes)
    crashed = draw(st.none() | st.sets(st.integers(0, width - 1),
                                       max_size=width))
    phases = draw(st.lists(st.sampled_from(("pending", "in-flight",
                                            "moved")),
                           min_size=NUM_TABLES, max_size=NUM_TABLES))
    return source_nodes, target_nodes, replication, crashed, phases


class TestOneWalk:
    @settings(max_examples=60, deadline=None)
    @given(fleet=fleets(), planned=st.booleans())
    def test_route_tables_matches_the_per_table_oracle(self, fleet, planned):
        nodes, _, replication, crashed, _ = fleet
        router = ShardRouter(nodes, replication,
                             PLANS[nodes] if planned else None)
        dispatcher = (None if crashed is None
                      else crashed_dispatcher(nodes, crashed & set(
                          range(nodes))))
        expected = reference_assignment(
            lambda t: [reference_route(router, t, dispatcher)], NUM_TABLES)
        assert route_tables(lambda t: (router.owners(t),), NUM_TABLES, 0.0,
                            dispatcher) == expected
        assert router.assignment(NUM_TABLES, 0.0, dispatcher) == expected

    @settings(max_examples=60, deadline=None)
    @given(fleet=fleets())
    def test_transition_matches_the_oracle_per_phase(self, fleet):
        source_nodes, target_nodes, replication, crashed, phases = fleet
        source = PlanEpoch.create(0, PLANS[source_nodes], replication)
        target = source.successor(PLANS[target_nodes])
        dispatcher = (None if crashed is None else crashed_dispatcher(
            max(source_nodes, target_nodes), crashed))
        moved = frozenset(t for t, p in enumerate(phases) if p == "moved")
        in_flight = frozenset(t for t, p in enumerate(phases)
                              if p == "in-flight")
        owner_map = TransitioningOwnerMap(source, target, moved, in_flight)

        def routes_of(table_id):
            sides = {"pending": [source], "moved": [target],
                     "in-flight": [source, target]}[phases[table_id]]
            return [reference_route(side.router, table_id, dispatcher)
                    for side in sides]

        assert owner_map.assignment(NUM_TABLES, 0.0, dispatcher) == \
            reference_assignment(routes_of, NUM_TABLES)
        idle = TransitioningOwnerMap(source, target, frozenset(), frozenset())
        assert idle.assignment(NUM_TABLES, 0.0, dispatcher) == \
            source.router.assignment(NUM_TABLES, 0.0, dispatcher)


class ControlPlaneMachine(RuleBasedStateMachine):
    """An R=2 control plane under advance / retire / crash / heal.

    One shared dispatcher, at most one crashed replica at a time: no live
    epoch and no transition between the two newest may ever lose a table.
    """

    def __init__(self):
        super().__init__()
        self.dispatcher = ResilientDispatcher(num_replicas=3)
        self.control = EpochControlPlane(
            PlanEpoch.create(0, PLANS[3], replication=2),
            dispatcher=self.dispatcher)
        self.issued = [0]
        self.retired = set()
        self.crashed = None
        self.phases = ["pending"] * NUM_TABLES

    # ------------------------------------------------------------------
    @rule(nodes=st.sampled_from((3, 4, 5)))
    def advance(self, nodes):
        self.issued.append(self.control.advance(PLANS[nodes]).epoch)

    @precondition(lambda self: len(self.control.live_epochs) > 1)
    @rule(data=st.data(), shrink=st.booleans())
    def retire(self, data, shrink):
        through = data.draw(st.sampled_from(self.control.live_epochs[:-1]))
        self.control.retire_through(through, shrink_dispatcher=shrink)
        self.retired |= {e for e in self.issued if e <= through}
        if self.crashed is not None and (
                self.crashed >= self.dispatcher.num_replicas):
            self.crashed = None   # the shrink released the crashed slot

    @precondition(lambda self: self.crashed is None)
    @rule(data=st.data())
    def crash(self, data):
        replica = data.draw(st.integers(0, self.dispatcher.num_replicas - 1))
        self.dispatcher.mark_down(replica, until_seconds=FOREVER_SECONDS,
                                  now_seconds=0.0)
        self.crashed = replica

    @precondition(lambda self: self.crashed is not None)
    @rule()
    def heal(self):
        self.dispatcher.replace_replica(self.crashed)
        self.crashed = None

    @rule(phases=st.lists(st.sampled_from(("pending", "in-flight", "moved")),
                          min_size=NUM_TABLES, max_size=NUM_TABLES))
    def split(self, phases):
        self.phases = phases

    # ------------------------------------------------------------------
    def admitted(self):
        return set(self.dispatcher.admitted(0.0))

    @invariant()
    def retired_epochs_are_unknown(self):
        for epoch_id in self.retired:
            with pytest.raises(UnknownEpochError):
                self.control.epoch(epoch_id)
        assert self.control.live_epochs == [e for e in self.issued
                                            if e not in self.retired]

    @invariant()
    def every_live_epoch_routes_every_table_to_its_owners(self):
        for epoch_id in self.control.live_epochs:
            epoch = self.control.epoch(epoch_id)
            routed, unroutable = epoch.router.assignment(
                NUM_TABLES, 0.0, self.dispatcher)
            assert unroutable == []
            assert set(routed) <= self.admitted()
            for node, tables in routed.items():
                assert all(node in epoch.owners(t) for t in tables)

    @invariant()
    def a_transition_between_the_newest_epochs_loses_nothing(self):
        live = self.control.live_epochs
        if len(live) < 2:
            return
        source, target = (self.control.epoch(e) for e in live[-2:])
        owner_map = TransitioningOwnerMap(
            source, target,
            frozenset(t for t, p in enumerate(self.phases) if p == "moved"),
            frozenset(t for t, p in enumerate(self.phases)
                      if p == "in-flight"))
        routed, unroutable = owner_map.assignment(NUM_TABLES, 0.0,
                                                  self.dispatcher)
        assert unroutable == []
        assert set(routed) <= self.admitted()
        for node, tables in routed.items():
            assert all(node in owner_map.owners(t) for t in tables)

    @invariant()
    def the_dispatcher_spans_the_widest_live_epoch(self):
        assert self.dispatcher.num_replicas >= max(
            self.control.epoch(e).num_nodes for e in self.control.live_epochs)


ControlPlaneMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=15, deadline=None)
TestControlPlaneMachine = ControlPlaneMachine.TestCase
