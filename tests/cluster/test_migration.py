"""MigrationEngine: move-sets, double-serve, zero loss, and the audit."""

import pytest

from repro.cluster.epoch import PlanEpoch
from repro.cluster.migration import (
    MIGRATION_REGION,
    HotFirstMigrationPlanner,
    MigrationEngine,
    MigrationPlanner,
    TransitioningOwnerMap,
    default_migration_workloads,
    migration_subject,
)
from repro.cluster.placement import RingPlanner
from repro.cluster.scatter import ScatterGatherEngine
from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.oblivious.trace import MemoryTracer
from repro.resilience.retry import RetryPolicy
from repro.serving.batcher import BatchingPolicy
from repro.serving.requests import RequestQueue
from repro.telemetry.audit import LeakageAuditor
from repro.telemetry.runtime import use_registry

from .conftest import BATCH, DIM

SIZES = TERABYTE_SPEC.table_sizes
NUM_TABLES = len(SIZES)


@pytest.fixture(scope="module")
def epochs(thresholds):
    """(source 4-node epoch, target 5-node epoch) at R=2, ring placement."""
    from repro.serving import ServingConfig

    config = ServingConfig(batch_size=BATCH, threads=1)
    planner = RingPlanner(4, thresholds, DIM,
                          uniform_shape=DLRM_DHE_UNIFORM_64)
    source = PlanEpoch.create(0, planner.plan(SIZES, config), replication=2)
    target = source.successor(planner.for_nodes(5).plan(SIZES, config))
    return source, target


@pytest.fixture
def migrator(epochs):
    return MigrationEngine(*epochs, step_size=4)


class TestMoveSet:
    def test_only_changed_owner_sets_move(self, epochs, migrator):
        source, target = epochs
        moved_ids = {move.table_id for move in migrator.move_set()}
        for table_id in range(NUM_TABLES):
            changed = (set(source.owners(table_id))
                       != set(target.owners(table_id)))
            assert (table_id in moved_ids) == changed

    def test_ring_reshard_is_incremental(self, migrator):
        # 4 -> 5 nodes at R=2: the ring promises ~ tables * R / 5 moves.
        assert len(migrator.move_set()) <= NUM_TABLES * 2 // 5 + 3

    def test_moves_price_new_copies_only(self, migrator, epochs):
        _, target = epochs
        for move in migrator.move_set():
            assert move.new_owners
            assert set(move.new_owners).isdisjoint(move.from_owners)
            assert move.bytes_modelled == \
                target.footprint_of(move.table_id) * len(move.new_owners)

    def test_identical_epochs_rejected(self, epochs):
        source, _ = epochs
        with pytest.raises(ValueError, match="must succeed"):
            MigrationEngine(source, source)


class TestPlanSteps:
    def test_steps_are_bounded_and_cover_move_set(self, migrator):
        steps = migrator.plan_steps()
        assert all(len(step.moves) <= 4 for step in steps)
        covered = [table_id for step in steps
                   for table_id in step.table_ids]
        assert sorted(covered) == sorted(
            move.table_id for move in migrator.move_set())
        assert len(covered) == len(set(covered))  # each table moves once

    def test_default_order_is_by_table_id(self, migrator):
        ordered = [table_id for step in migrator.plan_steps()
                   for table_id in step.table_ids]
        assert ordered == sorted(ordered)

    def test_trace_records_every_phase_per_step(self, migrator):
        tracer = MemoryTracer()
        steps = migrator.plan_steps(tracer=tracer)
        addresses = tracer.addresses(MIGRATION_REGION)
        assert len(addresses) == len(steps) * NUM_TABLES
        assert len(set(addresses)) == len(addresses)


class TestTransitioningOwnerMap:
    def test_phases_route_to_the_right_epoch(self, epochs, migrator):
        source, target = epochs
        steps = migrator.plan_steps()
        owner_map = migrator.owner_map_for(1, steps)
        for table_id in steps[0].table_ids:       # already moved
            assert owner_map.owners(table_id) == target.owners(table_id)
        for table_id in steps[1].table_ids:       # in flight: both sides
            owners = owner_map.owners(table_id)
            assert set(source.owners(table_id)) <= set(owners)
            assert set(target.owners(table_id)) <= set(owners)

    def test_in_flight_tables_are_double_served(self, epochs, migrator):
        source, target = epochs
        steps = migrator.plan_steps()
        doubly_held = 0
        for step in steps:
            owner_map = migrator.owner_map_for(step.index, steps)
            routed, unroutable = owner_map.assignment(NUM_TABLES)
            assert unroutable == []
            for table_id in step.table_ids:
                holders = {node for node, tables in routed.items()
                           if table_id in tables}
                # one serving copy per side, deduped when the first owner
                # did not change (only a secondary replica moved)
                expected = {source.owners(table_id)[0],
                            target.owners(table_id)[0]}
                assert holders == expected
                doubly_held += len(holders) == 2
        assert doubly_held > 0  # the reshard double-serves some tables

    def test_moved_and_in_flight_must_be_disjoint(self, epochs):
        source, target = epochs
        with pytest.raises(ValueError, match="both moved and in flight"):
            TransitioningOwnerMap(source, target,
                                  moved=frozenset({3}),
                                  in_flight=frozenset({3}))

    def test_final_map_matches_target_epoch(self, epochs, migrator):
        _, target = epochs
        owner_map = migrator.final_owner_map()
        for table_id in range(NUM_TABLES):
            assert owner_map.owners(table_id) == target.owners(table_id)


class TestExecute:
    def test_zero_loss_at_replication_two(self, epochs, migrator,
                                          thresholds, config):
        engine = ScatterGatherEngine(
            SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
            epochs[0].router, retry=RetryPolicy(deadline_seconds=0.5))
        arrivals = RequestQueue.poisson(96, 2000.0, rng=0)
        policy = BatchingPolicy(max_batch_size=BATCH,
                                max_wait_seconds=0.002)
        report = migrator.execute(engine, config, arrivals, policy)
        assert report.num_requests == 96
        assert report.shed_requests == 0
        assert report.unroutable_events == 0
        assert report.availability == 1.0
        assert report.num_steps == len(migrator.plan_steps())
        assert report.window_p99 > 0.0
        assert report.window_latencies.size == 96

    def test_execute_counts_telemetry(self, epochs, migrator,
                                      thresholds, config):
        engine = ScatterGatherEngine(
            SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
            epochs[0].router, retry=RetryPolicy(deadline_seconds=0.5))
        arrivals = RequestQueue.poisson(64, 2000.0, rng=1)
        with use_registry() as registry:
            report = migrator.execute(engine, config, arrivals)
            snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["cluster.migration.steps_total"] == report.num_steps
        assert counters["cluster.migration.tables_moved_total"] == \
            report.tables_moved
        assert counters["cluster.migration.shed_total"] == 0.0
        assert snapshot["gauges"][
            "cluster.migration.window_p99_seconds"] == report.window_p99


class TestBandwidthContention:
    """ISSUE 8: the copy traffic prices latency, not just bytes."""

    def test_multiplier_scales_with_overlap(self):
        from repro.cluster.migration import BandwidthContentionModel

        model = BandwidthContentionModel(
            copy_bandwidth_bytes_per_second=1e9, contention_weight=0.8)
        assert model.copy_seconds(5e8) == pytest.approx(0.5)
        # half the window occupied -> half the weight
        assert model.multiplier(int(5e8), 1.0) == pytest.approx(1.4)
        # copy longer than the window saturates at 1 + weight
        assert model.multiplier(int(4e9), 1.0) == pytest.approx(1.8)

    def test_zero_copy_is_free(self):
        from repro.cluster.migration import BandwidthContentionModel

        assert BandwidthContentionModel().multiplier(0, 1.0) == 1.0

    def test_zero_window_is_conservative(self):
        from repro.cluster.migration import BandwidthContentionModel

        model = BandwidthContentionModel(contention_weight=0.5)
        assert model.multiplier(1024, 0.0) == pytest.approx(1.5)

    def test_validation(self):
        from repro.cluster.migration import BandwidthContentionModel

        with pytest.raises(ValueError, match="copy_bandwidth"):
            BandwidthContentionModel(copy_bandwidth_bytes_per_second=0.0)
        with pytest.raises(ValueError, match="contention_weight"):
            BandwidthContentionModel(contention_weight=-0.1)

    def test_default_engine_is_contention_free(self, epochs, migrator,
                                               thresholds, config):
        # contention=None keeps PR 5's output bit-for-bit: the model is
        # opt-in, so existing migration reports do not shift.
        from repro.cluster.migration import BandwidthContentionModel

        engine = ScatterGatherEngine(
            SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
            epochs[0].router, retry=RetryPolicy(deadline_seconds=0.5))
        policy = BatchingPolicy(max_batch_size=BATCH,
                                max_wait_seconds=0.002)
        plain = migrator.execute(engine, config,
                                 RequestQueue.poisson(96, 2000.0, rng=0),
                                 policy)
        priced = MigrationEngine(
            *epochs, step_size=4,
            contention=BandwidthContentionModel()).execute(
                engine, config, RequestQueue.poisson(96, 2000.0, rng=0),
                policy)
        assert "contention_multiplier" not in plain.step_cells[0]
        assert plain.window_p99 <= priced.window_p99
        for cell in priced.step_cells:
            assert cell["contention_multiplier"] >= 1.0
            assert cell["copy_seconds"] >= 0.0
            assert "window_seconds" in cell

    def test_contention_inflates_service_not_queueing(self, epochs,
                                                      thresholds, config):
        # A fat pipe (fast copy) inflates less than a thin one.
        from repro.cluster.migration import BandwidthContentionModel

        engine = ScatterGatherEngine(
            SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
            epochs[0].router, retry=RetryPolicy(deadline_seconds=0.5))
        policy = BatchingPolicy(max_batch_size=BATCH,
                                max_wait_seconds=0.002)

        def run(bandwidth):
            migrator = MigrationEngine(
                *epochs, step_size=4,
                contention=BandwidthContentionModel(
                    copy_bandwidth_bytes_per_second=bandwidth))
            return migrator.execute(
                engine, config, RequestQueue.poisson(96, 2000.0, rng=0),
                policy)

        fat, thin = run(12.5e9), run(1e8)
        assert thin.window_p99 > fat.window_p99
        assert all(t["contention_multiplier"]
                   >= f["contention_multiplier"]
                   for t, f in zip(thin.step_cells, fat.step_cells))

    def test_inflated_past_deadline_is_shed_and_censored(self, epochs,
                                                         thresholds,
                                                         config):
        from repro.cluster.migration import BandwidthContentionModel

        engine = ScatterGatherEngine(
            SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
            epochs[0].router,
            retry=RetryPolicy(deadline_seconds=0.0105))
        policy = BatchingPolicy(max_batch_size=BATCH,
                                max_wait_seconds=0.002)
        arrivals = RequestQueue.poisson(96, 2000.0, rng=0)
        plain = MigrationEngine(*epochs, step_size=4).execute(
            engine, config, arrivals, policy)
        squeezed = MigrationEngine(
            *epochs, step_size=4,
            contention=BandwidthContentionModel(
                copy_bandwidth_bytes_per_second=1e8,
                contention_weight=5.0)).execute(
                    engine, config, arrivals, policy)
        assert squeezed.shed_requests > plain.shed_requests
        assert squeezed.window_latencies.max() <= 0.0105 + 1e-12

    def test_override_moves_must_reference_placed_tables(self, epochs):
        from repro.cluster.migration import TableMove

        bogus = TableMove(table_id=NUM_TABLES, from_owners=(0,),
                          to_owners=(1,), new_owners=(1,),
                          bytes_modelled=1)
        with pytest.raises(ValueError, match="outside"):
            MigrationEngine(*epochs, moves=[bogus])


class TestMigrationAudit:
    def test_compliant_planner_passes(self, migrator):
        finding = LeakageAuditor().require(migration_subject(migrator))
        assert finding.passed
        assert not finding.leak_detected

    def test_hot_first_expected_leaky_subject_passes(self, epochs):
        hot = MigrationEngine(*epochs, step_size=1,
                              planner=HotFirstMigrationPlanner())
        finding = LeakageAuditor().audit(
            migration_subject(hot, expect_oblivious=False))
        assert finding.leak_detected
        assert finding.passed

    def test_default_workloads_key_on_move_set(self, migrator):
        move_ids = sorted(move.table_id
                          for move in migrator.move_set())
        head, tail, uniform = default_migration_workloads(
            NUM_TABLES, move_ids)
        assert set(head) == {move_ids[0]}
        assert set(tail) == {move_ids[-1]}
        assert len(set(uniform)) == NUM_TABLES


class TestCustomStepSize:
    def test_step_size_one_serialises_moves(self, epochs):
        single = MigrationEngine(*epochs, step_size=1)
        steps = single.plan_steps()
        assert all(len(step.moves) == 1 for step in steps)
        assert len(steps) == len(single.move_set())

    def test_step_size_must_be_positive(self, epochs):
        with pytest.raises(ValueError, match="step_size"):
            MigrationEngine(*epochs, step_size=0)


class TestCustomPlannerContract:
    def test_base_planner_ignores_workload(self, migrator):
        moves = migrator.move_set()
        planner = MigrationPlanner()
        hot_order = planner.move_order(moves, workload=[moves[-1].table_id] * 32)
        cold_order = planner.move_order(moves, workload=None)
        assert [m.table_id for m in hot_order] == \
            [m.table_id for m in cold_order]

    def test_hot_first_reorders_by_heat(self, migrator):
        moves = migrator.move_set()
        hottest = moves[-1].table_id
        order = HotFirstMigrationPlanner().move_order(
            moves, workload=[hottest] * 32)
        assert order[0].table_id == hottest
