"""The one audited-decision contract, one table for every domain.

Each row is (honest ``X_subject``, in-tree negative-control ``X_subject``):
the honest one passes :meth:`LeakageAuditor.require`, the control raises
:class:`LeakageError` naming the first diverging event, and the same control
audited with ``expect_oblivious=False`` is the bench's "detector has teeth"
finding. ``docs/SECURITY.md`` ("Audited decisions") must list every name.
"""

import os
import re

import pytest

from repro.cache import (
    CACHE_REGION,
    BatchResultCache,
    DecoderWeightCache,
    IndexKeyedLRUCache,
    StaticResidencyCache,
    cache_subject,
)
from repro.cluster import (
    AUTOSCALE_REGION,
    MIGRATION_REGION,
    PLACEMENT_REGION,
    Autoscaler,
    AutoscaleConfig,
    ClusterSignals,
    FrequencyKeyedPlanner,
    HotFirstMigrationPlanner,
    HotLoadChasingController,
    MigrationEngine,
    MigrationPlanner,
    PlanEpoch,
    RingPlanner,
    ShardPlanner,
    migration_subject,
    placement_subject,
    scaling_subject,
)
from repro.data import TERABYTE_SPEC
from repro.hybrid import dlrm_threshold_model
from repro.oblivious.trace import MemoryTracer
from repro.serving import ServingConfig
from repro.telemetry.audit import (
    MODE_STRUCTURAL,
    AuditSubject,
    LeakageAuditor,
    LeakageError,
    contrasting_secrets,
)

SIZES = TERABYTE_SPEC.table_sizes
DIM, BATCH = 64, 32
CONFIG = ServingConfig(batch_size=BATCH, threads=1)
SCALE = AutoscaleConfig(min_nodes=2, max_nodes=5, high_utilisation=0.8,
                        low_utilisation=0.3, breach_ticks=2, cooldown_ticks=1)

SECURITY_MD = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "docs", "SECURITY.md")


@pytest.fixture(scope="module")
def model():
    return dlrm_threshold_model(DIM, BATCH)


def _planner(cls, model):
    uniform, thresholds = model
    return cls(4, thresholds, DIM, uniform_shape=uniform)


def _placement(cls, name):
    def build(model, **kwargs):
        return placement_subject(_planner(cls, model), SIZES, CONFIG,
                                 name=name, **kwargs)
    return build


def _migration(planner_cls, name):
    def build(model, **kwargs):
        ring = _planner(RingPlanner, model)
        source = PlanEpoch.create(0, ring.plan(SIZES, CONFIG), replication=2)
        target = source.successor(ring.for_nodes(5).plan(SIZES, CONFIG))
        engine = MigrationEngine(source, target, step_size=1,
                                 planner=planner_cls())
        return migration_subject(engine, name=name, **kwargs)
    return build


def _timeline():
    capacity = 10000.0
    return [ClusterSignals(
        tick=tick, now_seconds=tick * 0.25, offered_rps=util * capacity,
        achieved_rps=util * capacity, capacity_rps=capacity,
        utilisation=util, queue_delay_seconds=0.0, shed_requests=0,
        current_nodes=3, replication=2, healthy_nodes=3, open_breakers=0,
        half_open_breakers=0, crashed_nodes=0)
        for tick, util in enumerate([0.5, 0.9, 0.95, 0.95, 0.5, 0.2, 0.2])]


def _scaling(controller_cls, name):
    def build(model, **kwargs):
        return scaling_subject(lambda: controller_cls(SCALE), _timeline(),
                               contrasting_secrets(len(SIZES), 64),
                               name=name, **kwargs)
    return build


def _cache(factory, name):
    def build(model, **kwargs):
        return cache_subject(factory, name=name, **kwargs)
    return build


_LRU = _cache(lambda t: IndexKeyedLRUCache(64, tracer=t), "index-keyed-lru")


# (honest subject, negative-control subject, control class, tracer region)
DECISIONS = [
    pytest.param(_placement(ShardPlanner, "shard-planner"),
                 _placement(FrequencyKeyedPlanner, "frequency-keyed-planner"),
                 FrequencyKeyedPlanner, PLACEMENT_REGION, id="placement"),
    pytest.param(_migration(MigrationPlanner, "migration-planner"),
                 _migration(HotFirstMigrationPlanner, "hot-first-migration"),
                 HotFirstMigrationPlanner, MIGRATION_REGION, id="migration"),
    pytest.param(_scaling(Autoscaler, "autoscaler"),
                 _scaling(HotLoadChasingController, "hot-load-chasing"),
                 HotLoadChasingController, AUTOSCALE_REGION, id="scaling"),
    pytest.param(_cache(lambda t: StaticResidencyCache(2 ** 24, tracer=t),
                        "static-residency"),
                 _LRU, IndexKeyedLRUCache, CACHE_REGION,
                 id="cache-static-residency"),
    pytest.param(_cache(lambda t: DecoderWeightCache(tracer=t),
                        "decoder-reuse"),
                 _LRU, IndexKeyedLRUCache, CACHE_REGION,
                 id="cache-decoder-reuse"),
    pytest.param(_cache(lambda t: BatchResultCache(tracer=t),
                        "batch-shared"),
                 _LRU, IndexKeyedLRUCache, CACHE_REGION,
                 id="cache-batch-shared"),
]


@pytest.mark.parametrize("honest, control, control_cls, region", DECISIONS)
class TestAuditedDecisions:
    def test_honest_subject_passes_require(self, model, honest, control,
                                           control_cls, region):
        finding = LeakageAuditor().require(honest(model))
        assert finding.passed and not finding.leak_detected
        assert finding.divergence == 0.0
        assert finding.first_divergence is None

    def test_control_raises_naming_the_first_divergence(
            self, model, honest, control, control_cls, region):
        subject = control(model)
        with pytest.raises(LeakageError) as caught:
            LeakageAuditor().require(subject)
        finding = caught.value.finding
        assert finding.subject == subject.name
        diverged = finding.first_divergence
        assert diverged is not None and diverged.secret >= 1
        # the message pins the event down to region[address] on both sides
        message = str(caught.value)
        assert subject.name in message
        assert f"at event {diverged.ordinal}" in message
        for event in (diverged.reference, diverged.observed):
            if event is not None:
                assert event[1] == region
                assert f"{region}[{event[2]}]" in message
        # and it is the *first* one: replaying both secrets agrees before it
        traces = []
        for secret in (subject.secrets[0], subject.secrets[diverged.secret]):
            tracer = MemoryTracer()
            subject.run(tracer, secret)
            traces.append(tracer.snapshot())
        assert traces[0][:diverged.ordinal] == traces[1][:diverged.ordinal]

    def test_control_expected_leaky_is_the_teeth_finding(
            self, model, honest, control, control_cls, region):
        finding = LeakageAuditor().audit(
            control(model, expect_oblivious=False))
        assert finding.passed and finding.leak_detected

    def test_names_are_in_the_security_table(self, model, honest, control,
                                             control_cls, region):
        with open(SECURITY_MD, encoding="utf-8") as handle:
            table = handle.read().split("## Audited decisions", 1)[1]
        for name in (honest(model).name, control(model).name,
                     control_cls.__name__, region):
            assert f"`{name}`" in table, name


class TestContrastingSecrets:
    def test_three_distinct_equal_length_profiles(self):
        secrets = contrasting_secrets(4096, 64)
        assert len(secrets) == 3
        assert len({tuple(secret) for secret in secrets}) == 3
        assert {len(secret) for secret in secrets} == {64}

    def test_hot_head_hot_tail_sweep(self):
        # element-for-element what each per-domain generator used to build
        head, tail, sweep = contrasting_secrets(26, 64)
        assert head == [0] * 64
        assert tail == [25] * 64
        assert sweep == [index % 26 for index in range(64)]

    @pytest.mark.parametrize("domain, length", [(0, 8), (-1, 8), (8, 0),
                                                (8, -3)])
    def test_rejects_non_positive(self, domain, length):
        with pytest.raises(ValueError, match="must be positive"):
            contrasting_secrets(domain, length)


class TestFirstDivergence:
    @staticmethod
    def subject(run, mode):
        return AuditSubject("probe", run, [[0], [1]], mode=mode)

    def test_structural_extra_trailing_event(self):
        def run(tracer, secret):
            for address in range(3):
                tracer.record("read", "tree", address + 7 * secret[0])
            if secret[0]:
                tracer.record("write", "stash", 0)

        finding = LeakageAuditor().audit(self.subject(run, MODE_STRUCTURAL))
        assert not finding.trace_equivalent
        diverged = finding.first_divergence
        assert (diverged.secret, diverged.ordinal) == (1, 3)
        assert diverged.reference is None            # secret 0 had ended
        assert diverged.observed == ("write", "stash")  # address erased
        assert "end of trace" in str(diverged)

    def test_structural_ignores_addresses_exact_does_not(self):
        def run(tracer, secret):
            tracer.record("read", "tree", secret[0])

        structural = LeakageAuditor().audit(self.subject(run, MODE_STRUCTURAL))
        assert structural.trace_equivalent
        assert structural.first_divergence is None
        exact = LeakageAuditor().audit(
            AuditSubject("probe", run, [[0], [1]], expect_oblivious=False))
        assert exact.first_divergence == (1, 0, ("read", "tree", 0),
                                          ("read", "tree", 1))

    def test_not_serialised(self):
        def run(tracer, secret):
            tracer.record("read", "table", secret[0])

        finding = LeakageAuditor().audit(
            AuditSubject("probe", run, [[0], [1]], expect_oblivious=False))
        assert finding.first_divergence is not None
        assert "first_divergence" not in finding.to_dict()

    def test_histogram_only_leak_has_no_divergence_but_still_raises(self):
        # structurally identical, address sets disjoint: caught by the
        # histogram budget, reported as such
        def run(tracer, secret):
            tracer.record("read", "tree", secret[0])

        with pytest.raises(LeakageError, match="histogram divergence 1.000"):
            LeakageAuditor().require(self.subject(run, MODE_STRUCTURAL))


def test_security_table_has_seven_rows():
    with open(SECURITY_MD, encoding="utf-8") as handle:
        section = handle.read().split("## Audited decisions", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines()
            if re.match(r"^\| (?!Decision|-)", line)]
    assert len(rows) == 7
