"""Dispatcher: fleet evaluation as replicas grow and the SLA bound."""

import pytest

from repro.costmodel.colocation import (
    TenantDemand,
    dhe_demand,
    replicated_latencies,
)
from repro.costmodel.latency import DheShape
from repro.serving.dispatcher import Dispatcher
from repro.telemetry.runtime import use_registry

BATCH = 32


@pytest.fixture
def dhe_dispatcher():
    shape = DheShape(k=1024, fc_sizes=(1024, 1024), out_dim=64)
    return Dispatcher(dhe_demand(shape, BATCH), batch_size=BATCH)


class TestFleetEvaluation:
    def test_latencies_match_cost_model(self, dhe_dispatcher):
        assert dhe_dispatcher.replica_latencies(3) == \
            replicated_latencies(dhe_dispatcher.demand, 3)

    def test_batch_latency_is_worst_replica(self, dhe_dispatcher):
        _, latency, _ = dhe_dispatcher.sweep(4)[3]
        assert latency == max(dhe_dispatcher.replica_latencies(4))

    def test_throughput_sums_replicas(self, dhe_dispatcher):
        latencies = dhe_dispatcher.replica_latencies(4)
        _, _, throughput = dhe_dispatcher.sweep(4)[3]
        assert throughput == pytest.approx(
            sum(BATCH / lat for lat in latencies))

    def test_sweep_shape_and_telemetry(self, dhe_dispatcher):
        with use_registry() as registry:
            sweep = dhe_dispatcher.sweep(5)
        assert [copies for copies, _, _ in sweep] == [1, 2, 3, 4, 5]
        snapshot = registry.snapshot()
        assert snapshot["counters"]["dispatcher.evaluations_total"] == 5.0
        hist = snapshot["histograms"]["dispatcher.replica_latency_seconds"]
        assert hist["count"] == 5
        assert snapshot["spans"]["recorded"] == 1

    def test_batch_size_validated(self, dhe_dispatcher):
        with pytest.raises(ValueError):
            Dispatcher(dhe_dispatcher.demand, batch_size=0)

    def test_sla_bounded_throughput_validates_sla(self, dhe_dispatcher):
        with pytest.raises(ValueError):
            dhe_dispatcher.sla_bounded_throughput(float("nan"), 4)
        with pytest.raises(ValueError):
            dhe_dispatcher.sla_bounded_throughput(0.0, 4)


class TestTenantDemandPlumbing:
    def test_custom_demand_round_trips(self):
        demand = TenantDemand("dhe", 0.001, 1e6, 1e6)
        dispatcher = Dispatcher(demand, batch_size=8)
        (only,) = dispatcher.replica_latencies(1)
        assert only == pytest.approx(0.001)


class TestServingConfigValidation:
    @pytest.mark.parametrize("sla", [0.0, -0.020, float("nan"),
                                     float("inf")])
    def test_zero_negative_or_non_finite_sla_rejected(self, sla):
        from repro.serving import ServingConfig

        with pytest.raises(ValueError, match="sla_seconds"):
            ServingConfig(batch_size=32, sla_seconds=sla)
