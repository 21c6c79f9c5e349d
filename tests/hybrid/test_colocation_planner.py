"""Co-location planner tests (Figs 9 and 13 mechanisms).

A tenant's fleet is evaluated by :class:`repro.serving.dispatcher.Dispatcher`
(the one sweep Fig 13 uses); these tests drive it with planner tenants.
"""

import pytest

from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.hybrid.allocator import allocate_by_threshold
from repro.hybrid.colocation_planner import (
    dlrm_tenant,
    mixed_allocation_latency,
)
from repro.serving.dispatcher import Dispatcher

SIZES = (100, 1000, 50_000, 2_000_000)
DIM = 64


def make_tenant(threshold):
    allocations = allocate_by_threshold(SIZES, threshold)
    return dlrm_tenant(SIZES, DIM, allocations, DLRM_DHE_UNIFORM_64,
                       batch=32, varied=True)


def fleet(tenant):
    return Dispatcher(tenant.demand, batch_size=32)


class TestDlrmTenant:
    def test_counts_features(self):
        tenant = make_tenant(1000)
        assert tenant.num_scan_features == 2
        assert tenant.num_dhe_features == 2

    def test_solo_latency_sums(self):
        all_dhe = make_tenant(0)
        hybrid = make_tenant(1000)
        assert hybrid.demand.solo_latency < all_dhe.demand.solo_latency

    def test_dhe_dominated_tenant_labeled_dhe(self):
        assert make_tenant(1000).demand.technique == "dhe"

    def test_scan_dominated_tenant_labeled_scan(self):
        tenant = make_tenant(10**7)  # everything scans, incl. the 2e6 table
        assert tenant.demand.technique == "scan"

    def test_allocation_length_checked(self):
        with pytest.raises(ValueError):
            dlrm_tenant(SIZES, DIM, allocate_by_threshold(SIZES[:2], 10),
                        DLRM_DHE_UNIFORM_64, batch=32)


class TestColocationSweep:
    def test_throughput_monotone_until_contention(self):
        tenant = make_tenant(1000)
        sweep = fleet(tenant).sweep(8)
        throughputs = [tp for _, _, tp in sweep]
        assert throughputs == sorted(throughputs)

    def test_latency_never_below_solo(self):
        tenant = make_tenant(1000)
        sweep = fleet(tenant).sweep(32)
        assert all(latency >= tenant.demand.solo_latency * 0.999
                   for _, latency, _ in sweep)


class TestLatencyBoundedThroughput:
    def test_filters_by_sla(self, monkeypatch):
        dispatcher = fleet(make_tenant(1000))
        sweep = [(1, 0.010, 100.0), (2, 0.019, 190.0), (3, 0.030, 250.0)]
        monkeypatch.setattr(dispatcher, "sweep", lambda max_replicas: sweep)
        assert dispatcher.sla_bounded_throughput(0.020, 3) == 190.0

    def test_no_feasible_point(self):
        assert fleet(make_tenant(1000)).sla_bounded_throughput(1e-9, 4) == 0.0

    def test_fig13_hybrid_beats_all_dhe(self):
        """The paper's headline: hybrid lifts SLA-bounded throughput."""
        hybrid = make_tenant(1000)
        all_dhe = make_tenant(0)
        hybrid_tp = fleet(hybrid).sla_bounded_throughput(0.020, 28)
        dhe_tp = fleet(all_dhe).sla_bounded_throughput(0.020, 28)
        assert hybrid_tp > dhe_tp


class TestMixedAllocation:
    def test_small_table_all_scan_best(self):
        all_scan = mixed_allocation_latency(1000, DIM, 24, 0,
                                            DLRM_DHE_UNIFORM_64, 32)
        all_dhe = mixed_allocation_latency(1000, DIM, 24, 24,
                                           DLRM_DHE_UNIFORM_64, 32)
        assert all_scan < all_dhe

    def test_large_table_all_dhe_best(self):
        all_scan = mixed_allocation_latency(10**6, DIM, 24, 0,
                                            DLRM_DHE_UNIFORM_64, 32)
        all_dhe = mixed_allocation_latency(10**6, DIM, 24, 24,
                                           DLRM_DHE_UNIFORM_64, 32)
        assert all_dhe < all_scan

    def test_colocated_crossover_near_single_model_threshold(self):
        """Fig 9: the paper found 4500 co-located vs 3300 single-model."""
        from repro.experiments.fig09_allocation_sweep import \
            colocated_crossover

        crossover = colocated_crossover()
        assert 1000 < crossover < 20_000

    def test_count_validated(self):
        with pytest.raises(ValueError):
            mixed_allocation_latency(1000, DIM, 24, 25,
                                     DLRM_DHE_UNIFORM_64, 32)
