"""Co-location contention model tests (Figs 8/9/13 mechanisms)."""

import dataclasses

import pytest

from repro.costmodel.colocation import (
    TenantDemand,
    colocated_latencies,
    dhe_demand,
    oram_demand,
    scan_demand,
    throughput_inferences_per_second,
)
from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.costmodel.platform import DEFAULT_PLATFORM


class TestDemands:
    def test_scan_large_table_is_bandwidth_hungry(self):
        demand = scan_demand(10**7, 64, 32)
        assert demand.bandwidth_bytes > 0
        assert demand.llc_bytes == 0  # streams; no residency at stake

    def test_scan_small_table_wants_llc(self):
        demand = scan_demand(1000, 64, 32)
        assert demand.llc_bytes == 1000 * 64 * 4

    def test_dhe_mostly_compute(self):
        dhe = dhe_demand(DLRM_DHE_UNIFORM_64, 32)
        scan = scan_demand(10**7, 64, 32)
        assert dhe.bandwidth_bytes < 0.01 * scan.bandwidth_bytes

    def test_oram_demand_positive(self):
        demand = oram_demand("circuit", 10**6, 64, 32)
        assert demand.solo_latency > 0
        assert demand.bandwidth_bytes > 0


class TestColocatedLatencies:
    def test_empty(self):
        assert colocated_latencies([]) == []

    def test_single_tenant_is_solo(self):
        demand = dhe_demand(DLRM_DHE_UNIFORM_64, 32)
        assert colocated_latencies([demand])[0] == \
            pytest.approx(demand.solo_latency)

    def test_scan_degrades_faster_than_dhe(self):
        copies = 24
        scan = scan_demand(10**7, 64, 32)
        dhe = dhe_demand(DLRM_DHE_UNIFORM_64, 32)
        scan_dilation = (colocated_latencies([scan] * copies)[0]
                         / scan.solo_latency)
        dhe_dilation = (colocated_latencies([dhe] * copies)[0]
                        / dhe.solo_latency)
        assert scan_dilation > dhe_dilation

    def test_core_oversubscription_dilates_everyone(self):
        cores = DEFAULT_PLATFORM.cores
        demand = dhe_demand(DLRM_DHE_UNIFORM_64, 32)
        at_cores = colocated_latencies([demand] * cores)[0]
        over = colocated_latencies([demand] * (2 * cores))[0]
        assert over > 1.8 * at_cores

    def test_llc_pressure_hits_resident_scans(self):
        # Each tenant wants 8 MB resident; 24 of them far exceed 42 MB.
        demand = scan_demand(32_000, 64, 32)
        solo = demand.solo_latency
        crowded = colocated_latencies([demand] * 24)[0]
        assert crowded > 1.5 * solo

    def test_ring_tenant_is_priced_as_bandwidth_bound_oram(self):
        # Ring ORAM streams its tree like Path and Circuit; it used to fall
        # through to the compute-bound DHE branch (5.43x vs Path's 6.93x).
        path = oram_demand("path", 10**6, 64, 32)
        relabelled = dataclasses.replace(path, technique="ring")
        copies = 2 * DEFAULT_PLATFORM.cores
        assert (colocated_latencies([relabelled] * copies)
                == colocated_latencies([path] * copies))

    @pytest.mark.parametrize("technique", ["sacn", "lookup", "sqrt", ""])
    def test_unknown_technique_is_refused(self, technique):
        with pytest.raises(ValueError, match="technique"):
            TenantDemand(technique, 1e-3, 1e6, 0.0)


class TestThroughput:
    def test_additive_when_uncontended(self):
        demand = dhe_demand(DLRM_DHE_UNIFORM_64, 32)
        one = throughput_inferences_per_second([demand], 32)
        four = throughput_inferences_per_second([demand] * 4, 32)
        assert four == pytest.approx(4 * one, rel=0.01)
