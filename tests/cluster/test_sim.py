"""ClusterSimulator: gates, determinism, and the CLI contract."""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.cluster.scatter import ScatterGatherEngine
from repro.cluster.sim import BENCH, main, run_cluster
from repro.data import scaled_spec, TERABYTE_SPEC

SMALL = dict(num_requests=96, rate_rps=2000.0)


@pytest.fixture(scope="module")
def report():
    return run_cluster(seed=7, **SMALL)


class TestGates:
    def test_all_gates_pass(self, report):
        assert report["gates"]["passed"]
        assert report["gates"] == {name: True for name in report["gates"]}

    def test_scaling_meets_floor(self, report):
        assert report["scaling"] >= report["scaling_floor"]

    def test_p99_inflation_under_ceiling(self, report):
        assert report["p99_inflation"] <= report["p99_inflation_ceiling"]

    def test_failover_zero_loss(self, report):
        failover = report["failover"]
        assert failover["applicable"]
        assert failover["shed_requests"] == 0
        assert failover["unroutable_tables"] == []
        assert failover["availability"] == 1.0

    def test_negative_audit_catches_frequency_keyed_planner(self, report):
        assert report["negative_audit"]["leak_detected"]
        # expectation for the anti-pattern is "leaky", so the subject passes
        assert report["negative_audit"]["passed"]

    def test_skew_invariance_per_topology(self, report):
        for topology in report["topologies"]:
            assert topology["skew_invariant"]
            assert len(set(topology["plan_digests_by_skew"].values())) == 1


class TestDeterminism:
    def test_same_seed_same_report(self, report):
        again = run_cluster(seed=7, **SMALL)
        assert json.dumps(report, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_json_is_serialisable_without_inf(self, report):
        payload = json.dumps(report, allow_nan=False, sort_keys=True)
        assert "Infinity" not in payload

    def test_different_seed_different_arrivals(self, report):
        other = run_cluster(seed=8, **SMALL)
        assert other["cells"][0]["p99_seconds"] != \
            report["cells"][0]["p99_seconds"]

    def test_plan_digest_is_stable(self, report):
        digests = {t["nodes"]: t["plan_digest"]
                   for t in report["topologies"]}
        again = {t["nodes"]: t["plan_digest"]
                 for t in run_cluster(seed=99, **SMALL)["topologies"]}
        assert digests == again  # placement never depends on the seed


class TestSweepShape:
    def test_every_topology_cell_present(self, report):
        cells = {(c["nodes"], c["replication"]) for c in report["cells"]}
        assert cells == {(1, 1), (2, 1), (2, 2), (4, 1), (4, 2)}

    def test_render_mentions_gates(self, report):
        text = BENCH.tabulate(report).render()
        assert "gates:" in text
        assert "ZERO LOSS" in text

    def test_small_spec_single_node_sweep(self):
        spec = scaled_spec(TERABYTE_SPEC, max_rows=50_000)
        report = run_cluster(seed=1, spec=spec, num_requests=48,
                             node_counts=(1,), replications=(1,))
        assert report["gates"]["scaling"]  # vacuous on one node
        assert not report["failover"]["applicable"]


class TestCli:
    def test_cli_json_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = subprocess.run(
                [sys.executable, "-m", "repro.cluster.sim", "--seed", "7",
                 "--requests", "96", "--json", str(path)],
                capture_output=True, text=True).returncode
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_main_returns_zero_on_pass(self, capsys):
        assert main(["--seed", "7", "--requests", "64"]) == 0
        out = capsys.readouterr().out
        assert "sharded oblivious serving" in out
        assert "64 requests" in out   # the flag reached the sweep


class TestPlanDigest:
    def test_digest_is_sha256_hex(self, report):
        for topology in report["topologies"]:
            assert len(topology["plan_digest"]) == 64
            int(topology["plan_digest"], 16)


class TestRoutingLedger:
    def test_routing_matches_the_per_table_router(self):
        """Every cell's routing and the failover block, byte for byte.

        The digest was recorded at 6159a12, while ``ShardRouter`` still
        routed each table through its own ``route`` call; the one owner
        walk must reproduce it.
        """
        report = run_cluster(seed=0)
        ledger = json.dumps({
            "cells": [{key: cell[key] for key in (
                "assignment", "unroutable_tables", "num_shards",
                "shed_requests")} for cell in report["cells"]],
            "failover": report["failover"]}, sort_keys=True)
        assert (hashlib.sha256(ledger.encode("utf-8")).hexdigest()
                == "298c74e1a0bc6d173b1c0a81f4edaa96"
                   "b597ef0af3bfebf0fc975ed55bcc94f2")


class TestValidation:
    @pytest.mark.parametrize("node_counts, replications", [
        ((2,), (1,)), ((1, 2), (2,)), ((2, 4), (1, 2))])
    def test_sweep_without_the_single_node_baseline_is_refused(
            self, monkeypatch, node_counts, replications):
        # Without the (1, 1) baseline cell there is nothing to scale
        # against; refused at entry, before any cell is served.
        def no_serve(*args, **kwargs):
            raise AssertionError("served before validating the sweep")

        monkeypatch.setattr(ScatterGatherEngine, "serve", no_serve)
        with pytest.raises(ValueError, match="must both include 1"):
            run_cluster(seed=0, node_counts=node_counts,
                        replications=replications, **SMALL)
