"""Migration simulator: gates, determinism, and the CLI contract."""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.cluster.migrate import BENCH, main, move_bound, run_migration

SMALL = dict(num_requests=96, rate_rps=2000.0)


@pytest.fixture(scope="module")
def report():
    return run_migration(seed=7, **SMALL)


class TestGates:
    def test_all_gates_pass(self, report):
        assert report["gates"]["passed"]
        assert report["gates"] == {name: True for name in report["gates"]}

    def test_zero_loss_in_every_cell(self, report):
        # the SMALL workload never saturates a shard, so even R=1 cells
        # come through clean; the gate itself only binds at R>=2
        for cell in report["cells"]:
            assert cell["shed_requests"] == 0
            assert cell["unroutable_events"] == 0
            assert cell["availability"] == 1.0

    def test_window_p99_within_ceiling(self, report):
        for cell in report["cells"]:
            assert cell["p99_inflation"] <= report["p99_inflation_ceiling"]

    def test_move_sets_are_incremental(self, report):
        for cell in report["cells"]:
            assert cell["tables_moved"] <= cell["move_bound"]

    def test_per_epoch_placement_audits_pass(self, report):
        assert {audit["num_nodes"] for audit in report["epoch_audits"]} == \
            {report["nodes_before"], report["nodes_after"]}
        for audit in report["epoch_audits"]:
            assert audit["audit_passed"]
            assert audit["audit_divergence"] == 0.0

    def test_failover_during_migration_zero_loss(self, report):
        failover = report["failover"]
        assert failover["applicable"]
        assert failover["shed_requests"] == 0
        assert failover["unroutable_events"] == 0
        assert failover["zero_loss"]

    def test_negative_audit_catches_hot_first_planner(self, report):
        assert report["negative_audit"]["leak_detected"]
        # expectation for the anti-pattern is "leaky", so the subject passes
        assert report["negative_audit"]["passed"]


class TestDeterminism:
    def test_same_seed_same_report(self, report):
        again = run_migration(seed=7, **SMALL)
        assert json.dumps(report, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_json_is_serialisable_without_inf(self, report):
        payload = json.dumps(report, allow_nan=False, sort_keys=True)
        assert "Infinity" not in payload

    def test_different_seed_different_window(self, report):
        other = run_migration(seed=8, **SMALL)
        assert other["cells"][0]["window_p99_seconds"] != \
            report["cells"][0]["window_p99_seconds"]

    def test_move_sets_do_not_depend_on_the_seed(self, report):
        again = run_migration(seed=99, **SMALL)
        assert [c["tables_moved"] for c in report["cells"]] == \
            [c["tables_moved"] for c in again["cells"]]


class TestSweepShape:
    def test_every_cell_present(self, report):
        cells = {(c["direction"], c["replication"], c["step_size"])
                 for c in report["cells"]}
        assert cells == {(d, r, s) for d in ("add", "remove")
                         for r in (1, 2) for s in (2, 4)}

    def test_remove_direction_reverses_node_counts(self, report):
        for cell in report["cells"]:
            if cell["direction"] == "add":
                assert (cell["nodes_before"], cell["nodes_after"]) == (4, 5)
            else:
                assert (cell["nodes_before"], cell["nodes_after"]) == (5, 4)

    def test_render_mentions_gates(self, report):
        text = BENCH.tabulate(report).render()
        assert "gates:" in text
        assert "ZERO LOSS" in text

    def test_identical_node_counts_rejected(self):
        with pytest.raises(ValueError, match="nodes_before != nodes_after"):
            run_migration(nodes_before=4, nodes_after=4, **SMALL)

    def test_one_node_fleet_builds_the_control_at_the_swept_r(self):
        # R = 2 does not fit a 1-node fleet, so the sweep runs R = 1 only
        # and the hot-first control is built at R = 1 too.
        report = run_migration(nodes_before=1, nodes_after=2, **SMALL)
        assert {cell["replication"] for cell in report["cells"]} == {1}
        assert report["negative_audit"]["leak_detected"]
        assert not report["failover"]["applicable"]

    def test_no_replication_fits_the_smaller_fleet(self):
        with pytest.raises(ValueError, match="fits the smaller fleet"):
            run_migration(nodes_before=1, nodes_after=2, replications=(2,),
                          **SMALL)

    def test_move_bound_formula(self):
        assert move_bound(26, 1, 5) == 6 + 3
        assert move_bound(26, 2, 5) == 11 + 3


class TestCli:
    def test_cli_json_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = subprocess.run(
                [sys.executable, "-m", "repro.cluster.migrate",
                 "--seed", "7", "--requests", "96",
                 "--nodes-before", "4", "--nodes-after", "5",
                 "--step-size", "2", "--json", str(path)],
                capture_output=True, text=True).returncode
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_step_size_flag_narrows_the_sweep(self, tmp_path):
        path = tmp_path / "single.json"
        code = subprocess.run(
            [sys.executable, "-m", "repro.cluster.migrate", "--seed", "7",
             "--requests", "96", "--step-size", "3",
             "--json", str(path)],
            capture_output=True, text=True).returncode
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["step_sizes"] == [3]
        assert {c["step_size"] for c in payload["cells"]} == {3}

    def test_main_returns_zero_on_pass(self, capsys):
        assert main(["--seed", "7", "--requests", "64"]) == 0
        out = capsys.readouterr().out
        assert "live plan-epoch migration" in out
        assert "64 requests" in out   # the flag reached the sweep

    def test_main_honours_topology_flags(self, capsys):
        assert main(["--seed", "7", "--requests", "64",
                     "--nodes-before", "3", "--nodes-after", "4",
                     "--step-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "3<->4 nodes" in out


class TestRoutingLedger:
    def test_step_routing_matches_the_pre_walk_owner_map(self):
        """Every step's in-flight set, unroutable count and sheds.

        The digest was recorded at 6159a12, before the transitioning owner
        map and the router shared one owner walk.
        """
        report = run_migration(seed=0)
        ledger = json.dumps([[{key: step[key] for key in (
            "tables_in_flight", "unroutable_tables", "shed_requests")}
            for step in cell["steps"]] for cell in report["cells"]],
            sort_keys=True)
        assert (hashlib.sha256(ledger.encode("utf-8")).hexdigest()
                == "a7ff18208bd52d06d09be760dbbbed4d"
                   "fc6b81ffb03f6f4cce5e0a8c1b9b7b28")
