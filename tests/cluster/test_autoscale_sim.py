"""Autoscale simulator: gates, storm storyline, determinism, CLI."""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.cluster.autoscale.sim import (
    KILL_TICK,
    MAX_NODES,
    MIN_NODES,
    REPLICATION,
    BENCH,
    rate_schedule,
    run_autoscale,
)


@pytest.fixture(scope="module")
def report():
    return run_autoscale(seed=7)


class TestGates:
    def test_all_gates_pass(self, report):
        assert report["gates"]["passed"]
        assert report["gates"] == {name: True for name in report["gates"]}

    def test_converged_within_budget(self, report):
        assert report["converged_tick"] is not None
        assert (report["converged_tick"] - report["first_peak_tick"]
                <= report["convergence_budget_ticks"])

    def test_event_windows_respect_p99_ceiling(self, report):
        event_cells = [cell for cell in report["intervals"]
                       if cell["kind"] != "serve"]
        assert event_cells
        for cell in event_cells:
            assert cell["p99_inflation"] <= report["p99_event_ceiling"]

    def test_every_reshape_is_audited(self, report):
        assert report["plan_audits"]
        assert report["migration_audits"]
        for audit in report["plan_audits"] + report["migration_audits"]:
            assert audit["audit_passed"]
            assert audit["audit_divergence"] == 0.0

    def test_reshape_ledger_matches_the_pre_fleet_sim(self, report):
        """Plan audits, migration audits, events and the final fleet are
        unchanged since the storm ran its own plan/reshape/heal loop (digest
        recorded at 4f3c48d)."""
        ledger = json.dumps({key: report[key] for key in (
            "plan_audits", "migration_audits", "events", "final_nodes",
            "final_epoch")}, sort_keys=True)
        assert (hashlib.sha256(ledger.encode("utf-8")).hexdigest()
                == "0f24bfca95df1af4133956f5ac535362"
                   "810fc6f7e109deab4e69d4e458ec381a")

    def test_scaling_decisions_are_skew_invariant(self, report):
        audit = report["scaling_audit"]
        assert audit["passed"]
        assert not audit["leak_detected"]

    def test_negative_control_is_caught(self, report):
        negative = report["negative_audit"]
        assert negative["leak_detected"]
        # expectation for the anti-pattern is "leaky", so the subject passes
        assert negative["passed"]


class TestStorm:
    def test_kill_blocks_the_scale_down(self, report):
        kill = report["intervals"][KILL_TICK]
        assert kill["killed"]
        assert kill["decision"]["action"] == "blocked"
        assert kill["decision"]["reason"] == "breakers-open"

    def test_heal_sheds_nothing(self, report):
        heals = [cell for cell in report["intervals"]
                 if cell["kind"] == "heal"]
        assert len(heals) == 1
        assert heals[0]["shed_requests"] == 0
        assert heals[0]["unroutable_events"] == 0
        assert heals[0]["tables_moved"] > 0

    def test_storm_events(self, report):
        assert report["events"] == {"scale_up_events": 2,
                                    "scale_down_events": 1,
                                    "heal_events": 1}

    def test_fleet_scales_up_then_back_down(self, report):
        nodes = [cell["signals"]["current_nodes"]
                 for cell in report["intervals"]]
        assert max(nodes) > nodes[0]
        assert report["final_nodes"] == 3
        assert all(max(MIN_NODES, REPLICATION) <= n <= MAX_NODES
                   for n in nodes)

    def test_epochs_advance_once_per_reshape(self, report):
        reshapes = sum(report["events"].values())
        assert report["final_epoch"] == reshapes

    def test_merged_counters_sum_to_events(self, report):
        fleet = report["fleet"]
        for key, value in report["events"].items():
            assert fleet[key] == value

    def test_schedule_shape(self):
        rates = rate_schedule()
        assert max(rates) == rates[3]
        assert KILL_TICK < len(rates)
        # the kill lands in the trough, after the peak plateau
        assert rates[KILL_TICK] < max(rates)


class TestDeterminism:
    def test_same_seed_same_report(self, report):
        again = run_autoscale(seed=7)
        assert json.dumps(report, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_json_is_serialisable_without_inf(self, report):
        payload = json.dumps(report, allow_nan=False, sort_keys=True)
        assert "Infinity" not in payload

    def test_different_seed_different_arrivals(self, report):
        other = run_autoscale(seed=8)
        assert [c["p99_seconds"] for c in other["intervals"]] != \
            [c["p99_seconds"] for c in report["intervals"]]

    def test_decisions_do_not_depend_on_the_seed(self, report):
        other = run_autoscale(seed=8)
        assert [c["decision"]["action"] for c in other["intervals"]] == \
            [c["decision"]["action"] for c in report["intervals"]]


class TestCli:
    def test_cli_json_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = subprocess.run(
                [sys.executable, "-m", "repro.cluster.autoscale",
                 "--seed", "7", "--json", str(path)],
                capture_output=True, text=True).returncode
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_render_shows_blocked_reason(self, report):
        text = BENCH.tabulate(report).render()
        assert "blocked (breakers-open)" in text
        assert "KILL" in text
        assert f"final nodes={report['final_nodes']}" in text
