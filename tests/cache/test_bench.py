"""Cache bench determinism + gate wiring (the CI smoke job's cache cell in
miniature; the CLI contract is in tests/experiments/test_gated.py)."""

import json

import pytest

from repro.cache import bench


@pytest.fixture(scope="module")
def report():
    return bench.run_bench(seed=3)


class TestBenchReport:
    def test_all_gates_pass(self, report):
        assert report["gates"]["passed"], report["gates"]

    def test_covers_every_scenario(self, report):
        names = [scenario["name"] for scenario in report["scenarios"]]
        assert names == ["baseline", "static-residency",
                         "decoder-reuse-cold", "decoder-reuse-shared",
                         "batch-shared"]

    def test_latency_win_is_in_the_numbers(self, report):
        by_name = {s["name"]: s for s in report["scenarios"]}
        base = by_name["baseline"]
        assert base["cache_hits"] is None
        assert by_name["static-residency"]["p99_seconds"] \
            < base["p99_seconds"]
        assert by_name["batch-shared"]["p50_seconds"] < base["p50_seconds"]

    def test_decoder_admissions_counted_not_timed(self, report):
        assert report["decoder_admissions_shared"] == report["dhe_features"]
        assert report["decoder_admissions_cold"] \
            == report["dhe_features"] * report["epochs"]

    def test_skew_stats_identical_per_policy(self, report):
        for name, per_skew in report["skew_stats"].items():
            assert len(per_skew) == len(report["skews"])
            assert all(stats == per_skew[0] for stats in per_skew), name

    def test_audit_includes_negative_control(self, report):
        findings = {f["subject"]: f for f in report["audit"]["findings"]}
        assert findings["index-keyed-lru"]["leak_detected"]
        for name in ("static-residency", "decoder-reuse", "batch-shared"):
            assert not findings[name]["leak_detected"], name

    def test_report_is_deterministic_and_json_stable(self, report):
        again = bench.run_bench(seed=3)
        assert (json.dumps(report, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_different_seed_still_passes(self, report):
        other = bench.run_bench(seed=4)
        assert other["gates"]["passed"]
        assert other["scenarios"][0]["p50_seconds"] \
            != report["scenarios"][0]["p50_seconds"]
