"""repro.training.bench: gates, determinism (the CLI contract is in
tests/experiments/test_gated.py)."""

import json

import pytest

from repro.training import bench


@pytest.fixture(scope="module")
def report():
    return bench.run_bench(seed=0)


class TestGates:
    def test_all_gates_pass(self, report):
        gates = report["gates"]
        assert gates["passed"]
        failing = [name for name, ok in gates.items() if not ok]
        assert failing == []

    def test_both_schemes_reported(self, report):
        assert set(report["schemes"]) == set(bench.SCHEMES)
        for data in report["schemes"].values():
            assert data["value_parity"]
            assert data["posmap_amortization"] >= bench.POSMAP_AMORTIZATION_MIN

    def test_bucket_io_mins_are_per_scheme(self, report):
        for scheme, data in report["schemes"].items():
            assert (data["bucket_io_amortization"]
                    >= bench.BUCKET_IO_AMORTIZATION_MIN[scheme])

    def test_audit_covers_plan_memory_and_leaky_subjects(self, report):
        names = {f["subject"] for f in report["audit"]["findings"]}
        expected = (set(bench._PLAN_SUBJECTS) | set(bench._MEMORY_SUBJECTS)
                    | {bench._LEAKY_SUBJECT})
        assert expected <= names


class TestDeterminism:
    def test_report_serializes_byte_identically(self, report):
        again = bench.run_bench(seed=0)
        dump = lambda r: json.dumps(r, indent=2, sort_keys=True)  # noqa: E731
        assert dump(report) == dump(again)

    def test_render_is_deterministic_and_shows_verdicts(self, report):
        text = bench.BENCH.tabulate(report).render()
        assert text == bench.BENCH.tabulate(report).render()
        assert "loss_decrease=PASS" in text
        assert "leak_detector_teeth=PASS" in text
        for scheme in bench.SCHEMES:
            assert scheme in text
