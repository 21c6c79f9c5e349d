"""Bench determinism + gate wiring (the CI smoke job's lazy cell in
miniature; the CLI contract is in tests/experiments/test_gated.py)."""

import json

import pytest

from repro.lazy import bench


@pytest.fixture(scope="module")
def report():
    return bench.run_bench(seed=3)


class TestBenchReport:
    def test_all_gates_pass(self, report):
        assert report["gates"]["passed"], report["gates"]

    def test_sweep_covers_every_path_and_batch(self, report):
        cells = {(cell["path"], cell["batch"]) for cell in report["cells"]}
        assert cells == {(path, batch)
                         for path in ("dhe-decode", "scan", "dlrm-mlp")
                         for batch in bench.BATCHES}

    def test_multi_op_paths_fuse(self, report):
        for cell in report["cells"]:
            if cell["eager_ops"] > 1:
                assert cell["kernels"] < cell["eager_ops"], cell
            assert cell["parity"], cell

    def test_report_is_deterministic_and_json_stable(self, report):
        again = bench.run_bench(seed=3)
        assert (json.dumps(report, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_different_seed_changes_structural_content_only(self, report):
        other = bench.run_bench(seed=4)
        assert other["gates"]["passed"]
        # counted quantities are seed-independent (structure is fixed)
        assert ([c["kernels"] for c in other["cells"]]
                == [c["kernels"] for c in report["cells"]])

    def test_negative_control_is_flagged_in_audit(self, report):
        findings = {f["subject"]: f for f in report["audit"]["findings"]}
        assert findings["index-leaking-scheduler"]["leak_detected"]
        assert findings["index-leaking-scheduler"]["passed"]
        assert findings["lazy-dhe-decode"]["leak_detected"] is False

    def test_render_mentions_gates(self, report):
        text = bench.BENCH.tabulate(report).render()
        assert "gates:" in text and "PASS" in text
