"""TrainingLoop: determinism, loss decrease, batched/sequential parity."""

import numpy as np
import pytest

from repro.training import TrainingConfig, TrainingLoop
from repro.training.loop import TABLE_SIZES

SMALL = dict(steps=6, batch_size=8)


def run_small(seed=0, **overrides):
    loop = TrainingLoop(TrainingConfig(**{**SMALL, **overrides}), seed=seed)
    return loop, loop.run()


class TestConfig:
    def test_defaults_validate(self):
        TrainingConfig()

    @pytest.mark.parametrize("bad", [
        dict(steps=0), dict(batch_size=0), dict(scheme="ring")])
    def test_invalid_fields_raise(self, bad):
        with pytest.raises(ValueError):
            TrainingConfig(**bad)

    def test_to_dict_round_trips_core_fields(self):
        config = TrainingConfig(scheme="circuit", batched=False)
        payload = config.to_dict()
        assert payload["scheme"] == "circuit"
        assert payload["batched"] is False
        # The fixed model and optimizer are written as they always were.
        assert TrainingConfig().to_dict() == {
            "steps": 24, "batch_size": 16, "scheme": "path",
            "table_sizes": [64, 64], "num_dense": 4, "embedding_dim": 8,
            "optimizer": "adam", "dense_lr": 0.02, "embedding_lr": 0.1,
            "batched": True}


class TestRun:
    def test_runs_every_step_and_records_metrics(self):
        _, report = run_small()
        assert [m.step for m in report.steps] == list(range(SMALL["steps"]))
        for metrics in report.steps:
            assert np.isfinite(metrics.loss)
            assert metrics.oram_accesses > 0
            assert metrics.posmap_ops > 0
            assert metrics.bucket_io > 0
            assert metrics.embedding_grad_norm >= 0.0

    def test_each_step_serves_batch_size_rows_per_table(self):
        loop, report = run_small()
        tables = len(loop.embeddings)
        # Forward + gradient write-back: two batched accesses per table.
        expected = 2 * tables * SMALL["batch_size"]
        assert all(m.oram_accesses == expected for m in report.steps)

    def test_loss_decreases(self):
        _, report = run_small(steps=16, batch_size=16)
        first, last = report.loss_window_means()
        assert last < first

    def test_same_seed_is_deterministic(self):
        loop_a, report_a = run_small(seed=3)
        loop_b, report_b = run_small(seed=3)
        assert report_a.losses == report_b.losses
        for weights_a, weights_b in zip(loop_a.table_weights(),
                                        loop_b.table_weights()):
            np.testing.assert_array_equal(weights_a, weights_b)

    def test_different_seeds_differ(self):
        _, report_a = run_small(seed=0)
        _, report_b = run_small(seed=1)
        assert report_a.losses != report_b.losses

    @pytest.mark.parametrize("scheme", ["path", "circuit"])
    def test_batched_matches_sequential_exactly(self, scheme):
        loop_batched, report_batched = run_small(scheme=scheme, batched=True)
        loop_seq, report_seq = run_small(scheme=scheme, batched=False)
        assert report_batched.losses == report_seq.losses
        for weights_a, weights_b in zip(loop_batched.table_weights(),
                                        loop_seq.table_weights()):
            np.testing.assert_array_equal(weights_a, weights_b)

    def test_batched_amortizes_posmap_ops(self):
        _, report_batched = run_small(batched=True)
        _, report_seq = run_small(batched=False)
        ratio = (report_seq.posmap_ops_per_access()
                 / report_batched.posmap_ops_per_access())
        assert ratio >= 1.5

    def test_report_to_dict_is_json_shaped(self):
        import json

        _, report = run_small()
        payload = report.to_dict()
        json.dumps(payload)  # must serialize without casting help
        assert payload["summary"]["total_accesses"] == report.total_accesses()
        assert len(payload["steps"]) == SMALL["steps"]


class TestBatcherWiring:
    def test_lookahead_hook_saw_every_training_batch(self):
        loop, report = run_small()
        assert len(loop._formed) == len(report.steps)
        for batch, ids in loop._formed:
            assert ids.shape == (SMALL["batch_size"], len(TABLE_SIZES))
            assert batch.last - batch.first == SMALL["batch_size"]

    def test_announcements_are_all_consumed(self):
        loop, _ = run_small()
        assert all(emb._announced is None for emb in loop.embeddings)
