"""LLM stages: cost-model pricing, fleet scaling, decision-trace audits."""

import numpy as np
import pytest

from repro.costmodel.llm import LlmShape
from repro.llm.stages import (
    LlmServingSpec,
    build_llm_pipeline,
    per_node_capacity_rps,
    stage_subjects,
)
from repro.telemetry.audit import LeakageAuditor
from repro.telemetry.runtime import use_registry

SMALL = LlmServingSpec(
    shape=LlmShape(vocab_size=64, embed_dim=8, num_layers=2,
                   context_length=32),
    prompt_tokens=8, new_tokens=4,
    tokenize_batch=8, prefill_batch=4, decode_batch=2)


def burst(count=12, spacing=0.0005):
    return np.arange(count) * spacing


class TestPricing:
    def test_every_stage_has_positive_capacity(self):
        for stage in ("tokenize", "prefill", "decode"):
            assert per_node_capacity_rps(SMALL, stage) > 0.0

    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError):
            per_node_capacity_rps(SMALL, "embed")

    def test_pipeline_has_the_three_stages_in_order(self):
        pipeline = build_llm_pipeline(SMALL)
        assert [stage.name for stage in pipeline.stages] == [
            "tokenize", "prefill", "decode"]


class TestFleetScaling:
    def test_unknown_node_count_key_rejected(self):
        with pytest.raises(ValueError, match="unknown stage names"):
            build_llm_pipeline(SMALL, node_counts={"embed": 2})

    def test_nonpositive_node_count_rejected(self):
        with pytest.raises(ValueError):
            build_llm_pipeline(SMALL, node_counts={"decode": 0})

    def test_doubling_a_pool_halves_its_service_time(self):
        arrivals = burst()
        one = build_llm_pipeline(SMALL).serve(arrivals)
        two = build_llm_pipeline(
            SMALL, node_counts={"decode": 2}).serve(arrivals)
        np.testing.assert_allclose(
            two.stage("decode").report.service_latencies,
            one.stage("decode").report.service_latencies / 2)
        # the other stages are untouched
        np.testing.assert_allclose(
            two.stage("prefill").report.service_latencies,
            one.stage("prefill").report.service_latencies)


class TestTelemetry:
    def test_per_stage_counters_emitted(self):
        with use_registry() as registry:
            report = build_llm_pipeline(SMALL).serve(burst())
        counters = registry.snapshot()["counters"]
        for stage in ("tokenize", "prefill", "decode"):
            assert counters[f"llm.stage.{stage}.requests_total"] == 12
            assert (counters[f"llm.stage.{stage}.batches_total"]
                    == report.stage(stage).report.num_batches)

    def test_counters_follow_a_registry_reset(self):
        # Each serve looks its counters up again, so a reset between
        # serves leaves exactly the second serve's totals.
        with use_registry() as registry:
            pipeline = build_llm_pipeline(SMALL)
            pipeline.serve(burst())
            registry.reset()
            pipeline.serve(burst(count=5))
        counters = registry.snapshot()["counters"]
        for stage in ("tokenize", "prefill", "decode"):
            assert counters[f"llm.stage.{stage}.requests_total"] == 5

    def test_decode_batch_seam_fires(self):
        seen = []
        pipeline = build_llm_pipeline(SMALL,
                                      on_decode_batch=seen.append)
        report = pipeline.serve(burst())
        assert sum(batch.size for batch in seen) == 12
        assert len(seen) == report.stage("decode").report.num_batches


class TestStageAudits:
    @pytest.fixture(scope="class")
    def findings(self):
        auditor = LeakageAuditor()
        return {subject.name: auditor.audit(subject)
                for subject in stage_subjects(SMALL, prompt_length=12)}

    def test_all_standing_subjects_pass(self, findings):
        assert set(findings) == {"llm-prefill", "llm-decode",
                                 "llm-decode-memory", "llm-cross-stage"}
        for finding in findings.values():
            assert finding.passed, finding.subject

    def test_decision_planes_are_exact(self, findings):
        assert findings["llm-prefill"].mode == "exact"
        assert findings["llm-decode"].mode == "exact"
        assert findings["llm-cross-stage"].mode == "exact"
        assert findings["llm-decode-memory"].mode == "structural"
