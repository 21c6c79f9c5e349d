"""DegradationLadder: oblivious-only chains, audited transitions."""

import pytest

from repro.resilience import (
    DEFAULT_CHAIN,
    FORBIDDEN_TECHNIQUE,
    OBLIVIOUS_TECHNIQUES,
    DegradationLadder,
)
from repro.telemetry.runtime import use_registry


class TestChainValidation:
    def test_raw_lookup_is_never_a_legal_rung(self):
        with pytest.raises(ValueError, match="access-pattern channel"):
            DegradationLadder(chain=("path-oram", FORBIDDEN_TECHNIQUE))

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError, match="oblivious set"):
            DegradationLadder(chain=("path-oram", "btree"))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            DegradationLadder(chain=())

    def test_default_chain_is_oblivious(self):
        assert set(DEFAULT_CHAIN) <= OBLIVIOUS_TECHNIQUES
        assert FORBIDDEN_TECHNIQUE not in OBLIVIOUS_TECHNIQUES


class TestStepping:
    def test_walks_the_chain_and_exhausts(self):
        ladder = DegradationLadder()
        assert ladder.current_technique == "path-oram"
        event = ladder.degrade("stash-overflow", batch_index=4)
        assert (event.from_technique, event.to_technique) == ("path-oram",
                                                              "dhe-varied")
        assert event.batch_index == 4
        event = ladder.degrade("stash-overflow")
        assert event.to_technique == "scan"
        assert ladder.exhausted
        assert ladder.degrade("stash-overflow") is None  # never past scan
        assert ladder.current_technique == "scan"
        assert ladder.degradations == 2

    def test_pressure_streak_trips_after_threshold(self):
        ladder = DegradationLadder(trigger_after=3)
        assert ladder.record_pressure("stash") is None
        assert ladder.record_pressure("stash") is None
        event = ladder.record_pressure("stash")
        assert event is not None and event.to_technique == "dhe-varied"

    def test_recovery_resets_the_streak(self):
        ladder = DegradationLadder(trigger_after=2)
        ladder.record_pressure("stash")
        ladder.record_recovery()
        assert ladder.record_pressure("stash") is None


class TestAuditedTransitions:
    def test_every_transition_is_leakage_audited(self):
        ladder = DegradationLadder()
        events = [ladder.degrade("stash"), ladder.degrade("stash")]
        for event in events:
            assert event.audit_passed
            assert event.audit_divergence == pytest.approx(0.0)

    @pytest.mark.parametrize("technique", sorted(OBLIVIOUS_TECHNIQUES))
    def test_rung_audit_is_the_standing_technique_subject(self, technique):
        """The ladder has no runner of its own: every legal rung's finding
        is ``technique_subject``'s at the ladder's audit geometry, under
        the ``degraded-`` name."""
        from dataclasses import replace

        from repro.telemetry.audit import LeakageAuditor, technique_subject

        ladder = DegradationLadder()
        expected = LeakageAuditor().audit(replace(
            technique_subject(technique, ladder.audit_rows, ladder.audit_dim,
                              ladder.audit_secret_length, ladder.audit_seed),
            name=f"degraded-{technique}"))
        assert ladder._audit_technique(technique) == expected
        assert expected.passed and expected.trace_length > 0

    def test_transitions_land_in_telemetry(self):
        with use_registry() as registry:
            ladder = DegradationLadder()
            ladder.degrade("stash")
            ladder.degrade("stash")
        assert registry.counter(
            "resilience.degradations_total").value == 2.0
        assert registry.gauge("resilience.ladder_position").value == 2.0

    def test_event_dict_is_json_ready(self):
        ladder = DegradationLadder()
        digest = ladder.degrade("stash", batch_index=7).to_dict()
        assert digest["from"] == "path-oram"
        assert digest["to"] == "dhe-varied"
        assert digest["batch_index"] == 7
        assert digest["audit_passed"] is True
