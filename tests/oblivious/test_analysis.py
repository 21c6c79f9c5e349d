"""Trace-equivalence verdicts on hand-made traced functions.

The judge is :class:`repro.telemetry.audit.LeakageAuditor` — the only one.
"""

import numpy as np
import pytest

from repro.oblivious.trace import TracedArray
from repro.telemetry.audit import (
    AuditSubject,
    Divergence,
    LeakageAuditor,
    LeakageError,
)


def oblivious_fn(tracer, secret):
    tracer.record_sweep("t", 5)


def leaky_fn(tracer, secret):
    arr = TracedArray(np.zeros((5, 1)), "t", tracer)
    arr.read(secret)


class TestCompareTraces:
    def test_oblivious_function_passes(self):
        finding = LeakageAuditor().audit(
            AuditSubject("sweep", oblivious_fn, [0, 2, 4]))
        assert finding.observed_oblivious and finding.exact_equivalent
        assert finding.trace_length == 5
        assert finding.num_secrets == 3
        assert finding.first_divergence is None

    def test_leaky_function_caught(self):
        finding = LeakageAuditor().audit(
            AuditSubject("gather", leaky_fn, [1, 3]))
        assert finding.leak_detected
        assert finding.first_divergence == Divergence(
            secret=1, ordinal=0, reference=("R", "t", 1),
            observed=("R", "t", 3))
        assert "R t[3] vs R t[1]" in str(finding.first_divergence)

    def test_length_divergence_caught(self):
        def fn(tracer, secret):
            arr = TracedArray(np.zeros((5, 1)), "t", tracer)
            for i in range(secret):
                arr.read(0)
        finding = LeakageAuditor().audit(AuditSubject("loop", fn, [2, 3]))
        assert finding.leak_detected
        assert finding.first_divergence.ordinal == 2
        assert finding.first_divergence.reference is None
        assert "end of trace" in str(finding.first_divergence)

    def test_needs_two_secrets(self):
        with pytest.raises(ValueError):
            AuditSubject("sweep", oblivious_fn, [1])

    def test_untraced_replay_is_a_wiring_error(self):
        """Zero events under every secret is not 'oblivious': the replay
        never reached the tracer (an ORAM built without ``tracer=``)."""
        noop = AuditSubject("noop", lambda tracer, secret: None, [[0], [1]])
        with pytest.raises(ValueError, match="'noop' recorded no memory"):
            LeakageAuditor().require(noop)
        with pytest.raises(ValueError, match="'noop'"):
            LeakageAuditor().audit(noop)


class TestAssertTraceOblivious:
    def test_passes_silently(self):
        finding = LeakageAuditor().require(
            AuditSubject("sweep", oblivious_fn, [0, 1]))
        assert finding.passed

    def test_raises_on_leak(self):
        with pytest.raises(LeakageError, match="depends on its secret"):
            LeakageAuditor().require(
                AuditSubject("gather", leaky_fn, [0, 1]))
