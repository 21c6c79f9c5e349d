"""The cache leakage audit: decisions are traced, the LRU is caught.

"Every honest policy passes ``require``" is the ``cache-*`` rows of the
one table in ``tests/telemetry/test_decision_audits.py``.
"""

import pytest

from repro.cache.audit import (
    AUDIT_NUM_ROWS,
    AUDIT_SECRET_LENGTH,
    cache_subject,
    replay_cache,
)
from repro.cache.policy import (
    CACHE_REGION,
    BatchResultCache,
    DecoderWeightCache,
    IndexKeyedLRUCache,
    StaticResidencyCache,
)
from repro.oblivious.trace import MemoryTracer
from repro.telemetry.audit import (
    LeakageAuditor,
    LeakageError,
    contrasting_secrets,
)

FACTORIES = {
    "static-residency": lambda t: StaticResidencyCache(2 ** 24, tracer=t),
    "decoder-reuse": lambda t: DecoderWeightCache(tracer=t),
    "batch-shared": lambda t: BatchResultCache(tracer=t),
}


class TestHonestPolicies:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_decisions_are_traced(self, name):
        tracer = MemoryTracer()
        replay_cache(FACTORIES[name](tracer),
                     contrasting_secrets(AUDIT_NUM_ROWS,
                                         AUDIT_SECRET_LENGTH)[0])
        events = tracer.snapshot()
        assert events, "policy recorded no admission decisions"
        assert {event.region for event in events} == {CACHE_REGION}


class TestNegativeControl:
    def test_lru_is_flagged(self):
        finding = LeakageAuditor().audit(cache_subject(
            lambda t: IndexKeyedLRUCache(64, tracer=t),
            name="index-keyed-lru", expect_oblivious=False))
        assert finding.leak_detected
        assert finding.divergence > 0.0
        assert finding.passed      # leak expected -> finding passes

    def test_check_raises(self):
        with pytest.raises(LeakageError, match="side channel"):
            LeakageAuditor().require(cache_subject(
                lambda t: IndexKeyedLRUCache(64, tracer=t),
                name="index-keyed-lru"))

