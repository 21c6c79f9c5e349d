"""What each technique declares, what the judge observes, what the attacker
gets — one table over every technique ``technique_subject`` knows.

The attackers run against the real generators (``TraceVictim`` replays the
subject's own ``run``), so a technique whose ``is_oblivious`` flag, audit
finding and attack outcome disagree fails here.
"""

import pytest

from repro.embedding import (
    CircuitOramEmbedding,
    DHEEmbedding,
    LinearScanEmbedding,
    PathOramEmbedding,
    TableEmbedding,
)
from repro.sidechannel import (
    CacheConfig,
    ControlledChannelAttacker,
    PageFaultObserver,
    PrimeProbeAttacker,
    SetAssociativeCache,
    TraceVictim,
)
from repro.telemetry.audit import (
    TECHNIQUES,
    LeakageAuditor,
    technique_subject,
)

#: technique -> the ``repro.embedding`` generator that declares it (the
#: square-root ORAM backs the tokenizer and has no generator class; its
#: declaration is the subject's ``expect_oblivious``)
GENERATORS = {
    "scan": LinearScanEmbedding,
    "path-oram": PathOramEmbedding,
    "circuit-oram": CircuitOramEmbedding,
    "sqrt-oram": None,
    "dhe": DHEEmbedding,
    "lookup": TableEmbedding,
}

MONITORED = 25
CHANCE = 1 / MONITORED
#: P[Binomial(25, 1/25) > 4] < 0.003: a blind guesser beats 4 hits in 25
#: fewer than three times in a thousand
BINOMIAL_SLACK = 3 / MONITORED


def test_table_covers_every_technique():
    assert set(GENERATORS) == set(TECHNIQUES)


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_declared_equals_observed(technique):
    subject = technique_subject(technique)
    finding = LeakageAuditor().audit(subject)
    assert finding.passed
    generator = GENERATORS[technique]
    if generator is not None:
        assert generator.technique == technique
        assert generator.is_oblivious == finding.observed_oblivious
    assert subject.expect_oblivious == finding.observed_oblivious


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_cache_attack_accuracy(technique):
    """PRIME+PROBE with measurement noise, 25 secrets x 3 repeats, against
    a 64 x 16 table (one cache line per row)."""
    cache = SetAssociativeCache(CacheConfig())
    victim = TraceVictim.of_technique(technique, cache.access_range,
                                      num_rows=64, embedding_dim=16, seed=7)
    attacker = PrimeProbeAttacker(cache, victim, range(MONITORED),
                                  noise_cycles=3.0, rng=7)
    accuracy = attacker.recovery_accuracy(range(MONITORED), repeats=3)
    if victim.subject.expect_oblivious:
        assert accuracy <= CHANCE + BINOMIAL_SLACK
    else:
        assert accuracy >= 0.95


@pytest.mark.parametrize("technique, leaks", [("lookup", True),
                                              ("scan", False)])
def test_page_channel_candidates(technique, leaks):
    num_rows = 1024
    observer = PageFaultObserver()
    victim = TraceVictim.of_technique(technique, observer.touch, num_rows)
    attacker = ControlledChannelAttacker(observer, victim)
    for secret in (3, 500, 1023):
        candidates = attacker.candidates_after_lookup(secret)
        if leaks:
            assert candidates < num_rows / 10
        else:
            assert candidates == num_rows
