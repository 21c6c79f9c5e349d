"""Audit ledger: sha256 pins over what the leakage auditor reports.

Recorded while ``MemoryTracer`` still kept one Python ``AccessEvent`` per
event, before the tracer stored its events as columns:

* ``json.dumps(report.to_dict())`` of the standing audit
  (``standard_audit(seed=s)``, the CLI's size) and of the benchmark-size
  certification pass (``standard_subjects(64, 16, 12, seed=s)`` plus
  ``lookahead_subjects(seed=s)``), at seeds 0 and 9 — every verdict,
  trace length and divergence float, to the last bit;
* the text of the first divergence the auditor names for the two negative
  controls, ``table-lookup`` and ``sequential-leaking-batcher``.

Any faster tracer or reader must reproduce all of them exactly. Printed,
not only asserted (``pytest -s``), so a change that moves them shows it in
the log.
"""

import hashlib
import json

import pytest

from repro.oram.lookahead import lookahead_subjects
from repro.telemetry.audit import (
    LeakageAuditor,
    standard_audit,
    standard_subjects,
)
from repro.telemetry.metrics import MetricsRegistry

SEEDS = (0, 9)

STANDING_DIGESTS = {
    0: "b5192d4da168f64938bd44306e5028bf56401d67b5c9038e302ad63a74dce5a5",
    9: "8867261db7a1fa2f51627231c67c2ec1d0aa035a919f01869391be1296203d07",
}
CERTIFICATION_DIGESTS = {
    0: "c2461395c350aebaef6713eb9eb655bad9bf76bfa29b2d0a2208b68369974b68",
    9: "1f3b7a24d305b721d014769a8b12b049bcf7a058d153ef0b98f7467274b4af39",
}
#: the same at both seeds: the controls leak before any randomness matters
FIRST_DIVERGENCES = {
    "table-lookup":
        "secret 1 vs secret 0 at event 0: R table[63] vs R table[0]",
    "sequential-leaking-batcher":
        "secret 2 vs secret 0 at event 1: "
        "R oram.lookahead[2001] vs R oram.lookahead[2000]",
}


def report_digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest()


@pytest.fixture(scope="module")
def certification():
    """The benchmark-size pass at each seed, audited once."""
    auditor = LeakageAuditor(registry=MetricsRegistry())
    return {seed: auditor.run(standard_subjects(64, 16, 12, seed=seed)
                              + lookahead_subjects(seed=seed))
            for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_standing_audit_report_is_pinned(seed):
    digest = report_digest(standard_audit(registry=MetricsRegistry(),
                                          seed=seed))
    print(f"\nstanding audit seed {seed} digest {digest}")
    assert digest == STANDING_DIGESTS[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_certification_report_is_pinned(certification, seed):
    digest = report_digest(certification[seed])
    print(f"\ncertification seed {seed} digest {digest}")
    assert digest == CERTIFICATION_DIGESTS[seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("control", sorted(FIRST_DIVERGENCES))
def test_negative_control_names_the_same_first_divergence(
        certification, seed, control):
    text = str(certification[seed].finding(control).first_divergence)
    print(f"\n{control} seed {seed}: {text}")
    assert text == FIRST_DIVERGENCES[control]
