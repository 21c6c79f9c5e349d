"""Obliviousness-preserving degradation: ORAM → DHE → linear scan.

When a table's protection technique keeps failing (stash overflow under
pressure, exhausted retry budgets), availability demands stepping down to
a cheaper technique — but a naive "fall back to table lookup on error"
reopens the exact access-pattern channel the paper closes. The
:class:`DegradationLadder` makes the degradation path itself part of the
security argument:

* every rung of the chain must be an *oblivious* technique
  (:data:`OBLIVIOUS_TECHNIQUES`); the raw ``lookup`` baseline is rejected
  at construction, so no failure sequence can ever reach it;
* every transition is re-validated by the
  :class:`~repro.telemetry.audit.LeakageAuditor` — the target technique is
  replayed against contrasting secrets and must come out
  access-pattern-indistinguishable before the transition is considered
  healthy;
* every transition lands in telemetry
  (``resilience.degradations_total``) and in the ladder's event log, so a
  chaos report can prove where a run ended up and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.serving.backends import BACKEND_TECHNIQUES
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive

#: the access-pattern-leaking baseline — never a legal rung
FORBIDDEN_TECHNIQUE = "lookup"

#: techniques whose access patterns are secret-independent (auditable)
OBLIVIOUS_TECHNIQUES = frozenset(BACKEND_TECHNIQUES) - {FORBIDDEN_TECHNIQUE}

#: the default chain: strongest isolation first, cheapest oblivious last
DEFAULT_CHAIN = ("path-oram", "dhe-varied", "scan")


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded rung-down transition."""

    from_technique: str
    to_technique: str
    cause: str
    batch_index: int
    audit_passed: bool
    audit_divergence: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "from": self.from_technique,
            "to": self.to_technique,
            "cause": self.cause,
            "batch_index": self.batch_index,
            "audit_passed": self.audit_passed,
            "audit_divergence": self.audit_divergence,
        }


@dataclass
class DegradationLadder:
    """Steps one table down an explicitly oblivious technique chain.

    ``trigger_after`` consecutive pressure signals (recorded via
    :meth:`record_pressure`) trip one rung; :meth:`degrade` forces a rung
    directly. The ladder audits each target technique with a small live
    replica of that technique (``audit_rows`` x ``audit_dim``) — cheap
    enough to run inline on every transition.
    """

    chain: Sequence[str] = DEFAULT_CHAIN
    trigger_after: int = 3
    audit_rows: int = 16
    audit_dim: int = 4
    audit_secret_length: int = 8
    audit_seed: int = 0
    events: List[DegradationEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive("trigger_after", self.trigger_after)
        if not self.chain:
            raise ValueError("degradation chain cannot be empty")
        for technique in self.chain:
            if technique == FORBIDDEN_TECHNIQUE:
                raise ValueError(
                    "the degradation chain must never contain the raw "
                    f"{FORBIDDEN_TECHNIQUE!r} baseline — it reopens the "
                    "access-pattern channel")
            if technique not in OBLIVIOUS_TECHNIQUES:
                raise ValueError(
                    f"technique {technique!r} is not in the audited "
                    f"oblivious set {sorted(OBLIVIOUS_TECHNIQUES)}")
        self._position = 0
        self._pressure_streak = 0

    # ------------------------------------------------------------------
    @property
    def current_technique(self) -> str:
        return self.chain[self._position]

    @property
    def exhausted(self) -> bool:
        """At the bottom rung — no further degradation is possible."""
        return self._position == len(self.chain) - 1

    @property
    def degradations(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    def record_pressure(self, cause: str,
                        batch_index: int = -1
                        ) -> Optional[DegradationEvent]:
        """One pressure signal; trips a rung after ``trigger_after`` in a row."""
        self._pressure_streak += 1
        if self._pressure_streak < self.trigger_after:
            return None
        self._pressure_streak = 0
        return self.degrade(cause, batch_index)

    def record_recovery(self) -> None:
        """A healthy window: the pressure streak resets."""
        self._pressure_streak = 0

    def degrade(self, cause: str,
                batch_index: int = -1) -> Optional[DegradationEvent]:
        """Step one rung down, audit the target, record the transition.

        Returns None when already at the bottom rung (the ladder never
        leaves the oblivious set, so there is nothing weaker to offer).
        """
        if self.exhausted:
            return None
        source = self.current_technique
        self._position += 1
        target = self.current_technique
        finding = self._audit_technique(target)
        event = DegradationEvent(
            from_technique=source, to_technique=target, cause=cause,
            batch_index=batch_index,
            audit_passed=finding.passed and finding.observed_oblivious,
            audit_divergence=finding.divergence)
        self.events.append(event)
        registry = get_registry()
        registry.counter("resilience.degradations_total").inc()
        registry.gauge("resilience.ladder_position").set(self._position)
        if not event.audit_passed:
            registry.counter("resilience.degradation_audit_failures_total").inc()
        return event

    # ------------------------------------------------------------------
    def _audit_technique(self, technique: str):
        """Leakage-audit a small live instance of ``technique``."""
        from repro.telemetry.audit import LeakageAuditor, technique_subject

        subject = technique_subject(technique, self.audit_rows,
                                    self.audit_dim, self.audit_secret_length,
                                    self.audit_seed)
        return LeakageAuditor().audit(
            replace(subject, name=f"degraded-{technique}"))
