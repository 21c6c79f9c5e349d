"""The leakage auditor: continuous verification of the paper's core claim.

The paper's security argument is access-pattern indistinguishability: the
addresses a protected embedding generator touches must not depend on the
secret indices it serves. The auditor turns that into a runnable gate. It
replays a workload once per candidate secret, captures the event stream
with :class:`~repro.oblivious.trace.MemoryTracer`, and applies two checks:

* **trace equivalence** — for deterministic defences (linear scan, DHE)
  the full (op, region, address) sequence must be identical across
  secrets; for randomised defences (tree ORAMs) the *structure* (op,
  region, with addresses erased) must be identical, mirroring
  ``tests/oram/test_oram_security.py``;
* **address-histogram divergence** — per memory region, the normalised
  address histograms across secrets must stay within a total-variation
  budget. This is what a cache/page attacker aggregates, and it is the
  check that catches the non-secure table lookup (divergence 1.0: disjoint
  address sets per secret).

Findings feed the telemetry registry (``audit.*`` counters, one span per
subject), so CI and long-running serving processes export audit posture
alongside throughput.

This module is also the one audited-decision contract. A subsystem whose
decisions must not depend on a secret (placement, migration, autoscaling,
cache admission, lookahead batching, tokenization) writes
one ``X_subject(...)`` factory that knows how to *replay* the decision as
an :class:`AuditSubject`; judging it is always
:meth:`LeakageAuditor.audit` (a finding) or :meth:`LeakageAuditor.require`
(a finding, or :class:`LeakageError` naming the first diverging event),
and :func:`contrasting_secrets` is the one hot-head / hot-tail / sweep
generator those replays contrast. ``docs/SECURITY.md`` ("Audited
decisions") lists every subject and its in-tree negative control. An
embedding *technique* is replayed by :func:`technique_subject` only: the
standing audit, the degradation ladder, Table II and the side-channel
attackers' :class:`~repro.sidechannel.TraceVictim` all share its runners.

Run the standing audit from the command line::

    python -m repro.telemetry.audit --json audit.json

Exit status 0 means every expectation held (secure techniques oblivious,
the known-leaky baseline detected).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.oblivious.trace import (
    OPS,
    REGIONS,
    AccessEvent,
    MemoryTracer,
    Trace,
    traces_equal,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive

MODE_EXACT = "exact"            # deterministic defences: identical traces
MODE_STRUCTURAL = "structural"  # randomised defences: identical structure

#: Default total-variation budget for structurally-equivalent randomised
#: defences. Deterministic subjects come out at 0.0; the leaky table
#: lookup at 1.0; seeded ORAM replays land well below 0.5 (see tests).
DEFAULT_DIVERGENCE_THRESHOLD = 0.5

Runner = Callable[[MemoryTracer, Sequence[int]], object]


Events = Union[Trace, Sequence[AccessEvent]]


def trace_structure(events: Events) -> List[Tuple[str, str]]:
    """The (op, region) sequence with addresses erased."""
    trace = Trace.of(events)
    ops, regions = OPS.names, REGIONS.names
    return [(ops[op], regions[region]) for op, region
            in zip(trace.ops.tolist(), trace.regions.tolist())]


def _same_structure(a: Trace, b: Trace) -> bool:
    """Equal (op, region) columns: :func:`trace_structure` equality."""
    return (np.array_equal(a.ops, b.ops)
            and np.array_equal(a.regions, b.regions))


def address_histograms(events: Events) -> Dict[str, Dict[int, int]]:
    """Per-region address -> count map of one trace, regions and the
    addresses within each in first-touch order."""
    trace = Trace.of(events)
    histograms: Dict[str, Dict[int, int]] = {}
    for code in trace.touched_regions():
        addresses, first_seen, counts = np.unique(
            trace.addresses[trace.regions == code], return_index=True,
            return_counts=True)
        order = np.argsort(first_seen)
        histograms[REGIONS.names[code]] = dict(zip(
            addresses[order].tolist(), counts[order].tolist()))
    return histograms


def total_variation(a: Dict[int, int], b: Dict[int, int]) -> float:
    """TV distance between two (unnormalised) address histograms."""
    total_a = sum(a.values())
    total_b = sum(b.values())
    if total_a == 0 or total_b == 0:
        return 0.0 if total_a == total_b else 1.0
    distance = 0.0
    for address in set(a) | set(b):
        distance += abs(a.get(address, 0) / total_a
                        - b.get(address, 0) / total_b)
    return 0.5 * distance


def histogram_divergence(traces: Sequence[Events]) -> float:
    """Worst per-region TV distance of any trace against the first."""
    reference = address_histograms(traces[0])
    worst = 0.0
    for trace in traces[1:]:
        other = address_histograms(trace)
        for region in set(reference) | set(other):
            worst = max(worst, total_variation(reference.get(region, {}),
                                               other.get(region, {})))
    return worst


def contrasting_secrets(domain: int, length: int) -> List[List[int]]:
    """Three maximum-contrast index sequences over ``range(domain)``.

    Hammer the first id (hot-head), hammer the last (hot-tail), and a
    round-robin sweep — the profiles every audited decision is replayed
    under, whether the ids are embedding rows, tables or vocabulary.
    """
    check_positive("domain", domain)
    check_positive("length", length)
    return [
        [0] * length,
        [domain - 1] * length,
        [index % domain for index in range(length)],
    ]


class Divergence(NamedTuple):
    """Where secret ``secret``'s trace first departs from secret 0's.

    ``reference`` / ``observed`` are the two events at ``ordinal`` —
    ``(op, region, address)`` in exact mode, ``(op, region)`` in structural
    mode (addresses legitimately differ there) — or ``None`` for the trace
    that had already ended.
    """

    secret: int
    ordinal: int
    reference: Optional[Tuple]
    observed: Optional[Tuple]

    def __str__(self) -> str:
        def show(event: Optional[Tuple]) -> str:
            if event is None:
                return "end of trace"
            op, region, *address = event
            return f"{op} {region}" + (f"[{address[0]}]" if address else "")

        return (f"secret {self.secret} vs secret 0 at event {self.ordinal}: "
                f"{show(self.observed)} vs {show(self.reference)}")


def _first_divergence(traces: Sequence[Trace],
                      mode: str) -> Optional[Divergence]:
    """The first event at which any trace departs from ``traces[0]``.

    The first index of the column mismatch mask (a length mismatch
    diverges at the shorter length); ``None`` when every trace is
    equivalent under ``mode``.
    """
    width = 3 if mode == MODE_EXACT else 2

    def at(trace: Trace, ordinal: int) -> Optional[Tuple]:
        if ordinal >= len(trace):
            return None
        event = trace[ordinal]
        return (event.op, event.region, event.address)[:width]

    reference = traces[0]
    for secret, trace in enumerate(traces[1:], start=1):
        common = min(len(reference), len(trace))
        columns = [(reference.ops, trace.ops),
                   (reference.regions, trace.regions),
                   (reference.addresses, trace.addresses)][:width]
        mismatch = np.zeros(common, dtype=bool)
        for expected, got in columns:
            mismatch |= expected[:common] != got[:common]
        if mismatch.any():
            ordinal = int(mismatch.argmax())
        elif len(reference) != len(trace):
            ordinal = common
        else:
            continue
        return Divergence(secret, ordinal, at(reference, ordinal),
                          at(trace, ordinal))
    return None


@dataclass(frozen=True)
class AuditSubject:
    """One implementation under audit and the secrets to replay."""

    name: str
    run: Runner
    secrets: Sequence[Sequence[int]]
    mode: str = MODE_EXACT
    expect_oblivious: bool = True

    def __post_init__(self) -> None:
        if self.mode not in (MODE_EXACT, MODE_STRUCTURAL):
            raise ValueError(
                f"mode must be {MODE_EXACT!r} or {MODE_STRUCTURAL!r}, "
                f"got {self.mode!r}")
        if len(self.secrets) < 2:
            raise ValueError(
                f"subject {self.name!r} needs >= 2 secrets to compare")


@dataclass(frozen=True)
class AuditFinding:
    """The verdict for one subject."""

    subject: str
    mode: str
    expect_oblivious: bool
    trace_equivalent: bool        # exact or structural, per mode
    exact_equivalent: bool        # full-event equality regardless of mode
    divergence: float             # worst per-region TV distance
    trace_length: int
    num_secrets: int

    @property
    def observed_oblivious(self) -> bool:
        return self.trace_equivalent and self.divergence <= self._threshold

    # the report stamps the threshold in; stored flat for JSON friendliness
    _threshold: float = DEFAULT_DIVERGENCE_THRESHOLD
    # set only when ``trace_equivalent`` is false; deliberately not part of
    # ``to_dict()`` so report bytes do not depend on it
    first_divergence: Optional[Divergence] = None

    @property
    def leak_detected(self) -> bool:
        return not self.observed_oblivious

    @property
    def passed(self) -> bool:
        """Did reality match the expectation for this subject?"""
        return self.observed_oblivious == self.expect_oblivious

    def to_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "mode": self.mode,
            "expect_oblivious": self.expect_oblivious,
            "trace_equivalent": self.trace_equivalent,
            "exact_equivalent": self.exact_equivalent,
            "divergence": self.divergence,
            "divergence_threshold": self._threshold,
            "trace_length": self.trace_length,
            "num_secrets": self.num_secrets,
            "leak_detected": self.leak_detected,
            "passed": self.passed,
        }


@dataclass
class AuditReport:
    """All findings of one audit run."""

    findings: List[AuditFinding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.findings) and all(f.passed for f in self.findings)

    def finding(self, subject: str) -> AuditFinding:
        for candidate in self.findings:
            if candidate.subject == subject:
                return candidate
        raise KeyError(f"no finding for subject {subject!r}")

    def to_dict(self) -> Dict[str, object]:
        return {"passed": self.passed,
                "findings": [f.to_dict() for f in self.findings]}

    def render(self) -> str:
        rows = [("subject", "mode", "expected", "observed", "divergence",
                 "events", "verdict")]
        for f in self.findings:
            rows.append((
                f.subject, f.mode,
                "oblivious" if f.expect_oblivious else "leaky",
                "oblivious" if f.observed_oblivious else "LEAK",
                f"{f.divergence:.3f}", str(f.trace_length),
                "pass" if f.passed else "FAIL"))
        widths = [max(len(row[i]) for row in rows)
                  for i in range(len(rows[0]))]
        lines = ["== leakage audit =="]
        for index, row in enumerate(rows):
            line = "  ".join(cell.ljust(width)
                             for cell, width in zip(row, widths))
            lines.append(line.rstrip())
            if index == 0:
                lines.append("-" * len(line))
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class LeakageError(RuntimeError):
    """A subject required to be oblivious leaked; ``.finding`` has the verdict."""

    def __init__(self, finding: AuditFinding) -> None:
        if finding.first_divergence is not None:
            where = f"trace of {finding.first_divergence}"
        else:
            where = (f"address-histogram divergence {finding.divergence:.3f}"
                     f" exceeds {finding._threshold:.3f}")
        super().__init__(
            f"{finding.subject!r} depends on its secret ({finding.mode} "
            f"mode, {where}); a secret-dependent trace is a side channel")
        self.finding = finding


class LeakageAuditor:
    """Replays subjects across secrets and issues pass/fail findings."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD
                 ) -> None:
        if not 0.0 <= divergence_threshold <= 1.0:
            raise ValueError("divergence_threshold must be in [0, 1], "
                             f"got {divergence_threshold}")
        self._registry = registry
        self.divergence_threshold = divergence_threshold

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # ------------------------------------------------------------------
    def audit(self, subject: AuditSubject) -> AuditFinding:
        registry = self.registry
        with registry.span("audit.subject", subject=subject.name,
                           mode=subject.mode):
            traces = []
            for secret in subject.secrets:
                tracer = MemoryTracer()
                subject.run(tracer, secret)
                traces.append(tracer.snapshot())
            if not any(traces):
                raise ValueError(
                    f"subject {subject.name!r} recorded no memory event "
                    "under any secret: its replay is not wired to the "
                    "tracer, which is not the same as being oblivious")
            exact = all(traces_equal(traces[0], trace)
                        for trace in traces[1:])
            structural = exact or all(
                _same_structure(traces[0], trace) for trace in traces[1:])
            divergence = 0.0 if exact else histogram_divergence(traces)
            equivalent = exact if subject.mode == MODE_EXACT else structural
            diverged = (None if equivalent
                        else _first_divergence(traces, subject.mode))
        finding = AuditFinding(
            subject=subject.name, mode=subject.mode,
            expect_oblivious=subject.expect_oblivious,
            trace_equivalent=equivalent,
            exact_equivalent=exact, divergence=divergence,
            trace_length=len(traces[0]), num_secrets=len(traces),
            _threshold=self.divergence_threshold,
            first_divergence=diverged)
        registry.counter("audit.subjects_total").inc()
        if finding.leak_detected:
            registry.counter("audit.leaks_detected_total").inc()
        if not finding.passed:
            registry.counter("audit.failures_total").inc()
        return finding

    def require(self, subject: AuditSubject) -> AuditFinding:
        """Audit ``subject``; raise :class:`LeakageError` if it leaks.

        The gate every secret-free decision passes before it may serve
        traffic. Negative controls are audited with :meth:`audit` and
        ``expect_oblivious=False`` instead.
        """
        finding = self.audit(subject)
        if finding.leak_detected:
            raise LeakageError(finding)
        return finding

    def run(self, subjects: Sequence[AuditSubject]) -> AuditReport:
        if not subjects:
            raise ValueError("audit needs at least one subject")
        report = AuditReport([self.audit(subject) for subject in subjects])
        registry = self.registry
        registry.counter("audit.runs_total").inc()
        registry.gauge("audit.last_run_passed").set(1.0 if report.passed
                                                    else 0.0)
        return report


# ----------------------------------------------------------------------
# The standing audit: every technique in the paper's comparison.
# ----------------------------------------------------------------------
#: the techniques :func:`technique_subject` can put under the observer
#: (``repro.embedding``'s ``technique`` names), in standing-audit order
TECHNIQUES = ("scan", "path-oram", "circuit-oram", "sqrt-oram", "dhe",
              "lookup")


def technique_subject(technique: str, num_embeddings: int = 16,
                      embedding_dim: int = 4, sequence_length: int = 12,
                      seed: int = 0) -> AuditSubject:
    """The one way a technique is replayed under a tracer.

    ``technique`` is one of :data:`TECHNIQUES` (``dhe-uniform`` /
    ``dhe-varied`` are the same generator at audit scale). Secrets are the
    three :func:`contrasting_secrets` over the rows. A randomised defence
    is rebuilt from the same seed per replay so structural equivalence is
    meaningful. The standing audit, the degradation ladder, Table II and
    the side-channel :class:`~repro.sidechannel.TraceVictim` all replay
    this subject's ``run``.
    """
    from repro.embedding.dhe import DHEEmbedding
    from repro.embedding.scan import LinearScanEmbedding
    from repro.embedding.table import TableEmbedding
    from repro.oram.circuit_oram import CircuitORAM
    from repro.oram.path_oram import PathORAM
    from repro.oram.sqrt_oram import SqrtORAM

    secrets = contrasting_secrets(num_embeddings, sequence_length)
    orams = {"path-oram": PathORAM, "circuit-oram": CircuitORAM,
             "sqrt-oram": SqrtORAM}
    if technique in orams:
        def run_oram(tracer: MemoryTracer, secret: Sequence[int]) -> None:
            # Rebuild from the same seed per secret so the controller's
            # randomness is replayed, then drop initialisation traffic.
            oram = orams[technique](num_embeddings, embedding_dim, rng=seed,
                                    stash_capacity=num_embeddings,
                                    tracer=tracer)
            tracer.clear()
            for block in secret:
                oram.read(int(block))

        return AuditSubject(technique, run_oram, secrets,
                            mode=MODE_STRUCTURAL)

    if technique == "scan":
        name, generator = "linear-scan", LinearScanEmbedding(
            num_embeddings, embedding_dim, rng=seed)
    elif technique in ("dhe", "dhe-uniform", "dhe-varied"):
        name, generator = "dhe", DHEEmbedding(
            num_embeddings, embedding_dim, k=16, fc_sizes=(16,),
            num_buckets=1024, rng=seed)
    elif technique == "lookup":
        name, generator = "table-lookup", TableEmbedding(
            num_embeddings, embedding_dim, rng=seed)
    else:
        raise ValueError(f"unknown technique {technique!r}; "
                         f"expected one of {TECHNIQUES}")

    def run(tracer: MemoryTracer, secret: Sequence[int]) -> None:
        generator.generate_traced(np.asarray(secret), tracer)

    return AuditSubject(name, run, secrets, mode=MODE_EXACT,
                        expect_oblivious=generator.is_oblivious)


def standard_subjects(num_embeddings: int = 16, embedding_dim: int = 4,
                      sequence_length: int = 12,
                      seed: int = 0) -> List[AuditSubject]:
    """Scan, Path/Circuit/square-root ORAM, DHE — plus the leaky lookup."""
    return [technique_subject(technique, num_embeddings, embedding_dim,
                              sequence_length, seed)
            for technique in TECHNIQUES]


def standard_audit(registry: Optional[MetricsRegistry] = None,
                   **subject_kwargs) -> AuditReport:
    """Run the standing technique audit; see :func:`standard_subjects`."""
    auditor = LeakageAuditor(registry=registry)
    return auditor.run(standard_subjects(**subject_kwargs))


def main(argv=None) -> int:
    """CLI: run the standing audit, print the report, gate on expectations."""
    parser = argparse.ArgumentParser(
        description="Audit access-pattern leakage of every embedding "
                    "generation technique.")
    parser.add_argument("--json", metavar="PATH",
                        help="write the report + telemetry snapshot as JSON")
    parser.add_argument("--length", type=int, default=12,
                        help="secret index sequence length (default 12)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    registry = MetricsRegistry()
    report = standard_audit(registry=registry,
                            sequence_length=args.length, seed=args.seed)
    print(report.render())
    if args.json:
        from repro.telemetry.export import write_json

        write_json(registry, args.json, extra={"audit": report.to_dict()})
    return 0 if report.passed else 1
