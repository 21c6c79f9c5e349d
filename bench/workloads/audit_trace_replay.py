"""``audit_trace_replay``: one leakage-certification pass per op.

The same ORAM/scan/DHE code as the other workloads, but with a
``MemoryTracer`` attached: the path the security gates and most of the
tier-1 suite run. A tracer-off fast path that slows or forks the
tracer-on path shows here and nowhere else.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.oram.lookahead import lookahead_subjects
from repro.telemetry.audit import LeakageAuditor, standard_subjects

from bench import probes
from bench.trace import SpanRecorder
from bench.workloads.base import Workload

NUM_EMBEDDINGS, EMBEDDING_DIM, SEQUENCE_LENGTH = 64, 16, 12
SEED_STRIDE = 1000


def _standing(seed: int):
    return standard_subjects(
        num_embeddings=NUM_EMBEDDINGS, embedding_dim=EMBEDDING_DIM,
        sequence_length=SEQUENCE_LENGTH, seed=seed)


def _events(report) -> int:
    return sum(f.trace_length * f.num_secrets for f in report.findings)


class AuditTraceReplay(Workload):
    name = "audit_trace_replay"
    work_unit = "trace events"
    warmup_ops = 1
    traced_ops = 3

    def make_inputs(self) -> str:
        # The seed picks the audited models' weights and ORAM randomness;
        # the contrasting secrets are fixed by the audit's own definition,
        # so the pool is one pass over them. At this size the standing
        # ``path-oram`` subject fails its own audit on about a third of the
        # seeds (see bench/README.md, "Findings"), and a benchmark needs
        # inputs on which no op fails: take the first of seed, seed + 1000,
        # ... whose standing audit passes.
        audit_seed = self.seed
        while not LeakageAuditor().run(_standing(audit_seed)).passed:
            audit_seed += SEED_STRIDE
        self.pool = [audit_seed]
        return hashlib.sha256(repr(
            (NUM_EMBEDDINGS, EMBEDDING_DIM, SEQUENCE_LENGTH, audit_seed)
        ).encode()).hexdigest()

    def setup(self) -> None:
        self.subjects = _standing(self.pool[0]) + lookahead_subjects()
        self.auditor = LeakageAuditor()
        self.last_report = None

    def op(self, item):
        return self.auditor.run(self.subjects)

    def work(self, out) -> int:
        return _events(out)

    def after_op(self, index: int, item, report) -> bool:
        self.last_report = report
        return (report.passed
                and report.finding("table-lookup").leak_detected
                and report.finding("sequential-leaking-batcher").leak_detected)

    # -- traced run ------------------------------------------------------
    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(self.auditor, "audit", "audit.subject",
                 label=lambda subject: subject.name)

    def layer_metrics(self, spans, ops, counts) -> Dict[str, float]:
        return {f"audit.events.{f.subject}":
                float(f.trace_length * f.num_secrets)
                for f in self.last_report.findings}

    def probes(self, quick: bool) -> Dict[str, float]:
        return {"oblivious.tracer_record_us":
                probes.tracer_record_us(2_000 if quick else 50_000)}
