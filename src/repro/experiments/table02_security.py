"""Table II: the security matrix, computed rather than asserted.

The data-access column is the standing leakage audit's finding for each
technique: the real implementation is replayed under the memory tracer
(:func:`repro.telemetry.audit.technique_subject`) once per contrasting
secret and judged by :class:`~repro.telemetry.audit.LeakageAuditor`. The
control-flow column names the branch-free code that audited run executes
(or that none is needed).
"""

from __future__ import annotations

from repro.experiments.reporting import ExperimentResult
from repro.telemetry.audit import (
    MODE_EXACT,
    MODE_STRUCTURAL,
    AuditFinding,
    LeakageAuditor,
    technique_subject,
)

N, D = 32, 8

#: Table II row -> (audited technique, the branch-free code its run calls)
ROWS = (
    ("Table: non-secure", "lookup", "n/a (no such code path)"),
    ("Table: ORAM", "circuit-oram", "mask blend (ct_eq) in the posmap scan"),
    ("Table: Linear Scan", "scan",
     "one-hot matmul in linear_scan_batch_vectorized"),
    ("DHE (hash)", "dhe", "n/a (vectorised arithmetic)"),
)

EVIDENCE = {MODE_EXACT: "identical traces",
            MODE_STRUCTURAL: "constant structure + random remap"}


def data_access_verdict(finding: AuditFinding) -> str:
    """The data-access cell, from what the observer saw."""
    if finding.leak_detected:
        return "NOT protected (trace leaks index)"
    return (f"protected ({EVIDENCE[finding.mode]}: {finding.trace_length} "
            f"events x {finding.num_secrets} secrets)")


def run() -> ExperimentResult:
    auditor = LeakageAuditor()
    result = ExperimentResult(
        experiment_id="table2",
        title="Security of embedding generation techniques (verified live)",
        headers=("technique", "secret_dependent_data_access",
                 "secret_dependent_control_flow"),
        notes="data-access column is the leakage auditor's finding on the "
              "real implementation's trace across secrets at runtime; "
              "control-flow column is the implemented mechanism (Table II)",
    )
    for label, technique, control_flow in ROWS:
        finding = auditor.audit(technique_subject(technique, N, D))
        result.add_row(label, data_access_verdict(finding), control_flow)
    result.add_row("DHE (FC)", "n/a (no table access)",
                   "mask multiply x * (x > 0) in ReLU.infer")
    return result
