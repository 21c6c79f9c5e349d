"""``python -m repro.training.bench`` — the gated secure-training harness.

Runs the full secure-online-training pipeline (DynamicBatcher lookahead ->
batched lookahead ORAM -> repro.nn autograd -> oblivious gradient
write-back) for Path *and* Circuit ORAM tables, each in two arms: the
batched lookahead mode and the value-identical sequential fallback. Seven
gates with teeth:

* **loss_decrease** — the CTR loss goes down over the run (tail-window
  mean below head-window mean) for both schemes: the gradients really do
  flow through the ORAM and back;
* **posmap_amortization** — the batched position-map pass cuts
  position-map memory operations per access by >= 1.5x at batch 16
  (measured: 16x — one oblivious full-map pass per batch instead of one
  per access);
* **bucket_io_amortization** — shared path fetches cut bucket I/O per
  access (Path >= 1.3x from the union fetch; Circuit >= 1.05x — its reads
  are single-block so only the fetch sweep dedups);
* **value_parity** — the batched arm's per-step losses and final table
  contents are *bit-identical* to the sequential arm's, for both schemes;
* **audit_exact** — the batched decision traces replay byte-identical
  across contrasting secret batches
  (:class:`~repro.telemetry.audit.LeakageAuditor` exact mode);
* **audit_structural** — the raw tree/stash/posmap memory traces are
  structurally equivalent across the same contrasting batches;
* **leak_detector_teeth** — the in-tree
  :class:`~repro.oram.lookahead.SequentialLeakingBatcher` negative
  control (trace length follows index multiplicity) is flagged.

The JSON report contains only seed-determined quantities — two runs with
the same seed produce byte-identical files (CI ``cmp``-gates this);
batched-vs-sequential wall clock is measured by ``bench/`` (the
``lookahead.seq_ratio`` row, see ``bench/README.md``).
"""

from __future__ import annotations

import functools
from typing import Dict

import numpy as np

from repro.experiments import ExperimentResult, gated
from repro.oram.lookahead import contrasting_batches, lookahead_subjects
from repro.telemetry.audit import LeakageAuditor
from repro.training.loop import TrainingConfig, TrainingLoop, TrainingReport

STEPS = 16
BATCH = 16
SCHEMES = ("path", "circuit")
#: minimum batched-over-sequential reduction factors at batch 16
POSMAP_AMORTIZATION_MIN = 1.5
BUCKET_IO_AMORTIZATION_MIN = {"path": 1.3, "circuit": 1.05}

_PLAN_SUBJECTS = ("path-lookahead-plan", "circuit-lookahead-plan")
_MEMORY_SUBJECTS = ("path-lookahead-memory", "circuit-lookahead-memory")
_LEAKY_SUBJECT = "sequential-leaking-batcher"


def _run_arm(scheme: str, batched: bool, seed: int) -> tuple:
    loop = TrainingLoop(TrainingConfig(steps=STEPS, batch_size=BATCH,
                                       scheme=scheme, batched=batched),
                        seed=seed)
    return loop.run(), loop.table_weights()


def _arm_summary(report: TrainingReport) -> Dict[str, object]:
    first, last = report.loss_window_means()
    return {
        "first_window_loss": first,
        "last_window_loss": last,
        "losses": report.losses,
        "total_accesses": report.total_accesses(),
        "posmap_ops_per_access": report.posmap_ops_per_access(),
        "bucket_io_per_access": report.bucket_io_per_access(),
        "stash_high_water": report.stash_high_water(),
    }


def run_bench(seed: int = 0) -> Dict[str, object]:
    """Both schemes x both arms + the leakage audit; seed-deterministic."""
    schemes: Dict[str, Dict[str, object]] = {}
    loss_ok = True
    posmap_ok = True
    bucket_ok = True
    parity_ok = True
    for scheme in SCHEMES:
        batched_report, batched_weights = _run_arm(scheme, True, seed)
        seq_report, seq_weights = _run_arm(scheme, False, seed)

        first, last = batched_report.loss_window_means()
        loss_ok = loss_ok and last < first

        posmap_ratio = (seq_report.posmap_ops_per_access()
                        / batched_report.posmap_ops_per_access())
        posmap_ok = posmap_ok and posmap_ratio >= POSMAP_AMORTIZATION_MIN
        bucket_ratio = (seq_report.bucket_io_per_access()
                        / batched_report.bucket_io_per_access())
        bucket_ok = bucket_ok and (
            bucket_ratio >= BUCKET_IO_AMORTIZATION_MIN[scheme])

        same_losses = batched_report.losses == seq_report.losses
        same_weights = all(
            np.array_equal(a, b)
            for a, b in zip(batched_weights, seq_weights))
        parity_ok = parity_ok and same_losses and same_weights

        schemes[scheme] = {
            "batched": _arm_summary(batched_report),
            "sequential": _arm_summary(seq_report),
            "posmap_amortization": posmap_ratio,
            "bucket_io_amortization": bucket_ratio,
            "value_parity": bool(same_losses and same_weights),
        }

    # --- leakage audit + negative-control teeth --------------------------
    auditor = LeakageAuditor()
    audit_report = auditor.run(lookahead_subjects(batch_size=BATCH,
                                                  seed=seed))
    exact_ok = all(audit_report.finding(name).passed
                   for name in _PLAN_SUBJECTS)
    structural_ok = all(audit_report.finding(name).passed
                        for name in _MEMORY_SUBJECTS)
    teeth_ok = audit_report.finding(_LEAKY_SUBJECT).leak_detected

    gates = gated.gate_dict(
        loss_decrease=loss_ok,
        posmap_amortization=posmap_ok,
        bucket_io_amortization=bucket_ok,
        value_parity=parity_ok,
        audit_exact=exact_ok,
        audit_structural=structural_ok,
        leak_detector_teeth=teeth_ok,
    )

    return {
        "seed": seed,
        "steps": STEPS,
        "batch_size": BATCH,
        "schemes": schemes,
        "posmap_amortization_min": POSMAP_AMORTIZATION_MIN,
        "bucket_io_amortization_min": dict(BUCKET_IO_AMORTIZATION_MIN),
        "contrasting_batches": [
            [[int(v) for v in batch] for batch in secret]
            for secret in contrasting_batches(32, batch_size=BATCH)],
        "audit": audit_report.to_dict(),
        "gates": gates,
    }


def tabulate(report: Dict[str, object]) -> ExperimentResult:
    """Per-scheme, per-arm loss trajectory and amortization factors."""
    result = ExperimentResult(
        experiment_id="train",
        title=f"secure online training (seed={report['seed']}, "
              f"{report['steps']} steps x batch {report['batch_size']})",
        headers=("scheme", "arm", "loss_first", "loss_last",
                 "posmap_ops/acc", "bucket_io/acc", "stash_hw"),
    )
    for scheme, data in report["schemes"].items():
        for arm in ("batched", "sequential"):
            summary = data[arm]
            result.add_row(
                scheme, arm,
                f"{summary['first_window_loss']:.4f}",
                f"{summary['last_window_loss']:.4f}",
                f"{summary['posmap_ops_per_access']:.1f}",
                f"{summary['bucket_io_per_access']:.2f}",
                summary["stash_high_water"])
    amortization = ", ".join(
        f"{scheme} posmap x{data['posmap_amortization']:.2f} "
        f"bucket-io x{data['bucket_io_amortization']:.2f}"
        for scheme, data in report["schemes"].items())
    result.notes = (
        f"amortization at batch {report['batch_size']}: {amortization}; "
        f"gates: {gated.verdicts(report['gates'])}; "
        "the batched arm is bit-identical in losses and final table "
        "contents to the sequential arm, and gradient write-backs ride "
        "the same audited lookahead batch as the forward reads")
    return result


BENCH = gated.GatedBench(
    id="train",
    description="Secure online training over batched lookahead ORAM: "
                "loss, amortization, parity, and leakage gates.",
    run=run_bench,
    tabulate=tabulate,
)

main = functools.partial(gated.main, BENCH)


if __name__ == "__main__":
    raise SystemExit(main())
