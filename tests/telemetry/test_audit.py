"""The leakage auditor: the paper's security claim as a runnable gate."""

import json

import pytest

from repro.oblivious.trace import AccessEvent
from repro.telemetry.audit import (
    AuditSubject,
    LeakageAuditor,
    MODE_EXACT,
    MODE_STRUCTURAL,
    histogram_divergence,
    main,
    standard_audit,
    standard_subjects,
    total_variation,
    trace_structure,
)
from repro.telemetry.metrics import MetricsRegistry


def event(op, region, address):
    return AccessEvent(op=op, region=region, address=address)


class TestTraceMath:
    def test_trace_structure_erases_addresses(self):
        trace = [event("read", "table", 3), event("write", "stash", 9)]
        assert trace_structure(trace) == [("read", "table"),
                                          ("write", "stash")]

    def test_total_variation_bounds(self):
        assert total_variation({}, {}) == 0.0
        assert total_variation({1: 4}, {}) == 1.0
        assert total_variation({1: 2}, {1: 7}) == 0.0
        assert total_variation({1: 1}, {2: 1}) == 1.0
        assert total_variation({1: 1, 2: 1}, {1: 1}) == pytest.approx(0.5)

    def test_histogram_divergence_worst_region(self):
        same = [event("read", "a", 0)]
        shifted = [event("read", "a", 1)]
        assert histogram_divergence([same, same]) == 0.0
        assert histogram_divergence([same, shifted]) == 1.0
        assert histogram_divergence([same, same, shifted]) == 1.0

    def test_divergence_sees_missing_region(self):
        with_b = [event("read", "a", 0), event("read", "b", 0)]
        without_b = [event("read", "a", 0)]
        assert histogram_divergence([with_b, without_b]) == 1.0


class TestAuditSubject:
    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            AuditSubject("x", lambda t, s: None, [[0], [1]], mode="fuzzy")

    def test_needs_two_secrets(self):
        with pytest.raises(ValueError, match=">= 2 secrets"):
            AuditSubject("x", lambda t, s: None, [[0]])


class TestLeakageAuditor:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            LeakageAuditor(divergence_threshold=1.5)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            LeakageAuditor(registry=MetricsRegistry()).run([])

    def test_oblivious_subject_passes(self):
        def run(tracer, secret):
            for address in range(4):  # secret-independent sweep
                tracer.record("read", "table", address)

        registry = MetricsRegistry()
        auditor = LeakageAuditor(registry=registry)
        finding = auditor.audit(AuditSubject("sweep", run, [[0], [3]]))
        assert finding.passed and not finding.leak_detected
        assert finding.exact_equivalent and finding.divergence == 0.0
        assert registry.counter("audit.subjects_total").value == 1.0
        assert registry.counter("audit.leaks_detected_total").value == 0.0

    def test_leaky_subject_detected(self):
        def run(tracer, secret):
            for index in secret:  # addresses are the secret
                tracer.record("read", "table", int(index))

        registry = MetricsRegistry()
        auditor = LeakageAuditor(registry=registry)
        subject = AuditSubject("leaky", run, [[0, 0], [3, 3]],
                               expect_oblivious=False)
        finding = auditor.audit(subject)
        assert finding.leak_detected and finding.passed
        assert finding.divergence == pytest.approx(1.0)
        # same subject expected oblivious -> audit failure
        bad = AuditSubject("leaky", run, [[0, 0], [3, 3]])
        assert not auditor.audit(bad).passed
        assert registry.counter("audit.failures_total").value == 1.0

    def test_untraced_oram_replay_is_rejected_not_passed(self):
        """An ORAM replayed without ``tracer=`` records nothing under any
        secret; that used to audit as ``passed=True, trace_length=0``."""
        from repro.oram.path_oram import PathORAM

        def run(tracer, secret):
            oram = PathORAM(16, 4, rng=0)  # tracer not attached
            for block in secret:
                oram.read(block)

        registry = MetricsRegistry()
        subject = AuditSubject("unwired-oram", run, [[0, 0], [15, 15]],
                               mode=MODE_STRUCTURAL)
        with pytest.raises(ValueError, match="'unwired-oram' recorded no"):
            LeakageAuditor(registry=registry).audit(subject)
        assert registry.counter("audit.subjects_total").value == 0.0

    def test_one_silent_secret_is_a_divergence_not_an_error(self):
        def run(tracer, secret):
            for index in secret:
                tracer.record("read", "table", 0)

        finding = LeakageAuditor(registry=MetricsRegistry()).audit(
            AuditSubject("sometimes-silent", run, [[], [1]],
                         expect_oblivious=False))
        assert finding.leak_detected and finding.passed

    def test_structural_mode_tolerates_randomised_addresses(self):
        def run(tracer, secret):
            # same (op, region) shape, secret-dependent addresses but
            # heavily overlapping histograms
            for index in secret:
                tracer.record("read", "tree", int(index) % 2)

        subject = AuditSubject("randomised", run,
                               [[0, 1, 0, 1], [1, 0, 1, 0]],
                               mode=MODE_STRUCTURAL)
        finding = LeakageAuditor(registry=MetricsRegistry()).audit(subject)
        assert finding.trace_equivalent and not finding.exact_equivalent
        assert finding.passed


class TestStandardAudit:
    def test_every_expectation_holds(self):
        registry = MetricsRegistry()
        report = standard_audit(registry=registry, sequence_length=8)
        assert report.passed
        names = [f.subject for f in report.findings]
        assert names == ["linear-scan", "path-oram", "circuit-oram",
                         "sqrt-oram", "dhe", "table-lookup"]
        assert registry.gauge("audit.last_run_passed").value == 1.0

    def test_deterministic_defences_exactly_equivalent(self):
        report = standard_audit(registry=MetricsRegistry(),
                                sequence_length=8)
        for name in ("linear-scan", "dhe"):
            finding = report.finding(name)
            assert finding.mode == MODE_EXACT
            assert finding.exact_equivalent
            assert finding.divergence == 0.0

    def test_orams_structural_within_budget(self):
        report = standard_audit(registry=MetricsRegistry(),
                                sequence_length=8)
        for name in ("path-oram", "circuit-oram", "sqrt-oram"):
            finding = report.finding(name)
            assert finding.mode == MODE_STRUCTURAL
            assert finding.trace_equivalent
            assert not finding.exact_equivalent  # randomised paths differ
            assert finding.divergence < 0.5

    @pytest.mark.parametrize("seed", [9, 10, 11, 13])
    def test_path_oram_trace_length_ignores_stash_overflow(self, seed):
        """Regression: the write-back took every eligible block and re-added
        the overflow one stash scan apiece, so at 64 rows the trace *length*
        followed the secret-dependent overflow count on these seeds."""
        subject = next(
            s for s in standard_subjects(num_embeddings=64, embedding_dim=16,
                                         seed=seed)
            if s.name == "path-oram")
        finding = LeakageAuditor(registry=MetricsRegistry()).audit(subject)
        assert finding.trace_equivalent
        assert finding.first_divergence is None

    def test_table_lookup_flagged(self):
        report = standard_audit(registry=MetricsRegistry(),
                                sequence_length=8)
        finding = report.finding("table-lookup")
        assert finding.leak_detected
        assert finding.divergence == pytest.approx(1.0)
        assert finding.passed  # the leak was expected

    def test_render_and_finding_lookup(self):
        report = standard_audit(registry=MetricsRegistry(),
                                sequence_length=8)
        text = report.render()
        assert "overall: PASS" in text
        assert "LEAK" in text  # the table lookup row
        with pytest.raises(KeyError):
            report.finding("nope")

    def test_subject_kwargs_shrink_workload(self):
        subjects = standard_subjects(num_embeddings=8, sequence_length=4)
        assert all(len(secret) == 4
                   for subject in subjects for secret in subject.secrets)


class TestCli:
    def test_main_passes_and_writes_json(self, tmp_path, capsys):
        path = tmp_path / "audit.json"
        exit_code = main(["--json", str(path), "--length", "6"])
        assert exit_code == 0
        assert "overall: PASS" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["audit"]["passed"] is True
        assert len(payload["audit"]["findings"]) == 6
        assert payload["counters"]["audit.subjects_total"] == 6.0
