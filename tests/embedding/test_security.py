"""Trace-obliviousness of every secure generator; leakiness of the table.

These are the paper's Table II claims, checked at trace granularity by the
one judge (:class:`repro.telemetry.audit.LeakageAuditor`).
"""

import numpy as np
import pytest

from repro.embedding.dhe import DHEEmbedding
from repro.embedding.scan import LinearScanEmbedding
from repro.embedding.table import TableEmbedding
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.telemetry.audit import (
    MODE_STRUCTURAL,
    AuditSubject,
    LeakageAuditor,
)

N, D = 30, 4
SECRETS = [[0], [7], [15], [29]]


def traced(generator):
    """Replay ``generator.generate_traced`` as an audit runner."""
    return lambda tracer, secret: generator.generate_traced(
        np.asarray(secret), tracer)


def oram_subject(oram_class):
    def run(tracer, secret):
        oram = oram_class(N, D, rng=99, tracer=tracer)
        tracer.clear()
        for block in secret:
            oram.read(block)

    return AuditSubject(oram_class.__name__, run, SECRETS,
                        mode=MODE_STRUCTURAL)


class TestLinearScanOblivious:
    def test_single_lookup(self, rng):
        scan = LinearScanEmbedding(N, D, weight=rng.normal(size=(N, D)))
        finding = LeakageAuditor().require(
            AuditSubject("scan", traced(scan), SECRETS))
        assert finding.exact_equivalent and finding.trace_length == N

    def test_batch_lookup(self, rng):
        scan = LinearScanEmbedding(N, D, weight=rng.normal(size=(N, D)))
        finding = LeakageAuditor().require(AuditSubject(
            "scan-batch", traced(scan),
            [[0, 1, 2], [29, 29, 29], [5, 20, 11]]))
        assert finding.exact_equivalent and finding.trace_length == 3 * N


class TestTableLeaks:
    def test_lookup_trace_reveals_index(self):
        finding = LeakageAuditor().audit(AuditSubject(
            "table", traced(TableEmbedding(N, D, rng=0)), SECRETS,
            expect_oblivious=False))
        assert finding.passed and finding.leak_detected
        assert finding.first_divergence.observed == ("R", "table", 7)


class TestDheOblivious:
    def test_hash_encoding_identical_operations(self):
        """DHE's encode is pure arithmetic and its decoder sweeps every
        weight row in an order fixed by the shapes alone: the recorded
        trace is identical for any secret."""
        dhe = DHEEmbedding(N, D, k=8, fc_sizes=(8,), rng=0)
        finding = LeakageAuditor().require(
            AuditSubject("dhe", traced(dhe), SECRETS))
        assert finding.exact_equivalent and finding.trace_length > 0

    def test_no_index_dependent_gather_in_forward(self):
        """DHE never touches a table: its module holds no (N x D) state."""
        dhe = DHEEmbedding(N, D, k=8, fc_sizes=(8,), rng=0)
        for name, param in dhe.named_parameters():
            assert param.shape[0] != N or param.shape == (N,), name


class TestOramDistributional:
    @pytest.mark.parametrize("oram_class", [PathORAM, CircuitORAM],
                             ids=["path", "circuit"])
    def test_trace_structure_constant_across_secrets(self, oram_class):
        finding = LeakageAuditor().audit(oram_subject(oram_class))
        assert finding.trace_equivalent
        assert not finding.exact_equivalent  # the addresses are remapped

    @pytest.mark.parametrize("oram_class", [PathORAM, CircuitORAM],
                             ids=["path", "circuit"])
    def test_event_count_constant_across_secrets(self, oram_class):
        finding = LeakageAuditor().audit(oram_subject(oram_class))
        assert finding.first_divergence is None  # no trace ended early
        assert finding.trace_length > 0
