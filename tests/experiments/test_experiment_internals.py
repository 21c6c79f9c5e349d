"""Unit tests for experiment-module internals and the CLI."""

import pytest

from repro.experiments.fig05_llm_latency import GPT2_VOCAB, llm_dhe_shape
from repro.experiments.fig11_threshold_sweep import (
    MLP_OVERHEAD_SECONDS,
    embedding_latency_for_split,
)
from repro.experiments.table06_footprint import dataset_report
from repro.experiments.table07_e2e_latency import dataset_latencies
from repro.data import KAGGLE_SPEC


class TestLlmDheShape:
    def test_paper_sizing_rule(self):
        """§VI-A3: k and internal FCs are 2x the embedding dimension."""
        shape = llm_dhe_shape(1024)
        assert shape.k == 2048
        assert shape.fc_sizes == (2048, 2048, 2048)
        assert shape.out_dim == 1024

    def test_gpt2_vocab_constant(self):
        assert GPT2_VOCAB == 50257


class TestSplitLatency:
    def test_zero_scan_is_all_dhe(self):
        from repro.costmodel import DLRM_DHE_UNIFORM_16, dhe_latency, \
            dhe_varied_shape

        sizes = sorted(KAGGLE_SPEC.table_sizes)
        total = embedding_latency_for_split(sizes, 0, DLRM_DHE_UNIFORM_16,
                                            batch=32, threads=1)
        expected = sum(dhe_latency(dhe_varied_shape(s, DLRM_DHE_UNIFORM_16),
                                   32, 1) for s in sizes)
        assert total == pytest.approx(expected)

    def test_full_scan_is_all_scan(self):
        from repro.costmodel import DLRM_DHE_UNIFORM_16, linear_scan_latency

        sizes = sorted(KAGGLE_SPEC.table_sizes)
        total = embedding_latency_for_split(sizes, len(sizes),
                                            DLRM_DHE_UNIFORM_16, 32, 1)
        expected = sum(linear_scan_latency(s, 16, 32, 1) for s in sizes)
        assert total == pytest.approx(expected)


class TestDatasetHelpers:
    def test_table7_latency_keys(self):
        latencies = dataset_latencies(KAGGLE_SPEC)
        assert set(latencies) == {
            "index_lookup", "linear_scan", "path_oram", "circuit_oram",
            "dhe_uniform", "dhe_varied", "hybrid_uniform", "hybrid_varied"}
        assert all(value > MLP_OVERHEAD_SECONDS * 0.99
                   for value in latencies.values())

    def test_table6_report_consistent(self):
        report = dataset_report(KAGGLE_SPEC)
        assert report.hybrid_varied <= report.dhe_uniform
        assert report.tree_oram > report.table


class TestRegistryCli:
    def test_main_prints_tables(self, capsys):
        from repro.experiments.registry import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "linear scan" in out

    def test_main_unknown_id_raises(self):
        from repro.experiments.registry import main

        with pytest.raises(KeyError):
            main(["fig99"])


class TestDramRowBufferChannel:
    """§III-A2 also cites the DRAM row-buffer channel: identical mechanics
    at 8 KiB granularity. The page-fault observer generalises directly."""

    @staticmethod
    def attacker(page_size):
        from repro.sidechannel import (
            ControlledChannelAttacker,
            PageFaultObserver,
            TraceVictim,
        )

        observer = PageFaultObserver(page_size=page_size)
        return ControlledChannelAttacker(observer, TraceVictim.of_technique(
            "lookup", observer.touch, num_rows=4096))

    def test_row_buffer_granularity(self):
        low, high = self.attacker(8192).observe_lookup(1234)  # one DRAM row
        assert low <= 1234 < high
        # 8 KiB / 256 B rows = 32 candidates per DRAM row (+ straddle).
        assert high - low <= 2 * 8192 // 256 + 1

    def test_coarser_channel_leaves_more_candidates(self):
        assert self.attacker(65536).candidates_after_lookup(1000) > \
            self.attacker(4096).candidates_after_lookup(1000)
