"""Registry wiring + the paper-shape assertions of every modelled experiment.

Each table/figure runs through ``run_experiment`` (reduced parameters where
a claim needs only a corner of the grid, defaults where it needs the whole
sweep) and its paper claim is asserted. The training-based ones (Table V,
Fig 14) live in ``test_training_experiments.py``; ``python -m
repro.experiments.registry <ids> --json PATH`` archives the rendered tables.
"""

import numpy as np
import pytest

from repro.experiments.registry import (
    EXPERIMENTS,
    list_experiments,
    main,
    run_experiment,
)

ALL_IDS = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
           "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table1",
           "table2", "table5", "table6", "table7", "table8",
           "llm-footprint", "autoscale", "cache", "chaos", "cluster",
           "migrate", "train", "llm"}


class TestRegistry:
    def test_every_table_and_figure_registered(self):
        assert set(EXPERIMENTS) == ALL_IDS

    def test_list_sorted(self):
        assert list_experiments() == sorted(ALL_IDS)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_runs_tagged_in_telemetry(self):
        from repro.telemetry.runtime import use_registry

        with use_registry() as registry:
            run_experiment("fig2")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["experiments.runs_total"] == 1.0
        assert snapshot["counters"]["experiments.fig2.runs_total"] == 1.0
        assert "span.experiment.run.seconds" in snapshot["histograms"]


class TestCli:
    def test_json_dump_bundles_results_and_telemetry(self, tmp_path,
                                                     capsys):
        import json

        path = tmp_path / "run.json"
        assert main(["fig2", "--json", str(path)]) == 0
        assert "fig2" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        (result,) = payload["results"]
        assert result["experiment_id"] == "fig2"
        assert result["headers"] and result["rows"]
        assert payload["counters"]["experiments.fig2.runs_total"] == 1.0
        assert payload["spans"]["recorded"] >= 1

    def test_cli_does_not_clobber_global_registry(self, tmp_path, capsys):
        from repro.telemetry.runtime import get_registry

        before = get_registry()
        main(["fig2", "--json", str(tmp_path / "run.json")])
        capsys.readouterr()
        assert get_registry() is before


class TestFig2:
    def test_taxonomy_trade_off(self):
        result = run_experiment("fig2")
        rows = {row[0]: dict(zip(result.headers, row)) for row in result.rows}
        # Storage: fast & big; computation: slower & tiny (Fig 2's trade-off).
        assert rows["table lookup"]["normalized_latency"] == 1.0
        assert rows["DHE"]["normalized_latency"] > 10
        assert rows["DHE"]["memory_mb"] < 0.05 * rows["table lookup"]["memory_mb"]
        assert rows["DHE"]["secure"] == "yes"
        assert rows["table lookup"]["secure"] == "no"


class TestTable2:
    def test_security_matrix_verdicts(self):
        result = run_experiment("table2")
        verdicts = dict(zip(result.column("technique"),
                            result.column("secret_dependent_data_access")))
        assert "NOT protected" in verdicts["Table: non-secure"]
        for technique in ("Table: ORAM", "Table: Linear Scan", "DHE (hash)"):
            assert "protected" in verdicts[technique]
            assert "NOT" not in verdicts[technique]


    def test_data_access_column_is_the_audit_finding(self):
        """Every verdict, DHE's included, is rendered from the technique's
        ``AuditFinding`` — a leak in any row reads NOT protected."""
        from repro.experiments.table02_security import (
            N,
            D,
            data_access_verdict,
        )
        from repro.telemetry.audit import LeakageAuditor, technique_subject

        auditor = LeakageAuditor()
        dhe = auditor.audit(technique_subject("dhe", N, D))
        assert data_access_verdict(dhe) == (
            f"protected (identical traces: {dhe.trace_length} events x 3 "
            "secrets)")
        assert dhe.trace_length > 0
        verdicts = dict(zip(run_experiment("table2").column("technique"),
                            run_experiment("table2").column(
                                "secret_dependent_data_access")))
        assert verdicts["DHE (hash)"] == data_access_verdict(dhe)
        leaky = auditor.audit(technique_subject("lookup", N, D))
        assert data_access_verdict(leaky).startswith("NOT protected")


@pytest.mark.parametrize("row, technique, module, name", [
    pytest.param("Table: ORAM", "circuit-oram", "repro.oram.position_map",
                 "ct_eq", id="oram"),
    pytest.param("Table: Linear Scan", "scan", "repro.embedding.scan",
                 "linear_scan_batch_vectorized", id="scan"),
    pytest.param("DHE (FC)", "dhe", "repro.nn.layers", "ReLU.infer",
                 id="dhe-fc"),
])
def test_table2_control_flow_cells_name_called_code(row, technique, module,
                                                    name, monkeypatch):
    """A re-worded control-flow cell names a function (``module.name``),
    and replaying the row's ``technique_subject`` calls that function."""
    import importlib

    from repro.experiments.table02_security import D, N
    from repro.oblivious.trace import MemoryTracer
    from repro.telemetry.audit import technique_subject

    result = run_experiment("table2")
    cells = dict(zip(result.column("technique"),
                     result.column("secret_dependent_control_flow")))
    assert name in cells[row]
    owner = importlib.import_module(module)
    *parents, attribute = name.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    original = getattr(owner, attribute)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counted)
    subject = technique_subject(technique, N, D)
    subject.run(MemoryTracer(), subject.secrets[0])
    assert calls


class TestFig3:
    def test_attack_succeeds_and_defence_flattens(self):
        result = run_experiment("fig3", repeats=3)
        assert "SUCCESS" in result.notes
        vulnerable = result.column("latency_vulnerable_cycles")[:25]
        assert max(vulnerable) > 2 * sorted(vulnerable)[-2]
        # The victim's set stands out by the miss/hit gap; the linear-scan
        # defence flattens the probe latencies.
        assert max(vulnerable) - sorted(vulnerable)[-2] > 100
        protected = result.column("latency_linear_scan_cycles")[:25]
        assert max(protected) - min(protected) < 10

    def test_index_recovery_accuracy_per_technique(self):
        """One row per standing technique: the attacker run against the
        real generator recovers the table lookup's index and is at chance
        (1 of 25 monitored indices) against every protected technique."""
        result = run_experiment("fig3", repeats=1)
        accuracy = dict(zip(result.column("eviction_set")[25:],
                            result.column("index_recovery_accuracy")[25:]))
        assert accuracy.pop("table-lookup") >= 0.95
        assert accuracy == {name: 1 / 25 for name in (
            "linear-scan", "path-oram", "circuit-oram", "sqrt-oram", "dhe")}


class TestFig4:
    def test_paper_shape(self):
        result = run_experiment("fig4", dims=(64,),
                                sizes=(100, 10_000, 10_000_000))
        scan = result.column("linear_scan_ms")
        dhe = result.column("dhe_uniform_ms")
        circuit = result.column("circuit_oram_ms")
        # Small table: scan wins; large: scan loses to everything.
        assert scan[0] < dhe[0] and scan[0] < circuit[0]
        assert scan[-1] > dhe[-1] and scan[-1] > circuit[-1]
        # DHE Uniform flat across sizes.
        assert dhe[0] == dhe[-1]

    def test_circuit_beats_path_at_every_size(self):
        result = run_experiment("fig4")
        circuit = result.column("circuit_oram_ms")
        path = result.column("path_oram_ms")
        scan = result.column("linear_scan_ms")
        assert all(c < p for c, p in zip(circuit, path))
        assert scan[0] < path[0] and scan[-1] > path[-1]


class TestFig5:
    def test_dhe_wins_large_batches(self):
        result = run_experiment("fig5", dims=(1024,), batches=(1, 256))
        rows = {(r[0], r[1]): r for r in result.rows}
        headers = list(result.headers)
        circuit = headers.index("circuit_oram_ms")
        dhe = headers.index("dhe_ms")
        large = rows[(1024, 256)]
        assert large[dhe] < large[circuit]

    def test_prefill_favours_dhe_decode_at_large_dim_favours_circuit(self):
        result = run_experiment("fig5")
        rows = {(r[0], r[1]): dict(zip(result.headers, r))
                for r in result.rows}
        # Prefill-scale batches: DHE best secure option at GPT-2's dim.
        big = rows[(1024, 3072)]
        assert big["dhe_ms"] < big["circuit_oram_ms"] < big["path_oram_ms"]
        # Decode-scale batch at large dims: Circuit ORAM competitive (the
        # motivation for the LLM dual representation).
        small = rows[(8192, 1)]
        assert small["circuit_oram_ms"] < small["dhe_ms"]


class TestFig6:
    def test_threshold_trends(self):
        result = run_experiment("fig6", batches=(1, 128),
                                threads_list=(1, 16))
        values = {(b, t): v for b, t, v in result.rows}
        assert values[(128, 1)] < values[(1, 1)]
        assert values[(1, 16)] > values[(1, 1)]

    def test_paper_anchor_and_monotone_grid(self):
        result = run_experiment("fig6")
        values = {(b, t): v for b, t, v in result.rows}
        assert 2000 < values[(32, 1)] < 5000  # paper: ~3300 rows
        for threads in (1, 16):
            assert values[(1, threads)] > values[(32, threads)] \
                > values[(128, threads)]
        for batch in (1, 32, 128):
            assert values[(batch, 16)] > values[(batch, 1)]


class TestFig7:
    def test_allocation_bands(self):
        result = run_experiment("fig7")
        by_dataset = {row[0]: dict(zip(result.headers, row))
                      for row in result.rows}
        for stats in by_dataset.values():
            assert stats["always_scan"] + stats["hybrid_eligible"] \
                + stats["always_dhe"] == 26
            # Paper: only a handful of tables are configuration-sensitive.
            assert 1 <= stats["hybrid_eligible"] <= 8
        # Kaggle's big tables always use DHE (paper: 7); Terabyte 9-11.
        assert by_dataset["criteo-kaggle"]["always_dhe"] >= 6
        assert by_dataset["criteo-terabyte"]["always_dhe"] >= 8


class TestFig8:
    def test_colocation_inflates_scan_more_than_dhe(self):
        result = run_experiment("fig8")
        scan = result.column("scan_ms")
        dhe = result.column("dhe_ms")
        for series in (scan, dhe, result.column("circuit_oram_ms")):
            assert all(a <= b * 1.001 for a, b in zip(series, series[1:]))
        assert scan[-1] / scan[0] > dhe[-1] / dhe[0]


class TestFig9:
    def test_mixed_allocation_sweep(self):
        from repro.experiments.fig09_allocation_sweep import \
            colocated_crossover

        rows = {row[0]: row[1:] for row in run_experiment("fig9").rows}
        # Small tables: all-scan (first column) beats all-DHE (last).
        assert rows[1000][0] < rows[1000][-1]
        # Large tables: all-DHE wins.
        assert rows[1_000_000][-1] < rows[1_000_000][0]
        # Paper: co-located crossover ~4500, near the single-model 3300.
        assert 1500 < colocated_crossover() < 20_000


class TestFig10:
    def test_optimizations_reduce_latency(self):
        result = run_experiment("fig10", sizes=(1_000_000,))
        for row in result.rows:
            original, gramine, opt = row[2:]
            assert original > gramine > opt
        # Paper: the Gramine step helps Circuit (60%) more than Path (20%).
        by_scheme = {row[1]: row for row in result.rows}
        assert (by_scheme["circuit"][2] / by_scheme["circuit"][3]
                > by_scheme["path"][2] / by_scheme["path"][3])


class TestFig11:
    def test_profiled_split_near_optimal(self):
        result = run_experiment("fig11")
        latencies = result.column("latency_ms")
        flags = result.column("is_profiled_split")
        best = int(np.argmin(latencies))
        profiled = flags.index("<-- profiled")
        assert abs(best - profiled) <= 1  # paper: within +-1 table
        # The sweep spans orders of magnitude (all-scan is catastrophic).
        assert max(latencies) > 50 * min(latencies)


class TestFig12:
    def test_hybrid_advantage_grows_with_batch(self):
        result = run_experiment("fig12", batches=(8, 128))
        speedups = result.column("hybrid_speedup_vs_circuit")
        # per dataset: later batch's speed-up exceeds earlier
        assert speedups[1] > speedups[0]
        assert speedups[3] > speedups[2]

    def test_speedup_over_circuit_passes_2x_at_batch_128(self):
        result = run_experiment("fig12")
        by_key = {(row[0], row[1]): dict(zip(result.headers, row))
                  for row in result.rows}
        for dataset in ("criteo-kaggle", "criteo-terabyte"):
            speedups = [by_key[(dataset, batch)]["hybrid_speedup_vs_circuit"]
                        for batch in (1, 8, 32, 128)]
            assert speedups[-1] > speedups[1] > speedups[0]
            assert speedups[-1] > 2.0  # paper: 2.61x / 3.08x


class TestFig13:
    """§VI-B3: under the 20 ms SLA the hybrid sustains more throughput."""

    @staticmethod
    def best_under_sla(result, technique):
        return max(tp for latency, tp in
                   zip(result.column(f"{technique}_ms"),
                       result.column(f"{technique}_ips"))
                   if latency <= 20.0)

    def test_hybrid_beats_all_dhe_under_the_sla(self):
        result = run_experiment("fig13")
        assert "Hybrid" in result.notes
        assert (self.best_under_sla(result, "hybrid_varied")
                > self.best_under_sla(result, "dhe_varied"))  # paper: 1.4x

    def test_kaggle_variant(self):
        from repro.data import KAGGLE_SPEC

        assert "Hybrid" in run_experiment("fig13", spec=KAGGLE_SPEC).notes


class TestTable7:
    def test_paper_ordering(self):
        result = run_experiment("table7")
        for dataset in ("kaggle", "terabyte"):
            latencies = dict(zip(result.column("technique"),
                                 result.column(f"{dataset}_ms")))
            assert latencies["index_lookup"] < latencies["hybrid_varied"]
            assert latencies["hybrid_varied"] < latencies["circuit_oram"]
            assert latencies["circuit_oram"] < latencies["path_oram"]
            assert latencies["path_oram"] < latencies["linear_scan"]

    def test_hybrid_speedup_in_paper_range(self):
        result = run_experiment("table7")
        for dataset in ("kaggle", "terabyte"):  # paper: 2.01x / 2.28x
            speedups = dict(zip(result.column("technique"),
                                result.column(f"{dataset}_vs_circuit")))
            assert 1.5 < speedups["hybrid_varied"] < 4.5


class TestTable6:
    def test_footprint_story(self):
        result = run_experiment("table6")
        for dataset in ("kaggle", "terabyte"):
            pct = dict(zip(result.column("representation"),
                           result.column(f"{dataset}_pct")))
            assert 250 < pct["tree_oram"] < 450  # paper: ~330%
            assert pct["dhe_varied"] < 5 and pct["dhe_uniform"] < 5
            assert pct["hybrid_varied"] <= pct["dhe_uniform"]
        # Paper: reduction vs Tree-ORAM reaches 100x+ (Kaggle) / 1000x+ (TB).
        for dataset, floor in (("kaggle", 100), ("terabyte", 500)):
            mb = dict(zip(result.column("representation"),
                          result.column(f"{dataset}_mb")))
            assert mb["tree_oram"] / mb["hybrid_varied"] > floor


class TestTable8:
    def test_meta_scale_story(self):
        result = run_experiment("table8")
        memory = dict(zip(result.column("technique"),
                          result.column("memory_mb")))
        speedup = dict(zip(result.column("technique"),
                           result.column("vs_circuit")))
        # paper: hybrid varied 2.4x faster, >2500x smaller than tables
        assert 1.5 < speedup["hybrid_varied"] < 4.0
        assert memory["index_lookup"] / memory["hybrid_varied"] > 250
        latency = dict(zip(result.column("technique"),
                           result.column("latency_ms")))
        assert 500 < latency["circuit_oram"] < 3000  # paper: ~1.3 s
        # Paper: tables ~910 GB, ORAM ~3 TB; only the hybrid fits the
        # 64 GB EPC.
        assert memory["path_oram"] > 2.5 * memory["index_lookup"]
        epc_mb = 64 * 1024
        assert memory["hybrid_varied"] < epc_mb < memory["circuit_oram"]


class TestFig15:
    def test_llm_story(self):
        result = run_experiment("fig15", batches=(1, 12))
        rows = {(r[0], r[1]): dict(zip(result.headers, r))
                for r in result.rows}
        # DHE beats circuit on prefill at every batch size.
        assert rows[(1, "prefill")]["dhe_vs_circuit"] > 1.0
        assert rows[(12, "prefill")]["dhe_vs_circuit"] > 1.0
        # Batched decode favours DHE; batch-1 decode is a near-tie.
        assert rows[(12, "decode")]["dhe_vs_circuit"] > 1.0
        assert abs(rows[(1, "decode")]["dhe_vs_circuit"] - 1.0) < 0.1

    def test_prefill_ordering_at_every_batch(self):
        result = run_experiment("fig15")
        rows = {(r[0], r[1]): dict(zip(result.headers, r))
                for r in result.rows}
        for batch in (1, 8, 12):
            prefill = rows[(batch, "prefill")]
            # DHE best secure technique; Path worst (paper Fig 15).
            assert prefill["dhe"] < prefill["circuit_oram"] \
                < prefill["path_oram"]
            assert prefill["dhe"] < prefill["linear_scan"]


class TestLlmFootprint:
    def test_paper_numbers(self):
        result = run_experiment("llm-footprint")
        parts = dict(zip(result.column("scheme"),
                         result.column("embedding_part_mb")))
        assert parts["table"] == pytest.approx(196.3, rel=0.03)
        assert parts["oram (circuit)"] == pytest.approx(513.6, rel=0.1)
        assert parts["dhe (+tied head table)"] == pytest.approx(56.0,
                                                                rel=0.1)
        # Paper: DHE +4% model overhead; ORAM tens of percent.
        overhead = dict(zip(result.column("scheme"),
                            result.column("overhead_vs_table_pct")))
        assert overhead["dhe (+tied head table)"] < 8
        assert overhead["oram (circuit)"] > 15


class TestCluster:
    def test_scaling_story_and_gates(self):
        result = run_experiment("cluster", num_requests=96)
        capacities = [float(c) for c in result.column("capacity_rps")]
        nodes = [int(n) for n in result.column("nodes")]
        # capacity grows with node count; every gate reported PASS
        assert capacities[nodes.index(4)] > 3 * capacities[nodes.index(1)]
        assert "FAIL" not in result.notes
        assert "failover" in result.notes


class TestMigrate:
    def test_migration_story_and_gates(self):
        result = run_experiment("migrate", num_requests=96)
        moved = [int(m) for m in result.column("moved")]
        bounds = [int(b) for b in result.column("bound")]
        shed = [int(s) for s in result.column("shed")]
        assert all(m <= b for m, b in zip(moved, bounds))
        assert all(s == 0 for s in shed)
        assert "FAIL" not in result.notes
        assert "hot-first anti-pattern is caught" in result.notes


class TestTable1:
    def test_complexity_exponents(self):
        result = run_experiment("table1")
        exponents = dict(zip(result.column("technique"),
                             result.column("fitted_exponent")))
        assert exponents["linear scan"] == pytest.approx(1.0, abs=0.25)
        assert exponents["DHE"] == pytest.approx(2.0, abs=0.25)
        assert 0.3 < exponents["tree ORAM"] < 1.3


class TestLlm:
    def test_pipeline_story_and_gates(self):
        result = run_experiment("llm")
        tok = [int(n) for n in result.column("tok")]
        dec = [int(n) for n in result.column("dec")]
        # tokenize starts overprovisioned and sheds a node in the warm-up;
        # decode grows through the ramp; every gate reported PASS
        assert min(tok) < tok[0]
        assert dec[-1] > dec[0]
        assert "FAIL" not in result.notes
        assert "hot-load-chasing controller" in result.notes

    def test_json_includes_per_stage_telemetry(self, tmp_path, capsys):
        import json

        path = tmp_path / "llm.json"
        assert main(["llm", "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        (result,) = payload["results"]
        assert result["experiment_id"] == "llm"
        assert result["headers"] == ["tick", "rate", "tok", "pre", "dec",
                                     "decode_p99_ms", "decisions"]
        counters = payload["counters"]
        # the per-stage telemetry snapshot rides along in the dump
        for stage in ("tokenize", "prefill", "decode"):
            assert counters[f"llm.stage.{stage}.requests_total"] > 0
            assert counters[f"llm.stage.{stage}.batches_total"] > 0
        assert counters["llm.pool.tokenize.scale_down_events_total"] >= 1
        assert counters["llm.pool.decode.scale_up_events_total"] >= 1
        assert counters["experiments.llm.runs_total"] == 1.0
        assert payload["gauges"]["llm.pool.decode.nodes"] >= 2.0
