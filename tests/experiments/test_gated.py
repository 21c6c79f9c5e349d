"""The one gated-bench harness: every registered BENCH through one
table-driven CLI contract, plus stub benches for the failure paths."""

import json
import sys

import pytest

from repro.experiments import ExperimentResult, gated, registry
from repro.experiments.registry import BENCHES, EXPERIMENTS, run_experiment

#: option kwarg -> (CLI text, the value run() must receive)
SAMPLES = {
    "num_requests": ("64", 64),
    "rate_rps": ("1500", 1500.0),
    "nodes_before": ("3", 3),
    "nodes_after": ("4", 4),
    "step_sizes": ("2", (2,)),
}


def _module_main(bench):
    """What ``python -m <module>`` executes."""
    return sys.modules[bench.run.__module__].main


@pytest.mark.parametrize("bench", BENCHES, ids=lambda bench: bench.id)
class TestEveryBench:
    def test_cli_exit_code_json_and_determinism(self, bench, tmp_path,
                                                capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        codes = [_module_main(bench)(["--seed", "7", "--json", str(path)])
                 for path in paths]
        report = json.loads(paths[0].read_text())
        gates = report["gates"]
        assert codes == [int(not gates["passed"])] * 2
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert report["seed"] == 7
        assert gates["passed"] == all(
            ok for name, ok in gates.items() if name != "passed")
        out = capsys.readouterr().out
        assert out.startswith(f"== {bench.id}: ")   # table id == BENCH.id
        assert "gates: " in out
        # (the JSON sorts keys; stdout keeps declaration order)
        for verdict in gated.verdicts(gates).split("  "):
            assert verdict in out
        assert "wall-clock" not in out

    def test_module_declares_the_registered_record(self, bench):
        module = sys.modules[bench.run.__module__]
        assert module.BENCH is bench
        assert module.main.func is gated.main
        assert module.main.args == (bench,)
        assert EXPERIMENTS[bench.id] == bench.experiment
        assert not hasattr(module, "render")


@pytest.mark.parametrize("bench", [b for b in BENCHES if b.options],
                         ids=lambda bench: bench.id)
def test_options_reach_cli_and_registry_alike(bench, capsys):
    argv, kwargs = ["--seed", "7"], {}
    for option in bench.options:
        text, value = SAMPLES[option.kwarg]
        assert option.type(text) == value
        argv += [option.flag, text]
        kwargs[option.kwarg] = value
    assert _module_main(bench)(argv) == 0
    out = capsys.readouterr().out
    result = run_experiment(bench.id, seed=7, **kwargs)
    # one presentation: the CLI prints exactly the registry's table
    assert out == result.render() + "\n"
    assert result.gates["passed"]


def _stub(**checks):
    def run(seed=0, scale=1):
        return {"seed": seed, "scale": scale,
                "gates": gated.gate_dict(**checks)}

    def tabulate(report):
        result = ExperimentResult("stub", f"stub x{report['scale']}",
                                  headers=("seed",))
        result.add_row(report["seed"])
        result.notes = f"gates: {gated.verdicts(report['gates'])}"
        return result

    return gated.GatedBench(
        id="stub", description="stub", run=run, tabulate=tabulate,
        options=(gated.Option("--scale", "scale", int, 1),))


class TestFailingGate:
    def test_bench_cli_exits_one_and_still_writes_the_report(self, tmp_path,
                                                             capsys):
        path = tmp_path / "stub.json"
        code = gated.main(_stub(first=True, broken=False),
                          ["--seed", "3", "--scale", "2",
                           "--json", str(path)])
        assert code == 1
        assert "first=PASS  broken=FAIL" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["scale"] == 2
        assert payload["gates"] == {"first": True, "broken": False,
                                    "passed": False}

    def test_registry_cli_exits_one_and_names_the_gate(self, monkeypatch,
                                                       capsys):
        monkeypatch.setitem(EXPERIMENTS, "stub",
                            _stub(first=True, broken=False).experiment)
        assert registry.main(["stub"]) == 1
        assert "stub: FAILED gate(s): broken" in capsys.readouterr().out

    def test_registry_cli_exits_zero_when_gates_hold(self, monkeypatch,
                                                     capsys):
        monkeypatch.setitem(EXPERIMENTS, "stub",
                            _stub(first=True).experiment)
        assert registry.main(["stub"]) == 0
        assert "FAILED" not in capsys.readouterr().out

    def test_registry_rejects_kwargs_the_cli_does_not_offer(self):
        with pytest.raises(TypeError, match="unknown option"):
            _stub(first=True).experiment(seed=0, spec="nope")


class TestGateDict:
    def test_declaration_order_kept_and_conjunction_last(self):
        gates = gated.gate_dict(zeta=True, alpha=True)
        assert list(gates) == ["zeta", "alpha", "passed"]
        assert gates["passed"] is True
        assert gated.gate_dict(zeta=True, alpha=False)["passed"] is False

    def test_verdicts_skip_the_conjunction(self):
        gates = gated.gate_dict(zeta=True, alpha=False)
        assert gated.verdicts(gates) == "zeta=PASS  alpha=FAIL"
        assert gated.failed_gates(gates) == ["alpha"]


class TestWriteReport:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "report.json"
        gated.write_report({"b": 1, "a": {"d": 2.5, "c": None}}, str(path))
        text = path.read_text()
        assert text.endswith("}\n") and not text.endswith("\n\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_raise(self, tmp_path, value):
        with pytest.raises(ValueError):
            gated.write_report({"x": value}, str(tmp_path / "bad.json"))
