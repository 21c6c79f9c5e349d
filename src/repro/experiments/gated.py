"""The one gated-bench harness: declaration, gates, report writer, CLI.

Every gated sim in the repo (chaos, cluster, migrate, autoscale, cache,
train, llm) contributes a scenario function, a gate list and one
module-level ``BENCH = GatedBench(...)``; everything else — the
``--seed``/``--json`` CLI, the verdict line, the canonical JSON writer, the
exit code, and the registry entry — is derived from that record here.

This module imports no subsystem (only :mod:`repro.experiments.reporting`),
so the subsystems can import it without a cycle.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.reporting import ExperimentResult

Report = Dict[str, Any]


@dataclass(frozen=True)
class Option:
    """One extra bench parameter: CLI ``flag`` feeding ``run(kwarg=...)``."""

    flag: str
    kwarg: str
    type: Callable[[str], Any]
    default: Any
    help: str = ""


@dataclass(frozen=True)
class GatedBench:
    """A gated sim: ``run`` builds the report, ``tabulate`` presents it.

    ``run(seed, **options) -> report`` must put a :func:`gate_dict` under
    ``report["gates"]``; ``tabulate(report)`` is the only presentation
    (CLI stdout and registry alike) and carries :func:`verdicts` in its
    notes. ``options`` is the one list of extra parameters: the CLI flags
    and the registry kwargs are both derived from it.
    """

    id: str
    description: str
    run: Callable[..., Report]
    tabulate: Callable[[Report], ExperimentResult]
    options: Tuple[Option, ...] = ()

    def experiment(self, seed: int = 0, **kwargs: Any) -> ExperimentResult:
        """The registry entry: run, tabulate, attach the gate verdicts."""
        unknown = set(kwargs) - {option.kwarg for option in self.options}
        if unknown:
            raise TypeError(f"{self.id}: unknown option(s) {sorted(unknown)}")
        report = self.run(seed=seed, **kwargs)
        result = self.tabulate(report)
        result.gates = report["gates"]
        return result


def gate_dict(**checks: bool) -> Dict[str, bool]:
    """The gates in declaration order, with the ``passed`` conjunction last."""
    gates = dict(checks)
    gates["passed"] = all(checks.values())
    return gates


def verdicts(gates: Dict[str, bool]) -> str:
    """``name=PASS  name=FAIL ...`` for every gate but the conjunction."""
    return "  ".join(f"{name}={'PASS' if ok else 'FAIL'}"
                     for name, ok in gates.items() if name != "passed")


def failed_gates(gates: Dict[str, bool]) -> List[str]:
    return [name for name, ok in gates.items()
            if name != "passed" and not ok]


def write_report(report: Report, path: str) -> None:
    """The canonical report file: sorted keys, NaN-free, trailing newline.

    Same seed, same bytes — CI ``cmp``-gates two runs of every bench.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def main(bench: GatedBench, argv: Optional[Sequence[str]] = None) -> int:
    """CLI of one bench: ``--seed N [options] [--json PATH]``; exit 1 on a
    failed gate."""
    parser = argparse.ArgumentParser(description=bench.description)
    parser.add_argument("--seed", type=int, default=0)
    for option in bench.options:
        parser.add_argument(option.flag, dest=option.kwarg, type=option.type,
                            default=option.default, help=option.help)
    parser.add_argument("--json", metavar="PATH",
                        help="write the deterministic report")
    args = vars(parser.parse_args(argv))
    path = args.pop("json")
    report = bench.run(**args)
    print(bench.tabulate(report).render())
    if path:
        write_report(report, path)
    return 0 if report["gates"]["passed"] else 1
