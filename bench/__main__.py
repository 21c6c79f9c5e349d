"""``python3 -m bench``: one workload in-process, or all of them in turn.

With ``--workload W --trace T`` the workload runs in this process and the
last line of standard output is the result object. Otherwise every
selected workload x trace mode runs in a fresh subprocess, one after
another (never concurrently: the box has two cores), and the collected
results are written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench import THREAD_VARIABLES

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: a subprocess that has not finished by then is killed and reported
WORKER_TIMEOUT_SECONDS = 600


def _parse(argv) -> argparse.Namespace:
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    run_seconds = benchmark["run_seconds"]
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=0,
                        help="generates the inputs only (default 0)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="wall clock of one untraced timed loop "
                             f"(default {run_seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end metrics, 1 = traced run with "
                             "per-layer metrics (default: both, in turn)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: one set-up, two traced ops, "
                             "short probes (numbers are not comparable)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workload mode: run seeds seed..seed+N-1")
    parser.add_argument("--out", default="bench/results/BENCH_local.json",
                        help="all-workload mode: where the results go")
    args = parser.parse_args(argv)
    args.workloads = ([args.workload] if args.workload
                      else [w["name"] for w in benchmark["workloads"]])
    return args


def _run_here(args: argparse.Namespace) -> int:
    # Numeric thread pools are pinned before numpy is first imported: the
    # same DHE batch swings 8 ms <-> 64 ms with OpenBLAS's default threads
    # on two cores.
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    if not (SOURCE / "repro").is_dir():
        print(f"bench: the program under test is missing ({SOURCE}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from bench.worker import print_result, run_workload

    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), quick=args.quick)
    print_result(result, detail)
    return 0 if result["correct"] else 1


def _run_all(args: argparse.Namespace) -> int:
    traces = (args.trace,) if args.trace is not None else (0, 1)
    runs, status = [], 0
    for seed in range(args.seed, args.seed + args.repeat):
        for workload in args.workloads:
            for trace in traces:
                command = [sys.executable, "-m", "bench",
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace)]
                if args.quick:
                    command.append("--quick")
                done = subprocess.run(command, cwd=ROOT, text=True,
                                      stdout=subprocess.PIPE,
                                      timeout=WORKER_TIMEOUT_SECONDS)
                lines = done.stdout.splitlines()
                detail_lines = [l for l in lines if l.startswith("#detail ")]
                if done.returncode not in (0, 1) or not detail_lines:
                    print(done.stdout, end="")
                    print(f"bench: {workload} trace={trace} exited with "
                          f"{done.returncode} and no result", file=sys.stderr)
                    return 2
                print("\n".join(l for l in lines[:-1]
                                if not l.startswith("#detail ")))
                run = json.loads(detail_lines[-1][len("#detail "):])
                run.update(json.loads(lines[-1]))
                runs.append(run)
                status = max(status, done.returncode)
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"schema": 1, "env": runs[0]["env"], "runs": runs}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out} ({len(runs)} runs)")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload is not None and args.trace is not None:
        return _run_here(args)
    return _run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
