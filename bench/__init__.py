"""The repo's wall-clock benchmark: five workloads, measured from outside.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` runs one
workload in this process and prints one JSON result as its last line;
``python3 -m bench --seed N`` runs every workload, untraced then traced,
each in a fresh subprocess, and writes ``bench/results/BENCH_<n>.json``.
See ``bench/README.md`` for the metric glossary and how to read a trace.
"""

#: numeric thread pools pinned to one thread before numpy is imported
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: untraced-run latencies that are printed but have no bound (README:
#: "Demoted metrics")
UNGATED = ("op_ms_p95", "ttft_ms_p50", "ttft_ms_p95", "tbt_ms_p50",
           "tbt_ms_p95")
