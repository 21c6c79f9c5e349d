"""Quickstart: the five embedding generation methods behind one interface.

Builds one embedding table, protects it four different ways, shows that all
secure methods return identical embeddings to the plain lookup, compares
their (modelled) latency/footprint, and verifies obliviousness with the
memory tracer.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.embedding import (
    CircuitOramEmbedding,
    DHEEmbedding,
    LinearScanEmbedding,
    PathOramEmbedding,
    TableEmbedding,
)
from repro.telemetry.audit import AuditSubject, LeakageAuditor


def main() -> None:
    num_rows, dim = 1000, 16
    rng = np.random.default_rng(0)
    trained_rows = rng.normal(size=(num_rows, dim))
    queries = np.array([3, 999, 3, 512])

    print("=== Secure embedding generation, one interface ===\n")

    generators = [
        TableEmbedding(num_rows, dim, rng=1),
        LinearScanEmbedding(num_rows, dim, weight=trained_rows),
        PathOramEmbedding(num_rows, dim, weight=trained_rows, rng=2),
        CircuitOramEmbedding(num_rows, dim, weight=trained_rows, rng=3),
        DHEEmbedding(num_rows, dim, k=64, fc_sizes=(64,), rng=4),
    ]
    generators[0].weight.data[...] = trained_rows  # share the trained table

    header = f"{'technique':>14} {'oblivious':>10} {'latency(b=32)':>14} {'footprint':>10}"
    print(header)
    print("-" * len(header))
    for generator in generators:
        out = generator.generate(queries)
        if generator.technique != "dhe":
            assert np.allclose(out, trained_rows[queries]), generator.technique
        latency_ms = generator.modelled_latency(batch=32) * 1e3
        footprint_kb = generator.footprint_bytes() / 1024
        print(f"{generator.technique:>14} {str(generator.is_oblivious):>10} "
              f"{latency_ms:>11.3f} ms {footprint_kb:>7.0f} KB")

    print("\n=== Trace obliviousness, verified ===\n")

    auditor = LeakageAuditor()
    for generator in generators[:2]:
        def replay(tracer, secret, generator=generator):
            generator.generate_traced(np.asarray(secret), tracer)

        finding = auditor.audit(AuditSubject(
            generator.technique, replay, [[1], [500], [999]],
            expect_oblivious=generator.is_oblivious))
        if finding.observed_oblivious:
            print(f"{generator.technique}: oblivious over "
                  f"{finding.num_secrets} secrets "
                  f"(trace length {finding.trace_length})")
        else:
            print(f"{generator.technique}: NOT oblivious — "
                  f"{finding.first_divergence}")
    print("\nThe table lookup's first access already reveals the index; the "
          "scan's trace is identical for every secret.")


if __name__ == "__main__":
    main()
