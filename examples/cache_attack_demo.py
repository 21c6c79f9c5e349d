"""The Fig 3 attack, step by step: PRIME+PROBE on an embedding lookup.

An attacker sharing the LLC with an enclave recovers which embedding-table
row the victim touched — then the victim's code is swapped for the
linear-scan defence and the signal disappears. Both victims are the real
generators (``TableEmbedding`` / ``LinearScanEmbedding``), replayed into the
modelled cache by ``TraceVictim``.

Run:  python examples/cache_attack_demo.py
"""

from repro.sidechannel import (
    CacheConfig,
    ControlledChannelAttacker,
    PageFaultObserver,
    PrimeProbeAttacker,
    SetAssociativeCache,
    TraceVictim,
    combined_channel_candidates,
)


def bar(value: float, low: float, high: float, width: int = 40) -> str:
    filled = int(width * (value - low) / max(high - low, 1e-9))
    return "#" * max(0, min(width, filled))


def main() -> None:
    # Paper setup: 256-entry table, dim 64, victim index 2, 25 primed sets.
    cache = SetAssociativeCache(CacheConfig())
    victim = TraceVictim.of_technique("lookup", cache.access_range)
    attacker = PrimeProbeAttacker(cache, victim,
                                  monitored_indices=range(25),
                                  noise_cycles=3.0, rng=7)
    secret_index = 2

    print("Phase (i): eviction sets built for 25 candidate indices")
    print(f"Phase (ii): PRIME -> victim lookup(index={secret_index}) -> PROBE, "
          f"averaged over 10 trials\n")

    result = attacker.run_trials(secret_index, repeats=10)
    low = min(result.mean_latencies.values())
    high = max(result.mean_latencies.values())
    print("  set  probe latency (cycles)")
    for index in range(25):
        latency = result.mean_latencies[index]
        marker = "  <-- victim's set" if index == result.recovered_index else ""
        print(f"  {index:>3}  {latency:7.1f} {bar(latency, low, high)}{marker}")
    print(f"\nRecovered index: {result.recovered_index} "
          f"(true index {secret_index}) — attack "
          f"{'SUCCEEDED' if result.success else 'failed'}\n")

    print("Now the same attack against the linear-scan-protected lookup:\n")
    protected = attacker.run_trials(
        secret_index, repeats=10,
        victim_op=TraceVictim.of_technique("scan", cache.access_range).lookup)
    values = protected.mean_latencies.values()
    print(f"  probe latencies span only "
          f"{max(values) - min(values):.1f} cycles across all 25 sets — "
          f"every set was touched, nothing to learn.\n")

    page_channel_demo()


def page_channel_demo() -> None:
    """§III-A2's second channel: the OS-controlled page-fault attack."""
    print("Bonus: the controlled-channel (page-fault) attack on a bigger "
          "table\n")
    num_rows, secret = 16_384, 12_345
    observer = PageFaultObserver()
    attacker = ControlledChannelAttacker(
        observer, TraceVictim.of_technique("lookup", observer.touch, num_rows))
    low, high = attacker.observe_lookup(secret)
    print(f"  table: {num_rows:,} rows; secret index {secret}")
    print(f"  page faults narrow it to [{low}, {high}) — "
          f"{high - low} candidates")
    remaining = combined_channel_candidates(num_rows, 64)
    print(f"  combining with the cache channel (line granularity) leaves "
          f"{remaining} candidate — the exact index, as §III-A2 describes")
    scan_observer = PageFaultObserver()
    against_scan = ControlledChannelAttacker(
        scan_observer,
        TraceVictim.of_technique("scan", scan_observer.touch, num_rows))
    print(f"  against the linear scan, the page channel sees "
          f"{against_scan.candidates_after_lookup(secret)} candidates "
          f"(the whole table)")


if __name__ == "__main__":
    main()
