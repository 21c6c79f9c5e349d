"""PRIME+PROBE attacker recovering embedding lookup indices (Fig 3).

Phase (i): build an eviction set per candidate index — the paper assumes the
table's physical address is known (a malicious OS can learn it), so the
attacker directly computes which cache set each row maps to and allocates
its own ``ways`` conflicting lines there.

Phase (ii): prime the monitored sets, let the victim run one lookup, then
probe — re-access the eviction set and time it. The set whose probe is slow
lost a line to the victim, revealing the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence


from repro.sidechannel.cache import SetAssociativeCache
from repro.sidechannel.replay import TraceVictim
from repro.utils.rng import SeedLike, new_rng


@dataclass
class AttackResult:
    """Outcome of one PRIME+PROBE trial over the monitored indices."""

    probe_latencies: Dict[int, float]   # candidate index -> mean probe cycles
    recovered_index: int
    true_index: int

    @property
    def success(self) -> bool:
        return self.recovered_index == self.true_index


class PrimeProbeAttacker:
    """Cross-core LLC attacker monitoring one cache set per table index."""

    #: attacker's own memory region, far above the victim table
    ATTACKER_BASE = 0x4000_0000

    def __init__(self, cache: SetAssociativeCache,
                 victim: TraceVictim,
                 monitored_indices: Sequence[int],
                 noise_cycles: float = 0.0,
                 rng: SeedLike = None) -> None:
        self.cache = cache
        self.victim = victim
        self.monitored_indices = list(monitored_indices)
        if not self.monitored_indices:
            raise ValueError("attacker must monitor at least one index")
        self.noise_cycles = noise_cycles
        self.rng = new_rng(rng)
        self._eviction_sets = {
            index: self._build_eviction_set(index)
            for index in self.monitored_indices
        }

    # ------------------------------------------------------------------
    # Phase (i): eviction-set construction
    # ------------------------------------------------------------------
    def _build_eviction_set(self, index: int) -> List[int]:
        """Addresses (one per way) congruent to the first line of row ``index``."""
        target = self.victim.row_address(index)
        target_set = self.cache.set_index_of(target)
        config = self.cache.config
        stride = config.num_sets * config.line_size  # same-set stride
        base = self.ATTACKER_BASE + target_set * config.line_size
        return [base + way * stride for way in range(config.ways)]

    # ------------------------------------------------------------------
    # Phase (ii): prime, victim, probe
    # ------------------------------------------------------------------
    def prime(self) -> None:
        for addresses in self._eviction_sets.values():
            for address in addresses:
                self.cache.access(address)

    def probe(self) -> Dict[int, float]:
        """Re-access each eviction set; return mean per-line latency."""
        latencies: Dict[int, float] = {}
        for index, addresses in self._eviction_sets.items():
            total = 0.0
            for address in addresses:
                total += self.cache.access(address)
            total += float(self.rng.normal(0.0, self.noise_cycles)) \
                if self.noise_cycles else 0.0
            latencies[index] = total / len(addresses)
        return latencies

    def run_trial(self, victim_index: int,
                  victim_op: Optional[Callable[[int], None]] = None) -> AttackResult:
        """One PRIME → victim lookup → PROBE round."""
        victim_op = victim_op or self.victim.lookup
        self.prime()
        victim_op(victim_index)
        latencies = self.probe()
        recovered = max(latencies, key=latencies.get)
        return AttackResult(probe_latencies=latencies,
                            recovered_index=recovered,
                            true_index=victim_index)

    def run_trials(self, victim_index: int, repeats: int = 10,
                   victim_op: Optional[Callable[[int], None]] = None
                   ) -> "AggregatedAttack":
        """Average ``repeats`` measurements per set, as in Fig 3."""
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        sums = {index: 0.0 for index in self.monitored_indices}
        successes = 0
        for _ in range(repeats):
            result = self.run_trial(victim_index, victim_op=victim_op)
            successes += int(result.success)
            for index, latency in result.probe_latencies.items():
                sums[index] += latency
        means = {index: total / repeats for index, total in sums.items()}
        recovered = max(means, key=means.get)
        return AggregatedAttack(mean_latencies=means,
                                recovered_index=recovered,
                                true_index=victim_index,
                                trial_success_rate=successes / repeats)


    def recovery_accuracy(self, secrets: Sequence[int], repeats: int = 3,
                          victim_op: Optional[Callable[[int], None]] = None
                          ) -> float:
        """Share of ``secrets`` the averaged probe recovers exactly."""
        hits = sum(self.run_trials(secret, repeats, victim_op).success
                   for secret in secrets)
        return hits / len(secrets)


@dataclass
class AggregatedAttack:
    """Averaged PRIME+PROBE measurements (one Fig 3 curve)."""

    mean_latencies: Dict[int, float]
    recovered_index: int
    true_index: int
    trial_success_rate: float

    @property
    def success(self) -> bool:
        return self.recovered_index == self.true_index
