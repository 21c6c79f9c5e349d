"""PRIME+PROBE attack tests — the Fig 3 reproduction, as unit tests."""

import pytest

from repro.sidechannel.attacker import PrimeProbeAttacker
from repro.sidechannel.cache import CacheConfig, SetAssociativeCache
from repro.sidechannel.replay import TraceVictim
from repro.telemetry.audit import AuditSubject


@pytest.fixture
def setup():
    cache = SetAssociativeCache(CacheConfig(num_sets=1024, ways=12))
    victim = TraceVictim.of_technique("lookup", cache.access_range)
    attacker = PrimeProbeAttacker(cache, victim,
                                  monitored_indices=range(25), rng=0)
    return cache, victim, attacker


@pytest.fixture
def scan_victim(setup):
    """``LinearScanEmbedding`` sharing the lookup victim's cache."""
    return TraceVictim.of_technique("scan", setup[0].access_range)


class TestVictim:
    def test_row_addresses_disjoint(self, setup):
        _, victim, _ = setup
        assert victim.row_address(1) - victim.row_address(0) == 256

    def test_out_of_range(self, setup, scan_victim):
        _, victim, _ = setup
        with pytest.raises(IndexError):
            victim.lookup(256)
        with pytest.raises(IndexError):
            scan_victim.lookup(-1)
        with pytest.raises(IndexError):
            victim.row_address(256)

    def test_replays_every_event_at_region_base_plus_row(self):
        """Two regions, two bases: fixed by name on first touch and never
        moved by the addresses (the secret) that follow."""
        def run(tracer, secret):
            tracer.record("R", "a", secret[0])
            tracer.record("W", "b", 1)

        touched = []
        victim = TraceVictim(AuditSubject("two-regions", run, [[0], [1]]),
                             lambda *span: touched.append(span),
                             num_rows=8, embedding_dim=4, base_address=0)
        victim.lookup(3)
        victim.lookup(0)
        stride = TraceVictim.REGION_STRIDE
        assert touched == [(3 * 16, 16), (stride + 16, 16),
                           (0, 16), (stride + 16, 16)]


class TestEvictionSets:
    def test_eviction_set_congruent_with_target(self, setup):
        cache, victim, attacker = setup
        for index in (0, 7, 24):
            target_set = cache.set_index_of(victim.row_address(index))
            for address in attacker._eviction_sets[index]:
                assert cache.set_index_of(address) == target_set

    def test_eviction_set_fills_ways(self, setup):
        cache, _, attacker = setup
        assert len(attacker._eviction_sets[0]) == cache.config.ways

    def test_attacker_addresses_disjoint_from_victim(self, setup):
        _, victim, attacker = setup
        table_end = victim.base_address + victim.num_rows * victim.row_bytes
        for addresses in attacker._eviction_sets.values():
            assert all(a >= table_end for a in addresses)


class TestAttack:
    @pytest.mark.parametrize("victim_index", [0, 2, 13, 24])
    def test_recovers_index(self, setup, victim_index):
        _, _, attacker = setup
        result = attacker.run_trials(victim_index, repeats=5)
        assert result.recovered_index == victim_index
        assert result.trial_success_rate == 1.0

    def test_signal_is_miss_vs_hit(self, setup):
        cache, _, attacker = setup
        result = attacker.run_trials(2, repeats=10)
        assert result.mean_latencies[2] == pytest.approx(
            cache.config.miss_latency, rel=0.05)
        others = [v for k, v in result.mean_latencies.items() if k != 2]
        assert max(others) == pytest.approx(cache.config.hit_latency,
                                            rel=0.05)

    def test_robust_to_noise(self, setup):
        cache, victim, _ = setup
        noisy = PrimeProbeAttacker(cache, victim,
                                   monitored_indices=range(25),
                                   noise_cycles=10.0, rng=1)
        result = noisy.run_trials(5, repeats=10)
        assert result.recovered_index == 5

    def test_linear_scan_defence_flattens_signal(self, setup, scan_victim):
        _, _, attacker = setup
        result = attacker.run_trials(2, repeats=10,
                                     victim_op=scan_victim.lookup)
        values = list(result.mean_latencies.values())
        spread = max(values) - min(values)
        miss_hit_gap = 160.0
        assert spread < 0.05 * miss_hit_gap

    def test_linear_scan_defeats_recovery_statistically(self, setup,
                                                        scan_victim):
        """Under the defence the recovered index is unrelated to the secret:
        over several secrets the attacker should not do better than chance
        would suggest for correlated recoveries."""
        _, _, attacker = setup
        assert attacker.recovery_accuracy(
            range(10), repeats=3, victim_op=scan_victim.lookup) <= 0.2

    def test_requires_monitored_indices(self, setup):
        cache, victim, _ = setup
        with pytest.raises(ValueError):
            PrimeProbeAttacker(cache, victim, monitored_indices=[])

    def test_repeats_validated(self, setup):
        _, _, attacker = setup
        with pytest.raises(ValueError):
            attacker.run_trials(0, repeats=0)


class TestNoiseRobustness:
    """Attack accuracy degrades gracefully with measurement noise, and
    averaging more trials restores it — the standard side-channel
    signal-vs-noise story."""

    def _success_rate(self, noise, repeats, trials=10):
        cache = SetAssociativeCache(CacheConfig(num_sets=1024, ways=12))
        victim = TraceVictim.of_technique("lookup", cache.access_range)
        attacker = PrimeProbeAttacker(cache, victim,
                                      monitored_indices=range(25),
                                      noise_cycles=noise, rng=99)
        return attacker.recovery_accuracy(range(trials), repeats=repeats)

    def test_clean_channel_perfect(self):
        assert self._success_rate(noise=0.0, repeats=1) == 1.0

    def test_moderate_noise_still_recoverable(self):
        # SNR: signal gap is 160 cycles; sigma 40 is easily averaged out.
        assert self._success_rate(noise=40.0, repeats=10) >= 0.8

    def test_extreme_noise_defeats_single_shot(self):
        single = self._success_rate(noise=500.0, repeats=1)
        averaged = self._success_rate(noise=500.0, repeats=60)
        assert averaged >= single
