"""FaultInjector: determinism, coordinates, fault-model validation."""

import pytest

from repro.resilience import (
    FaultInjector,
    LatencySpikeFault,
    ReplicaCrashFault,
    StashPressureFault,
    TransientErrorFault,
)


def storm(seed=0):
    return FaultInjector(
        seed=seed,
        crash=ReplicaCrashFault(probability=0.1),
        spike=LatencySpikeFault(probability=0.2, multiplier=3.0),
        transient=TransientErrorFault(probability=0.2),
        stash=StashPressureFault(probability=0.5))


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        assert (storm(3).schedule(40, 4, attempts=2)
                == storm(3).schedule(40, 4, attempts=2))

    def test_different_seed_different_schedule(self):
        assert (storm(3).schedule(40, 4, attempts=2)
                != storm(4).schedule(40, 4, attempts=2))

    def test_decisions_are_call_order_independent(self):
        injector = storm(9)
        forward = [injector.crashes(r, b, 0)
                   for b in range(20) for r in range(3)]
        backward = [injector.crashes(r, b, 0)
                    for b in reversed(range(20)) for r in reversed(range(3))]
        assert forward == list(reversed(backward))

    def test_schedule_matches_pointwise_decisions(self):
        injector = storm(5)
        schedule = injector.schedule(10, 2, attempts=2)
        for batch, replica, attempt in schedule["crashes"]:
            assert injector.crashes(replica, batch, attempt)
        for batch, replica, attempt in schedule["spikes"]:
            assert injector.spike_multiplier(replica, batch, attempt) > 1.0

    def test_jitter_in_unit_interval(self):
        injector = storm(1)
        draws = [injector.jitter(b, a) for b in range(10) for a in range(3)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert len(set(draws)) > 1


class TestInertInjector:
    def test_default_is_disabled(self):
        injector = FaultInjector(seed=0)
        assert not injector.enabled
        assert not injector.crashes(0, 0, 0)
        assert injector.spike_multiplier(0, 0, 0) == 1.0
        assert not injector.transient_error(0, 0, 0)
        assert not injector.stash_pressured(0)

    def test_zero_probability_is_disabled(self):
        injector = FaultInjector(seed=0,
                                 crash=ReplicaCrashFault(probability=0.0))
        assert not injector.enabled


class TestFaultModelValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ReplicaCrashFault(probability=1.5)
        with pytest.raises(ValueError):
            TransientErrorFault(probability=-0.1)
        with pytest.raises(ValueError):
            ReplicaCrashFault(probability=float("nan"))

    def test_spike_multiplier_floor(self):
        with pytest.raises(ValueError, match="multiplier"):
            LatencySpikeFault(probability=0.1, multiplier=0.5)
