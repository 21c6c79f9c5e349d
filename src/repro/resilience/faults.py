"""Deterministic, seedable fault injection for the serving stack.

A production fleet fails in a handful of canonical ways — a replica
crashes and stays down for a window, a batch sees a latency spike, a
backend call errors transiently, an ORAM controller comes under stash
pressure. :class:`FaultInjector` models all four behind one seed.

Every decision is a **pure function of (seed, fault kind, event
coordinates)**: the injector derives a fresh counter-free generator per
decision from those integers, so the fault schedule is independent of call
order, identical across replays of the same seed, and enumerable up front
(:meth:`FaultInjector.schedule`) — which is exactly what the chaos
harness's determinism gate asserts.

The injector is read in one place,
:func:`~repro.resilience.policy.execute_with_resilience`: crashes,
transient errors and spikes per (replica, batch, attempt), and stash
pressure per batch, which feeds the
:class:`~repro.resilience.degradation.DegradationLadder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.utils.validation import check_positive, check_probability

#: stable integer ids mixed into the per-decision seed material
_KIND_IDS = {
    "crash": 1,
    "spike": 2,
    "transient": 3,
    "stash": 4,
    "jitter": 5,
}


@dataclass(frozen=True)
class ReplicaCrashFault:
    """A replica goes down mid-batch and stays down for a window."""

    probability: float = 0.0        # per (replica, batch, attempt)
    downtime_seconds: float = 0.050

    def __post_init__(self) -> None:
        check_probability("probability", self.probability)
        check_positive("downtime_seconds", self.downtime_seconds)


@dataclass(frozen=True)
class LatencySpikeFault:
    """A batch execution runs ``multiplier`` times slower than priced."""

    probability: float = 0.0        # per (replica, batch, attempt)
    multiplier: float = 4.0

    def __post_init__(self) -> None:
        check_probability("probability", self.probability)
        if not self.multiplier >= 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier!r}")


@dataclass(frozen=True)
class TransientErrorFault:
    """A backend call fails retryably (no state lost, no downtime)."""

    probability: float = 0.0        # per (replica, batch, attempt)

    def __post_init__(self) -> None:
        check_probability("probability", self.probability)


@dataclass(frozen=True)
class StashPressureFault:
    """A batch runs under ORAM stash pressure (a degradation-ladder signal)."""

    probability: float = 0.0        # per batch

    def __post_init__(self) -> None:
        check_probability("probability", self.probability)


class FaultInjector:
    """All fault decisions for one chaos run, derived from one seed.

    ``None`` for a fault model means that fault never fires; an injector
    with all models ``None`` is inert (``enabled`` is False) and the
    serving path treats it exactly like no injector at all.
    """

    def __init__(self, seed: int = 0,
                 crash: Optional[ReplicaCrashFault] = None,
                 spike: Optional[LatencySpikeFault] = None,
                 transient: Optional[TransientErrorFault] = None,
                 stash: Optional[StashPressureFault] = None) -> None:
        self.seed = int(seed)
        self.crash = crash
        self.spike = spike
        self.transient = transient
        self.stash = stash

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when any fault model can actually fire."""
        return any(model is not None and model.probability > 0.0
                   for model in (self.crash, self.spike, self.transient,
                                 self.stash))

    def _draw(self, kind: str, *coords: int) -> float:
        """Uniform [0, 1) draw keyed purely by (seed, kind, coords)."""
        material = [self.seed, _KIND_IDS[kind]]
        material.extend(int(c) for c in coords)
        return float(np.random.default_rng(material).random())

    # ------------------------------------------------------------------
    # Decision points (replica, batch, attempt are event coordinates)
    # ------------------------------------------------------------------
    def crashes(self, replica: int, batch: int, attempt: int) -> bool:
        if self.crash is None or self.crash.probability == 0.0:
            return False
        return self._draw("crash", replica, batch,
                          attempt) < self.crash.probability

    def spike_multiplier(self, replica: int, batch: int,
                         attempt: int) -> float:
        """Service-time multiplier for this attempt (1.0 = no spike)."""
        if self.spike is None or self.spike.probability == 0.0:
            return 1.0
        if self._draw("spike", replica, batch,
                      attempt) < self.spike.probability:
            return self.spike.multiplier
        return 1.0

    def transient_error(self, replica: int, batch: int,
                        attempt: int) -> bool:
        if self.transient is None or self.transient.probability == 0.0:
            return False
        return self._draw("transient", replica, batch,
                          attempt) < self.transient.probability

    def stash_pressured(self, event: int) -> bool:
        """Does batch ``event`` run under stash pressure?"""
        if self.stash is None or self.stash.probability == 0.0:
            return False
        return self._draw("stash", event) < self.stash.probability

    def jitter(self, batch: int, attempt: int) -> float:
        """Deterministic uniform [0, 1) draw for retry-backoff jitter."""
        return self._draw("jitter", batch, attempt)

    # ------------------------------------------------------------------
    # The enumerable schedule (determinism gate + report artifact)
    # ------------------------------------------------------------------
    def schedule(self, num_batches: int, num_replicas: int,
                 attempts: int = 1) -> Dict[str, List[List[int]]]:
        """Every fault that would fire over a (batch, replica, attempt) grid.

        Returned as sorted coordinate lists per fault kind — a compact,
        JSON-stable digest of the whole fault plan. Identical seeds yield
        identical schedules; that is the contract the chaos harness pins.
        """
        check_positive("num_batches", num_batches)
        check_positive("num_replicas", num_replicas)
        check_positive("attempts", attempts)
        crashes: List[List[int]] = []
        spikes: List[List[int]] = []
        transients: List[List[int]] = []
        pressured: List[List[int]] = []
        for batch in range(num_batches):
            if self.stash_pressured(batch):
                pressured.append([batch])
            for replica in range(num_replicas):
                for attempt in range(attempts):
                    coords = [batch, replica, attempt]
                    if self.crashes(replica, batch, attempt):
                        crashes.append(coords)
                    if self.spike_multiplier(replica, batch, attempt) > 1.0:
                        spikes.append(coords)
                    if self.transient_error(replica, batch, attempt):
                        transients.append(coords)
        return {"crashes": crashes, "spikes": spikes,
                "transients": transients, "stash_pressure": pressured}
