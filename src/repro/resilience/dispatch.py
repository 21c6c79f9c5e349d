"""Health-aware replica dispatch: breakers, eviction/readmission, hedging.

:class:`~repro.serving.dispatcher.Dispatcher` prices homogeneous replica
fleets; this module adds the control plane a faulty fleet needs. Each
replica is guarded by a :class:`~repro.resilience.breaker.CircuitBreaker`
and a crash-downtime window; dispatch selects round-robin over replicas
that are currently admitted (breaker not OPEN, not crashed), evicting
tripped replicas and readmitting them after their half-open probes
succeed. Straggler attempts are hedged: once an attempt overruns
``hedge_after_factor`` times the priced service time, a second replica
runs the same batch and the earlier finisher wins — the classic
tail-latency cure, applied to whole (padded, data-independent) batches so
hedging leaks nothing about the request content.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive


class ReplicaState:
    """One replica's health bookkeeping."""

    __slots__ = ("breaker", "down_until", "dispatched", "failures", "hedges")

    def __init__(self, breaker: CircuitBreaker) -> None:
        self.breaker = breaker
        self.down_until = -math.inf
        self.dispatched = 0
        self.failures = 0
        self.hedges = 0

    def crashed(self, now_seconds: float) -> bool:
        return now_seconds < self.down_until


class ResilientDispatcher:
    """Routes batch attempts across a breaker-guarded replica fleet."""

    def __init__(self, num_replicas: int,
                 min_replicas: int = 1,
                 breaker_config: BreakerConfig = BreakerConfig(),
                 hedge_after_factor: float = 3.0) -> None:
        check_positive("num_replicas", num_replicas)
        check_positive("min_replicas", min_replicas)
        if min_replicas > num_replicas:
            raise ValueError(
                f"min_replicas {min_replicas} exceeds num_replicas "
                f"{num_replicas}; the fleet can never be healthy")
        if not hedge_after_factor >= 1.0:
            raise ValueError(f"hedge_after_factor must be >= 1, got "
                             f"{hedge_after_factor!r}")
        self.num_replicas = num_replicas
        self.min_replicas = min_replicas
        self.hedge_after_factor = hedge_after_factor
        self._breaker_config = breaker_config
        self.replicas: List[ReplicaState] = [
            ReplicaState(CircuitBreaker(breaker_config))
            for _ in range(num_replicas)]
        self._cursor = 0

    # ------------------------------------------------------------------
    # Fleet resizing (plan-epoch carry-over)
    # ------------------------------------------------------------------
    def ensure_replicas(self, num_replicas: int,
                        allow_shrink: bool = False) -> None:
        """Resize the fleet in place, preserving existing per-replica state.

        A plan-epoch transition that adds nodes must NOT reset the
        surviving replicas' breakers and crash windows — a node that was
        evicted before the epoch change is still evicted after it. New
        replicas join healthy (breaker CLOSED). Shrinking is a no-op
        unless ``allow_shrink`` is set: epochs that drop nodes simply stop
        routing to them, and their state stays around in case a later
        epoch re-adds them. The autoscaler's scale-down path passes
        ``allow_shrink=True`` *after* the scaled-down epochs retire (no
        live epoch routes to the dropped slots any more); the trailing
        slots are released, and a later scale-up re-adds fresh, healthy
        replicas — a decommissioned machine does not come back with its
        old breaker history. The fleet never shrinks below
        ``min_replicas``.
        """
        check_positive("num_replicas", num_replicas)
        if num_replicas > self.num_replicas:
            self.replicas.extend(
                ReplicaState(CircuitBreaker(self._breaker_config))
                for _ in range(num_replicas - self.num_replicas))
            self.num_replicas = num_replicas
        elif allow_shrink and num_replicas < self.num_replicas:
            if num_replicas < self.min_replicas:
                raise ValueError(
                    f"cannot shrink to {num_replicas} replicas below "
                    f"min_replicas {self.min_replicas}")
            del self.replicas[num_replicas:]
            self.num_replicas = num_replicas
            self._cursor %= num_replicas

    def replace_replica(self, replica: int) -> None:
        """Swap a fresh machine into a dead slot (the elastic fleet's heal).

        The replacement joins healthy — new breaker, no crash window, zero
        dispatch/failure counters — because it *is* a different machine;
        carrying the corpse's breaker history over would keep the slot
        evicted after the heal completed.
        """
        if not 0 <= replica < self.num_replicas:
            raise IndexError(
                f"replica {replica} out of range for a fleet of "
                f"{self.num_replicas}")
        self.replicas[replica] = ReplicaState(
            CircuitBreaker(self._breaker_config))
        get_registry().counter("resilience.replacements_total").inc()

    # ------------------------------------------------------------------
    # Admission / selection
    # ------------------------------------------------------------------
    def admitted(self, now_seconds: float) -> List[int]:
        """Replicas currently eligible for dispatch."""
        return [index for index, replica in enumerate(self.replicas)
                if replica.breaker.allows(now_seconds)
                and not replica.crashed(now_seconds)]

    def evicted(self, now_seconds: float) -> List[int]:
        """Replicas currently out of rotation (breaker OPEN or down)."""
        admitted = set(self.admitted(now_seconds))
        return [index for index in range(self.num_replicas)
                if index not in admitted]

    def healthy_count(self, now_seconds: float) -> int:
        return len(self.admitted(now_seconds))

    def select(self, now_seconds: float,
               exclude: tuple = ()) -> Optional[int]:
        """Round-robin pick among admitted replicas (None if all out)."""
        candidates = [index for index in self.admitted(now_seconds)
                      if index not in exclude]
        if not candidates:
            return None
        # Round-robin: first candidate at or after the cursor.
        chosen = min(candidates,
                     key=lambda index: (index < self._cursor, index))
        self._cursor = (chosen + 1) % self.num_replicas
        self.replicas[chosen].dispatched += 1
        return chosen

    def next_admission_at(self, now_seconds: float) -> float:
        """Earliest future time any evicted replica may rejoin.

        ``inf`` when every replica is admitted already (nothing to wait
        for) — callers treat that as "no recovery event ahead".
        """
        times = []
        for replica in self.replicas:
            candidates = [time for time in (replica.down_until,
                                            replica.breaker.retry_at())
                          if time > now_seconds]
            if candidates:
                times.append(max(candidates))
        return min(times) if times else math.inf

    # ------------------------------------------------------------------
    # Outcome recording
    # ------------------------------------------------------------------
    def record_success(self, replica: int, now_seconds: float) -> None:
        self.replicas[replica].breaker.record_success(now_seconds)
        self._export_state(now_seconds)

    def record_failure(self, replica: int, now_seconds: float) -> None:
        state = self.replicas[replica]
        state.failures += 1
        state.breaker.record_failure(now_seconds)
        self._export_state(now_seconds)

    def mark_down(self, replica: int, until_seconds: float,
                  now_seconds: float) -> None:
        """Crash: the replica leaves rotation until ``until_seconds``."""
        state = self.replicas[replica]
        state.down_until = max(state.down_until, until_seconds)
        state.failures += 1
        state.breaker.record_failure(now_seconds)
        self._export_state(now_seconds)

    # ------------------------------------------------------------------
    # Hedging
    # ------------------------------------------------------------------
    def hedge_threshold(self, service_seconds: float) -> float:
        """Attempt duration beyond which a hedge launches."""
        return self.hedge_after_factor * service_seconds

    def hedged_latency(self, primary: int, primary_latency: float,
                       service_seconds: float,
                       now_seconds: float) -> float:
        """Effective latency of an attempt, hedging stragglers.

        If the primary attempt would overrun the hedge threshold and a
        second replica is free, the same (padded, data-independent) batch
        launches there after the threshold elapses; the earlier finisher
        wins. Returns the effective attempt latency.
        """
        threshold = self.hedge_threshold(service_seconds)
        if primary_latency <= threshold:
            return primary_latency
        secondary = self.select(now_seconds + threshold, exclude=(primary,))
        if secondary is None:
            return primary_latency
        self.replicas[secondary].hedges += 1
        get_registry().counter("resilience.hedges_total").inc()
        hedged = threshold + service_seconds
        effective = min(primary_latency, hedged)
        # Whichever finished first serves the batch; both replicas stay
        # healthy (a slow success is not a breaker failure).
        self.record_success(secondary, now_seconds + effective)
        return effective

    # ------------------------------------------------------------------
    def _export_state(self, now_seconds: float) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        worst = max(replica.breaker.state_value(now_seconds)
                    for replica in self.replicas)
        registry.gauge("breaker.state").set(worst)
        registry.gauge("resilience.healthy_replicas").set(
            self.healthy_count(now_seconds))

    def health_summary(self, now_seconds: float) -> Dict[str, int]:
        """Aggregate, secret-free fleet health counts.

        This is the only dispatcher view the autoscale control loop reads:
        whole-fleet counts, never per-request or per-table state, so a
        scale decision derived from it cannot encode anything about
        request content. ``crashed`` counts replicas inside a crash
        window; ``open_breakers``/``half_open_breakers`` count breaker
        states at ``now_seconds``.
        """
        from repro.resilience.breaker import HALF_OPEN, OPEN

        open_breakers = half_open = crashed = 0
        for replica in self.replicas:
            if replica.crashed(now_seconds):
                crashed += 1
            state = replica.breaker.state(now_seconds)
            if state == OPEN:
                open_breakers += 1
            elif state == HALF_OPEN:
                half_open += 1
        return {
            "num_replicas": self.num_replicas,
            "healthy": self.healthy_count(now_seconds),
            "open_breakers": open_breakers,
            "half_open_breakers": half_open,
            "crashed": crashed,
        }

    def snapshot(self, now_seconds: float) -> Dict[str, object]:
        """JSON-ready fleet health view."""
        return {
            "num_replicas": self.num_replicas,
            "min_replicas": self.min_replicas,
            "admitted": self.admitted(now_seconds),
            "evicted": self.evicted(now_seconds),
            "states": [replica.breaker.state(now_seconds)
                       for replica in self.replicas],
            "dispatched": [replica.dispatched for replica in self.replicas],
            "failures": [replica.failures for replica in self.replicas],
            "hedges": [replica.hedges for replica in self.replicas],
            "trips": [replica.breaker.trips for replica in self.replicas],
            "readmissions": [replica.breaker.readmissions
                             for replica in self.replicas],
        }
