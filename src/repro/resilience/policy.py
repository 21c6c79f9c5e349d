"""The resilient batch executor: retries, breakers, hedging, shedding.

:func:`execute_with_resilience` replays a fault plan over the dynamic
batcher's schedule. The admission schedule itself stays fault-free — faults
only *post-process* execution through a cumulative slip, which is exactly
``0.0`` when no fault fires, so a resilience-wrapped engine with an inert
injector reproduces the plain engine's per-request arrays bit-for-bit
(the seed-parity regression pins this).

Per batch the executor runs an attempt loop: pick an admitted replica
(round-robin through the breaker-guarded fleet), resolve the injected
faults for that (batch, replica, attempt) coordinate, and either complete
(possibly spiked, possibly hedged), or back off and retry (transient error,
crash), or shed the batch once its deadline budget or attempt budget runs
out. Shed requests keep a censored latency (their deadline), so reported
percentiles reflect what clients observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.resilience.degradation import DegradationLadder
from repro.resilience.dispatch import ResilientDispatcher
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.telemetry.runtime import get_registry


@dataclass
class ResiliencePolicy:
    """Everything the resilient serving path needs, in one object.

    The replica fleet is a :class:`ResilientDispatcher` with its default
    breakers and hedging; batches are shed at their deadline only when the
    injector can fire, so an inert policy is a pure passthrough.
    """

    injector: FaultInjector = field(default_factory=FaultInjector)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    num_replicas: int = 3
    min_replicas: int = 1
    ladder: Optional[DegradationLadder] = None

    def __post_init__(self) -> None:
        if self.min_replicas > self.num_replicas:
            raise ValueError(
                f"min_replicas {self.min_replicas} exceeds num_replicas "
                f"{self.num_replicas}; the fleet can never be healthy")


def execute_with_resilience(batches: Sequence, arrivals: np.ndarray,
                            batch_service_seconds: Sequence[float],
                            policy: ResiliencePolicy) -> Dict[str, object]:
    """Execute a batch schedule under a fault plan.

    ``batches`` is the :class:`~repro.serving.batcher.DynamicBatcher`
    output (fault-free admission schedule) and ``batch_service_seconds``
    each batch's fault-free executed time — the priced slot, or what a
    cache declares (hits cheaper than the slot, a first batch carrying
    setup dearer). Faults stack on top of that baseline, and the slip a
    batch contributes is measured against its *own* baseline, so a
    fault-free run reproduces the plain engine's arrays bit-for-bit.
    Returns per-request ``queue_delays``, ``service_latencies`` and
    ``departures`` (one finish time per batch, as
    :func:`~repro.serving.batcher.settle` emits them) plus the fault-run
    ``stats`` that
    :class:`~repro.resilience.report.ResilientServingReport` carries.
    """
    if len(batch_service_seconds) != len(batches):
        raise ValueError(
            f"batch_service_seconds has {len(batch_service_seconds)} "
            f"entries for {len(batches)} batches")
    injector = policy.injector
    retry = policy.retry
    dispatcher = ResilientDispatcher(policy.num_replicas,
                                     policy.min_replicas)
    registry = get_registry()

    queue_delays = np.empty(arrivals.size, dtype=np.float64)
    service_latencies = np.empty(arrivals.size, dtype=np.float64)
    departures = np.empty(arrivals.size, dtype=np.float64)

    slip = 0.0  # cumulative fault-induced delay; exactly 0.0 fault-free
    attempts_total = 0
    retries_total = 0
    shed_requests = 0
    crash_events = 0
    transient_faults = 0
    spike_events = 0

    for index, batch in enumerate(batches):
        base = float(batch_service_seconds[index])
        window = slice(batch.first, batch.last)
        start = batch.start_seconds + slip
        queue_delays[window] = start - arrivals[window]

        # A batch under stash pressure is one signal to the ladder.
        if policy.ladder is not None and injector.stash is not None:
            if injector.stash_pressured(index):
                policy.ladder.record_pressure("stash-pressure", index)
            else:
                policy.ladder.record_recovery()

        deadline = (retry.deadline_for(float(arrivals[batch.first]))
                    if injector.enabled else math.inf)

        # ``waited`` accumulates backoff/eviction delay within this batch;
        # the fault-free path never touches it, so ``0.0 + latency`` keeps
        # the plain engine's per-request numbers bit-for-bit.
        waited = 0.0
        elapsed = None
        for attempt in range(retry.max_attempts):
            now = start + waited
            if now >= deadline:
                break
            replica = dispatcher.select(now)
            if replica is None:
                # Whole fleet evicted: wait for the first readmission.
                rejoin = dispatcher.next_admission_at(now)
                if not math.isfinite(rejoin) or rejoin >= deadline:
                    break
                waited = rejoin - start
                now = rejoin
                replica = dispatcher.select(now)
                if replica is None:
                    break
            attempts_total += 1
            if injector.crashes(replica, index, attempt):
                crash_events += 1
                dispatcher.mark_down(
                    replica, now + injector.crash.downtime_seconds, now)
                registry.counter("resilience.crashes_total").inc()
            elif injector.transient_error(replica, index, attempt):
                transient_faults += 1
                dispatcher.record_failure(replica, now)
                registry.counter("resilience.transients_total").inc()
            else:
                multiplier = injector.spike_multiplier(replica, index,
                                                       attempt)
                if multiplier > 1.0:
                    spike_events += 1
                    registry.counter("resilience.spikes_total").inc()
                latency = dispatcher.hedged_latency(
                    replica, base * multiplier, base, now)
                dispatcher.record_success(replica, now + latency)
                elapsed = waited + latency
                break
            # Failed attempt: back off (jittered deterministically).
            retries_total += 1
            registry.counter("resilience.retries_total").inc()
            waited += retry.backoff_seconds(attempt,
                                            injector.jitter(index, attempt))

        if elapsed is None:
            # Shed: censor the batch's latency at its deadline.
            shed = batch.last - batch.first
            shed_requests += shed
            registry.counter("resilience.shed_total").inc(shed)
            elapsed = (max(0.0, deadline - start)
                       if math.isfinite(deadline) else waited)
        service_latencies[window] = elapsed
        departures[window] = start + elapsed
        slip += max(0.0, elapsed - base)

    stats = {
        "attempts_total": attempts_total,
        "retries_total": retries_total,
        "hedges_total": sum(replica.hedges
                            for replica in dispatcher.replicas),
        "shed_requests": shed_requests,
        "crash_events": crash_events,
        "transient_faults": transient_faults,
        "spike_events": spike_events,
        "degradation_events": (list(policy.ladder.events)
                               if policy.ladder is not None else []),
        "fleet_snapshot": dispatcher.snapshot(
            float(batches[-1].start_seconds) + slip if batches else 0.0),
    }
    return {"queue_delays": queue_delays,
            "service_latencies": service_latencies,
            "departures": departures,
            "stats": stats}
