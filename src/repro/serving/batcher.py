"""Dynamic batching: max-batch-size + max-wait-timeout admission.

Replaces the seed assumption that requests arrive exactly at batch
boundaries. A batch launches when either it is full or the oldest waiting
request has waited ``max_wait_seconds`` (and the replica is free); partial
batches execute at the configured batch shape, so service time comes from
the engine's backend once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.metrics import power_of_two_buckets
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class BatchingPolicy:
    """Admission policy of one replica's batcher.

    ``max_wait_seconds = 0`` is the greedy policy: launch with whatever has
    arrived the moment the replica frees up (the seed's batch-boundary
    behaviour when arrivals align with batch completions).
    """

    max_batch_size: int
    max_wait_seconds: float = 0.0

    def __post_init__(self) -> None:
        check_positive("max_batch_size", self.max_batch_size)
        check_non_negative("max_wait_seconds", self.max_wait_seconds)


@dataclass(frozen=True)
class ScheduledBatch:
    """One executed batch over requests ``[first, last)`` of the trace."""

    first: int
    last: int
    start_seconds: float
    service_seconds: float

    @property
    def size(self) -> int:
        return self.last - self.first

    @property
    def finish_seconds(self) -> float:
        return self.start_seconds + self.service_seconds


class DynamicBatcher:
    """Event-driven single-replica batching simulation.

    Given a sorted arrival trace and a per-batch service-time function, the
    batcher walks the trace: the replica opens a batch at
    ``max(free_at, oldest arrival)``, admits requests until the batch fills
    or the oldest request's wait deadline passes, then executes.
    """

    def __init__(self, policy: BatchingPolicy,
                 lookahead: Optional[Callable[[ScheduledBatch, np.ndarray],
                                              None]] = None) -> None:
        self.policy = policy
        #: lookahead consumer: called with (batch, the batch's block ids)
        #: the moment each batch is formed, *before* it is dispatched — the
        #: seam batched ORAM access plans against (LAORAM). With no
        #: consumer registered the serve path is byte-identical to before.
        self.lookahead = lookahead

    def schedule(self, arrivals: Sequence[float],
                 service_time: Callable[[int], float],
                 block_ids: Optional[np.ndarray] = None
                 ) -> List[ScheduledBatch]:
        """Batch the trace; ``service_time(n)`` is seconds for an n-request batch.

        ``block_ids`` (one row per arrival) feeds the lookahead consumer:
        each formed batch's rows are handed over before dispatch.
        """
        if self.lookahead is not None and block_ids is None:
            raise ValueError("a lookahead consumer is registered but "
                             "schedule() was not given block_ids")
        if block_ids is not None:
            block_ids = np.asarray(block_ids)
            if block_ids.shape[0] != len(arrivals):
                raise ValueError(
                    f"block_ids has {block_ids.shape[0]} rows for "
                    f"{len(arrivals)} arrivals")
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arrivals.ndim != 1:
            raise ValueError("need a 1-D array of arrival times")
        if arrivals.size == 0:
            # An empty trace (an idle pipeline stage's window) schedules
            # nothing: no batches, and the lookahead consumer is never
            # called — announcing zero ids is a no-op, not an error.
            return []
        if not np.isfinite(arrivals).all():
            raise ValueError("arrival times must be finite (no NaN/inf)")
        if np.any(np.diff(arrivals) < 0):
            raise ValueError("arrival times must be sorted")
        max_batch = self.policy.max_batch_size
        max_wait = self.policy.max_wait_seconds

        batches: List[ScheduledBatch] = []
        full_launches = 0
        free_at = 0.0
        i, n = 0, int(arrivals.size)
        while i < n:
            oldest = float(arrivals[i])
            open_time = max(free_at, oldest)
            close_time = max(open_time, oldest + max_wait)
            j = i + 1
            while j < n and (j - i) < max_batch and arrivals[j] <= close_time:
                j += 1
            if (j - i) == max_batch:
                # Filled before the deadline: launch as soon as the last
                # admitted request is in (and the replica is free).
                start = max(open_time, float(arrivals[j - 1]))
                full_launches += 1
            else:
                # Timeout fired (or the trace ran dry inside the window).
                start = close_time
            service = service_time(j - i)
            if service <= 0:
                raise ValueError(
                    f"service_time must be positive, got {service}")
            batch = ScheduledBatch(first=i, last=j, start_seconds=start,
                                   service_seconds=service)
            if self.lookahead is not None:
                # Formed but not yet dispatched: the ORAM layer can plan
                # the whole batch's accesses before serving starts.
                self.lookahead(batch, block_ids[i:j])
            batches.append(batch)
            free_at = start + service
            i = j
        self._report(batches, full_launches)
        return batches

    def _report(self, batches: List[ScheduledBatch],
                full_launches: int) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter("batcher.batches_total").inc(len(batches))
        registry.counter("batcher.full_launches_total").inc(full_launches)
        registry.counter("batcher.timeout_launches_total").inc(
            len(batches) - full_launches)
        registry.histogram("batcher.batch_size",
                           buckets=power_of_two_buckets()).observe_many(
            [batch.size for batch in batches])
        registry.histogram("batcher.service_seconds").observe_many(
            [batch.service_seconds for batch in batches])


def settle(batches: Sequence[ScheduledBatch], arrivals: np.ndarray,
           executed: Optional[Sequence[float]] = None
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fault-free execution of a schedule, per request.

    Every request of a batch waits from its arrival to the batch start, is
    served for the batch's executed time — ``executed[k]`` when given (a
    cache's per-batch times), else the scheduled slot — and leaves at the
    batch's finish. Returns ``(queue_delays, service_latencies,
    departures)``; departures are one value per batch (start + executed),
    never rebuilt per request as arrival + latency, which would put
    co-departing requests 1 ulp apart and split them downstream. This is
    the one place a schedule becomes per-request arrays; the fault-aware
    counterpart is :func:`repro.resilience.policy.execute_with_resilience`.
    """
    if executed is None:
        executed = [batch.service_seconds for batch in batches]
    elif len(executed) != len(batches):
        raise ValueError(f"executed has {len(executed)} entries for "
                         f"{len(batches)} batches")
    # Batches tile the trace in order, so one repeat per array replaces a
    # per-batch window fill (same IEEE operations, element for element).
    sizes = [batch.size for batch in batches]
    starts = np.array([batch.start_seconds for batch in batches],
                      dtype=np.float64)
    executed = np.asarray(executed, dtype=np.float64)
    queue_delays = np.repeat(starts, sizes) - arrivals
    return (queue_delays, np.repeat(executed, sizes),
            np.repeat(starts + executed, sizes))
