"""Request arrival processes for the serving simulation.

The seed simulator assumed requests arrive exactly at batch boundaries; a
real front-end sees an arrival *process*. This module provides the traces
the engine consumes: deterministic (fixed inter-arrival), Poisson (the open
system of Fig 13's throughput story), and the closed-loop batch-boundary
trace that reproduces the seed behaviour bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_finite,
)


@dataclass(frozen=True)
class Request:
    """One request: its position in the trace and its arrival time."""

    index: int
    arrival_seconds: float


def deterministic_arrivals(num_requests: int, interval_seconds: float,
                           start_seconds: float = 0.0) -> np.ndarray:
    """Fixed inter-arrival trace: request ``k`` arrives at ``start + k*dt``."""
    check_positive("num_requests", num_requests)
    check_non_negative("interval_seconds", interval_seconds)
    check_non_negative("start_seconds", start_seconds)
    return start_seconds + interval_seconds * np.arange(num_requests,
                                                        dtype=np.float64)


def poisson_arrivals(num_requests: int, rate_rps: float,
                     rng: SeedLike = None) -> np.ndarray:
    """Poisson process: exponential inter-arrivals at ``rate_rps`` req/s."""
    check_positive("num_requests", num_requests)
    check_positive_finite("rate_rps", rate_rps)
    generator = new_rng(rng)
    gaps = generator.exponential(1.0 / rate_rps, size=num_requests)
    return np.cumsum(gaps)


def batch_boundary_arrivals(num_requests: int, batch_size: int,
                            batch_latency_seconds: float) -> np.ndarray:
    """The seed simulator's closed-loop trace: each batch's requests arrive
    exactly when the server frees up, so queueing delay is identically zero.

    The accumulation (repeated addition of the batch latency) deliberately
    mirrors the engine's own clock so per-request latency reproduces the
    batch service time bit-for-bit.
    """
    check_positive("num_requests", num_requests)
    check_positive("batch_size", batch_size)
    check_positive("batch_latency_seconds", batch_latency_seconds)
    arrivals = np.empty(num_requests, dtype=np.float64)
    clock = 0.0
    for first in range(0, num_requests, batch_size):
        arrivals[first:first + batch_size] = clock
        clock = clock + batch_latency_seconds
    return arrivals


class RequestQueue:
    """An ordered trace of request arrival times (seconds)."""

    def __init__(self, arrivals) -> None:
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arrivals.ndim != 1 or arrivals.size == 0:
            raise ValueError("need a non-empty 1-D array of arrival times")
        if not np.isfinite(arrivals).all():
            raise ValueError("arrival times must be finite (no NaN/inf)")
        if arrivals.min() < 0:
            raise ValueError("arrival times must be non-negative")
        if np.any(np.diff(arrivals) < 0):
            arrivals = np.sort(arrivals)
        self.arrivals = arrivals

    @classmethod
    def coerce(cls, arrivals: "ArrivalsLike") -> "RequestQueue":
        """``arrivals`` itself if it already is a queue, else a new one."""
        return arrivals if isinstance(arrivals, cls) else cls(arrivals)

    @classmethod
    def poisson(cls, num_requests: int, rate_rps: float,
                rng: SeedLike = None) -> "RequestQueue":
        return cls(poisson_arrivals(num_requests, rate_rps, rng))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.arrivals.size)

    def __iter__(self) -> Iterator[Request]:
        for index, arrival in enumerate(self.arrivals):
            yield Request(index=index, arrival_seconds=float(arrival))

    def offered_load_rps(self) -> Optional[float]:
        """Mean arrival rate over the trace span (None for a single burst)."""
        span = float(self.arrivals[-1] - self.arrivals[0])
        if span <= 0:
            return None
        return (len(self) - 1) / span

    def __repr__(self) -> str:
        return (f"RequestQueue(n={len(self)}, "
                f"span={float(self.arrivals[-1] - self.arrivals[0]):.6f}s)")


#: What every ``serve`` entry point accepts as its arrival trace.
ArrivalsLike = Union[RequestQueue, Sequence[float], np.ndarray]
