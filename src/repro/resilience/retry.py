"""Retry budgets: exponential backoff + jitter and per-request deadlines.

Retries in an oblivious serving stack are latency policy, not security
policy — a retried batch re-executes the *same* data-independent schedule,
so the only questions are how long to wait between attempts and when to
give up. :class:`RetryPolicy` answers both: a capped exponential backoff
with deterministic jitter (the jitter draw comes from the fault injector's
seeded stream, keeping chaos runs replayable) and a per-request deadline
budget that composes with the batcher's admission wait.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_finite,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How failed batch attempts are retried.

    ``deadline_seconds`` is the end-to-end per-request budget measured from
    the request's *arrival* — it covers batching wait, every attempt, and
    every backoff. A budget smaller than the batcher's ``max_wait_seconds``
    could expire before the first attempt even launches, which is a
    configuration contradiction; :meth:`validate_against` rejects it.
    """

    max_attempts: int = 4
    base_backoff_seconds: float = 0.002
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 0.100
    jitter_fraction: float = 0.1
    deadline_seconds: float = 0.500

    def __post_init__(self) -> None:
        check_positive("max_attempts", self.max_attempts)
        check_positive_finite("base_backoff_seconds",
                              self.base_backoff_seconds)
        if not self.backoff_multiplier >= 1.0:
            raise ValueError(f"backoff_multiplier must be >= 1, got "
                             f"{self.backoff_multiplier!r}")
        check_positive_finite("max_backoff_seconds", self.max_backoff_seconds)
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError(f"jitter_fraction must be in [0, 1], got "
                             f"{self.jitter_fraction!r}")
        check_positive_finite("deadline_seconds", self.deadline_seconds)

    # ------------------------------------------------------------------
    def backoff_seconds(self, attempt: int, jitter_u: float = 0.5) -> float:
        """Wait before retry number ``attempt`` (0-based), jittered.

        ``jitter_u`` is a uniform [0, 1) variate — pass the fault
        injector's deterministic draw for replayable schedules. Jitter
        scales the capped exponential delay into
        ``[1 - jitter_fraction, 1 + jitter_fraction]``.
        """
        check_non_negative("attempt", attempt)
        if not 0.0 <= jitter_u <= 1.0:
            raise ValueError(f"jitter_u must be in [0, 1], got {jitter_u!r}")
        delay = min(self.base_backoff_seconds
                    * self.backoff_multiplier ** attempt,
                    self.max_backoff_seconds)
        return delay * (1.0 + self.jitter_fraction * (2.0 * jitter_u - 1.0))

    def deadline_for(self, arrival_seconds: float) -> float:
        """Absolute deadline of a request that arrived at ``arrival``."""
        return arrival_seconds + self.deadline_seconds

    def validate_against(self, batching_policy) -> None:
        """Reject deadlines the batcher alone could exhaust.

        ``batching_policy`` is a
        :class:`~repro.serving.batcher.BatchingPolicy`; its
        ``max_wait_seconds`` admission delay spends the same budget, so the
        deadline must strictly exceed it.
        """
        if self.deadline_seconds <= batching_policy.max_wait_seconds:
            raise ValueError(
                f"deadline_seconds {self.deadline_seconds} must exceed the "
                f"batcher's max_wait_seconds "
                f"{batching_policy.max_wait_seconds}; the budget would "
                f"expire during admission")
