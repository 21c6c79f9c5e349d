"""Fault tolerance for the oblivious serving stack.

Fault injection (:mod:`~repro.resilience.faults`, read only by the
resilient executor in :mod:`~repro.resilience.policy`), retry/deadline budgets
(:mod:`~repro.resilience.retry`), per-replica circuit breakers
(:mod:`~repro.resilience.breaker`), health-aware dispatch with hedging
(:mod:`~repro.resilience.dispatch`), obliviousness-preserving degradation
(:mod:`~repro.resilience.degradation`), and the chaos harness
(:mod:`~repro.resilience.chaos`). The serving package never imports this
one at module level — the engine pulls the executor in lazily, so the
fault-free path carries no resilience cost.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    STATE_VALUES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.resilience.degradation import (
    DEFAULT_CHAIN,
    FORBIDDEN_TECHNIQUE,
    OBLIVIOUS_TECHNIQUES,
    DegradationEvent,
    DegradationLadder,
)
from repro.resilience.dispatch import ReplicaState, ResilientDispatcher
from repro.resilience.faults import (
    FaultInjector,
    LatencySpikeFault,
    ReplicaCrashFault,
    StashPressureFault,
    TransientErrorFault,
)
from repro.resilience.policy import ResiliencePolicy, execute_with_resilience
from repro.resilience.report import ResilientServingReport
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "STATE_VALUES",
    "BreakerConfig",
    "CircuitBreaker",
    "DEFAULT_CHAIN",
    "FORBIDDEN_TECHNIQUE",
    "OBLIVIOUS_TECHNIQUES",
    "DegradationEvent",
    "DegradationLadder",
    "ReplicaState",
    "ResilientDispatcher",
    "FaultInjector",
    "LatencySpikeFault",
    "ReplicaCrashFault",
    "StashPressureFault",
    "TransientErrorFault",
    "ResiliencePolicy",
    "execute_with_resilience",
    "ResilientServingReport",
    "RetryPolicy",
]
