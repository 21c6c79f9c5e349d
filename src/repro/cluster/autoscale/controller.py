"""The elastic autoscaler: a hysteresis controller that cannot leak.

Scale decisions are the coarsest observable a serving fleet emits — node
counts are visible to anyone watching the rack, so if the controller's
output depends on *what* users asked for (not just *how much*), elasticity
becomes a side channel. The :class:`Autoscaler` therefore derives its
target node count from :class:`~repro.cluster.autoscale.signals
.ClusterSignals` aggregates alone, and — like the shard planner and the
migration planner before it — the obliviousness is *enforced*, not
assumed: :meth:`Autoscaler.decide` accepts the observed workload a
load-chasing controller would want, records every decision in the
``cluster.autoscale`` tracer region, and
:func:`scaling_subject` replays the controller over the same signal
timeline under contrasting skew profiles in exact mode
(``LeakageAuditor().require(scaling_subject(...))`` is the gate). A
compliant controller produces one byte-identical decision trace for every
skew; :class:`HotLoadChasingController` (scale toward the hot tables —
the "natural" demand-follower) is the in-tree negative control the audit
must flag.

The control law itself is deliberately boring — utilisation bands with
streak-based hysteresis and a post-decision cooldown:

* utilisation >= ``high_utilisation`` for ``breach_ticks`` consecutive
  snapshots scales up by ``step_nodes`` (capped at ``max_nodes``);
* utilisation <= ``low_utilisation`` for ``breach_ticks`` snapshots
  scales down — unless the fleet is unhealthy (open/half-open breakers
  or crashed replicas: shrinking a degraded fleet trades redundancy for
  savings exactly when redundancy is being consumed) or the target would
  drop below ``max(min_nodes, replication)``, the R-redundancy floor;
* every scale decision starts a ``cooldown_ticks`` hold so the fleet
  observes the *new* capacity before judging it.

Blocked decisions do not reset the breach streak: the moment the blocker
clears, the backlog of evidence still stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.cluster.autoscale.signals import ClusterSignals
from repro.oblivious.trace import WRITE, MemoryTracer
from repro.telemetry.audit import MODE_EXACT, AuditSubject
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive

#: tracer region every scale decision is recorded under
AUTOSCALE_REGION = "cluster.autoscale"

ACTION_HOLD = "hold"
ACTION_UP = "scale-up"
ACTION_DOWN = "scale-down"
ACTION_BLOCKED = "blocked"

#: stable numeric encoding of actions for the trace address
_ACTION_VALUES = {ACTION_HOLD: 0, ACTION_UP: 1, ACTION_DOWN: 2,
                  ACTION_BLOCKED: 3}


@dataclass(frozen=True)
class AutoscaleConfig:
    """Bands, hysteresis and floors for the elastic control loop."""

    min_nodes: int
    max_nodes: int
    high_utilisation: float = 0.80
    low_utilisation: float = 0.30
    breach_ticks: int = 2
    cooldown_ticks: int = 1
    step_nodes: int = 1

    def __post_init__(self) -> None:
        check_positive("min_nodes", self.min_nodes)
        check_positive("max_nodes", self.max_nodes)
        check_positive("breach_ticks", self.breach_ticks)
        check_positive("step_nodes", self.step_nodes)
        if self.cooldown_ticks < 0:
            raise ValueError(f"cooldown_ticks must be >= 0, got "
                             f"{self.cooldown_ticks}")
        if self.min_nodes > self.max_nodes:
            raise ValueError(
                f"min_nodes {self.min_nodes} exceeds max_nodes "
                f"{self.max_nodes}")
        if not 0.0 < self.low_utilisation < self.high_utilisation:
            raise ValueError(
                f"need 0 < low_utilisation < high_utilisation, got "
                f"{self.low_utilisation!r} / {self.high_utilisation!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "min_nodes": self.min_nodes,
            "max_nodes": self.max_nodes,
            "high_utilisation": self.high_utilisation,
            "low_utilisation": self.low_utilisation,
            "breach_ticks": self.breach_ticks,
            "cooldown_ticks": self.cooldown_ticks,
            "step_nodes": self.step_nodes,
        }


@dataclass(frozen=True)
class ScaleDecision:
    """One tick's verdict: hold, scale, or refuse to scale."""

    tick: int
    action: str
    reason: str
    current_nodes: int
    target_nodes: int

    @property
    def scales(self) -> bool:
        return self.action in (ACTION_UP, ACTION_DOWN)

    def to_dict(self) -> Dict[str, object]:
        return {
            "tick": self.tick,
            "action": self.action,
            "reason": self.reason,
            "current_nodes": self.current_nodes,
            "target_nodes": self.target_nodes,
        }


class Autoscaler:
    """Derives target node counts from secret-free signals, audited."""

    def __init__(self, config: AutoscaleConfig) -> None:
        self.config = config
        self._high_streak = 0
        self._low_streak = 0
        self._cooldown = 0

    # ------------------------------------------------------------------
    def decide(self, signals: ClusterSignals,
               workload: Optional[Sequence[int]] = None,
               tracer: Optional[MemoryTracer] = None) -> ScaleDecision:
        """One control step; records the decision on ``tracer``.

        ``workload`` is the observed index trace a load-chasing controller
        would want; this controller accepts it only so the
        :func:`scaling_subject` audit can verify it is ignored. The
        trace address encodes (tick, target, action), so any
        workload-dependent decision shows up as exact-mode divergence.
        """
        decision = self._decide(signals, workload)
        if tracer is not None:
            tracer.record(WRITE, AUTOSCALE_REGION,
                          (decision.tick * 1024 + decision.target_nodes) * 4
                          + _ACTION_VALUES[decision.action])
        registry = get_registry()
        if registry.enabled:
            registry.counter("autoscale.decisions_total").inc()
            if decision.action == ACTION_UP:
                registry.counter("autoscale.scale_up_total").inc()
            elif decision.action == ACTION_DOWN:
                registry.counter("autoscale.scale_down_total").inc()
            elif decision.action == ACTION_BLOCKED:
                registry.counter("autoscale.blocked_total").inc()
            registry.gauge("autoscale.target_nodes").set(
                decision.target_nodes)
        return decision

    # ------------------------------------------------------------------
    def _decide(self, signals: ClusterSignals,
                workload: Optional[Sequence[int]]) -> ScaleDecision:
        """The pure control law: signals in, decision out."""
        config = self.config
        current = signals.current_nodes
        if signals.utilisation >= config.high_utilisation:
            self._high_streak += 1
            self._low_streak = 0
        elif signals.utilisation <= config.low_utilisation:
            self._low_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = 0
            self._low_streak = 0

        if self._cooldown > 0:
            self._cooldown -= 1
            return ScaleDecision(signals.tick, ACTION_HOLD, "cooldown",
                                 current, current)

        if self._high_streak >= config.breach_ticks:
            target = min(current + config.step_nodes, config.max_nodes)
            if target == current:
                return ScaleDecision(signals.tick, ACTION_BLOCKED,
                                     "at-max-nodes", current, current)
            self._high_streak = 0
            self._cooldown = config.cooldown_ticks
            return ScaleDecision(signals.tick, ACTION_UP,
                                 "high-utilisation", current, target)

        if self._low_streak >= config.breach_ticks:
            floor = max(config.min_nodes, signals.replication)
            target = max(current - config.step_nodes, floor)
            if target == current:
                return ScaleDecision(signals.tick, ACTION_BLOCKED,
                                     "replication-floor", current, current)
            if signals.unhealthy_nodes > 0:
                # Never shrink a degraded fleet; the streak survives so
                # the scale-down fires the tick the fleet heals.
                return ScaleDecision(signals.tick, ACTION_BLOCKED,
                                     "breakers-open", current, current)
            self._low_streak = 0
            self._cooldown = config.cooldown_ticks
            return ScaleDecision(signals.tick, ACTION_DOWN,
                                 "low-utilisation", current, target)

        return ScaleDecision(signals.tick, ACTION_HOLD, "within-band",
                             current, current)


class HotLoadChasingController(Autoscaler):
    """The anti-pattern: chase the hot tables with extra capacity.

    Bins the observed workload into per-table heat and adds a node
    whenever the heat concentrates away from table 0 — the "natural"
    demand-follower that encodes which embeddings are popular into the
    (public) fleet size. Kept only as the negative control for the
    scaling leakage audit and its regression test; never let it drive a
    real fleet.
    """

    def _decide(self, signals: ClusterSignals,
                workload: Optional[Sequence[int]]) -> ScaleDecision:
        decision = super()._decide(signals, workload)
        if workload is None or len(workload) == 0:
            return decision
        observed = np.asarray(workload, dtype=np.int64)
        if int(np.argmax(np.bincount(observed))) == 0:
            return decision
        target = min(decision.target_nodes + 1, self.config.max_nodes)
        return ScaleDecision(decision.tick, ACTION_UP, "hot-load-chase",
                             decision.current_nodes, target)


# ----------------------------------------------------------------------
# The scaling-level leakage check (judged by LeakageAuditor).
# ----------------------------------------------------------------------
def scaling_subject(controller_factory: Callable[[], Autoscaler],
                    timeline: Sequence[ClusterSignals],
                    workloads: Sequence[Sequence[int]],
                    name: str = "autoscaler",
                    expect_oblivious: bool = True) -> AuditSubject:
    """Wrap a controller as an :class:`AuditSubject`.

    Each replay builds a *fresh* controller (hysteresis state must not
    carry across secrets) and walks it through the same recorded signal
    timeline; only the workload changes between replays, so any trace
    divergence is the workload's doing.
    """
    if not timeline:
        raise ValueError("scaling audit needs a non-empty signal timeline")

    def run(tracer: MemoryTracer, secret: Sequence[int]) -> None:
        controller = controller_factory()
        for signals in timeline:
            controller.decide(signals, workload=secret, tracer=tracer)

    return AuditSubject(name, run, workloads, mode=MODE_EXACT,
                        expect_oblivious=expect_oblivious)
