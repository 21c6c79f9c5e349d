"""Self-healing elastic autoscaling over the plan-epoch control plane.

A secret-free control loop: the :class:`~repro.cluster.autoscale.signals
.SignalPlane` snapshots whole-fleet aggregates on the simulated clock,
the :class:`~repro.cluster.autoscale.controller.Autoscaler` derives
target node counts with hysteresis and cooldown (audited: decisions must
replay byte-identically under contrasting skew profiles), and the
:class:`~repro.cluster.autoscale.fleet.ElasticFleet` turns decisions into
audited plan epochs and migrations — and dead nodes into heals through the
same path. The gated storm lives in ``python -m repro.cluster.autoscale``;
the LLM stage pools are the same fleet object.
"""

from repro.cluster.autoscale.controller import (
    ACTION_BLOCKED,
    ACTION_DOWN,
    ACTION_HOLD,
    ACTION_UP,
    AUTOSCALE_REGION,
    Autoscaler,
    AutoscaleConfig,
    HotLoadChasingController,
    ScaleDecision,
    scaling_subject,
)
from repro.cluster.autoscale.fleet import (
    KIND_HEAL,
    ElasticFleet,
    heal_moves,
)
from repro.cluster.autoscale.signals import ClusterSignals, SignalPlane

# repro.cluster.autoscale.sim is deliberately NOT imported here: it is the
# ``python -m repro.cluster.autoscale`` entry point (via __main__) and
# importing it eagerly would drag the experiment machinery into every
# ``import repro.cluster``.

__all__ = [
    "ACTION_BLOCKED",
    "ACTION_DOWN",
    "ACTION_HOLD",
    "ACTION_UP",
    "AUTOSCALE_REGION",
    "Autoscaler",
    "AutoscaleConfig",
    "HotLoadChasingController",
    "ScaleDecision",
    "scaling_subject",
    "KIND_HEAL",
    "ElasticFleet",
    "heal_moves",
    "ClusterSignals",
    "SignalPlane",
]
