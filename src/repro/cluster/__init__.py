"""Sharded multi-node oblivious serving.

Scales the paper's single-host hybrid allocation (Algorithms 2/3) out to a
simulated cluster: capacity-aware, traffic-blind placement
(:mod:`repro.cluster.placement`), consistent-hash routing with replication
and breaker-driven failover (:mod:`repro.cluster.router`), cross-shard
scatter-gather execution (:mod:`repro.cluster.scatter`), the plan-epoch
control plane with live, audited table migration
(:mod:`repro.cluster.epoch`, :mod:`repro.cluster.migration`), the
self-healing elastic fleet (:mod:`repro.cluster.autoscale`), and the
gated sweeps (``python -m repro.cluster.sim``,
``python -m repro.cluster.migrate``,
``python -m repro.cluster.autoscale``).
"""

from repro.cluster.autoscale import (
    AUTOSCALE_REGION,
    Autoscaler,
    AutoscaleConfig,
    ClusterSignals,
    ElasticFleet,
    HotLoadChasingController,
    ScaleDecision,
    SignalPlane,
    heal_moves,
    scaling_subject,
)
from repro.cluster.epoch import (
    EpochControlPlane,
    PlanEpoch,
    UnknownEpochError,
)
from repro.cluster.migration import (
    MIGRATION_REGION,
    BandwidthContentionModel,
    HotFirstMigrationPlanner,
    MigrationEngine,
    MigrationPlanner,
    MigrationReport,
    MigrationStep,
    TableMove,
    TransitioningOwnerMap,
    default_migration_workloads,
    migration_subject,
)
from repro.cluster.placement import (
    PLACEMENT_REGION,
    FrequencyKeyedPlanner,
    PlacementError,
    PlanBook,
    RingPlanner,
    ShardPlan,
    ShardPlanner,
    TablePlacement,
    placement_subject,
)
from repro.cluster.router import ShardRouter, replica_table_sets, ring_hash
# repro.cluster.sim and repro.cluster.migrate are deliberately NOT imported
# here: they are the ``python -m`` entry points, and importing them from the
# package would shadow the runpy execution (and slow ``import repro.cluster``
# down with the experiment machinery).
from repro.cluster.scatter import (
    ClusterServingReport,
    ClusterUnavailableError,
    ScatterGatherEngine,
)

__all__ = [
    "AUTOSCALE_REGION",
    "Autoscaler",
    "AutoscaleConfig",
    "ClusterSignals",
    "ElasticFleet",
    "HotLoadChasingController",
    "ScaleDecision",
    "SignalPlane",
    "heal_moves",
    "scaling_subject",
    "EpochControlPlane",
    "PlanEpoch",
    "UnknownEpochError",
    "MIGRATION_REGION",
    "BandwidthContentionModel",
    "HotFirstMigrationPlanner",
    "MigrationEngine",
    "MigrationPlanner",
    "MigrationReport",
    "MigrationStep",
    "TableMove",
    "TransitioningOwnerMap",
    "default_migration_workloads",
    "migration_subject",
    "PLACEMENT_REGION",
    "FrequencyKeyedPlanner",
    "PlacementError",
    "PlanBook",
    "RingPlanner",
    "ShardPlan",
    "ShardPlanner",
    "TablePlacement",
    "placement_subject",
    "ShardRouter",
    "replica_table_sets",
    "ring_hash",
    "ClusterServingReport",
    "ClusterUnavailableError",
    "ScatterGatherEngine",
]
