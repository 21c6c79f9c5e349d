"""The hybrid scheme: profiling, thresholds, allocation, co-location planning."""

from repro.hybrid.allocator import (
    FeatureAllocation,
    allocate_by_threshold,
    allocate_for_configuration,
    allocation_latency,
    allocation_technique,
    apply_allocations,
    count_scan_features,
)
from repro.hybrid.deployment import (
    HybridDeployment,
    load_hybrid_deployment,
    save_hybrid_deployment,
)
from repro.hybrid.colocation_planner import (
    ModelTenant,
    dlrm_tenant,
    mixed_allocation_latency,
)
from repro.hybrid.profiler import (
    DEFAULT_SIZE_GRID,
    TECHNIQUES,
    OfflineProfiler,
    ProfileDatabase,
    ProfileKey,
)
from repro.hybrid.tuning import (
    SizeSearchResult,
    default_shape_ladder,
    dlrm_quality_fn,
    find_minimal_dhe_shape,
)
from repro.hybrid.thresholds import (
    ThresholdDatabase,
    ThresholdKey,
    build_threshold_database,
    dlrm_threshold_model,
    hybrid_eligible_range,
    intersect_curves,
)

__all__ = [
    "HybridDeployment",
    "load_hybrid_deployment",
    "save_hybrid_deployment",
    "FeatureAllocation",
    "allocate_by_threshold",
    "allocate_for_configuration",
    "allocation_latency",
    "allocation_technique",
    "apply_allocations",
    "count_scan_features",
    "ModelTenant",
    "dlrm_tenant",
    "mixed_allocation_latency",
    "DEFAULT_SIZE_GRID",
    "TECHNIQUES",
    "OfflineProfiler",
    "ProfileDatabase",
    "ProfileKey",
    "SizeSearchResult",
    "default_shape_ladder",
    "dlrm_quality_fn",
    "find_minimal_dhe_shape",
    "ThresholdDatabase",
    "ThresholdKey",
    "build_threshold_database",
    "dlrm_threshold_model",
    "hybrid_eligible_range",
    "intersect_curves",
]
