"""Serving: the backend-agnostic execution engine and request pipeline.

The package unifies what used to live in three places (the serving loop,
the profiler's backend switch, the experiment scripts' direct cost-model
calls) behind one :class:`~repro.serving.backends.ExecutionBackend`
protocol, and models real request dynamics: arrival processes, dynamic
batching with a max-wait timeout, multi-replica dispatch under co-location
interference, and per-request queueing + service accounting.
"""

from repro.serving.backends import (
    BACKEND_NAMES,
    BACKEND_TECHNIQUES,
    ExecutionBackend,
    MeasuredBackend,
    ModelledBackend,
    resolve_backend,
)
from repro.serving.requests import (
    Request,
    RequestQueue,
    batch_boundary_arrivals,
    deterministic_arrivals,
    poisson_arrivals,
)
from repro.serving.batcher import BatchingPolicy, DynamicBatcher, ScheduledBatch
from repro.serving.report import ServingReport
from repro.serving.dispatcher import Dispatcher
from repro.serving.engine import ExecutionEngine, ServingConfig
from repro.serving.pipeline import (
    PipelineEngine,
    PipelineReport,
    PipelineStage,
    PricedStage,
    StageResult,
)

__all__ = [
    "BACKEND_NAMES",
    "BACKEND_TECHNIQUES",
    "ExecutionBackend",
    "MeasuredBackend",
    "ModelledBackend",
    "resolve_backend",
    "Request",
    "RequestQueue",
    "batch_boundary_arrivals",
    "deterministic_arrivals",
    "poisson_arrivals",
    "BatchingPolicy",
    "DynamicBatcher",
    "ScheduledBatch",
    "ServingReport",
    "Dispatcher",
    "ExecutionEngine",
    "ServingConfig",
    "PipelineEngine",
    "PipelineReport",
    "PipelineStage",
    "PricedStage",
    "StageResult",
]
