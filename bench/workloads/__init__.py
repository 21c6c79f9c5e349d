"""The five workloads, by their final names (later issues refer to them)."""

from bench.workloads.audit_trace_replay import AuditTraceReplay
from bench.workloads.dlrm_hybrid_infer import DlrmHybridInfer
from bench.workloads.llm_oram_generate import LlmOramGenerate
from bench.workloads.sim_fleet_replay import SimFleetReplay
from bench.workloads.train_oram_online import TrainOramOnline

WORKLOADS = {cls.name: cls for cls in (
    DlrmHybridInfer, LlmOramGenerate, TrainOramOnline, SimFleetReplay,
    AuditTraceReplay)}
