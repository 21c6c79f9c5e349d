"""``sim_fleet_replay``: host time of the serving simulators.

One op replays three fixed seeded Poisson traces with the modelled
backend: ``ExecutionEngine.serve`` (Terabyte, batch 32),
``ScatterGatherEngine.serve`` (4 nodes, replication 2, planner-placed,
0.25 s deadline) and the three-stage LLM ``PipelineEngine``. No
ORAM/DHE/nn compute runs, so oblivious-core work must not move this
workload, while observability and harness refactors show up here. The
simulated statistics must be bit-identical from op to op.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import numpy as np

from repro.cluster import ScatterGatherEngine, ShardPlanner, ShardRouter
from repro.costmodel import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.llm import build_llm_pipeline
from repro.resilience import RetryPolicy
from repro.serving import BatchingPolicy, ExecutionEngine, ServingConfig
from repro.serving.batcher import DynamicBatcher
from repro.serving.requests import poisson_arrivals

from bench import probes
from bench.trace import SpanRecorder, inclusive_seconds
from bench.workloads.base import Workload, digest_arrays, modelled_thresholds

BATCH = 32
ENGINE_TRACE = (50_000, 1500.0)
SCATTER_TRACE = (10_000, 4000.0)
PIPELINE_TRACE = (1_000, 200.0)
NODES, REPLICATION = 4, 2
DEADLINE_SECONDS = 0.25


class SimFleetReplay(Workload):
    name = "sim_fleet_replay"
    work_unit = "simulated requests"
    warmup_ops = 3
    traced_ops = 20

    def make_inputs(self) -> str:
        # One pool item: the three traces are replayed together by an op.
        traces = tuple(
            poisson_arrivals(count, rate,
                             rng=np.random.default_rng((self.seed, stream)))
            for stream, (count, rate) in enumerate(
                (ENGINE_TRACE, SCATTER_TRACE, PIPELINE_TRACE)))
        self.pool = [traces]
        return digest_arrays(traces)

    def setup(self) -> None:
        spec = TERABYTE_SPEC
        dim = spec.embedding_dim
        uniform = DLRM_DHE_UNIFORM_64
        thresholds = modelled_thresholds(uniform, dim, BATCH)
        self.config = ServingConfig(batch_size=BATCH, threads=1)
        self.policy = BatchingPolicy(max_batch_size=BATCH,
                                     max_wait_seconds=0.002)
        self.engine = ExecutionEngine(spec.table_sizes, dim, uniform,
                                      thresholds)
        plan = ShardPlanner(NODES, thresholds, dim, uniform).plan(
            spec.table_sizes, self.config)
        router = ShardRouter(NODES, replication=REPLICATION, plan=plan)
        self.scatter = ScatterGatherEngine(
            spec.table_sizes, dim, uniform, thresholds, router,
            retry=RetryPolicy(deadline_seconds=DEADLINE_SECONDS))
        self.pipeline = build_llm_pipeline()
        self.digests: List[str] = []
        self.last_reports = None

    def op(self, traces):
        engine_trace, scatter_trace, pipeline_trace = traces
        return (self.engine.serve(self.config, engine_trace, self.policy),
                self.scatter.serve(self.config, scatter_trace, self.policy),
                self.pipeline.serve(pipeline_trace))

    def work(self, out) -> int:
        return ENGINE_TRACE[0] + SCATTER_TRACE[0] + PIPELINE_TRACE[0]

    def after_op(self, index: int, traces, out) -> bool:
        engine, scatter, pipeline = out
        hasher = hashlib.sha256(engine.latencies.tobytes())
        for report in (scatter, pipeline):
            hasher.update(json.dumps(report.to_dict(), sort_keys=True,
                                     allow_nan=False).encode())
        self.digests.append(hasher.hexdigest())
        self.last_reports = out
        return self.digests[-1] == self.digests[0]

    # -- traced run ------------------------------------------------------
    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(self.engine, "serve", "engine.serve")
        rec.wrap(self.scatter, "serve", "scatter.serve")
        rec.wrap(self.pipeline, "serve", "pipeline.serve")

    def layer_metrics(self, spans, ops, counts) -> Dict[str, float]:
        engine, scatter, pipeline = self.last_reports

        def us_per_request(name: str, requests: int) -> float:
            return inclusive_seconds(spans, name) * 1e6 / (ops * requests)

        return {
            "engine.serve_us_per_req": us_per_request(
                "engine.serve", ENGINE_TRACE[0]),
            "scatter.serve_us_per_req": us_per_request(
                "scatter.serve", SCATTER_TRACE[0]),
            "pipeline.serve_us_per_req": us_per_request(
                "pipeline.serve", PIPELINE_TRACE[0]),
            "scatter.shards": float(scatter.num_shards),
            "sim.engine_p50_ms": engine.p50 * 1e3,
            "sim.engine_p99_ms": engine.p99 * 1e3,
            "sim.scatter_p99_ms": scatter.p99 * 1e3,
            "sim.scatter_availability": scatter.availability,
            "sim.pipeline_p50_ms": pipeline.end_to_end.p50 * 1e3,
            "sim.pipeline_p99_ms": pipeline.end_to_end.p99 * 1e3,
        }

    def probes(self, quick: bool) -> Dict[str, float]:
        arrivals = self.pool[0][0]
        service = self.engine.batch_latency(self.config)
        batcher = DynamicBatcher(self.policy)
        schedule_ms = probes.median_ms(
            lambda: batcher.schedule(arrivals, lambda size: service),
            2 if quick else 9)
        return {"batcher.schedule_us_per_req":
                schedule_ms * 1e3 / len(arrivals)}
