"""Serving ledger: one sha256 over every report the serving layer folds.

The digest covers the three ``ExecutionEngine.serve`` shapes (plain,
cached, resilient under a fault storm), a cached scatter-gather run at
4 nodes with R = 2, the LLM pipeline, and the two merges
(:meth:`ServingReport.merge` of the engine reports,
:meth:`ClusterServingReport.merge` of two scatter runs). It was recorded
at ed4eb07, while merge, stage composition and the gathered cache counters still
lived in three modules (``compose_stage_reports``,
``_gathered_cache_fields``); the one report fold must reproduce it.

:class:`TestFaultAndCacheLedger` pins the two gated reports that run the
fault path and the cache handle: the canonical chaos report and the
cluster report's ``caching`` cell, each at seeds 0 and 7. They were
recorded at 25c104b, while faults could still be injected through a
backend wrapper and engines still took a ``CachePolicy``. It also pins
the full default reports of the cluster, migration, autoscale and cache
sims at seeds 0 and 7, recorded at 970fcd8, while each of the five Fig 13
drivers still built its own serving scaffold. Those digests are printed
(``pytest -s``), so a log shows which report moved.

:class:`TestFleetReplayLedger` pins the three long-trace reports the
``sim_fleet_replay`` bench workload checks op to op: 50 000 requests
through the engine, 10 000 through a 4-node R = 2 scatter-gather and
1 000 through the default LLM pipeline. It was recorded at 87ce144, while
the batcher still admitted requests one compare at a time and every
priced stage re-derived its service time per batch. Traces this long
reach the full-batch and tied-arrival boundaries of the batch walk that
the 200–512-request ledger above does not.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.cache import StaticResidencyCache
from repro.cluster.placement import ShardPlanner
from repro.cluster.router import ShardRouter
from repro.cluster.scatter import ClusterServingReport, ScatterGatherEngine
from repro.cache.bench import run_bench
from repro.cluster.autoscale.sim import run_autoscale
from repro.cluster.migrate import run_migration
from repro.cluster.sim import run_cluster
from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.hybrid import OfflineProfiler, build_threshold_database
from repro.llm.stages import build_llm_pipeline
from repro.resilience import (
    FaultInjector,
    LatencySpikeFault,
    ReplicaCrashFault,
    ResiliencePolicy,
    RetryPolicy,
    TransientErrorFault,
)
from repro.resilience.chaos import run_chaos
from repro.serving import (
    BatchingPolicy,
    ExecutionEngine,
    RequestQueue,
    ServingConfig,
    ServingReport,
)
from repro.serving.requests import poisson_arrivals

DIM = 64
BATCH = 32
SLA = 0.020
SIZES = TERABYTE_SPEC.table_sizes
BUDGET_BYTES = 64 * 1024 * 1024


@pytest.fixture(scope="module")
def thresholds():
    profile = OfflineProfiler(DLRM_DHE_UNIFORM_64).profile(
        techniques=("scan", "dhe-varied"), dims=(DIM,), batches=(BATCH,),
        threads_list=(1,))
    return build_threshold_database(profile, dhe_technique="dhe-varied",
                                    dims=(DIM,), batches=(BATCH,),
                                    threads_list=(1,))


def storm() -> ResiliencePolicy:
    return ResiliencePolicy(
        injector=FaultInjector(
            seed=5,
            crash=ReplicaCrashFault(probability=0.05,
                                    downtime_seconds=0.040),
            spike=LatencySpikeFault(probability=0.15, multiplier=4.0),
            transient=TransientErrorFault(probability=0.15)),
        retry=RetryPolicy(deadline_seconds=0.500), num_replicas=3)


def entry(report: ServingReport) -> dict:
    """Every field of a report: arrays as sha256 of their bytes."""
    out = {"type": type(report).__name__}
    for item in dataclasses.fields(report):
        value = getattr(report, item.name)
        if isinstance(value, np.ndarray):
            value = hashlib.sha256(value.tobytes()).hexdigest()
        elif item.name == "degradation_events":
            value = [event.to_dict() for event in value]
        elif isinstance(value, float):
            value = repr(value)
        out[item.name] = value
    return out


def serving_ledger(thresholds) -> str:
    config = ServingConfig(batch_size=BATCH, threads=1, sla_seconds=SLA)
    policy = BatchingPolicy(max_batch_size=BATCH, max_wait_seconds=0.002)
    trace = RequestQueue.poisson(512, 2000.0, rng=11)
    engines = [
        ExecutionEngine(SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds),
        ExecutionEngine(SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
                        cache=StaticResidencyCache(BUDGET_BYTES)),
        ExecutionEngine(SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
                        resilience=storm()),
    ]
    reports = [engine.serve(config, trace, policy) for engine in engines]

    plan = ShardPlanner(4, thresholds, DIM, DLRM_DHE_UNIFORM_64).plan(
        SIZES, config)
    scatter = ScatterGatherEngine(
        SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
        ShardRouter(4, replication=2, plan=plan),
        retry=RetryPolicy(deadline_seconds=0.250),
        cache=lambda: StaticResidencyCache(BUDGET_BYTES))
    runs = [scatter.serve(config, RequestQueue.poisson(256, rate, rng=seed),
                          policy)
            for seed, rate in ((3, 2000.0), (4, 6000.0))]

    pipeline = build_llm_pipeline().serve(
        RequestQueue.poisson(200, 150.0, rng=9))

    ledger = {
        "engine": [entry(report) for report in reports],
        "engine_merge": entry(ServingReport.merge(reports)),
        "scatter": runs[0].to_dict(SLA),
        "scatter_reports": [entry(report) for run in runs
                            for report in (run.report, run.fleet)],
        "scatter_merge": ClusterServingReport.merge(runs).to_dict(SLA),
        "pipeline": pipeline.to_dict(),
        "pipeline_end_to_end": entry(pipeline.end_to_end),
    }
    return json.dumps(ledger, sort_keys=True, allow_nan=False)


class TestServingLedger:
    def test_report_folds_match_the_pre_fold_serving_layer(self,
                                                           thresholds):
        ledger = serving_ledger(thresholds)
        assert (hashlib.sha256(ledger.encode("utf-8")).hexdigest()
                == "276530545d90f78e2103e72c6cd53487"
                   "7ee02d216eb42fb55c7dca0be2607414")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestFaultAndCacheLedger:
    @pytest.mark.parametrize("seed, expected", [
        (0, "f5fc2e3e053f35ee3c9fcbfcf030706996fc90554772eda8e9de6091d4f30114"),
        (7, "bd5ea7dfd73cb7fae4cce35da78a3c9fd7b5352c5900b2c5497cad92e7092396"),
    ])
    def test_chaos_report(self, seed, expected):
        assert digest(run_chaos(seed=seed)) == expected

    @pytest.mark.parametrize("seed, expected", [
        (0, "5c1e04114b2f65831b2431898d0b1ebf7033db3efdb0d73013648410d77a8ea7"),
        (7, "9da3bbad1f6aec00a939f9c217f6ed7d80e1a882d5f1ac48c80a87976229def8"),
    ])
    def test_cluster_caching_cell(self, seed, expected):
        assert digest(run_cluster(seed=seed)["caching"]) == expected

    @pytest.mark.parametrize("run, seed, expected", [
        (run_cluster, 0,
         "ec01b2bfc26b3e47c6b4f461a5fcbee456f0bfb7554c92f98ba2891b2efbe524"),
        (run_cluster, 7,
         "427ad462655000ea99baa98caadab07dc4dbb62c92d91cc2e0cef2b7b923641c"),
        (run_migration, 0,
         "b93101066da870eab23c31a0b8bcbe53c24f991b4560f281b54569e8eb470e64"),
        (run_migration, 7,
         "fcf4b38e321803d7ef63f5391200cb2ba2e6c5b2bedf6d16442fe2e607156c09"),
        (run_autoscale, 0,
         "e58b97c83e11a1ccfaebfaa633a513285096f9f4b8c944550efe3cc3dc008f15"),
        (run_autoscale, 7,
         "4d0028046c99063a25a2f36a8818d1dd052d97771d37e8b8504aff2edebd812a"),
        (run_bench, 0,
         "6bf05ef5c8c43c74b4426f2db584b222600b4789d29d1e6f76f8fef0b04fd120"),
        (run_bench, 7,
         "3b4a8ce6b9e2cbed260efdfe5e1227d028946fe4b6f3c17a7ca51430430e6268"),
    ], ids=lambda value: getattr(value, "__module__", None))
    def test_full_sim_report(self, run, seed, expected):
        actual = digest(run(seed=seed))
        print(f"\n{run.__module__} seed {seed} digest {actual}")
        assert actual == expected


#: (requests, rate) of the engine, scatter and pipeline traces
FLEET_TRACES = ((50_000, 1500.0), (10_000, 4000.0), (1_000, 200.0))


def fleet_replay_digest(thresholds, seed: int = 0) -> str:
    """sha256 over the engine latencies and the scatter and pipeline digests."""
    engine_trace, scatter_trace, pipeline_trace = (
        poisson_arrivals(count, rate,
                         rng=np.random.default_rng((seed, stream)))
        for stream, (count, rate) in enumerate(FLEET_TRACES))
    config = ServingConfig(batch_size=BATCH, threads=1)
    policy = BatchingPolicy(max_batch_size=BATCH, max_wait_seconds=0.002)
    engine = ExecutionEngine(SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds)
    plan = ShardPlanner(4, thresholds, DIM, DLRM_DHE_UNIFORM_64).plan(
        SIZES, config)
    scatter = ScatterGatherEngine(
        SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
        ShardRouter(4, replication=2, plan=plan),
        retry=RetryPolicy(deadline_seconds=0.250))
    hasher = hashlib.sha256(
        engine.serve(config, engine_trace, policy).latencies.tobytes())
    for report in (scatter.serve(config, scatter_trace, policy),
                   build_llm_pipeline().serve(pipeline_trace)):
        hasher.update(json.dumps(report.to_dict(), sort_keys=True,
                                 allow_nan=False).encode())
    return hasher.hexdigest()


class TestFleetReplayLedger:
    def test_long_traces_match_the_per_request_batch_walk(self,
                                                          thresholds):
        actual = fleet_replay_digest(thresholds)
        print(f"\nfleet replay seed 0 digest {actual}")
        assert actual == ("79053f726a8a754d1cf59e835eaf12c0"
                          "e9c8246920ffaa2387e77a3ed7aff264")
