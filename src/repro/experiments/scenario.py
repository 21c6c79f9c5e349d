"""The paper's one Fig 13 serving workload, built once for every sim.

Fig 13 serves a DLRM at batch 32 under a 20 ms SLA with Poisson traffic.
``fig13`` and the five gated serving sims (cluster, migrate, autoscale,
chaos, cache) all take their serving config, batching policy, retry
budget, pricing model and arrival trace from :class:`Fig13Scenario`;
batch, SLA, admission wait and threads are the paper's constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from repro.cluster.router import ShardRouter
from repro.cluster.scatter import ScatterGatherEngine
from repro.data import DlrmDatasetSpec
from repro.hybrid import dlrm_threshold_model
from repro.resilience.retry import RetryPolicy
from repro.serving import ExecutionEngine, ServingConfig
from repro.serving.batcher import BatchingPolicy
from repro.serving.requests import RequestQueue

BATCH = 32
SLA_SECONDS = 0.020
MAX_WAIT_SECONDS = 0.002
THREADS = 1

NUM_REQUESTS = 512
RATE_RPS = 2000.0
DEADLINE_SECONDS = 0.500

#: stand-in for "down for the whole run" that stays JSON-representable
FOREVER_SECONDS = 1e9

#: the skew profiles the audits replay under
SKEW_NAMES = ("hot-head", "hot-tail", "uniform")


@dataclass(frozen=True)
class Fig13Scenario:
    """One Fig 13 serving workload: which model, how much traffic."""

    spec: DlrmDatasetSpec
    num_requests: int = NUM_REQUESTS
    rate_rps: float = RATE_RPS
    deadline_seconds: float = DEADLINE_SECONDS

    config: ClassVar[ServingConfig] = ServingConfig(
        batch_size=BATCH, threads=THREADS, sla_seconds=SLA_SECONDS)
    policy: ClassVar[BatchingPolicy] = BatchingPolicy(
        max_batch_size=BATCH, max_wait_seconds=MAX_WAIT_SECONDS)

    @cached_property
    def retry(self) -> RetryPolicy:
        return RetryPolicy(deadline_seconds=self.deadline_seconds)

    @cached_property
    def model(self):
        """(uniform DHE shape, scan vs DHE-varied thresholds)."""
        return dlrm_threshold_model(self.spec.embedding_dim, BATCH)

    def arrivals(self, seed: int) -> RequestQueue:
        """The seeded Poisson trace of ``num_requests`` at ``rate_rps``."""
        return RequestQueue.poisson(self.num_requests, self.rate_rps,
                                    rng=seed)

    def engine(self, **kwargs) -> ExecutionEngine:
        """An engine over the spec's tables, priced by :attr:`model`."""
        return ExecutionEngine(self.spec.table_sizes, self.spec.embedding_dim,
                               *self.model, **kwargs)

    def scatter(self, router: ShardRouter,
                **kwargs) -> ScatterGatherEngine:
        """A sharded fleet over ``router`` with the :attr:`retry` budget."""
        return ScatterGatherEngine(self.spec.table_sizes,
                                   self.spec.embedding_dim, *self.model,
                                   router, retry=self.retry, **kwargs)
