"""Multi-stage serving: a `Stage` protocol and the `PipelineEngine`.

LLM serving is not one stage — tokenize, prefill, and decode have
different cost shapes (throughput-bound vs latency-bound) and, at cluster
scale, different autoscaled pools. This module chains stage bodies:

* :class:`PipelineStage` — anything that turns an arrival trace into a
  :class:`StageResult` (a per-stage :class:`ServingReport` plus the
  departure times that become the next stage's arrivals);
* :class:`PricedStage` — a stage priced by a per-batch service function
  of the batch size alone, priced once per size (the LLM stages in
  :mod:`repro.llm.stages` are these);
* :class:`PipelineEngine` — chains stages (stage *k*'s departures are
  stage *k+1*'s arrivals) and folds the per-stage reports into a
  :class:`PipelineReport` with :meth:`ServingReport.compose`.

Accounting invariant: the wait between stage *k* finishing a request and
stage *k+1* starting it is measured **once**, as stage *k+1*'s queueing
delay (downstream batch start − upstream departure), so the composed
``latencies`` equal final departure − original arrival exactly. For a
single-stage pipeline the end-to-end report **is** the stage's report
object, subclass and all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.serving.batcher import BatchingPolicy, DynamicBatcher, settle
from repro.serving.report import ServingReport
from repro.serving.requests import ArrivalsLike, RequestQueue


@dataclass(frozen=True)
class StageResult:
    """One stage's run: its report and when each request left the stage."""

    name: str
    report: ServingReport
    departures: np.ndarray  # per-request seconds; next stage's arrivals

    def __post_init__(self) -> None:
        departures = np.asarray(self.departures, dtype=np.float64)
        if departures.ndim != 1:
            raise ValueError("departures must be a 1-D array")
        if departures.size != self.report.num_requests:
            raise ValueError(
                f"stage {self.name!r}: {departures.size} departures for "
                f"{self.report.num_requests} requests")
        late = np.flatnonzero(np.diff(departures) < 0)
        if late.size:
            raise ValueError(
                f"stage {self.name!r}: departures are not non-decreasing "
                f"(request {late[0]} leaves at {departures[late[0]]!r}, "
                f"request {late[0] + 1} at {departures[late[0] + 1]!r}); "
                f"they are the next stage's arrival trace")
        object.__setattr__(self, "departures", departures)


class PipelineStage:
    """Protocol: an arrival trace in, a :class:`StageResult` out.

    Subclasses implement :meth:`serve`. Departures are the finish time of
    the batch each request rode in — one value per batch, so requests that
    leave together arrive downstream together — and must be non-decreasing
    (:class:`StageResult` rejects a trace that is not), because they
    become the next stage's arrival trace.
    """

    name: str = "stage"

    def serve(self, queue: RequestQueue) -> StageResult:
        raise NotImplementedError


class PricedStage(PipelineStage):
    """A stage priced by a per-batch service-time function.

    Schedule → settle with ``service_time(batch_size) -> seconds`` in
    place of the engine's priced DLRM allocation — the shape the LLM
    stages need (tokenize/prefill/decode each price a batch through the
    cost model). ``service_time`` must be a pure function of the batch
    size: it is called once per size ``1 … policy.max_batch_size`` at
    construction, and :meth:`serve` schedules from that table.

    ``on_batch`` (optional) is called with each formed
    :class:`~repro.serving.batcher.ScheduledBatch` *after* scheduling —
    the seam per-token decode loops and ORAM planners hang off.
    """

    def __init__(self, name: str, policy: BatchingPolicy,
                 service_time: Callable[[int], float],
                 on_batch: Optional[Callable[..., None]] = None) -> None:
        self.name = name
        self.policy = policy
        #: seconds per batch, indexed by batch size (index 0 is unused)
        self.prices = [0.0] + [service_time(size) for size in
                               range(1, policy.max_batch_size + 1)]
        self.on_batch = on_batch

    def serve(self, queue: RequestQueue) -> StageResult:
        batches = DynamicBatcher(self.policy).schedule(
            queue.arrivals, self.prices.__getitem__)
        queue_delays, service_latencies, departures = settle(
            batches, queue.arrivals)
        if self.on_batch is not None:
            for batch in batches:
                self.on_batch(batch)
        busy = math.fsum(batch.service_seconds for batch in batches)
        report = ServingReport.from_components(
            queue_delays=queue_delays, service_latencies=service_latencies,
            num_batches=len(batches), scan_features=0, dhe_features=0,
            batch_time_total=busy, departures=departures)
        return StageResult(name=self.name, report=report,
                           departures=departures)


@dataclass(frozen=True)
class PipelineReport:
    """Per-stage reports plus the composed end-to-end view.

    ``end_to_end`` carries the **bottleneck** stage's busy time
    (:meth:`ServingReport.compose`), so ``end_to_end.throughput()`` answers
    the fleet-level question. Per-stage busy time is still in ``stages``.
    """

    stages: List[StageResult]
    end_to_end: ServingReport

    def stage(self, name: str) -> StageResult:
        for result in self.stages:
            if result.name == name:
                return result
        raise KeyError(f"no stage named {name!r}")

    @property
    def departures(self) -> np.ndarray:
        """When each request left the final stage."""
        return self.stages[-1].departures

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable digest: per-stage and end-to-end latency stats."""
        def digest(report: ServingReport) -> Dict[str, object]:
            return {
                "num_requests": report.num_requests,
                "num_batches": report.num_batches,
                "p50_seconds": report.p50,
                "p95_seconds": report.p95,
                "p99_seconds": report.p99,
                "mean_queue_delay_seconds": report.mean_queue_delay,
                "busy_seconds": report.batch_time_total,
                "throughput_rps": report.throughput(),
            }

        return {
            "stages": {result.name: digest(result.report)
                       for result in self.stages},
            "end_to_end": digest(self.end_to_end),
        }


class PipelineEngine:
    """Chain stages: each stage's departures feed the next stage's queue."""

    def __init__(self, stages: Sequence[PipelineStage]) -> None:
        stages = list(stages)
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        self.stages = stages

    def serve(self, arrivals: ArrivalsLike) -> PipelineReport:
        queue = RequestQueue.coerce(arrivals)
        results: List[StageResult] = []
        for stage in self.stages:
            result = stage.serve(queue)
            results.append(result)
            queue = RequestQueue(result.departures)
        end_to_end = ServingReport.compose([r.report for r in results])
        return PipelineReport(stages=results, end_to_end=end_to_end)
