"""What every workload gives the worker, and helpers they share.

A workload builds its models with *fixed* construction seeds; the
benchmark seed only generates its input pool. ``op`` is the timed call and
contains no tracing code: the traced run installs wrappers on the objects
``setup`` built (see :mod:`bench.trace`) and the same ``op`` runs again.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.costmodel.latency import DheShape
from repro.hybrid import OfflineProfiler, build_threshold_database
from repro.oram import OramPositionMap
from repro.telemetry.runtime import get_registry

from bench.trace import SpanRecorder, calls_by_name, self_by_name

#: span name -> per-layer metric that reports its self time (ms per op).
#: Every span a workload records must appear here, so the per-layer busy
#: times always add up to the op.
SPAN_METRIC = {
    "op": "op.self_ms",
    "dlrm.forward": "dlrm.self_ms",
    "nn.mlp": "nn.mlp_ms",
    "nn.block": "nn.block_ms",
    "nn.backward": "nn.backward_ms",
    "nn.optim_step": "nn.optim_step_ms",
    "scan.forward": "scan.forward_ms",
    "dhe.forward": "dhe.glue_ms",
    "dhe.encode": "dhe.encode_ms",
    "dhe.decode": "dhe.decode_ms",
    "llm.tokenize": "tokenize.self_ms",
    "gpt.prefill": "gpt.prefill_ms",
    "gpt.decode_step": "gpt.decode_step_ms",
    "oblivious.argmax": "oblivious.argmax_busy_ms",
    "oram_embedding.forward": "oram_embedding.forward_ms",
    "oram.sqrt.access": "oram.sqrt.self_ms",
    "oram.path.access": "oram.path.self_ms",
    "oram.circuit.access": "oram.circuit.self_ms",
    "posmap.flat": "posmap.flat_busy_ms",
    "posmap.recursive": "posmap.recursive_busy_ms",
    "posmap.batch": "posmap.batch_busy_ms",
    "stash": "stash.busy_ms",
    "tree": "tree.busy_ms",
    "lookahead.batch": "lookahead.self_ms",
    "train.read": "train.embedding_self_ms",
    "train.writeback": "train.embedding_self_ms",
    "engine.serve": "engine.serve_self_ms",
    "scatter.serve": "scatter.serve_self_ms",
    "pipeline.serve": "pipeline.serve_self_ms",
}

STASH_METHODS = ("add", "remove", "peek", "update", "resident_blocks",
                 "evict_matching", "take_matching", "grow")
TREE_METHODS = ("read_bucket", "write_bucket", "read_bucket_metadata",
                "path_indices")
FLAT_POSMAP_METHODS = ("lookup_and_update", "lookup", "refresh", "rewrite")


def span_metric(name: str) -> str:
    if name.startswith("audit.subject."):
        return "audit.subject_ms." + name[len("audit.subject."):]
    return SPAN_METRIC[name]


def busy_ms_per_op(spans: List[list], ops: int) -> Dict[str, float]:
    """Self time of every span, folded into its per-layer metric."""
    out: Dict[str, float] = {}
    for name, seconds in self_by_name(spans).items():
        metric = span_metric(name)
        out[metric] = out.get(metric, 0.0) + seconds * 1e3 / ops
    return out


def calls_per_op(spans: List[list], name: str, ops: int) -> float:
    return calls_by_name(spans).get(name, 0) / ops


def counter_value(name: str) -> float:
    """Current value of one of the program's own telemetry counters."""
    return get_registry().counter(name).value


def modelled_thresholds(uniform: DheShape, dim: int, batch: int):
    """Algorithm 3's threshold database from the modelled profiler."""
    profile = OfflineProfiler(uniform).profile(
        techniques=("scan", "dhe-varied"), dims=(dim,), batches=(batch,),
        threads_list=(1,))
    return build_threshold_database(
        profile, dhe_technique="dhe-varied", dims=(dim,), batches=(batch,),
        threads_list=(1,))


def digest_arrays(arrays: Iterable[np.ndarray]) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def oram_levels(oram) -> List[object]:
    """An ORAM and the child ORAMs its recursive position map nests.

    ``OramPositionMap`` keeps its child controller in ``_child`` (the
    attribute ``OramController.memory_blocks`` itself walks); there is no
    public accessor, and without the children the recursive map would be
    one opaque span.
    """
    levels = [oram]
    child = getattr(oram.position_map, "_child", None)
    while child is not None:
        levels.append(child)
        child = getattr(child.position_map, "_child", None)
    return levels


def instrument_oram(rec: SpanRecorder, oram, scheme: str) -> None:
    """Wrap one tree/sqrt ORAM, every recursion level of it."""
    for level in oram_levels(oram):
        rec.wrap(level, "access", f"oram.{scheme}.access")
        rec.wrap_all(level.stash, STASH_METHODS, "stash")
        if hasattr(level, "tree"):
            rec.wrap_all(level.tree, TREE_METHODS, "tree")
        posmap = level.position_map
        if isinstance(posmap, OramPositionMap):
            rec.wrap_all(posmap, ("lookup_and_update", "refresh"),
                         "posmap.recursive")
        else:
            rec.wrap_all(posmap, FLAT_POSMAP_METHODS, "posmap.flat")
        rec.wrap(posmap, "lookup_and_update_batch", "posmap.batch")


def oram_counts(orams: Sequence[object]) -> Dict[str, float]:
    """Cumulative exact work counters of some ORAMs (all levels)."""
    levels = [level for oram in orams for level in oram_levels(oram)]
    return {
        "accesses": float(sum(o.stats.accesses for o in orams)),
        "posmap_ops": float(sum(o.position_map_ops() for o in orams)),
        "bucket_reads": float(sum(o.stats.bucket_reads for o in levels)),
        "bucket_writes": float(sum(o.stats.bucket_writes for o in levels)),
        "top_bucket_reads": float(sum(o.stats.bucket_reads for o in orams)),
    }


class Workload:
    """One benchmark workload; subclasses fill in the pieces."""

    name = ""
    #: what ``work_per_s`` counts on this workload
    work_unit = ""
    #: warm-up ops per set-up and timed ops of the traced run
    warmup_ops = 3
    traced_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.pool: list = []
        #: workload-specific latencies ``after_op`` collects, in ms, keyed
        #: by metric stem (the LLM workload's ``ttft_ms`` / ``tbt_ms``);
        #: the worker reports their p50/p95 and empties the lists
        self.samples: Dict[str, List[float]] = {}

    # -- inputs and set-up ---------------------------------------------
    def make_inputs(self) -> str:
        """Fill ``self.pool`` from the seed; returns the inputs' sha256."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the system under test (fixed construction seeds)."""
        raise NotImplementedError

    # -- the timed call --------------------------------------------------
    def op(self, item):
        raise NotImplementedError

    def work(self, out) -> int:
        """Units of work one op completed (``work_unit``\\ s)."""
        raise NotImplementedError

    # -- correctness (never timed) --------------------------------------
    def after_op(self, index: int, item, out) -> bool:
        """Per-op check, run between ops; False counts the op as failed."""
        raise NotImplementedError

    def final_check(self) -> List[str]:
        """Whole-run checks after the last op; returns what went wrong."""
        return []

    # -- traced run only --------------------------------------------------
    def instrument(self, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """Cumulative exact counters read from the program's public
        statistics; the worker differences them across the traced ops."""
        return {}

    def layer_metrics(self, spans: List[list], ops: int,
                      counts: Dict[str, float]) -> Dict[str, float]:
        """Per-layer counts for the traced ops (busy times are added by
        the worker from the spans)."""
        return {}

    def probes(self, quick: bool) -> Dict[str, float]:
        """Layer probes homed at this workload (see bench/README.md)."""
        return {}
