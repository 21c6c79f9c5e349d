"""The LLM serving bench: three pools, one pipeline, gated end to end.

Drives the tokenize → prefill → decode pipeline through a load ramp on
the simulated clock. Each stage's fleet is an independently autoscaled
:class:`~repro.llm.pools.StagePool`: the tokenizer pool starts
overprovisioned and scales *down* in the low-rate warm-up, the prefill
and decode pools saturate on the ramp and scale *up* — three control
loops, three secret-free signal planes, one shared audited migration
path. The gates:

* **throughput** — sustained decode tokens/sec on the final plateau
  stays >= ``TOKENS_PER_SECOND_FLOOR``;
* **per-token latency** — decode-stage p99 per generated token on the
  plateau stays <= ``DECODE_P99_PER_TOKEN_CEILING`` (TBT is the SLA the
  decode pool is latency-bound for);
* **per-stage + cross-stage leakage audits** — the tokenize / prefill /
  decode decision traces replay byte-identically across contrasting
  prompts in exact mode, one tracer threaded through all three stages
  stays exact, and the ORAM memory planes audit structurally;
* **detector teeth** — the boundary-leaking tokenizer and the
  hot-load-chasing controller are both *caught*;
* **elasticity** — every pool logs >= 1 scale event, every pool's
  decision timeline replays skew-invariantly through its
  :func:`~repro.cluster.autoscale.controller.scaling_subject`,
  and every plan/migration the pools touched passed its audit;
* **live parity** — the live probe (real square-root ORAM tokenization,
  real per-token Circuit-ORAM decode loop hanging off the pipeline's
  decode batches) returns the same values as the plain tables.

Everything derives from one seed; two runs emit byte-identical JSON
and CI pins that with ``cmp``.

CLI::

    python -m repro.llm.bench --seed 7 --json llm.json
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.autoscale.controller import (
    AutoscaleConfig,
    HotLoadChasingController,
    scaling_subject,
)
from repro.cluster.placement import AUDIT_SECRET_LENGTH, RingPlanner
from repro.data import KAGGLE_SPEC, DlrmDatasetSpec
from repro.experiments import ExperimentResult, gated
from repro.hybrid import dlrm_threshold_model
from repro.llm.pools import StagePool
from repro.llm.stages import (
    LlmServingSpec,
    build_llm_pipeline,
    per_node_capacity_rps,
    stage_subjects,
)
from repro.llm.tokenizer import ObliviousTokenizer, tokenizer_subjects
from repro.oram.circuit_oram import CircuitORAM
from repro.serving import ServingConfig
from repro.serving.requests import RequestQueue
from repro.telemetry.audit import LeakageAuditor, contrasting_secrets
from repro.utils.rng import new_rng

#: the gates CI enforces (ISSUE 10 acceptance criteria)
TOKENS_PER_SECOND_FLOOR = 20000.0
DECODE_P99_PER_TOKEN_CEILING = 0.002   # seconds per generated token

INTERVAL_SECONDS = 0.25
#: warm-up trough (tokenize pool sheds a node), ramp to peak (prefill and
#: decode pools grow), then the plateau the throughput gates read.
RATES = (600.0, 600.0, 600.0, 1200.0, 2400.0, 3600.0, 3600.0, 3600.0,
         3600.0, 2400.0, 1800.0, 1800.0, 1800.0)
PLATEAU_TICKS = 3

REPLICATION = 1
STEP_SIZE = 4
HIGH_UTILISATION = 0.85
LOW_UTILISATION = 0.28
BREACH_TICKS = 2
COOLDOWN_TICKS = 1

#: (start_nodes, min_nodes, max_nodes) per pool — tokenize deliberately
#: overprovisioned so its required scale event is the scale-*down*.
POOL_SIZING = {
    "tokenize": (2, 1, 3),
    "prefill": (1, 1, 3),
    "decode": (1, 1, 4),
}

PROBE_REQUESTS = 8
AUDIT_PROMPT_LENGTH = 24


def rate_schedule() -> List[float]:
    """The offered-load timeline: warm-up trough, ramp, peak, plateau."""
    return list(RATES)


def build_pools(spec: LlmServingSpec,
                dataset: DlrmDatasetSpec = KAGGLE_SPEC
                ) -> Dict[str, StagePool]:
    """One audited pool per stage over the shared cluster machinery.

    Every pool plans the same dataset's table set through the standing
    threshold model (the pool's state shards — vocabulary, weights, KV
    partitions — priced like any other placed tables), so all three share
    the ring planner's incrementality and the one
    :class:`~repro.cluster.autoscale.fleet.ElasticFleet` audit path.
    """
    uniform, thresholds = dlrm_threshold_model(dataset.embedding_dim,
                                               spec.prefill_batch)
    config = ServingConfig(batch_size=spec.prefill_batch, threads=1,
                           sla_seconds=0.020)
    pools: Dict[str, StagePool] = {}
    for name, (start, low, high) in POOL_SIZING.items():
        pools[name] = StagePool(
            name=name,
            per_node_capacity_rps=per_node_capacity_rps(spec, name),
            planner=RingPlanner(start, thresholds, dataset.embedding_dim,
                                uniform),
            table_sizes=dataset.table_sizes, config=config,
            autoscale_config=AutoscaleConfig(
                min_nodes=low, max_nodes=high,
                high_utilisation=HIGH_UTILISATION,
                low_utilisation=LOW_UTILISATION,
                breach_ticks=BREACH_TICKS,
                cooldown_ticks=COOLDOWN_TICKS),
            start_nodes=start, replication=REPLICATION,
            interval_seconds=INTERVAL_SECONDS, step_size=STEP_SIZE)
    return pools


# ----------------------------------------------------------------------
# The live probe: real ORAMs behind the same pipeline seams.
# ----------------------------------------------------------------------
def probe_prompts(spec: LlmServingSpec, seed: int,
                  count: int = PROBE_REQUESTS) -> List[str]:
    """Deterministic prompts (letters + word boundaries) for the probe."""
    rng = new_rng(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz "
    draws = rng.integers(0, len(alphabet),
                         size=(count, spec.prompt_tokens))
    return ["".join(alphabet[symbol] for symbol in row) for row in draws]


def live_probe(spec: LlmServingSpec, seed: int) -> Dict[str, object]:
    """Run real ORAMs through the pipeline seams; check value parity.

    * tokenization: every probe prompt through the square-root ORAM must
      return exactly the vocabulary rows its token ids name;
    * decode: the per-token Circuit-ORAM loop hangs off the pipeline's
      ``on_decode_batch`` seam, and a batched-vs-sequential replay of the
      same id schedule must be value-identical (the lookahead contract).
    """
    tokenizer = ObliviousTokenizer(spec.shape.vocab_size,
                                   spec.shape.embed_dim, rng=seed)
    prompts = probe_prompts(spec, seed)
    tokenize_parity = all(
        np.allclose(tokenizer.tokenize(prompt),
                    tokenizer.vocabulary[tokenizer.token_ids(prompt)])
        for prompt in prompts)

    payloads = tokenizer.vocabulary
    decode_oram = CircuitORAM(spec.shape.vocab_size, spec.shape.embed_dim,
                              initial_payloads=payloads, rng=seed)
    schedule: List[np.ndarray] = []

    def decode_loop(batch) -> None:
        # One next-token fetch per lane per generated token: the
        # latency-bound per-token loop the decode pool prices.
        for step in range(spec.new_tokens):
            lane_ids = np.array(
                [(batch.first + lane + step) % spec.shape.vocab_size
                 for lane in range(batch.size)], dtype=np.int64)
            schedule.append(lane_ids)
            decode_oram.access_batch(lane_ids)

    pipeline = build_llm_pipeline(spec, on_decode_batch=decode_loop)
    queue = RequestQueue.poisson(PROBE_REQUESTS,
                                 PROBE_REQUESTS / INTERVAL_SECONDS,
                                 rng=seed)
    report = pipeline.serve(queue)

    # Replay the exact id schedule sequentially on a fresh ORAM: batched
    # and sequential access must agree payload-for-payload.
    replay = CircuitORAM(spec.shape.vocab_size, spec.shape.embed_dim,
                         initial_payloads=payloads, rng=seed + 1)
    decode_parity = all(
        np.allclose(np.stack([replay.access(int(block))
                              for block in lane_ids]),
                    payloads[lane_ids])
        for lane_ids in schedule)

    return {
        "num_requests": PROBE_REQUESTS,
        "prompt_tokens": spec.prompt_tokens,
        "tokenize_parity": tokenize_parity,
        "decode_parity": decode_parity,
        "tokenizer_accesses": tokenizer.oram.stats.accesses,
        "tokenizer_reshuffles": tokenizer.oram.stats.eviction_passes,
        "decode_accesses": decode_oram.stats.accesses,
        "decode_eviction_passes": decode_oram.stats.eviction_passes,
        "pipeline": report.to_dict(),
    }


# ----------------------------------------------------------------------
# The bench.
# ----------------------------------------------------------------------
def run_bench(seed: int = 0,
              spec: Optional[LlmServingSpec] = None) -> Dict[str, object]:
    """Run the ramp; return the JSON-stable gated report."""
    if spec is None:
        spec = LlmServingSpec()
    rates = rate_schedule()
    ticks = len(rates)
    pools = build_pools(spec)
    skews = contrasting_secrets(len(KAGGLE_SPEC.table_sizes),
                                AUDIT_SECRET_LENGTH)

    cells: List[Dict[str, object]] = []
    plateau_per_token: List[np.ndarray] = []
    plateau_tokens_ps: List[float] = []

    for tick in range(ticks):
        now = tick * INTERVAL_SECONDS
        rate = rates[tick]
        num_requests = int(round(rate * INTERVAL_SECONDS))
        queue = RequestQueue.poisson(num_requests, rate,
                                     rng=seed * 1000 + tick)
        pipeline = build_llm_pipeline(
            spec, node_counts={name: pool.nodes
                               for name, pool in pools.items()})
        report = pipeline.serve(queue)
        cell: Dict[str, object] = {
            "tick": tick,
            "rate_rps": rate,
            "num_requests": num_requests,
            "nodes": {name: pool.nodes for name, pool in pools.items()},
            "pipeline": report.to_dict(),
            "pools": {},
        }
        for name, pool in pools.items():
            stage = report.stage(name)
            cell["pools"][name] = pool.tick(
                offered_rps=rate,
                queue_delay_seconds=stage.report.mean_queue_delay,
                now_seconds=now)
        if tick >= ticks - PLATEAU_TICKS:
            decode_stage = report.stage("decode")
            plateau_per_token.append(
                decode_stage.report.latencies / spec.new_tokens)
            achieved = cell["pools"]["decode"]["signals"]["achieved_rps"]
            plateau_tokens_ps.append(achieved * spec.new_tokens)
        cells.append(cell)

    # ------------------------------------------------------------------
    # Throughput + per-token latency gates (final plateau).
    tokens_per_second = min(plateau_tokens_ps)
    per_token = np.concatenate(plateau_per_token)
    decode_p99_per_token = float(np.percentile(per_token, 99.0))

    # ------------------------------------------------------------------
    # Leakage audits: per-stage + cross-stage decision planes (exact),
    # ORAM memory planes (structural), negative controls expected to
    # leak.
    auditor = LeakageAuditor()
    findings = {
        subject.name: auditor.audit(subject)
        for subject in (tokenizer_subjects(
                            spec.shape.vocab_size, spec.shape.embed_dim,
                            prompt_length=AUDIT_PROMPT_LENGTH, seed=seed)
                        + stage_subjects(
                            spec, prompt_length=AUDIT_PROMPT_LENGTH,
                            seed=seed))
    }
    hot_load = auditor.audit(scaling_subject(
        lambda: HotLoadChasingController(
            pools["prefill"].autoscale_config),
        pools["prefill"].timeline, skews, name="hot-load-chasing",
        expect_oblivious=False))

    # ------------------------------------------------------------------
    # Elasticity gates: every pool scaled at least once, every pool's
    # decision timeline is skew-invariant, every plan/migration audited.
    scaling_findings = {name: pool.scaling_audit(skews)
                        for name, pool in pools.items()}
    pool_events_ok = all(sum(pool.events.values()) >= 1
                         for pool in pools.values())

    probe = live_probe(spec, seed)

    gates = gated.gate_dict(
        tokens_per_second=tokens_per_second >= TOKENS_PER_SECOND_FLOOR,
        decode_p99_per_token=(decode_p99_per_token
                              <= DECODE_P99_PER_TOKEN_CEILING),
        tokenize_audit=findings["llm-tokenize"].passed,
        prefill_audit=findings["llm-prefill"].passed,
        decode_audit=findings["llm-decode"].passed,
        cross_stage_audit=findings["llm-cross-stage"].passed,
        memory_audits=(findings["llm-tokenize-memory"].passed
                       and findings["llm-decode-memory"].passed),
        detector_teeth=(findings["llm-tokenize-boundary-leak"].leak_detected
                        and hot_load.leak_detected),
        pool_scale_events=pool_events_ok,
        scaling_audit=all(finding.passed
                          for finding in scaling_findings.values()),
        placement_audit=all(pool.placement_ok for pool in pools.values()),
        migration_audit=all(pool.migration_ok for pool in pools.values()),
        live_parity=probe["tokenize_parity"] and probe["decode_parity"],
    )

    return {
        "seed": seed,
        "spec": spec.to_dict(),
        "interval_seconds": INTERVAL_SECONDS,
        "ticks": ticks,
        "rates_rps": list(rates),
        "plateau_ticks": PLATEAU_TICKS,
        "tokens_per_second": tokens_per_second,
        "tokens_per_second_floor": TOKENS_PER_SECOND_FLOOR,
        "decode_p99_per_token_seconds": decode_p99_per_token,
        "decode_p99_per_token_ceiling": DECODE_P99_PER_TOKEN_CEILING,
        "pools": {name: pool.to_dict() for name, pool in pools.items()},
        "intervals": cells,
        "audits": {name: finding.to_dict()
                   for name, finding in sorted(findings.items())},
        "scaling_audits": {name: finding.to_dict()
                           for name, finding
                           in sorted(scaling_findings.items())},
        "hot_load_audit": hot_load.to_dict(),
        "live_probe": probe,
        "gates": gates,
    }


def tabulate(report: Dict[str, object]) -> ExperimentResult:
    """Per-interval node counts, decode latency and scale decisions."""
    spec = report["spec"]
    result = ExperimentResult(
        experiment_id="llm",
        title=f"oblivious LLM serving: tokenize/prefill/decode pools "
              f"(seed={report['seed']}, {report['ticks']} ticks x "
              f"{report['interval_seconds']:.2f}s, "
              f"prompt={spec['prompt_tokens']} new={spec['new_tokens']})",
        headers=("tick", "rate", "tok", "pre", "dec", "decode_p99_ms",
                 "decisions"),
    )
    for cell in report["intervals"]:
        nodes = cell["nodes"]
        decisions = []
        for name in ("tokenize", "prefill", "decode"):
            decision = cell["pools"][name]["decision"]
            if decision["action"] in ("scale-up", "scale-down"):
                decisions.append(
                    f"{name} {decision['action']} "
                    f"{decision['current_nodes']}->"
                    f"{decision['target_nodes']}")
        decode = cell["pipeline"]["stages"]["decode"]
        result.add_row(cell["tick"], f"{cell['rate_rps']:.0f}",
                       nodes["tokenize"], nodes["prefill"],
                       nodes["decode"],
                       f"{decode['p99_seconds'] * 1e3:.2f}",
                       "; ".join(decisions) or "-")
    result.notes = (
        f"tokens/sec={report['tokens_per_second']:.0f} (floor "
        f"{report['tokens_per_second_floor']:.0f}); decode p99/token="
        f"{report['decode_p99_per_token_seconds'] * 1e3:.3f} ms (ceiling "
        f"{report['decode_p99_per_token_ceiling'] * 1e3:.3f} ms); pools: "
        + ", ".join(f"{name} final nodes={pool['final_nodes']} "
                    f"up={pool['events']['scale_up_events']} "
                    f"down={pool['events']['scale_down_events']}"
                    for name, pool in report["pools"].items())
        + f"; gates: {gated.verdicts(report['gates'])}; "
          "each pool scales on its own secret-free signal plane, all "
          "reshapes ride the shared audited migration path, and the "
          "boundary-leaking tokenizer + hot-load-chasing controller are "
          "both caught")
    return result


BENCH = gated.GatedBench(
    id="llm",
    description="End-to-end oblivious LLM serving: three autoscaled "
                "pools, one audited pipeline, gated.",
    run=run_bench,
    tabulate=tabulate,
)

main = functools.partial(gated.main, BENCH)


if __name__ == "__main__":
    raise SystemExit(main())
