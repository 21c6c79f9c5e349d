"""Calibration ledger: sha256 over the cost model, the figures and pricing.

The first digest covers ``repr()`` of every public ``repro.costmodel``
function on a fixed grid: lookup, scan, DHE Uniform and Varied, the
Path / Circuit / Ring ORAM latencies and access bytes, the square-root
ORAM, the Varied sizing rule, the scan / DHE / Path / Circuit demands
and their co-located latencies, the LLM stage, decode and generation
latencies, and the memory byte counts. The second covers
``run_experiment(id).to_dict()`` of the fifteen modelled experiments.
The third covers everything that prices an allocated feature: the
modelled backend for every technique, ``allocation_latency`` at both
sizings, every ``CachePricer`` method, ``ShardPlanner.table_costs``,
``dlrm_tenant``, ``mixed_allocation_latency`` and the engine's batch
latency and dispatcher demand, on the cache audit model and on the
Kaggle and Terabyte models at their Fig 13 thresholds.

The first two were recorded while the platform, the element width and
the Table IV calibration were still parameters threaded through every
signature; the constants that replaced them must reproduce both. The
third was recorded while each of those sites still chose its own DHE
technique and stack. Printed, not only asserted (``pytest -s``), so a
change that moves the cost model shows its digests moving in the log.
"""

import hashlib
import json

from repro.costmodel import (
    DLRM_DHE_UNIFORM_16,
    DLRM_DHE_UNIFORM_64,
    LLM_DHE_GPT2_MEDIUM,
    colocated_latencies,
    dhe_bytes,
    dhe_demand,
    dhe_latency,
    dhe_varied_shape,
    linear_scan_latency,
    lookup_latency,
    mlp_bytes,
    oram_access_bytes,
    oram_demand,
    oram_latency,
    replicated_latencies,
    scan_demand,
    sqrt_oram_access_bytes,
    sqrt_oram_latency,
    table_bytes,
    throughput_inferences_per_second,
    tree_oram_bytes,
    varied_scale_factor,
    zerotrace_variant_factor,
)
from repro.costmodel.llm import (
    GPT2_MEDIUM,
    decode_latency,
    decode_step_latency,
    embedding_stage_latency,
    generation_latency,
    prefill_latency,
    stage_latency,
)
from repro.cache.audit import audit_allocations, audit_pricer
from repro.cache.policy import CachePricer
from repro.cluster.placement import ShardPlanner
from repro.costmodel.latency import MLP_OVERHEAD_SECONDS
from repro.data import KAGGLE_SPEC, TERABYTE_SPEC
from repro.experiments.registry import run_experiment
from repro.hybrid import (
    allocate_for_configuration,
    allocation_latency,
    dlrm_tenant,
    dlrm_threshold_model,
    mixed_allocation_latency,
)
from repro.serving import ExecutionEngine, ServingConfig
from repro.serving.backends import BACKEND_TECHNIQUES, ModelledBackend

ROWS = (1, 100, 3_300, 65_536, 1_000_000, 10_000_000, 50_000_000)
DIMS = (16, 64)
BATCHES = (1, 32, 256)
THREADS = (1, 16)
SCHEMES = ("path", "circuit", "ring")
UNIFORM = (DLRM_DHE_UNIFORM_16, DLRM_DHE_UNIFORM_64, LLM_DHE_GPT2_MEDIUM)
LLM_TECHNIQUES = ("lookup", "scan", "path", "circuit", "sqrt", "dhe")

MODELLED_EXPERIMENTS = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                        "fig10", "fig11", "fig12", "fig13", "table1",
                        "table6", "table7", "table8", "llm-footprint")

COSTMODEL_DIGEST = \
    "ac6f04194ad61f683072aa78a2cebf110b832776d4f419ee9beaa6df7e757ab7"
EXPERIMENTS_DIGEST = \
    "d1ad09df767268fe280a3ca89ec3c8f2eee50bf12b2f5157d7a7fdbf28f0a754"
PRICING_DIGEST = \
    "870424556aff0370df21321cdfb48f0c97fbc60b6b9cc61a225b6a6f950e1adf"


def costmodel_grid():
    """(label, value) for every public cost-model function on the grid."""
    out = []
    for rows in ROWS:
        out.append(("varied_scale_factor", rows, varied_scale_factor(rows)))
        for uniform in UNIFORM:
            out.append(("dhe_varied_shape", rows, uniform,
                        dhe_varied_shape(rows, uniform)))
        for dim in DIMS:
            out.append(("table_bytes", rows, dim, table_bytes(rows, dim)))
            out.append(("sqrt_oram_access_bytes", rows, dim,
                        sqrt_oram_access_bytes(rows, dim)))
            for scheme in SCHEMES:
                out.append(("oram_access_bytes", scheme, rows, dim,
                            oram_access_bytes(scheme, rows, dim)))
                out.append(("tree_oram_bytes", scheme, rows, dim,
                            tree_oram_bytes(rows, dim, scheme)))
            for batch in BATCHES:
                out.append(("scan_demand", rows, dim, batch,
                            scan_demand(rows, dim, batch)))
                for scheme in ("path", "circuit"):
                    out.append(("oram_demand", scheme, rows, dim, batch,
                                oram_demand(scheme, rows, dim, batch)))
                for threads in THREADS:
                    key = (rows, dim, batch, threads)
                    out.append(("lookup_latency", key,
                                lookup_latency(rows, dim, batch, threads)))
                    out.append(("linear_scan_latency", key,
                                linear_scan_latency(rows, dim, batch,
                                                    threads)))
                    out.append(("sqrt_oram_latency", key,
                                sqrt_oram_latency(rows, dim, batch,
                                                  threads)))
                    for scheme in SCHEMES:
                        out.append(("oram_latency", scheme, key,
                                    oram_latency(scheme, rows, dim, batch,
                                                 threads)))
                    shape = dhe_varied_shape(rows, DLRM_DHE_UNIFORM_64)
                    out.append(("dhe_latency varied", key,
                                dhe_latency(shape, batch, threads)))
    for scheme in ("path", "circuit"):
        for variant in ("zt-original", "zt-gramine", "zt-gramine-opt"):
            out.append(("zerotrace", scheme, variant,
                         zerotrace_variant_factor(scheme, variant)))
    for shape in UNIFORM:
        out.append(("dhe_bytes", shape, dhe_bytes(shape)))
        for batch in BATCHES:
            out.append(("dhe_demand", shape, batch, dhe_demand(shape, batch)))
            for threads in THREADS:
                out.append(("dhe_latency uniform", shape, batch, threads,
                            dhe_latency(shape, batch, threads)))
    out.append(("mlp_bytes", mlp_bytes((13, 512, 256, 64))))
    out.append(("mlp_bytes", mlp_bytes((415, 512, 512, 256, 1))))
    out.extend(colocation_grid())
    out.extend(llm_grid())
    return out


def colocation_grid():
    """Scan, DHE, Path and Circuit tenants alone, mixed and replicated."""
    out = []
    for batch in (1, 32):
        tenants = {
            "scan-llc": scan_demand(3_300, 64, batch),
            "scan-dram": scan_demand(1_000_000, 64, batch),
            "dhe": dhe_demand(DLRM_DHE_UNIFORM_64, batch),
            "path": oram_demand("path", 1_000_000, 64, batch),
            "circuit": oram_demand("circuit", 1_000_000, 64, batch),
        }
        mixed = list(tenants.values())
        out.append(("colocated mixed", batch, colocated_latencies(mixed)))
        out.append(("colocated mixed x8", batch,
                    colocated_latencies(mixed * 8)))
        out.append(("throughput mixed", batch,
                    throughput_inferences_per_second(mixed * 4, batch)))
        for name, demand in tenants.items():
            for copies in (1, 4, 28, 56):
                out.append(("replicated", name, batch, copies,
                            replicated_latencies(demand, copies)))
    return out


def llm_grid():
    """Stage, decode and generation latencies of GPT-2 medium."""
    out = []
    for batch in (1, 8):
        for threads in (1, 16):
            out.append(("prefill", batch, threads,
                        prefill_latency(GPT2_MEDIUM, batch, 256, threads)))
            out.append(("decode_step", batch, threads,
                        decode_step_latency(GPT2_MEDIUM, batch, 300,
                                            threads)))
        for technique in LLM_TECHNIQUES:
            out.append(("embedding_stage", technique, batch,
                        embedding_stage_latency(technique, GPT2_MEDIUM,
                                                batch * 64)))
            for stage in ("prefill", "decode"):
                out.append(("stage", technique, stage, batch,
                            stage_latency(technique, stage, GPT2_MEDIUM,
                                          batch)))
            out.append(("decode", technique, batch,
                        decode_latency(technique, GPT2_MEDIUM, batch,
                                       new_tokens=16)))
            out.append(("generation", technique, batch,
                        generation_latency(technique, GPT2_MEDIUM, batch,
                                           prompt_tokens=64,
                                           new_tokens=16)))
    out.append(("kv_bytes_per_token", GPT2_MEDIUM.kv_bytes_per_token()))
    return out


def pricing_grid():
    """Every site that prices an allocated feature, on fixed models."""
    out = []
    for uniform in (DLRM_DHE_UNIFORM_16, DLRM_DHE_UNIFORM_64):
        backend = ModelledBackend(uniform)
        for technique in BACKEND_TECHNIQUES:
            for rows in ROWS:
                for batch in BATCHES:
                    for threads in THREADS:
                        out.append(("technique_latency", technique, rows,
                                    uniform.out_dim, batch, threads,
                                    backend.technique_latency(
                                        technique, rows, uniform.out_dim,
                                        batch, threads)))
    models = [("audit", audit_allocations(), audit_pricer())]
    for spec in (KAGGLE_SPEC, TERABYTE_SPEC):
        dim = spec.embedding_dim
        uniform, thresholds = dlrm_threshold_model(dim, 32)
        allocations = allocate_for_configuration(spec.table_sizes,
                                                 thresholds, dim, 32, 1)
        models.append((spec.name, allocations, CachePricer(
            backend=ModelledBackend(uniform), embedding_dim=dim,
            batch_size=32, threads=1,
            overhead_seconds=MLP_OVERHEAD_SECONDS, uniform_shape=uniform)))
        config = ServingConfig(batch_size=32, threads=1)
        costs = ShardPlanner(4, thresholds, dim, uniform_shape=uniform
                             ).table_costs(spec.table_sizes, config)
        out.append(("table_costs", spec.name, costs))
        engine = ExecutionEngine(spec.table_sizes, dim, uniform, thresholds)
        out.append(("engine", spec.name, engine.batch_latency(config),
                    engine.dispatcher(config).demand))
        for varied in (True, False):
            out.append(("dlrm_tenant", spec.name, varied,
                        dlrm_tenant(spec.table_sizes, dim, allocations,
                                    uniform, 32, varied=varied)))
        for rows in ROWS:
            for num_dhe in range(5):
                for varied in (True, False):
                    out.append(("mixed_allocation_latency", rows, dim,
                                num_dhe, varied,
                                mixed_allocation_latency(
                                    rows, dim, 4, num_dhe, uniform, 32,
                                    varied=varied)))
    for name, allocations, pricer in models:
        out.append(("allocations", name, allocations))
        for varied in (True, False):
            for threads in THREADS:
                out.append(("allocation_latency", name, varied, threads,
                            allocation_latency(
                                allocations, pricer.backend,
                                pricer.embedding_dim, pricer.batch_size,
                                threads, varied=varied,
                                overhead_seconds=pricer.overhead_seconds)))
        out.append(("batch_seconds", name,
                    pricer.batch_seconds(allocations)))
        out.append(("shared_read_seconds", name,
                    pricer.shared_read_seconds(allocations)))
        out.append(("result_bytes", name, pricer.result_bytes(),
                    pricer.result_bytes(len(allocations))))
        for allocation in allocations:
            out.append(("pricer", name, allocation,
                        pricer.feature_seconds(allocation),
                        pricer.resident_seconds(allocation),
                        pricer.footprint_bytes(allocation),
                        pricer.table_footprint_bytes(allocation),
                        pricer.decoder_setup_seconds(allocation)))
    return out


def costmodel_digest() -> str:
    return hashlib.sha256(repr(costmodel_grid()).encode("utf-8")).hexdigest()


def experiments_digest() -> str:
    reports = {name: run_experiment(name).to_dict()
               for name in MODELLED_EXPERIMENTS}
    text = json.dumps(reports, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pricing_digest() -> str:
    return hashlib.sha256(repr(pricing_grid()).encode("utf-8")).hexdigest()


def test_costmodel_ledger():
    digest = costmodel_digest()
    print(f"\ncostmodel digest {digest}")
    assert digest == COSTMODEL_DIGEST


def test_modelled_experiments_ledger():
    digest = experiments_digest()
    print(f"\nexperiments digest {digest}")
    assert digest == EXPERIMENTS_DIGEST


def test_pricing_ledger():
    digest = pricing_digest()
    print(f"\npricing digest {digest}")
    assert digest == PRICING_DIGEST
