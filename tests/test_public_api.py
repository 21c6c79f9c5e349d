"""Public-API hygiene: every package imports and every __all__ name exists."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.oblivious",
    "repro.oram",
    "repro.sidechannel",
    "repro.costmodel",
    "repro.embedding",
    "repro.models",
    "repro.hybrid",
    "repro.data",
    "repro.metrics",
    "repro.serving",
    "repro.resilience",
    "repro.cluster",
    "repro.cache",
    "repro.training",
    "repro.experiments",
    "repro.experiments.registry",
    "repro.telemetry",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    importlib.import_module(package)


@pytest.mark.parametrize("package", [p for p in PACKAGES
                                     if p not in ("repro",
                                                  "repro.experiments.registry")])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


def test_no_duplicate_all_entries():
    for package in PACKAGES:
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), package


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_registry_covers_every_experiment_module():
    """Every fig/table module under repro.experiments is registered, plus
    one id per gated bench's ``BENCH`` record."""
    import os

    import repro.experiments as experiments_package
    from repro.experiments.registry import BENCHES, EXPERIMENTS

    directory = os.path.dirname(experiments_package.__file__)
    modules = [name for name in os.listdir(directory)
               if name.startswith(("fig", "table", "llm_footprint"))
               and name.endswith(".py")]
    assert len(modules) + len(BENCHES) == len(EXPERIMENTS)
    assert {bench.id for bench in BENCHES} <= set(EXPERIMENTS)


def test_one_leakage_error_and_no_per_subsystem_gate():
    """The audited-decision contract lives in ``repro.telemetry.audit``
    only: a subsystem adds an ``X_subject`` factory, never its own
    ``XLeakageError`` class or ``check_oblivious`` + ``_X`` gate function
    (there were three and four)."""
    import ast
    import os
    import re

    import repro

    root = os.path.dirname(repro.__file__)
    error_classes, wrappers = [], []
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            where = os.path.relpath(path, root)
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef)
                        and node.name.endswith("LeakageError")):
                    error_classes.append((where, node.name))
                elif (isinstance(node, ast.FunctionDef)
                        and re.fullmatch(r"check_oblivious(_\w+)",
                                         node.name)):
                    wrappers.append((where, node.name))
    assert error_classes == [
        (os.path.join("telemetry", "audit", "__init__.py"), "LeakageError")]
    assert wrappers == []


def test_full_scans_are_declared_once_not_hand_rolled():
    """A full oblivious scan or a declared run of buckets is one columnar
    append (``MemoryTracer.record_sweep``/``record_each``) — no ``for``
    loop in the scan modules or the bucket tree may contain a tracer call
    (there were nine ``.record(`` loops, then the tree's per-bucket one and
    the stash's per-sweep one), nor may one in ``lookahead_access_batch``
    (its posmap, fetch and write-back ordinal runs were three ``_record``
    loops; only the per-slot serve events interleave with stash scans) —
    and the ORAM access metering lives in one module
    (``OramController._metered``; there were three copies)."""
    import ast
    import os

    import repro

    root = os.path.dirname(repro.__file__)
    loops = []
    for relative in ("oram/position_map.py", "oram/stash.py",
                     "oram/sqrt_oram.py", "oram/tree.py",
                     "oblivious/trace.py"):
        with open(os.path.join(root, relative), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), relative)
        for loop in ast.walk(tree):
            if isinstance(loop, (ast.For, ast.While)):
                loops += [(relative, call.lineno) for call in ast.walk(loop)
                          if isinstance(call, ast.Call)
                          and isinstance(call.func, ast.Attribute)
                          and call.func.attr in ("record", "record_each",
                                                 "record_sweep")]
    with open(os.path.join(root, "oram", "lookahead.py"),
              encoding="utf-8") as handle:
        lookahead = ast.parse(handle.read(), "lookahead.py")
    batch = next(node for node in ast.walk(lookahead)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "lookahead_access_batch")
    for loop in ast.walk(batch):
        if isinstance(loop, (ast.For, ast.While, ast.ListComp,
                             ast.GeneratorExp)):
            loops += [("oram/lookahead.py", call.lineno)
                      for call in ast.walk(loop)
                      if isinstance(call, ast.Call)
                      and getattr(call.func, "id",
                                  getattr(call.func, "attr", None))
                      in ("_record", "record", "record_each", "record_sweep")]
    assert loops == []

    oram = os.path.join(root, "oram")
    metering = []
    for name in sorted(os.listdir(oram)):
        if name.endswith(".py"):
            with open(os.path.join(oram, name), encoding="utf-8") as handle:
                if '"oram.bucket_reads_total"' in handle.read():
                    metering.append(name)
    assert metering == ["controller.py"]


def test_oblivious_core_keeps_only_what_runs():
    """``repro.oram``/``repro.oblivious``/``repro.embedding``/
    ``repro.training`` hold only code a program path runs: no test-only
    cipher (``KeystreamCipher``, ``EncryptedBucketTree``), sorting network,
    swap/ReLU/max/less-than primitives, scalar argmax, top-k/temperature
    sampler, Ring ORAM generator, tensor-train comparator, pooled or
    chunked lookup, background eviction or training-loop builder; no
    settable value nothing sets (``Stash``/``BucketTree`` ``dtype``,
    ``MemoryTracer`` ``enabled``, ``overflow_callback``, posmap
    ``compression``, the online table's ``stash_capacity``, all but four
    ``TrainingConfig`` fields, ``GPT.generate``'s sampling knobs); a
    tracer only on a controller (the tree, stash, flat map, generators and
    tokenizer take none, so there is one binding per ORAM); and no
    position-map batch fallback that every map overrides."""
    import ast
    import dataclasses
    import inspect
    import textwrap

    from repro.embedding import EmbeddingGenerator
    from repro.embedding.oram_embedding import _OramEmbeddingBase
    from repro.llm import ObliviousTokenizer
    from repro.models import GPT
    from repro.oblivious.trace import MemoryTracer
    from repro.oram import (
        BucketTree,
        CircuitORAM,
        FlatPositionMap,
        OramPositionMap,
        PathORAM,
        PositionMap,
        RingORAM,
        SqrtORAM,
        Stash,
    )
    from repro.training import OnlineOramEmbedding, TrainingConfig

    for module in ("repro.oram.crypto", "repro.oblivious.sort",
                   "repro.embedding.tensor_train",
                   "repro.oblivious.sampling"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    deleted = {"KeystreamCipher", "EncryptedBucketTree", "bitonic_network",
               "oblivious_sort", "oblivious_shuffle", "oblivious_swap",
               "branchless_relu", "oblivious_max", "RingOramEmbedding",
               "TTEmbedding", "balanced_factors", "exact_factors",
               "build_training_loop", "oblivious_topk", "oblivious_argmax",
               "ct_lt", "oblivious_sample_top_k", "oblivious_sample_batch"}
    for package in PACKAGES + ["repro.oblivious.primitives",
                               "repro.embedding.oram_embedding",
                               "repro.training.loop"]:
        module = importlib.import_module(package)
        listed = deleted & set(getattr(module, "__all__", ()))
        assert not listed, (package, listed)
        assert not deleted & set(vars(module)), package

    for cls in (Stash, BucketTree, MemoryTracer):
        parameters = inspect.signature(cls).parameters
        assert not {"dtype", "enabled"} & set(parameters), cls.__name__
    for cls in (OramPositionMap, OnlineOramEmbedding):
        parameters = inspect.signature(cls).parameters
        assert not {"compression", "stash_capacity"} & set(parameters), \
            cls.__name__
    for cls in (BucketTree, Stash, FlatPositionMap, OramPositionMap,
                _OramEmbeddingBase, OnlineOramEmbedding):
        assert "tracer" not in inspect.signature(cls).parameters, \
            cls.__name__
    assert "memory_tracer" not in inspect.signature(
        ObliviousTokenizer).parameters
    assert list(inspect.signature(GPT.generate).parameters) == [
        "self", "prompt", "max_new_tokens"]
    for scheme in (PathORAM, CircuitORAM, RingORAM, SqrtORAM):
        oram = scheme(8, 2, rng=0)
        for name in ("overflow_callback", "background_evict",
                     "_background_evict_pass", "levels"):
            assert not hasattr(oram, name), (scheme.__name__, name)
    for name in ("batched_forward", "forward_pooled", "generate_pooled"):
        assert not hasattr(EmbeddingGenerator, name), name
    assert not hasattr(OnlineOramEmbedding, "discard_gradients")
    assert [field.name for field in dataclasses.fields(TrainingConfig)] == [
        "steps", "batch_size", "scheme", "batched"]

    function = ast.parse(textwrap.dedent(
        inspect.getsource(PositionMap.lookup_and_update_batch))).body[0]
    body = [node for node in function.body
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant))]
    assert len(body) == 1 and isinstance(body[0], ast.Raise)
    assert body[0].exc.id == "NotImplementedError"


def _oram_method_calls():
    """(file, function, names of the methods it calls) for every function
    under ``src/repro/oram/``."""
    import ast
    import os

    import repro

    oram = os.path.join(os.path.dirname(repro.__file__), "oram")
    for name in sorted(os.listdir(oram)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(oram, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                yield name, function.name, {
                    call.func.attr for call in ast.walk(function)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)}


def test_one_function_drains_the_stash_into_buckets():
    """Every greedy write-back of a tree ORAM is ``OramController._drain``
    — the only caller of ``Stash.take_matching`` (a mask predicate over the
    leaf array in, ``(ids, leaves, payloads)`` arrays out) outside the
    stash itself (Path's two write-backs and Ring's eviction each had
    their own) — and the array movers replaced their per-block
    predecessors rather than joining them."""
    calls = list(_oram_method_calls())
    drains = [(name, function) for name, function, called in calls
              if name != "stash.py" and "take_matching" in called]
    assert drains == [("controller.py", "_drain")]
    replaced = {"_take", "_take_deepest_from_stash", "_deepest_slot",
                "_legal_depth", "_access_impl"}
    assert not replaced & {function for _, function, _ in calls}


def test_no_scheme_module_emits_a_memory_event_itself():
    """Tree and stash events come from ``BucketTree``/``Stash`` methods
    only; the scheme modules never call the tracer (Ring ORAM hand-placed
    its slot read beside the array access)."""
    recorders = [(name, function)
                 for name, function, called in _oram_method_calls()
                 if name in ("path_oram.py", "circuit_oram.py", "ring_oram.py")
                 and called & {"record", "record_each", "record_sweep"}]
    assert recorders == []


def test_one_serving_loop_settles_the_schedule():
    """A schedule becomes per-request ``queue_delays`` in exactly one
    function under ``repro.serving`` (``batcher.settle``; there were three
    hand copies, each reading ``batch.start_seconds`` into a
    ``queue_delays`` window), and the engine is the stage body — it never
    reaches back for the pipeline that chains it."""
    import ast
    import os

    import repro

    serving = os.path.join(os.path.dirname(repro.__file__), "serving")
    settlers = []
    for name in sorted(os.listdir(serving)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(serving, name), encoding="utf-8") as handle:
            source = handle.read()
        if name == "engine.py":
            assert "PipelineEngine" not in source
        for function in ast.walk(ast.parse(source, name)):
            if not isinstance(function, ast.FunctionDef):
                continue
            nodes = list(ast.walk(function))
            if (any(isinstance(node, ast.Name) and node.id == "queue_delays"
                    for node in nodes)
                    and any(isinstance(node, ast.Attribute)
                            and node.attr == "start_seconds"
                            for node in nodes)):
                settlers.append((name, function.name))
    assert settlers == [("batcher.py", "settle")]


def test_one_judge_and_one_victim():
    """Traces are compared in ``repro.telemetry.audit`` only (there was a
    second judge in ``repro.oblivious.analysis`` and two more inside Table
    II), and the attackers' only victim is ``TraceVictim`` replaying the
    real generators — no hand-written linear-scan lookup method standing
    in for the defence (there were two)."""
    import ast
    import os

    import repro

    root = os.path.dirname(repro.__file__)
    stand_in = "_".join(("lookup", "linear", "scan"))  # spelled nowhere else
    judges, victims, stand_ins = set(), [], []
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            where = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id",
                                    getattr(node.func, "attr", None))
                        == "traces_equal"):
                    judges.add(where)
                elif (isinstance(node, ast.ClassDef)
                        and node.name.endswith("Victim")):
                    victims.append((where, node.name))
                elif (isinstance(node, ast.FunctionDef)
                        and node.name == stand_in):
                    stand_ins.append(where)
    assert judges == {os.path.join("telemetry", "audit", "__init__.py")}
    assert victims == [(os.path.join("sidechannel", "replay.py"),
                        "TraceVictim")]
    assert stand_ins == []
    assert not os.path.exists(os.path.join(root, "oblivious", "analysis.py"))
    assert not os.path.exists(os.path.join(root, "sidechannel", "victim.py"))


def test_kv_cache_inference_runs_on_ndarrays():
    """``GPT.prefill``/``decode_step`` run on plain ndarrays from the
    embedding output to the logits: ``_cached_logits`` wraps only the final
    logits in a ``Tensor`` (it used to run every op as an autograd Tensor
    under ``no_grad``), the cache writes into a preallocated buffer (no
    whole-cache ``np.concatenate`` per step), and the cached attention
    branch builds no ``Tensor``."""
    import ast
    import inspect
    import textwrap

    from repro.models.gpt import GPT
    from repro.nn import attention

    def calls(function):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        return [node.func for node in ast.walk(tree)
                if isinstance(node, ast.Call)]

    cached = calls(GPT._cached_logits)
    assert [func.id for func in cached if isinstance(func, ast.Name)
            and func.id in ("Tensor", "no_grad")] == ["Tensor"]
    assert "concatenate" not in {func.attr for func in calls(attention)
                                 if isinstance(func, ast.Attribute)}
    assert "Tensor" not in {func.id for func in
                            calls(attention.MultiHeadSelfAttention.forward)
                            if isinstance(func, ast.Name)}


def test_one_elastic_fleet_plans_reshapes_and_heals():
    """Every resizing fleet is a ``repro.cluster.autoscale.fleet
    .ElasticFleet``: epochs advance and migrations are built there (the
    autoscale storm, each LLM stage pool and the ``Supervisor`` each had a
    copy), outside only the two-epoch sweep of ``repro.cluster.migrate``;
    plans are memoised by ``PlanBook.plan_for`` alone (there were three
    ``plan_for`` copies), and the plan hash is ``ShardPlan.digest``."""
    import ast
    import os

    import repro
    from repro.cluster import sim

    root = os.path.dirname(repro.__file__)
    advancers, builders, plan_fors = set(), set(), []
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            where = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (isinstance(func, ast.Attribute)
                            and func.attr == "advance"):
                        advancers.add(where)
                    elif (isinstance(func, ast.Name)
                            and func.id == "MigrationEngine"):
                        builders.add(where)
                elif (isinstance(node, ast.FunctionDef)
                        and node.name == "plan_for"):
                    plan_fors.append(where)
    allowed = {os.path.join("cluster", "autoscale", "fleet.py"),
               os.path.join("cluster", "migrate.py")}
    assert advancers == allowed
    assert builders == allowed
    assert plan_fors == [os.path.join("cluster", "placement.py")]
    assert not os.path.exists(
        os.path.join(root, "cluster", "autoscale", "supervisor.py"))
    assert not hasattr(sim, "plan_digest")


def test_one_owner_walk():
    """Owner sets meet replica health in one function under
    ``repro.cluster`` (``router.route_tables``; ``ShardRouter.route``,
    ``EpochControlPlane.route`` and ``TransitioningOwnerMap.assignment``
    each walked them), routers carry no epoch (``set_epoch`` and the
    ``owners_for`` spelling are gone) and the ring's virtual-node count is
    a constant, not a knob."""
    import ast
    import os

    import repro

    root = os.path.join(os.path.dirname(repro.__file__), "cluster")
    admitters, seams, knobs = [], [], []
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            where = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    if node.name in ("route", "set_epoch", "owners_for"):
                        seams.append((where, node.name))
                    if any(isinstance(call, ast.Call)
                           and isinstance(call.func, ast.Attribute)
                           and call.func.attr == "admitted"
                           for call in ast.walk(node)):
                        admitters.append((where, node.name))
                identifier = (getattr(node, "id", None)
                              or getattr(node, "attr", None)
                              or getattr(node, "arg", None))
                if identifier == "virtual_nodes":
                    knobs.append(where)
    assert admitters == [("router.py", "route_tables")]
    assert seams == []
    assert knobs == []


def test_one_report_fold():
    """Reports combine in one module: ``repro.serving.report`` owns merge,
    compose and the summed cache counters (``compose_stage_reports`` and
    the scatter-gather's ``_gathered_cache_fields`` each re-summed them),
    and the serving seams no caller used are gone — the
    ``SecureDlrmServer`` facade, ``EngineStage`` and the co-location
    planner's second copy of ``Dispatcher.sweep``."""
    import ast
    import os

    import repro

    root = os.path.dirname(repro.__file__)
    summers, seams = [], []
    retired = {"SecureDlrmServer", "EngineStage", "compose_stage_reports",
               "_gathered_cache_fields", "colocation_sweep",
               "latency_bounded_throughput"}
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            where = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if node.name in retired:
                        seams.append((where, node.name))
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "sum"
                        and any(isinstance(inner, ast.Attribute)
                                and inner.attr == "cache_bytes_resident"
                                for inner in ast.walk(node))):
                    summers.append(where)
    assert summers == [os.path.join("serving", "report.py")]
    assert seams == []


def test_one_fault_path_and_one_cache_handle():
    """Faults are injected only by ``execute_with_resilience`` (no backend
    wrapper, no ORAM stash hook, no second deadline object) and an engine
    takes a cache instance (no ``CachePolicy`` to resolve), so none of the
    retired seams is defined anywhere under ``repro``, and
    ``ResiliencePolicy`` carries exactly the five values a caller sets."""
    import ast
    import dataclasses
    import os

    import repro
    from repro.resilience import DegradationLadder, ResiliencePolicy

    root = os.path.dirname(repro.__file__)
    retired = {
        "FaultInjectingBackend", "TransientBackendError", "stash_pressure",
        "DeadlineBudget", "DeadlineExceeded", "build_dispatcher",
        "sheds_on_deadline", "current_latency", "below_min",
        "CachePolicy", "CACHE_KINDS", "resolve_cache", "cache_instance",
        "degrade_in_flight", "tables_on", "execution_backend",
        "generators_built", "load_blocks", "load_weights",
    }
    defined = []
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            where = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    names = [target.id for target in targets
                             if isinstance(target, ast.Name)]
                else:
                    continue
                defined.extend((where, found) for found in names
                               if found in retired)
    assert defined == []
    assert [item.name for item in dataclasses.fields(ResiliencePolicy)] == [
        "injector", "retry", "num_replicas", "min_replicas", "ladder"]
    assert not hasattr(DegradationLadder, "reset")
    assert "table_size" not in {item.name for item in
                                dataclasses.fields(DegradationLadder)}


def test_one_calibrated_platform():
    """The cost model prices one testbed: no function parameter or
    dataclass field under ``repro`` is a ``platform`` or an
    ``element_bytes`` (``PlatformModel.element_bytes`` is the one width),
    nothing falls back to a hard-coded width or bandwidth through
    ``getattr``, and the constructor knobs every caller left at one value
    are gone."""
    import ast
    import inspect
    import os

    import repro
    from repro.cache.policy import CachePricer
    from repro.cluster.autoscale import ElasticFleet
    from repro.cluster.placement import ShardPlanner
    from repro.cluster.scatter import ScatterGatherEngine
    from repro.serving import ExecutionEngine
    from repro.serving.backends import MeasuredBackend

    root = os.path.dirname(repro.__file__)
    settable = []
    fallbacks = []
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            where = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    settable.extend(
                        (where, node.name, arg.arg)
                        for arg in args.posonlyargs + args.args
                        + args.kwonlyargs
                        if arg.arg in ("platform", "element_bytes"))
                elif isinstance(node, ast.ClassDef):
                    settable.extend(
                        (where, node.name, item.target.id)
                        for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and item.target.id in ("platform", "element_bytes"))
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr"):
                    fallbacks.extend(
                        (where, arg.value) for arg in node.args
                        if isinstance(arg, ast.Constant)
                        and arg.value in ("element_bytes", "scan_dram_bw"))
    assert settable == [("costmodel/platform.py", "PlatformModel",
                         "element_bytes")]
    assert fallbacks == []
    removed = {
        ScatterGatherEngine: {"varied", "backend", "platform",
                              "mlp_overhead_seconds",
                              "gather_overhead_seconds"},
        ShardPlanner: {"varied", "backend", "platform"},
        ExecutionEngine: {"varied"},
        CachePricer: {"varied"},
        ElasticFleet: {"contention"},
        MeasuredBackend: {"weight_cache"},
    }
    for cls, names in removed.items():
        assert names.isdisjoint(inspect.signature(cls).parameters), cls


def test_one_pricing_rule():
    """An allocated feature's DHE stack comes from one shape rule,
    ``dhe_table_shape``: outside it, only the code that always builds or
    sizes Varied stacks calls ``dhe_varied_shape``."""
    import ast
    import os

    import repro

    root = os.path.dirname(repro.__file__)
    callers = set()
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            if any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "dhe_varied_shape"
                   for node in ast.walk(tree)):
                callers.add(os.path.relpath(path, root))
    assert callers == {"costmodel/latency.py", "embedding/dhe.py",
                       "metrics/footprint.py",
                       "experiments/fig04_dlrm_latency.py",
                       "experiments/table08_meta.py"}


def test_one_fig13_scenario():
    """The five gated serving sims and ``fig13`` build their serving
    scaffold only through ``Fig13Scenario``: none of them constructs a
    ``ServingConfig``, ``BatchingPolicy``, ``RetryPolicy``, pricing model
    or Poisson trace itself, batch and SLA are not parameters of any of
    their runs, and ``ExecutionEngine.serve_poisson`` is gone."""
    import ast
    import inspect
    import os

    import repro
    from repro.cache.bench import run_bench
    from repro.cluster.autoscale.sim import run_autoscale
    from repro.cluster.migrate import run_migration
    from repro.cluster.sim import run_cluster
    from repro.experiments import fig13_throughput
    from repro.resilience.chaos import run_chaos
    from repro.serving import ExecutionEngine

    root = os.path.dirname(repro.__file__)
    drivers = ("cluster/sim.py", "cluster/migrate.py",
               "cluster/autoscale/sim.py", "resilience/chaos.py",
               "cache/bench.py", "experiments/fig13_throughput.py")
    scaffold = {"ServingConfig", "BatchingPolicy", "RetryPolicy",
                "dlrm_threshold_model", "poisson", "poisson_arrivals"}
    built = []
    for where in drivers:
        with open(os.path.join(root, where), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), where)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                if name in scaffold:
                    built.append((where, name))
    assert built == []
    runs = (run_cluster, run_migration, run_autoscale, run_chaos, run_bench,
            fig13_throughput.run)
    for run in runs:
        parameters = set(inspect.signature(run).parameters)
        assert parameters.isdisjoint({"batch", "sla_seconds", "epochs",
                                      "max_copies"}), run.__module__
    assert sum(len(inspect.signature(run).parameters) - 1
               for run in runs[:5]) == 19
    assert not hasattr(ExecutionEngine, "serve_poisson")


def test_lazy_is_an_inert_shim():
    """Inference runs eagerly: no module under ``repro`` imports
    ``repro.lazy``, which is one file defining exactly ``NumpyRuntime``
    (with only ``cache_size``) and ``use_runtime``, so no graph-capture
    runtime grows back behind it."""
    import ast
    import os

    import repro

    root = os.path.dirname(repro.__file__)
    importers = []
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    modules = [base] + [f"{base}.{alias.name}"
                                        for alias in node.names]
                else:
                    continue
                if any(module == "repro.lazy"
                       or module.startswith("repro.lazy.")
                       for module in modules):
                    importers.append(os.path.relpath(path, root))
    assert importers == []
    assert not os.path.isdir(os.path.join(root, "lazy"))
    with open(os.path.join(root, "lazy.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    defined = {node.name: node for node in tree.body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))}
    assigned = [node for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))]
    assert set(defined) == {"NumpyRuntime", "use_runtime"}
    assert assigned == []
    assert [item.name for item in defined["NumpyRuntime"].body
            if isinstance(item, ast.FunctionDef)] == ["cache_size"]


def test_one_traced_path_per_embedding_generator():
    """A generator's traced run is its eval-mode ``forward`` with a tracer
    bound: ``generate_traced`` is implemented once, in ``embedding/base.py``
    (there were four hand-written twins beside the timed ``forward``, then
    an ORAM refusal while the controller kept its construction-time
    tracer) and nothing overrides it. No embedding module wraps its
    weights in a ``TracedArray``, and the traced scan twin
    ``linear_scan_batch`` and ``TracedArray.read_all`` stay gone."""
    import ast
    import os

    import repro
    import repro.oblivious
    import repro.oblivious.linear_scan
    from repro.oblivious.trace import TracedArray

    root = os.path.dirname(repro.__file__)
    implementations, refusals, importers = [], [], []
    for directory, _, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            relative = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if (isinstance(node, ast.FunctionDef)
                        and node.name == "generate_traced"):
                    body = node.body
                    if (isinstance(body[0], ast.Expr)
                            and isinstance(body[0].value, ast.Constant)):
                        body = body[1:]  # the docstring
                    only_raises = (len(body) == 1
                                   and isinstance(body[0], ast.Raise))
                    (refusals if only_raises else implementations).append(
                        relative)
                if (relative.startswith("embedding" + os.sep)
                        and isinstance(node, (ast.Import, ast.ImportFrom))
                        and any(alias.name.split(".")[-1] == "TracedArray"
                                for alias in node.names)):
                    importers.append(relative)
    assert implementations == [os.path.join("embedding", "base.py")]
    assert refusals == []
    assert importers == []
    assert "linear_scan_batch" not in repro.oblivious.__all__
    assert not hasattr(repro.oblivious, "linear_scan_batch")
    assert not hasattr(repro.oblivious.linear_scan, "linear_scan_batch")
    assert not hasattr(TracedArray, "read_all")
