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
