"""The process-wide telemetry registry and module-level conveniences.

Instrumented code resolves the active registry through :func:`get_registry`
at call time, so flipping telemetry on/off (or swapping in a scoped
registry for one experiment run) takes effect everywhere immediately —
no instrument rebinding. The default is an enabled
:class:`~repro.telemetry.metrics.MetricsRegistry`; call :func:`disable` (or
``set_registry(NullRegistry())``) to reduce every instrument to a no-op.

The import-time default keeps only the first 8192 span records (a process
that never asked for telemetry should not grow by a record per ORAM
access); later spans are counted as dropped but still feed their duration
histograms. :func:`enable`, :func:`use_registry` and a
bare ``MetricsRegistry()`` keep the 100 000-record default.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.telemetry.metrics import MetricsRegistry, NullRegistry

#: The shared disabled registry; ``set_registry(NULL_REGISTRY)`` turns
#: telemetry off with zero allocation.
NULL_REGISTRY = NullRegistry()

_registry: MetricsRegistry = MetricsRegistry(max_spans=8192)


def get_registry() -> MetricsRegistry:
    """The registry all instrumented code reports to."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous one."""
    global _registry
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(
            f"registry must be a MetricsRegistry, got {type(registry).__name__}")
    previous = _registry
    _registry = registry
    return previous


def enable(max_spans: int = 100_000) -> MetricsRegistry:
    """Install (and return) a fresh enabled registry."""
    registry = MetricsRegistry(max_spans=max_spans)
    set_registry(registry)
    return registry


def disable() -> MetricsRegistry:
    """Turn telemetry off globally; returns the previous registry."""
    return set_registry(NULL_REGISTRY)


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None
                 ) -> Iterator[MetricsRegistry]:
    """Scope a registry to a ``with`` block (tests, single experiment runs)."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
# Conveniences that proxy the active registry.
# ----------------------------------------------------------------------
def span(name: str, **attributes):
    return _registry.span(name, **attributes)


def counter(name: str, description: str = ""):
    return _registry.counter(name, description)


def gauge(name: str, description: str = ""):
    return _registry.gauge(name, description)


def histogram(name: str, buckets: Optional[Sequence[float]] = None,
              description: str = ""):
    return _registry.histogram(name, buckets, description)


def observe(name: str, value: float,
            buckets: Optional[Sequence[float]] = None) -> None:
    _registry.observe(name, value, buckets)
