"""Data-oblivious computing primitives and the memory tracer that observes
them (the trace-equivalence judge is :mod:`repro.telemetry.audit`)."""

from repro.oblivious.linear_scan import (
    linear_scan_batch_vectorized,
    linear_scan_lookup,
)
from repro.oblivious.primitives import (
    ct_eq,
    ct_select,
    oblivious_argmax_vectorized,
    oblivious_copy_row,
)
from repro.oblivious.trace import (
    READ,
    WRITE,
    AccessEvent,
    MemoryTracer,
    Trace,
    TracedArray,
    traces_equal,
)

__all__ = [
    "linear_scan_batch_vectorized",
    "linear_scan_lookup",
    "ct_eq",
    "ct_select",
    "oblivious_argmax_vectorized",
    "oblivious_copy_row",
    "READ",
    "WRITE",
    "AccessEvent",
    "MemoryTracer",
    "Trace",
    "TracedArray",
    "traces_equal",
]
