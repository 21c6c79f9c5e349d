"""The victim: the real implementation, replayed onto shared hardware.

The attackers never meet a hand-written stand-in. A :class:`TraceVictim`
runs the code under attack — the ``run`` of an
:class:`~repro.telemetry.audit.AuditSubject`, e.g.
``TableEmbedding.generate_traced`` (the generator's own eval-mode
``forward``, declaring its reads to the bound tracer) or an ORAM read —
under a :class:`~repro.oblivious.trace.MemoryTracer` and plays every
recorded ``(region, address)`` event into a sink at ``region base +
address x row bytes``: :meth:`SetAssociativeCache.access_range` for the
cache channel, :meth:`PageFaultObserver.touch` for the page channel. What
the attacker then learns is a property of the generator, not of the model
of it.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.oblivious.trace import REGIONS, MemoryTracer
from repro.telemetry.audit import AuditSubject, technique_subject
from repro.utils.validation import check_positive


class TraceVictim:
    """One traced implementation with an observable memory footprint."""

    #: address space reserved per region (a multiple of every modelled
    #: cache's span, so each region starts at cache set 0)
    REGION_STRIDE = 1 << 26

    def __init__(self, subject: AuditSubject,
                 sink: Callable[[int, int], object],
                 num_rows: int = 256, embedding_dim: int = 64,
                 base_address: int = 0x10_0000) -> None:
        check_positive("num_rows", num_rows)
        check_positive("embedding_dim", embedding_dim)
        self.subject = subject
        self.sink = sink
        self.num_rows = num_rows
        self.row_bytes = embedding_dim * DEFAULT_PLATFORM.element_bytes
        self.base_address = base_address
        # Layout is by region *name* in first-touch order and is kept for
        # the victim's lifetime; an event's address never moves a base.
        self._region_bases: Dict[str, int] = {}

    @classmethod
    def of_technique(cls, technique: str,
                     sink: Callable[[int, int], object],
                     num_rows: int = 256, embedding_dim: int = 64,
                     seed: int = 0) -> "TraceVictim":
        """The real generator for ``technique`` (see
        :func:`~repro.telemetry.audit.technique_subject`), built and laid
        out at one geometry."""
        return cls(technique_subject(technique, num_rows, embedding_dim,
                                     seed=seed),
                   sink, num_rows, embedding_dim)

    def row_address(self, index: int) -> int:
        """Where row ``index`` of the first region (the table) lives."""
        if not 0 <= index < self.num_rows:
            raise IndexError(f"index {index} out of range")
        return self.base_address + index * self.row_bytes

    def lookup(self, index: int) -> None:
        """Serve secret ``index`` for real; replay what it touched."""
        tracer = MemoryTracer()
        self.subject.run(tracer, [index])
        trace = tracer.snapshot()
        bases = self._region_bases
        code_bases = np.zeros(len(REGIONS.names), dtype=np.int64)
        for code in trace.touched_regions():
            code_bases[code] = bases.setdefault(
                REGIONS.names[code],
                self.base_address + len(bases) * self.REGION_STRIDE)
        for address in (code_bases[trace.regions]
                        + trace.addresses * self.row_bytes).tolist():
            self.sink(address, self.row_bytes)
