"""Controlled-channel (page-fault) attack — the §III-A2 coarse channel.

A malicious OS clears present bits on the enclave's table pages, so every
lookup faults and reveals the accessed *page*. That yields the index at
page granularity; the paper notes attackers combine it with the cache
channel to scale to large tables (page narrows the range, cache resolves
within it). Both steps are modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.sidechannel.replay import TraceVictim
from repro.utils.validation import check_positive

PAGE_SIZE = 4096


@dataclass
class PageFaultLog:
    """Pages observed faulting during one victim operation."""

    pages: List[int] = field(default_factory=list)

    def distinct(self) -> Set[int]:
        return set(self.pages)


class PageFaultObserver:
    """The OS-level observer: records each page the victim touches."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        check_positive("page_size", page_size)
        self.page_size = page_size
        self.log = PageFaultLog()

    def touch(self, address: int, num_bytes: int) -> None:
        first = address // self.page_size
        last = (address + num_bytes - 1) // self.page_size
        self.log.pages.extend(range(first, last + 1))

    def reset(self) -> None:
        self.log = PageFaultLog()


class ControlledChannelAttacker:
    """Recovers the candidate index range from observed page faults."""

    def __init__(self, observer: PageFaultObserver,
                 victim: TraceVictim) -> None:
        self.observer = observer
        self.victim = victim

    def observe_lookup(self, index: int) -> Tuple[int, int]:
        """Run one victim lookup; return the inferred [low, high) index range."""
        self.observer.reset()
        self.victim.lookup(index)
        pages = sorted(self.observer.log.distinct())
        page_size = self.observer.page_size
        base = self.victim.base_address
        row_bytes = self.victim.row_bytes
        first_byte = pages[0] * page_size
        last_byte = (pages[-1] + 1) * page_size - 1
        low = max(0, (first_byte - base) // row_bytes)
        high = min(self.victim.num_rows, (last_byte - base) // row_bytes + 1)
        return int(low), int(high)

    def candidates_after_lookup(self, index: int) -> int:
        """Size of the candidate set the page channel leaves (the whole
        table against a victim that sweeps it)."""
        low, high = self.observe_lookup(index)
        return high - low


def combined_channel_candidates(num_rows: int, embedding_dim: int,
                                cache_line: int = 64,
                                page_size: int = PAGE_SIZE) -> int:
    """Candidate-set size when page + cache-line channels are combined.

    The page channel narrows the index to one page; the cache channel
    resolves line-granularity within it. With rows >= one line (always true
    for the paper's datasets), that pins the exact index — the "scaling"
    composition of §III-A2.
    """
    row_bytes = embedding_dim * DEFAULT_PLATFORM.element_bytes
    rows_sharing_a_line = max(1, cache_line // row_bytes)
    return min(num_rows, rows_sharing_a_line)
