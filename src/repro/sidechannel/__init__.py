"""Side-channel substrate: LLC and page observers, PRIME+PROBE and
controlled-channel attackers, and the trace-replay victim they attack."""

from repro.sidechannel.attacker import (
    AggregatedAttack,
    AttackResult,
    PrimeProbeAttacker,
)
from repro.sidechannel.cache import CacheConfig, SetAssociativeCache
from repro.sidechannel.pagefault import (
    PAGE_SIZE,
    ControlledChannelAttacker,
    PageFaultObserver,
    combined_channel_candidates,
)
from repro.sidechannel.replay import TraceVictim

__all__ = [
    "PAGE_SIZE",
    "ControlledChannelAttacker",
    "PageFaultObserver",
    "combined_channel_candidates",
    "AggregatedAttack",
    "AttackResult",
    "PrimeProbeAttacker",
    "CacheConfig",
    "SetAssociativeCache",
    "TraceVictim",
]
