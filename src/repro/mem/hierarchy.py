"""Multi-level trace-driven hierarchy with per-level traffic accounting.

Stacks :class:`~repro.mem.cache.Cache` levels: the traffic one level sends
below (fetches, write-backs, write-throughs, flush write-backs) becomes the
reference stream of the next level, decomposed into word accesses. The
per-level traffic ratios ``R_i = D_i / D_{i-1}`` multiply into the paper's
effective-pin-bandwidth divisor (Equation 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.cache import Cache, CacheConfig, CacheStats
from repro.obs import OBS
from repro.trace.model import MemTrace, WORD_BYTES


@dataclass(frozen=True, slots=True)
class HierarchyResult:
    """Traffic accounting for one trace pushed through a cache stack."""

    configs: tuple[CacheConfig, ...]
    level_stats: tuple[CacheStats, ...]
    #: D_0 in the paper's notation: bytes the processor requested.
    request_bytes: int

    @property
    def traffic_below(self) -> tuple[int, ...]:
        """D_i for each level i (traffic between level i and level i+1)."""
        return tuple(s.total_traffic_bytes for s in self.level_stats)

    @property
    def traffic_ratios(self) -> tuple[float, ...]:
        """R_i = D_i / D_{i-1}, with D_0 the processor request bytes."""
        ratios = []
        above = self.request_bytes
        for below in self.traffic_below:
            ratios.append(below / above if above else 0.0)
            above = below
        return tuple(ratios)

    @property
    def cumulative_ratio(self) -> float:
        """Product of the per-level ratios (Equation 5's denominator)."""
        product = 1.0
        for ratio in self.traffic_ratios:
            product *= ratio
        return product


class TraceHierarchy:
    """A stack of cache levels fed by one memory trace.

    Levels are ordered processor-side first (L1, L2, ...). Each level's
    below-traffic is replayed into the next level at word granularity:
    a fetched 32-byte block becomes eight consecutive word reads, a
    write-back eight word writes — exactly the decomposition under which
    per-level traffic ratios compose.
    """

    def __init__(self, configs: list[CacheConfig] | tuple[CacheConfig, ...]) -> None:
        if not configs:
            raise ConfigurationError("hierarchy needs at least one level")
        self.configs = tuple(configs)

    def simulate(self, trace: MemTrace, *, flush: bool = True) -> HierarchyResult:
        """Push *trace* through every level and collect per-level stats."""
        stats: list[CacheStats] = []
        current = trace
        for level, config in enumerate(self.configs):
            is_last = level == len(self.configs) - 1
            if is_last:
                cache = Cache(config)
                stats.append(cache.simulate(current, flush=flush))
                break
            events: list[tuple[int, int, bool]] = []

            def listen(kind: str, address: int, nbytes: int) -> None:
                events.append((address, nbytes, kind != "fetch"))

            cache = Cache(config, listener=listen)
            stats.append(cache.simulate(current, flush=flush))
            current = _events_to_trace(events, name=f"{trace.name}:below-L{level + 1}")
        result = HierarchyResult(
            configs=self.configs,
            level_stats=tuple(stats),
            request_bytes=trace.request_bytes,
        )
        if OBS.enabled:
            OBS.count("hierarchy.simulations")
        return result


def _events_to_trace(
    events: list[tuple[int, int, bool]], name: str = ""
) -> MemTrace:
    """Expand (address, nbytes, is_write) traffic events into word refs."""
    if not events:
        return MemTrace(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), name=name
        )
    addresses = np.asarray([e[0] for e in events], dtype=np.int64)
    sizes = np.asarray([e[1] for e in events], dtype=np.int64)
    writes = np.asarray([e[2] for e in events], dtype=bool)
    words = sizes // WORD_BYTES
    total = int(words.sum())
    starts = np.concatenate(([0], np.cumsum(words)[:-1]))
    owner = np.repeat(np.arange(len(events), dtype=np.int64), words)
    offsets = np.arange(total, dtype=np.int64) - starts[owner]
    out_addr = addresses[owner] + offsets * WORD_BYTES
    out_write = writes[owner]
    return MemTrace(out_addr, out_write, name=name)
