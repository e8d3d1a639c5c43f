"""Sector (subblock) cache: Hill & Smith's traffic/miss-ratio instrument.

The paper's traffic-ratio metric descends from Hill & Smith [20], who
"measured the trade-offs between miss ratio and traffic ratio by varying
block and subblock sizes". A sector cache separates the two roles a block
size plays:

* the **address block** (sector) is the tagging granularity — fewer tags,
  coarse conflict behaviour;
* the **transfer block** (subblock) is the fetch granularity — only the
  missing subblock moves, so spatial-locality-poor references stop paying
  for unused words.

This module implements a set-associative sector cache with per-subblock
valid and dirty bits, and a sweep helper that reproduces the Hill-Smith
trade-off curve: as the subblock shrinks at a fixed sector size, the miss
*ratio* rises (more partial misses) while the traffic *ratio* falls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.mem.cache import CacheStats
from repro.mem.policies import make_policy
from repro.trace.model import MemTrace, WORD_BYTES
from repro.util import format_size, require_power_of_two


@dataclass(frozen=True, slots=True)
class SectorCacheConfig:
    """Geometry of a sector cache."""

    size_bytes: int
    sector_bytes: int = 64      #: address-block (tag) granularity
    subblock_bytes: int = 16    #: transfer granularity
    associativity: int = 1
    replacement: str = "lru"

    def __post_init__(self) -> None:
        require_power_of_two(self.size_bytes, "cache size")
        require_power_of_two(self.sector_bytes, "sector size")
        require_power_of_two(self.subblock_bytes, "subblock size")
        if self.subblock_bytes < WORD_BYTES:
            raise ConfigurationError("subblock must be at least one word")
        if self.subblock_bytes > self.sector_bytes:
            raise ConfigurationError("subblock cannot exceed the sector")
        if self.size_bytes < self.sector_bytes:
            raise ConfigurationError("cache smaller than one sector")
        sectors = self.size_bytes // self.sector_bytes
        if self.associativity <= 0 or sectors % self.associativity:
            raise ConfigurationError(
                f"associativity {self.associativity} invalid for "
                f"{sectors} sectors"
            )

    @property
    def num_sectors(self) -> int:
        return self.size_bytes // self.sector_bytes

    @property
    def num_sets(self) -> int:
        return self.num_sectors // self.associativity

    def describe(self) -> str:
        return (
            f"{format_size(self.size_bytes)} sector={self.sector_bytes}B "
            f"subblock={self.subblock_bytes}B {self.associativity}-way"
        )


class SectorCache:
    """Set-associative write-back, write-allocate sector cache."""

    def __init__(self, config: SectorCacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._policy = make_policy(
            config.replacement, config.num_sets, config.associativity
        )
        # set -> sector_id -> [valid_mask, dirty_mask]
        self._sets: list[dict[int, list[int]]] = [
            {} for _ in range(config.num_sets)
        ]
        self._time = 0

    def access(self, address: int, is_write: bool) -> bool:
        """One word access; True on a full hit (sector + subblock valid)."""
        config = self.config
        stats = self.stats
        sector = address // config.sector_bytes
        set_index = sector % config.num_sets
        sub_index = (address % config.sector_bytes) // config.subblock_bytes
        bit = 1 << sub_index
        time = self._time
        self._time += 1

        stats.accesses += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        lines = self._sets[set_index]
        line = lines.get(sector)
        if line is not None and line[0] & bit:
            # full hit
            if is_write:
                stats.write_hits += 1
                line[1] |= bit
            else:
                stats.read_hits += 1
            self._policy.on_access(set_index, sector, time)
            return True

        if line is not None:
            # sector hit, subblock miss: fetch just the subblock
            stats.fetch_bytes += config.subblock_bytes
            line[0] |= bit
            if is_write:
                line[1] |= bit
            self._policy.on_access(set_index, sector, time)
            return False

        # sector miss: allocate the sector, fetch only the needed subblock
        if len(lines) >= config.associativity:
            victim = self._policy.choose_victim(set_index, time)
            victim_line = lines.pop(victim)
            if victim_line[1]:
                stats.writeback_bytes += (
                    victim_line[1].bit_count() * config.subblock_bytes
                )
            self._policy.on_evict(set_index, victim)
        stats.fetch_bytes += config.subblock_bytes
        lines[sector] = [bit, bit if is_write else 0]
        self._policy.on_fill(set_index, sector, time)
        return False

    def flush(self) -> int:
        """Write back every dirty subblock and empty the cache."""
        flushed = 0
        for set_index, lines in enumerate(self._sets):
            for sector, line in list(lines.items()):
                if line[1]:
                    flushed += line[1].bit_count() * self.config.subblock_bytes
                self._policy.on_evict(set_index, sector)
            lines.clear()
        self.stats.flush_writeback_bytes += flushed
        return flushed

    def simulate(self, trace: MemTrace, *, flush: bool = True) -> CacheStats:
        """Run a whole trace; oracle policies are prepared first."""
        if self._policy.needs_future:
            self._policy.prepare(trace.addresses // self.config.sector_bytes)
        access = self.access
        for address, write in zip(
            trace.addresses.tolist(), trace.is_write.tolist()
        ):
            access(address, write)
        if flush:
            self.flush()
        return self.stats

    def __repr__(self) -> str:
        return f"<SectorCache {self.config.describe()}>"


@dataclass(frozen=True, slots=True)
class TradeoffPoint:
    """One point of the Hill-Smith miss-ratio / traffic-ratio curve."""

    subblock_bytes: int
    miss_ratio: float
    traffic_ratio: float


def hill_smith_tradeoff(
    trace: MemTrace,
    *,
    size_bytes: int = 16 * 1024,
    sector_bytes: int = 64,
    associativity: int = 1,
) -> list[TradeoffPoint]:
    """Sweep the subblock size at a fixed sector size.

    Returns the trade-off curve the paper's Related Work credits to Hill &
    Smith: small subblocks minimize traffic, large subblocks minimize miss
    ratio.
    """
    points = []
    subblock = WORD_BYTES
    while subblock <= sector_bytes:
        config = SectorCacheConfig(
            size_bytes=size_bytes,
            sector_bytes=sector_bytes,
            subblock_bytes=subblock,
            associativity=associativity,
        )
        stats = SectorCache(config).simulate(trace)
        points.append(
            TradeoffPoint(
                subblock_bytes=subblock,
                miss_ratio=stats.miss_rate,
                traffic_ratio=stats.traffic_ratio,
            )
        )
        subblock *= 2
    return points
