"""Timing memory system: L1 + L2 + DRAM with buses, MSHRs, prefetch.

This is the memory half of the paper's Section 3 simulations (Table 4
parameters): a one-cycle L1, an off-chip L2 reached over a 128-bit bus
running at a fraction of the processor clock, and a 90 ns main memory with
infinite banks behind a 64-bit bus. Lockup-free caches are modelled with a
finite MSHR file; experiments E/F add tagged prefetch [17].

Three modes implement the execution-time decomposition:

* ``full``     — finite buses (occupancy + queueing) and finite MSHRs;
* ``infinite`` — same latencies but infinitely wide paths: transfers are
  instantaneous and nothing queues (the paper's T_I);
* ``perfect``  — every access completes in one cycle (T_P).

All times are in processor cycles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.mem.cache import CacheConfig
from repro.obs import OBS


class MemoryMode(enum.Enum):
    FULL = "full"
    INFINITE = "infinite"
    PERFECT = "perfect"


@dataclass(frozen=True, slots=True)
class BusSpec:
    """A data bus between two hierarchy levels."""

    width_bytes: int
    #: Processor cycles per bus cycle (the paper's bus/proc clock ratio
    #: denominator: 3 for SPEC92, 4 for SPEC95).
    proc_cycles_per_beat: int
    #: Extra beats per transaction (address phase / turnaround; the paper
    #: multiplexes data and address on the main-memory bus).
    overhead_beats: int = 1

    def __post_init__(self) -> None:
        if self.width_bytes <= 0 or self.proc_cycles_per_beat <= 0:
            raise ConfigurationError("bus width and clock ratio must be positive")
        if self.overhead_beats < 0:
            raise ConfigurationError("overhead beats cannot be negative")

    def beats(self, nbytes: int) -> int:
        return math.ceil(nbytes / self.width_bytes)

    def occupancy_cycles(self, nbytes: int) -> int:
        return (self.beats(nbytes) + self.overhead_beats) * self.proc_cycles_per_beat


class TimingBus:
    """A bus with an earliest-free cursor (FCFS occupancy model)."""

    __slots__ = (
        "spec", "infinite", "next_free", "busy_cycles",
        "name", "_ctr_transfers", "_ctr_busy",
        "_width", "_overhead_beats", "_beat_cycles",
    )

    def __init__(self, spec: BusSpec, *, infinite: bool, name: str = "bus") -> None:
        self.spec = spec
        self.infinite = infinite
        self.next_free = 0
        self.busy_cycles = 0
        self.name = name
        self._ctr_transfers = f"bus.{name}.transfers"
        self._ctr_busy = f"bus.{name}.busy_cycles"
        # The spec's fields, read once: a transfer occupies
        # ``spec.occupancy_cycles(nbytes)``, worked out inline.
        self._width = spec.width_bytes
        self._overhead_beats = spec.overhead_beats
        self._beat_cycles = spec.proc_cycles_per_beat

    def transfer(self, request_time: int, nbytes: int) -> tuple[int, int]:
        """Schedule a transfer; returns (first_beat_done, all_done).

        ``first_beat_done`` is when the critical word is available (the
        paper assumes critical-word-first); ``all_done`` is when the bus
        frees. An infinite bus moves any block in one bus beat, never
        queues and keeps no state, so both are one beat after
        *request_time*.
        """
        if self.infinite:
            done = request_time + self._beat_cycles
            return done, done
        beats = -(-nbytes // self._width)
        duration = (beats + self._overhead_beats) * self._beat_cycles
        start = self.next_free
        if request_time > start:
            start = request_time
        end = start + duration
        self.next_free = end
        self.busy_cycles += duration
        if OBS.enabled:
            OBS.count(self._ctr_transfers)
            OBS.count(self._ctr_busy, duration)
        return start + self._beat_cycles, end


@dataclass(frozen=True, slots=True)
class TimingMemoryParams:
    """Table 4 parameters, expressed in processor cycles."""

    l1_config: CacheConfig
    l2_config: CacheConfig
    l1_l2_bus: BusSpec
    l2_mem_bus: BusSpec
    l1_hit_cycles: int = 1
    l2_access_cycles: int = 9     #: 30 ns at 300 MHz
    memory_access_cycles: int = 27  #: 90 ns at 300 MHz
    mshr_count: int = 1           #: 1 = blocking (hit-under-miss only)
    tagged_prefetch: bool = False

    def __post_init__(self) -> None:
        if self.l1_hit_cycles <= 0:
            raise ConfigurationError("L1 hit time must be positive")
        if self.mshr_count <= 0:
            raise ConfigurationError("need at least one MSHR")
        # TimingMemory keeps its own cache state and implements only these.
        for level, cache in (("L1", self.l1_config), ("L2", self.l2_config)):
            for name, value, supported in (
                ("replacement", cache.replacement, "lru"),
                ("write_policy", cache.write_policy.value, "writeback"),
                ("allocate", cache.allocate.value, "write-allocate"),
            ):
                if value != supported:
                    raise ConfigurationError(
                        f"timing memory {level} {name} must be "
                        f"{supported}, got {value}"
                    )


@dataclass(slots=True)
class TimingMemoryStats:
    accesses: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    mshr_merges: int = 0
    mshr_stall_cycles: int = 0
    prefetches_issued: int = 0
    prefetches_dropped: int = 0
    l1_l2_traffic_bytes: int = 0
    l2_mem_traffic_bytes: int = 0


class TimingMemory:
    """The full memory system as seen by one core.

    Each cache level is a list with one insertion-ordered dict per set,
    mapping a resident block to its dirty flag, least recently used first.

    Without prefetch, the infinite and full runs see the same hits, misses
    and traffic, so T_I and T measure one miss stream. With tagged
    prefetch they do not: a prefetch that finds no free MSHR is dropped,
    the buses set MSHR release times, and the full run drops more. A
    prefetching experiment's f_B includes the prefetch lost to bandwidth.
    """

    def __init__(self, params: TimingMemoryParams, mode: MemoryMode) -> None:
        self.params = params
        self.mode = mode
        self.stats = TimingMemoryStats()
        infinite = mode is not MemoryMode.FULL
        # What every access, fill and transfer reads, looked up once.
        self._perfect = mode is MemoryMode.PERFECT
        self._block_bytes = params.l1_config.block_bytes
        self._l1_sets = params.l1_config.num_sets
        self._l1_ways = params.l1_config.associativity
        self._l2_block_bytes = params.l2_config.block_bytes
        self._l2_sets = params.l2_config.num_sets
        self._l2_ways = params.l2_config.associativity
        self._hit_cycles = params.l1_hit_cycles
        self._l2_cycles = params.l2_access_cycles
        self._memory_cycles = params.memory_access_cycles
        self._mshr_count = params.mshr_count
        #: Outstanding fills held before the completed ones are dropped.
        self._outstanding_cap = 4 * params.mshr_count + 8
        self._prefetch = params.tagged_prefetch
        self._l1 = [{} for _ in range(self._l1_sets)]
        self._l2 = [{} for _ in range(self._l2_sets)]
        self._l1_l2 = TimingBus(params.l1_l2_bus, infinite=infinite, name="l1_l2")
        self._l2_mem = TimingBus(params.l2_mem_bus, infinite=infinite, name="l2_mem")
        #: Time of the access being served (write-backs start then).
        self._now = 0
        #: Outstanding fills: block -> (fill_time, mshr_release_time).
        self._outstanding: dict[int, tuple[int, int]] = {}
        #: Release times of allocated MSHRs (kept sorted lazily).
        self._mshr_release: list[int] = []
        #: Tag bits for the tagged prefetcher: prefetched, not yet demanded.
        self._prefetch_tags: set[int] = set()

    # -- public API -------------------------------------------------------------------

    def access(self, time: int, address: int, is_write: bool) -> int:
        """Process one data access; returns the completion cycle.

        Stores complete in one cycle regardless (the paper assumes an
        infinitely deep write buffer) but still move their blocks and
        consume bus bandwidth. Loads complete when the critical word
        arrives.
        """
        self.stats.accesses += 1
        if self._perfect:
            return time + 1

        block = address // self._block_bytes
        lines = self._l1[block % self._l1_sets]
        dirty = lines.pop(block, None)
        if dirty is not None:
            lines[block] = dirty or is_write
            completion = time + self._hit_cycles
            if not is_write:
                pending = self._outstanding.get(block)
                if pending is not None and pending[0] > time:
                    # The block's fill is still in flight: this reference
                    # merges into the outstanding miss and waits for the
                    # data.
                    self.stats.mshr_merges += 1
                    if OBS.enabled:
                        OBS.count("mshr.merges")
                    completion = max(completion, pending[0])
            if self._prefetch and block in self._prefetch_tags:
                # First demand reference to a prefetched block: tag fires.
                self._prefetch_tags.discard(block)
                self._now = time
                self._issue_prefetch(time, block + 1)
            return completion

        # ---- L1 miss ----
        self._now = time
        self.stats.l1_misses += 1
        if OBS.enabled:
            OBS.count("timing.l1_misses")
        fill_time = self._fill(lines, self._allocate_mshr(time), block, is_write)
        if self._prefetch:
            self._issue_prefetch(time, block + 1)
        if is_write:
            return time + self._hit_cycles
        return max(time + self._hit_cycles, fill_time)

    def busy_fraction(self, total_cycles: int) -> tuple[float, float]:
        """(L1/L2, L2/mem) bus utilisation over *total_cycles*."""
        if total_cycles <= 0:
            return 0.0, 0.0
        return (
            self._l1_l2.busy_cycles / total_cycles,
            self._l2_mem.busy_cycles / total_cycles,
        )

    # -- internals ---------------------------------------------------------------------

    def _allocate_mshr(self, time: int) -> int:
        """Earliest time an MSHR is available at or after *time*.

        MSHR limits apply in both the full and the infinite-width modes:
        a blocking cache is a latency property of the design, not a path-
        width limit, so the paper's T_I keeps it (only the buses widen).
        """
        releases = self._mshr_release
        # Drop entries already free.
        releases[:] = [r for r in releases if r > time]
        if len(releases) < self._mshr_count:
            return time
        earliest = min(releases)
        self.stats.mshr_stall_cycles += earliest - time
        if OBS.enabled:
            OBS.count("mshr.stalls")
            OBS.count("mshr.stall_cycles", earliest - time)
        return earliest

    def _register_mshr(self, block: int, fill_time: int, release: int) -> None:
        self._outstanding[block] = (fill_time, release)
        self._mshr_release.append(release)
        # Retire completed outstanding entries opportunistically.
        if len(self._outstanding) > self._outstanding_cap:
            self._outstanding = {
                b: fr for b, fr in self._outstanding.items() if fr[1] >= fill_time
            }

    def _fill(self, lines: dict, time: int, block: int, dirty: bool) -> int:
        """Fetch L1 *block* from *time* on (via memory on an L2 miss), hold
        its MSHR and install it in *lines*; returns the critical-word time.

        A full set evicts its least recently used line first, a dirty one
        by write-back: an L2 victim to memory (:meth:`_make_room_in_l2`),
        an L1 victim into L2 (:meth:`_write_back`)."""
        stats = self.stats
        l1_block = self._block_bytes
        l2_block = self._l2_block_bytes
        line = block * l1_block // l2_block
        l2_lines = self._l2[line % self._l2_sets]
        data_at_l2 = time + self._l2_cycles
        l2_dirty = l2_lines.pop(line, None)
        if l2_dirty is None:
            stats.l2_misses += 1
            if OBS.enabled:
                OBS.count("timing.l2_misses")
            self._make_room_in_l2(l2_lines)
            data_at_l2, _ = self._l2_mem.transfer(
                data_at_l2 + self._memory_cycles, l2_block
            )
            stats.l2_mem_traffic_bytes += l2_block
            l2_dirty = False
        l2_lines[line] = l2_dirty
        stats.l1_l2_traffic_bytes += l1_block
        fill_time, release = self._l1_l2.transfer(data_at_l2, l1_block)
        self._register_mshr(block, fill_time, release)
        if len(lines) >= self._l1_ways:
            victim = next(iter(lines))
            if lines.pop(victim):
                self._write_back(victim)
        lines[block] = dirty
        return fill_time

    def _write_back(self, block: int) -> None:
        """A dirty L1 victim: over the L1/L2 bus, written into L2."""
        l1_block = self._block_bytes
        self.stats.l1_l2_traffic_bytes += l1_block
        self._l1_l2.transfer(self._now, l1_block)
        line = block * l1_block // self._l2_block_bytes
        lines = self._l2[line % self._l2_sets]
        if lines.pop(line, None) is None:
            # A write miss in L2 fetches the line, then makes room.
            self._to_memory()
            self._make_room_in_l2(lines)
        lines[line] = True

    def _make_room_in_l2(self, lines: dict) -> None:
        """Evict a full L2 set's LRU line, a dirty one to memory."""
        if len(lines) >= self._l2_ways:
            victim = next(iter(lines))
            if lines.pop(victim):
                self._to_memory()

    def _to_memory(self) -> None:
        """One L2 block over the memory bus (write-back or write miss)."""
        self.stats.l2_mem_traffic_bytes += self._l2_block_bytes
        self._l2_mem.transfer(self._now, self._l2_block_bytes)

    def _issue_prefetch(self, time: int, block: int) -> None:
        """Tagged prefetch of L1 *block* (best effort)."""
        lines = self._l1[block % self._l1_sets]
        if block in lines or block in self._outstanding:
            return
        releases = self._mshr_release
        # Fewer allocated MSHRs than the file holds leaves one to spare.
        if len(releases) >= self._mshr_count and (
            sum(r > time for r in releases) >= self._mshr_count
        ):
            # No MSHR to spare: drop rather than stall the processor.
            self.stats.prefetches_dropped += 1
            if OBS.enabled:
                OBS.count("prefetch.dropped")
            return
        self.stats.prefetches_issued += 1
        if OBS.enabled:
            OBS.count("prefetch.issued")
        self._fill(lines, time, block, False)
        self._prefetch_tags.add(block)
        if len(self._prefetch_tags) > 4096:
            self._prefetch_tags.clear()
