"""Minimal-traffic cache (MTC): the paper's optimally-managed memory.

Section 5.2 defines the MTC as the memory that "generates the minimum
possible traffic" for a given size: fully associative, transfer size equal
to the request size (one word), Belady's MIN replacement [3], and bypassing
of sufficiently low-priority fills. Stores use a write-back, write-validate
policy [25] — a store miss allocates by overwriting, fetching nothing.

The simulator is two-pass, in the style of Sugumar & Abraham [44]: pass one
computes each reference's next-use position; pass two runs MIN with a lazy
max-heap over resident blocks' next uses. Block size is configurable so
the same engine also produces the "MIN, fa, 32B" rows of the paper's
Table 10 factor experiments; bypass and write-validate can be toggled for
the ablations.

As in the paper, the write-aware Horwitz et al. [22] optimal policy is
*not* implemented — MIN ignores the extra cost of evicting dirty words, so
measured MTC traffic is an aggressive upper bound on optimality, not an
exact minimum (Section 5.2 makes the same simplification).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, SimulationError
from repro.mem.cache import AllocatePolicy, CacheStats
from repro.mem.policies import NEVER, compute_next_use
from repro.mem.sampling import may_sample
from repro.obs import OBS, TRACER
from repro.trace.model import MemTrace, WORD_BYTES
from repro.util import format_size, require_power_of_two


@dataclass(frozen=True, slots=True)
class MTCConfig:
    """Configuration of a minimal-traffic cache run."""

    size_bytes: int
    block_bytes: int = WORD_BYTES
    allocate: AllocatePolicy = AllocatePolicy.WRITE_VALIDATE
    bypass: bool = True

    def __post_init__(self) -> None:
        require_power_of_two(self.size_bytes, "MTC size")
        require_power_of_two(self.block_bytes, "MTC block size")
        if self.block_bytes < WORD_BYTES:
            raise ConfigurationError("MTC block must be at least one word")
        if self.size_bytes < self.block_bytes:
            raise ConfigurationError("MTC smaller than one block")
        if self.allocate is AllocatePolicy.NO_ALLOCATE:
            raise ConfigurationError("MTC does not support no-allocate")

    @property
    def capacity_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def words_per_block(self) -> int:
        return self.block_bytes // WORD_BYTES

    def describe(self) -> str:
        policy = "WV" if self.allocate is AllocatePolicy.WRITE_VALIDATE else "WA"
        bypass = "+bypass" if self.bypass else ""
        return f"MTC {format_size(self.size_bytes)}/{self.block_bytes}B/{policy}{bypass}"


class MinimalTrafficCache:
    """Two-pass Belady-MIN simulator producing :class:`CacheStats`.

    Unlike :class:`repro.mem.cache.Cache` this is a whole-trace simulator
    only: MIN needs the complete future, so there is no per-access API.
    """

    def __init__(self, config: MTCConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._ran = False

    def simulate(
        self,
        trace: MemTrace,
        *,
        flush: bool = True,
        engine: str | None = None,
        prepared=None,
    ) -> CacheStats:
        """Run *trace* through the MTC and return its traffic statistics.

        *engine* overrides the process-wide selection (see
        :mod:`repro.mem.engines`); the fast engine is bit-identical, so
        results never depend on the choice. *prepared* optionally reuses
        a :class:`~repro.mem.engines.PreparedMTC` pass-1 product across
        sizes (fast engine only; the scalar loop recomputes its own).
        """
        if self._ran:
            raise SimulationError("MinimalTrafficCache instances are single-use")
        self._ran = True

        from repro.mem import engines

        started = time.time()
        selection = engines.resolve_engine(engine)
        if may_sample(selection):
            from repro.mem import sampled as sampled_engine

            sampling = sampled_engine.sampling_for(selection, len(trace))
            if sampling is not None:
                reason = sampled_engine.mtc_sampled_reason(self.config)
                if reason is None:
                    # *prepared* covers the full trace; the sampled
                    # sub-trace prepares its own (much smaller) pass 1.
                    self.stats = sampled_engine.simulate_mtc_sampled(
                        self.config, trace, flush=flush, sampling=sampling
                    )
                    self._record(trace, engine="sampled", started=started)
                    return self.stats
                if selection == "sampled":
                    raise ConfigurationError(
                        f"no sampled engine for {self.config.describe()}: "
                        f"{reason}"
                    )
        if selection not in ("scalar", "sampled"):
            reason = engines.mtc_fast_supported(self.config)
            if reason is None:
                self.stats = engines.simulate_mtc_fast(
                    self.config, trace, flush=flush, prepared=prepared
                )
                self._record(trace, engine="fast", started=started)
                return self.stats
            if selection == "vector":
                raise ConfigurationError(
                    f"no vector engine for {self.config.describe()}: {reason}"
                )

        config = self.config
        block_bytes = config.block_bytes
        words_per_block = config.words_per_block
        full_mask = (1 << words_per_block) - 1
        write_validate = config.allocate is AllocatePolicy.WRITE_VALIDATE
        capacity = config.capacity_blocks
        allow_bypass = config.bypass

        blocks_arr = trace.addresses // block_bytes
        next_use = compute_next_use(blocks_arr).tolist()
        blocks = blocks_arr.tolist()
        if words_per_block > 1:
            word_bits = (
                ((trace.addresses % block_bytes) // WORD_BYTES)
            ).tolist()
        else:
            word_bits = None
        writes = trace.is_write.tolist()

        stats = self.stats
        stats.accesses = len(trace)
        stats.reads = trace.read_count
        stats.writes = trace.write_count

        # Resident state: block -> [next_use, valid_mask, dirty_mask].
        resident: dict[int, list[int]] = {}
        # Lazy max-heap of (-next_use, block); entries go stale when a
        # block is re-touched or evicted.
        heap: list[tuple[int, int]] = []

        fetch = 0
        writeback = 0
        writethrough = 0
        read_hits = 0
        write_hits = 0

        for position, block in enumerate(blocks):
            use = next_use[position]
            is_write = writes[position]
            bit = 1 << word_bits[position] if word_bits is not None else 1
            line = resident.get(block)

            if line is not None:
                # ---- hit ----
                if not is_write and not (line[1] & bit):
                    # Read of a write-validated hole: fetch the block.
                    fetch += block_bytes
                    line[1] = full_mask
                if is_write:
                    write_hits += 1
                    line[1] |= bit
                    line[2] |= bit
                else:
                    read_hits += 1
                line[0] = use
                heapq.heappush(heap, (-use, block))
                continue

            # ---- miss: decide insert vs bypass ----
            inserting = True
            if len(resident) >= capacity:
                # Find the true MIN victim through the lazy heap.
                while heap:
                    negated, candidate = heap[0]
                    entry = resident.get(candidate)
                    if entry is not None and entry[0] == -negated:
                        break
                    heapq.heappop(heap)
                if not heap:
                    raise SimulationError("full MTC with an empty victim heap")
                victim_use = -heap[0][0]
                if allow_bypass and use >= victim_use:
                    inserting = False
                else:
                    victim = heap[0][1]
                    heapq.heappop(heap)
                    victim_line = resident.pop(victim)
                    if victim_line[2]:
                        if write_validate:
                            writeback += victim_line[2].bit_count() * WORD_BYTES
                        else:
                            writeback += block_bytes

            if inserting:
                if is_write and write_validate:
                    line_state = [use, bit, bit]       # allocate, no fetch
                else:
                    fetch += block_bytes
                    line_state = [use, full_mask, bit if is_write else 0]
                resident[block] = line_state
                heapq.heappush(heap, (-use, block))
            else:
                # Bypassed reference: the word moves, nothing is cached.
                if is_write:
                    writethrough += WORD_BYTES
                else:
                    fetch += WORD_BYTES

        stats.fetch_bytes = fetch
        stats.writeback_bytes = writeback
        stats.writethrough_bytes = writethrough
        stats.read_hits = read_hits
        stats.write_hits = write_hits

        if flush:
            flushed = 0
            for line in resident.values():
                if line[2]:
                    if write_validate:
                        flushed += line[2].bit_count() * WORD_BYTES
                    else:
                        flushed += block_bytes
            stats.flush_writeback_bytes = flushed

        self._record(trace, engine="scalar", started=started)
        return stats

    def _record(
        self,
        trace: MemTrace,
        *,
        engine: str = "scalar",
        started: float | None = None,
    ) -> None:
        """Aggregate one simulate() run into the instrumentation layer."""
        stats = self.stats
        if TRACER.enabled and started is not None:
            TRACER.emit_span(
                "sim.mtc",
                started,
                time.time(),
                engine=engine,
                config=self.config.describe(),
                trace=trace.name,
                accesses=stats.accesses,
                misses=stats.misses,
                traffic_bytes=stats.total_traffic_bytes,
            )
        if not OBS.enabled:
            return
        if started is not None:
            OBS.observe(
                f"sim.mtc.{engine}.time", max(0.0, time.time() - started)
            )
        OBS.count("mtc.simulations")
        OBS.count("mtc.accesses", stats.accesses)
        OBS.count("mtc.misses", stats.misses)
        OBS.count("mtc.traffic_bytes", stats.total_traffic_bytes)

    def __repr__(self) -> str:
        return f"<MinimalTrafficCache {self.config.describe()}>"


def minimal_traffic_bytes(
    trace: MemTrace,
    size_bytes: int,
    *,
    block_bytes: int = WORD_BYTES,
    allocate: AllocatePolicy = AllocatePolicy.WRITE_VALIDATE,
    bypass: bool = True,
) -> int:
    """Convenience wrapper: total MTC traffic for *trace* at *size_bytes*."""
    mtc = MinimalTrafficCache(
        MTCConfig(
            size_bytes=size_bytes,
            block_bytes=block_bytes,
            allocate=allocate,
            bypass=bypass,
        )
    )
    return mtc.simulate(trace).total_traffic_bytes
