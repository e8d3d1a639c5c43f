"""Set-associative cache model with full traffic accounting.

This is the library's DineroIII: a trace-driven functional cache simulator
whose traffic accounting follows the paper's rules exactly (Section 4.1) —

* "total traffic" counts fetched blocks and write-backs but **not** request
  (address) traffic;
* the cache is flushed at end of run and the flushed write-backs count;
* requests are 4-byte words.

Write policies: write-back or write-through; allocation policies:
write-allocate, write-validate (allocate-without-fetch, Jouppi [25]), or
no-allocate. Write-validate keeps per-word valid/dirty masks so it is
exact at any block size (the paper only exercises it at one-word blocks,
where the masks are trivially single bits).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.faults import FAULTS
from repro.mem.policies import ReplacementPolicy, make_policy, policy_class
from repro.mem.sampling import may_sample
from repro.obs import OBS, TRACER
from repro.trace.model import MemTrace, WORD_BYTES
from repro.util import format_size, require_power_of_two


class WritePolicy(enum.Enum):
    WRITEBACK = "writeback"
    WRITETHROUGH = "writethrough"


class AllocatePolicy(enum.Enum):
    #: Classic write-allocate: a write miss fetches the block first.
    WRITE_ALLOCATE = "write-allocate"
    #: Write-validate: allocate the block and overwrite, no fetch [25].
    WRITE_VALIDATE = "write-validate"
    #: No-allocate: write misses go straight below (write-around).
    NO_ALLOCATE = "no-allocate"


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Static configuration of one cache level."""

    size_bytes: int
    block_bytes: int = 32
    associativity: int = 1  #: ways; use :meth:`fully_associative` for full
    replacement: str = "lru"
    write_policy: WritePolicy = WritePolicy.WRITEBACK
    allocate: AllocatePolicy = AllocatePolicy.WRITE_ALLOCATE
    name: str = "cache"

    def __post_init__(self) -> None:
        require_power_of_two(self.size_bytes, "cache size")
        require_power_of_two(self.block_bytes, "block size")
        if self.block_bytes < WORD_BYTES:
            raise ConfigurationError(
                f"block size must be at least one word ({WORD_BYTES}B)"
            )
        if self.size_bytes < self.block_bytes:
            raise ConfigurationError(
                f"cache of {self.size_bytes}B cannot hold a "
                f"{self.block_bytes}B block"
            )
        blocks = self.size_bytes // self.block_bytes
        if self.associativity <= 0 or self.associativity > blocks:
            raise ConfigurationError(
                f"associativity {self.associativity} invalid for "
                f"{blocks}-block cache"
            )
        if blocks % self.associativity:
            raise ConfigurationError(
                f"{blocks} blocks not divisible into {self.associativity} ways"
            )
        if (
            self.write_policy is WritePolicy.WRITETHROUGH
            and self.allocate is AllocatePolicy.WRITE_VALIDATE
        ):
            raise ConfigurationError(
                "write-validate requires a write-back cache"
            )
        # Checked here: a cache builds its policy only on first access.
        policy_class(self.replacement)

    @classmethod
    def fully_associative(
        cls,
        size_bytes: int,
        block_bytes: int = 32,
        *,
        replacement: str = "lru",
        write_policy: WritePolicy = WritePolicy.WRITEBACK,
        allocate: AllocatePolicy = AllocatePolicy.WRITE_ALLOCATE,
        name: str = "cache",
    ) -> "CacheConfig":
        """A one-set cache where every block competes with every other."""
        return cls(
            size_bytes=size_bytes,
            block_bytes=block_bytes,
            associativity=size_bytes // block_bytes,
            replacement=replacement,
            write_policy=write_policy,
            allocate=allocate,
            name=name,
        )

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity

    @property
    def is_fully_associative(self) -> bool:
        return self.num_sets == 1

    @property
    def words_per_block(self) -> int:
        return self.block_bytes // WORD_BYTES

    def describe(self) -> str:
        assoc = "fa" if self.is_fully_associative else f"{self.associativity}w"
        return (
            f"{format_size(self.size_bytes)}/{self.block_bytes}B/{assoc}/"
            f"{self.replacement}/{self.write_policy.value}/{self.allocate.value}"
        )


@dataclass(slots=True)
class CacheStats:
    """Traffic and hit accounting for one simulation run."""

    accesses: int = 0
    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    write_hits: int = 0
    fetch_bytes: int = 0           #: blocks brought in from below
    writeback_bytes: int = 0       #: dirty evictions pushed below
    writethrough_bytes: int = 0    #: words written through to below
    flush_writeback_bytes: int = 0 #: dirty data written back at end of run
    #: Error envelope when these stats are a sampled *estimate* (see
    #: :class:`repro.mem.sampled.SamplingEnvelope`); None for exact runs.
    estimate: object | None = None

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def total_traffic_bytes(self) -> int:
        """All traffic below this cache, flush included, requests excluded."""
        return (
            self.fetch_bytes
            + self.writeback_bytes
            + self.writethrough_bytes
            + self.flush_writeback_bytes
        )

    @property
    def request_bytes(self) -> int:
        """Bytes requested by the processor above (refs x word size)."""
        return self.accesses * WORD_BYTES

    @property
    def traffic_ratio(self) -> float:
        """The paper's R: traffic below the cache over traffic above it."""
        return (
            self.total_traffic_bytes / self.request_bytes
            if self.accesses
            else 0.0
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Combine the stats of two *independent* runs.

        Every field sums, including ``flush_writeback_bytes`` — so this is
        only correct when each run really did end (and flushed) on its
        own. To simulate one logical trace delivered in chunks, use
        :meth:`Cache.simulate_chunked`, which carries cache state across
        chunk boundaries and flushes once; merging per-chunk
        ``simulate()`` results instead would flush (and count) every
        chunk's dirty data at each boundary. Sampling envelopes do not
        combine, so the merged stats are always exact-shaped
        (``estimate`` is None).
        """
        return CacheStats(
            accesses=self.accesses + other.accesses,
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            read_hits=self.read_hits + other.read_hits,
            write_hits=self.write_hits + other.write_hits,
            fetch_bytes=self.fetch_bytes + other.fetch_bytes,
            writeback_bytes=self.writeback_bytes + other.writeback_bytes,
            writethrough_bytes=self.writethrough_bytes + other.writethrough_bytes,
            flush_writeback_bytes=(
                self.flush_writeback_bytes + other.flush_writeback_bytes
            ),
        )


@dataclass(slots=True)
class _Line:
    """One resident cache line."""

    block: int
    valid_mask: int  #: per-word valid bits (all-ones except write-validate)
    dirty_mask: int  #: per-word dirty bits


class Cache:
    """A single cache level, driven one access at a time or by a trace.

    The per-access API (:meth:`access`, :meth:`flush`) is used by the
    hierarchy and by the timing model; :meth:`simulate` runs a whole
    :class:`MemTrace`, automatically preparing oracle replacement policies
    and handing every configuration a fast exact engine serves (LRU, or
    any policy at associativity 1, without a listener) to
    :mod:`repro.mem.engines`.
    """

    def __init__(
        self,
        config: CacheConfig,
        *,
        time_offset: int = 0,
        listener=None,
    ) -> None:
        self.config = config
        #: The replacement policy and one dict of lines per set, built on
        #: first use by a per-access path (:meth:`_state`): a
        #: :meth:`simulate` that an engine serves never needs them.
        self._policy: ReplacementPolicy | None = None
        self._sets: list[dict[int, _Line]] | None = None
        self._time = time_offset
        self.stats = CacheStats()
        self._full_mask = (1 << config.words_per_block) - 1
        #: Optional callable ``(kind, address, nbytes)`` invoked for every
        #: unit of traffic this cache sends below: kind is one of "fetch",
        #: "writeback", "writethrough", "flush". Used to stack hierarchies.
        self.listener = listener

    def _state(self) -> list[dict[int, _Line]]:
        """The per-set lines, building them and the policy on first use."""
        if self._sets is None:
            config = self.config
            self._policy = make_policy(
                config.replacement, config.num_sets, config.associativity
            )
            self._sets = [{} for _ in range(config.num_sets)]
        return self._sets

    # -- address helpers ---------------------------------------------------------

    def _block_of(self, address: int) -> int:
        return address // self.config.block_bytes

    def _set_of(self, block: int) -> int:
        return block % self.config.num_sets

    def _word_bit(self, address: int) -> int:
        word_in_block = (
            address % self.config.block_bytes
        ) // WORD_BYTES
        return 1 << word_in_block

    # -- per-access API ------------------------------------------------------------

    def access(self, address: int, is_write: bool) -> bool:
        """Process one word access; returns True on a (full) hit.

        A reference to a resident block whose requested word is invalid
        (possible only under write-validate) counts as a miss and triggers
        a block fetch that validates the whole line.
        """
        config = self.config
        stats = self.stats
        block = self._block_of(address)
        set_index = self._set_of(block)
        word_bit = self._word_bit(address)
        sets = self._sets
        if sets is None:
            sets = self._state()
        lines = sets[set_index]
        line = lines.get(block)
        time = self._time
        self._time += 1

        stats.accesses += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        if line is not None and (not is_write) and not (line.valid_mask & word_bit):
            # Partial (write-validated) line: read of an invalid word.
            stats.fetch_bytes += config.block_bytes
            line.valid_mask = self._full_mask
            if self.listener is not None:
                self.listener("fetch", block * config.block_bytes, config.block_bytes)

        if line is not None:
            if is_write:
                stats.write_hits += 1
                if config.write_policy is WritePolicy.WRITETHROUGH:
                    stats.writethrough_bytes += WORD_BYTES
                    if self.listener is not None:
                        self.listener("writethrough", address, WORD_BYTES)
                else:
                    line.dirty_mask |= word_bit
                line.valid_mask |= word_bit
            else:
                stats.read_hits += 1
            self._policy.on_access(set_index, block, time)
            return True

        # ---- miss path ----
        if is_write:
            if config.allocate is AllocatePolicy.NO_ALLOCATE:
                # Write around: the word goes straight below.
                stats.writethrough_bytes += WORD_BYTES
                if self.listener is not None:
                    self.listener("writethrough", address, WORD_BYTES)
                return False
            if config.allocate is AllocatePolicy.WRITE_ALLOCATE:
                stats.fetch_bytes += config.block_bytes
                if self.listener is not None:
                    self.listener("fetch", block * config.block_bytes, config.block_bytes)
                valid = self._full_mask
            else:  # write-validate: allocate without fetching
                valid = word_bit
            if config.write_policy is WritePolicy.WRITETHROUGH:
                stats.writethrough_bytes += WORD_BYTES
                if self.listener is not None:
                    self.listener("writethrough", address, WORD_BYTES)
                dirty = 0
            else:
                dirty = word_bit
            self._install(set_index, block, valid, dirty, time)
            return False

        # read miss
        stats.fetch_bytes += config.block_bytes
        if self.listener is not None:
            self.listener("fetch", block * config.block_bytes, config.block_bytes)
        self._install(set_index, block, self._full_mask, 0, time)
        return False

    def _install(
        self, set_index: int, block: int, valid: int, dirty: int, time: int
    ) -> None:
        lines = self._sets[set_index]
        if len(lines) >= self.config.associativity:
            victim = self._policy.choose_victim(set_index, time)
            self._evict(set_index, victim)
        lines[block] = _Line(block, valid, dirty)
        self._policy.on_fill(set_index, block, time)

    def _evict(self, set_index: int, block: int) -> None:
        line = self._sets[set_index].pop(block, None)
        if line is None:
            raise SimulationError(f"evicting non-resident block {block:#x}")
        if line.dirty_mask:
            cost = self._writeback_cost(line)
            self.stats.writeback_bytes += cost
            if self.listener is not None:
                self.listener(
                    "writeback", block * self.config.block_bytes, cost
                )
        self._policy.on_evict(set_index, block)

    def _writeback_cost(self, line: _Line) -> int:
        if self.config.allocate is AllocatePolicy.WRITE_VALIDATE:
            # Only the validated-dirty words exist to be written back.
            return line.dirty_mask.bit_count() * WORD_BYTES
        return self.config.block_bytes

    def flush(self) -> int:
        """Write back all dirty data and empty the cache.

        Returns the number of bytes written back; the same amount is added
        to ``stats.flush_writeback_bytes`` (the paper includes flushed
        write-backs in total traffic).
        """
        flushed = 0
        for set_index, lines in enumerate(self._state()):
            for block, line in list(lines.items()):
                if line.dirty_mask:
                    cost = self._writeback_cost(line)
                    flushed += cost
                    if self.listener is not None:
                        self.listener(
                            "flush", block * self.config.block_bytes, cost
                        )
                self._policy.on_evict(set_index, block)
            lines.clear()
        self.stats.flush_writeback_bytes += flushed
        return flushed

    def contains(self, address: int) -> bool:
        """True when the word at *address* is resident and valid."""
        block = self._block_of(address)
        line = self._state()[self._set_of(block)].get(block)
        return line is not None and bool(line.valid_mask & self._word_bit(address))

    # -- whole-trace simulation ------------------------------------------------------

    def simulate(
        self,
        trace: MemTrace,
        *,
        flush: bool = True,
        engine: str | None = None,
    ) -> CacheStats:
        """Run a whole trace through a fresh copy of this cache's state.

        The cache must be freshly constructed (no prior accesses); oracle
        policies are prepared with the trace's block sequence first.
        *engine* overrides the process-wide selection for this run (see
        :mod:`repro.mem.engines`); vector engines produce bit-identical
        stats, so results never depend on the choice.
        """
        if self.stats.accesses:
            raise SimulationError(
                "simulate() requires a fresh cache; this one has history"
            )
        from repro.mem import engines

        started = time.time()
        selection = engines.resolve_engine(engine)
        if may_sample(selection):
            from repro.mem import sampled as sampled_engine

            sampling = sampled_engine.sampling_for(selection, len(trace))
            if sampling is not None:
                reason = sampled_engine.cache_sampled_reason(
                    self.config, self.listener
                )
                if reason is None:
                    self.stats = sampled_engine.simulate_cache_sampled(
                        self.config, trace, flush=flush, sampling=sampling
                    )
                    self._record_run(
                        trace, engine="sampled", started=started
                    )
                    return self.stats
                if selection == "sampled":
                    raise ConfigurationError(
                        f"no sampled engine for {self.config.describe()}: "
                        f"{reason}"
                    )
                # auto: fall back to the exact engines below.
        if selection not in ("scalar", "sampled"):
            result = engines.dispatch_cache(
                self.config,
                trace,
                flush=flush,
                selection=selection,
                listener=self.listener,
            )
            if result is not None:
                self.stats = result
                self._record_run(trace, engine=selection, started=started)
                return self.stats
        self._state()
        if self._policy.needs_future:
            self._policy.prepare(trace.addresses // self.config.block_bytes)
        addresses = trace.addresses.tolist()
        writes = trace.is_write.tolist()
        access = self.access
        for address, write in zip(addresses, writes):
            access(address, write)
        if flush:
            self.flush()
        self._record_run(trace, engine="scalar", started=started)
        return self.stats

    def simulate_chunked(
        self,
        chunks: list[MemTrace],
        *,
        flush: bool = True,
        resume: bool = False,
    ) -> CacheStats:
        """Simulate one logical trace delivered as consecutive chunks.

        Cache state (residency, dirtiness, recency) carries across chunk
        boundaries and the end-of-run flush happens exactly once, so the
        result equals ``simulate()`` of the chunks' concatenation — the
        property that naive per-chunk ``simulate()`` + ``merge()`` breaks
        by flushing at every boundary. Oracle policies see the full
        future across all chunks.

        With ``resume=True`` the cache may carry history from an earlier
        (interrupted) ``simulate_chunked`` call on the *same* instance:
        the fresh-state check is skipped and oracle policies are not
        re-prepared (the original call already saw the full future).
        Feed only the not-yet-simulated chunks; the final stats equal an
        uninterrupted run over the full chunk list.
        """
        if not resume and self.stats.accesses:
            raise SimulationError(
                "simulate_chunked() requires a fresh cache; this one has history"
            )
        chunks = list(chunks)
        self._state()
        if self._policy.needs_future and not resume:
            if chunks:
                future = np.concatenate([c.addresses for c in chunks])
            else:
                future = np.empty(0, dtype=np.int64)
            self._policy.prepare(future // self.config.block_bytes)
        access = self.access
        for position, chunk in enumerate(chunks):
            if FAULTS.active:
                FAULTS.fire("sim.chunk", f"{chunk.name}:{position}")
            timed = OBS.enabled or TRACER.enabled
            chunk_started = time.time() if timed else 0.0
            for address, write in zip(
                chunk.addresses.tolist(), chunk.is_write.tolist()
            ):
                access(address, write)
            if timed:
                if OBS.enabled:
                    OBS.observe(
                        "sim.chunk.time", max(0.0, time.time() - chunk_started)
                    )
                if TRACER.enabled:
                    TRACER.emit_span(
                        "sim.chunk",
                        chunk_started,
                        time.time(),
                        chunk=chunk.name,
                        position=position,
                        accesses=len(chunk.addresses),
                    )
        if flush:
            self.flush()
        return self.stats

    def _record_run(
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
                "sim.cache",
                started,
                time.time(),
                engine=engine,
                cache=self.config.name,
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
                f"sim.cache.{engine}.time", max(0.0, time.time() - started)
            )
        OBS.count("cache.simulations")
        OBS.count("cache.accesses", stats.accesses)
        OBS.count("cache.misses", stats.misses)
        OBS.count("cache.fetch_bytes", stats.fetch_bytes)
        OBS.count(
            "cache.writeback_bytes",
            stats.writeback_bytes + stats.flush_writeback_bytes,
        )
        OBS.count("cache.writethrough_bytes", stats.writethrough_bytes)

    def __repr__(self) -> str:
        return f"<Cache {self.config.describe()}>"
