"""Fast exact simulation engines and one-pass multi-size sweep kernels.

The scalar simulators in :mod:`repro.mem.cache` and :mod:`repro.mem.mtc`
process one reference per Python-interpreter iteration through policy
and line objects, which caps every experiment near 10^6
references/second. This module provides engines that compute
*bit-identical* :class:`~repro.mem.cache.CacheStats` (the differential
property suite in ``tests/test_mem_engines.py`` holds them to exact
equality):

* :func:`simulate_cache_lru` — A-way set-associative LRU simulation
  for every write/allocate policy combination (and any replacement
  policy at associativity 1, where the victim is forced). A
  write-back/write-allocate cache of up to 8 ways runs a vectorized
  stack-distance kernel: one stable sort by set, then each reference's
  window since its block's previous one decides hit or miss. Wider
  sets and the other policies run a loop in which one
  insertion-ordered dict per set is that set's LRU stack.
* :func:`simulate_mtc_fast` — the minimal-traffic cache's Belady MIN
  with a vectorized next-use pass, a closed-form fill, and a Python
  loop over only the misses that can change the cache (single-use
  words after the fill are counted, not visited).
* :func:`direct_mapped_family` / :func:`fully_associative_lru_family` —
  one-pass multi-size sweeps. The direct-mapped family shares one stable
  sort across the whole size axis (each doubling refines the previous
  partition by one set-index bit — an LSD radix step, so the per-size
  orderings are exactly the ones ``np.argsort`` would produce); the
  fully-associative family reads every size off a single Mattson
  stack-distance pass (:func:`repro.trace.mrc.traffic_curve`).

Engine selection is a process-wide choice (``auto`` | ``scalar`` |
``vector`` | ``sampled``) settable via :func:`set_engine`, the
:func:`use_engine` context manager, the ``REPRO_ENGINE`` environment
variable, or the CLI's ``--engine`` flag. ``auto`` runs a fast exact
engine wherever one is eligible; ``scalar`` forces the reference
implementations (including disabling every kernel — this is the honest
baseline for differential tests and benchmarks); ``vector``
demands a fast engine and raises
:class:`~repro.errors.ConfigurationError` where none exists (traffic
listeners, non-LRU replacement above associativity 1, multi-word MTC
blocks). ``sampled`` is the third tier (:mod:`repro.mem.sampled`):
spatial reference sampling producing *estimates with error envelopes*
instead of exact counts — ``auto`` only ever picks it when a sampling
rate was explicitly configured and the trace is huge.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.mem.cache import (
    AllocatePolicy,
    CacheConfig,
    CacheStats,
    WritePolicy,
)
from repro.mem.mtc import MTCConfig
from repro.mem.policies import NEVER, compute_next_use
from repro.obs import OBS, TRACER
from repro.trace.model import MemTrace, WORD_BYTES

__all__ = [
    "ENGINE_CHOICES",
    "current_engine",
    "set_engine",
    "use_engine",
    "resolve_engine",
    "cache_vector_reason",
    "simulate_cache_lru",
    "direct_mapped_family",
    "fully_associative_lru_family",
    "PreparedMTC",
    "prepare_mtc",
    "mtc_fast_supported",
    "simulate_mtc_fast",
]

#: Valid values for the process-wide engine selection.
ENGINE_CHOICES = ("auto", "scalar", "vector", "sampled")


def _validated(name: str) -> str:
    if name not in ENGINE_CHOICES:
        raise ConfigurationError(
            f"unknown engine {name!r}; choose from {'|'.join(ENGINE_CHOICES)}"
        )
    return name


#: The process-wide selection; None until first resolved, when
#: ``$REPRO_ENGINE`` is read and validated. Importing this module never
#: fails on a bad value: only a run that resolves the engine does.
_engine: str | None = None


def current_engine() -> str:
    """The process-wide engine selection (``auto``/``scalar``/``vector``)."""
    global _engine
    if _engine is None:
        _engine = _validated(os.environ.get("REPRO_ENGINE", "auto"))
    return _engine


def set_engine(name: str) -> None:
    """Set the process-wide engine selection."""
    global _engine
    _engine = _validated(name)


@contextmanager
def use_engine(name: str | None):
    """Temporarily set the engine selection; ``None`` is a no-op."""
    global _engine
    if name is None:
        yield
        return
    previous = _engine
    set_engine(name)
    try:
        yield
    finally:
        _engine = previous


def resolve_engine(explicit: str | None = None) -> str:
    """An explicit per-call engine choice, else the process-wide one."""
    return _validated(explicit) if explicit is not None else current_engine()


# --------------------------------------------------------------------------
# Cache engine selection
# --------------------------------------------------------------------------


def cache_vector_reason(config: CacheConfig, listener=None) -> str | None:
    """Why *config* cannot use a fast cache engine (None = it can)."""
    if listener is not None:
        return "traffic listeners require the per-access scalar loop"
    if config.associativity > 1 and config.replacement != "lru":
        return (
            f"{config.replacement!r} replacement has a fast engine only at "
            "associativity 1 (victim choice is forced)"
        )
    return None


def dispatch_cache(
    config: CacheConfig,
    trace: MemTrace,
    *,
    flush: bool,
    selection: str,
    listener=None,
) -> CacheStats | None:
    """Run the fast exact cache engine for *config*, or return None.

    ``selection`` is a resolved engine name other than ``"scalar"`` or
    ``"sampled"`` (the sampled tier dispatches in ``Cache.simulate``
    before this point). None sends the run to the per-access
    ``Cache.access`` reference; under ``"vector"`` an ineligible
    configuration raises instead.
    """
    reason = cache_vector_reason(config, listener)
    if reason is None:
        return simulate_cache_lru(config, trace, flush=flush)
    if selection == "vector":
        raise ConfigurationError(
            f"no vector engine for {config.describe()}: {reason}"
        )
    return None


def _stable_order(keys: np.ndarray, max_key: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, max_key]``.

    numpy radix-sorts 8- and 16-bit keys, several times faster than its
    merge sort of wider ones. So keys up to 16 bits are cast to the
    narrowest type that holds *max_key*, and wider keys are sorted by
    their low 16 bits, then stably by the rest: an LSD radix sort. A
    stable sort's permutation is unique, so the result is the same.
    """
    if max_key <= 0xFFFF:
        narrow = keys.astype(np.min_scalar_type(max_key), copy=False)
        return np.argsort(narrow, kind="stable")
    order = _stable_order(keys & 0xFFFF, 0xFFFF)
    return order[_stable_order(keys[order] >> 16, max_key >> 16)]


# --------------------------------------------------------------------------
# Set-associative LRU
# --------------------------------------------------------------------------

#: The widest set the stack-distance kernel serves. Its work per window
#: grows with the ways: one set holding about as many hot blocks as ways
#: costs it up to 1.22 times the stack loop's CPU at 8 ways, but 2.0
#: times at 16 (docs/performance.md, "Set-associative LRU").
STACK_KERNEL_MAX_WAYS = 8

#: Vectorized rounds, of ``ways`` window positions each, before the
#: windows still open are settled by binary lifting. One round costs 2%
#: more CPU on serve-cold's 4-way shapes; a third saves up to 2.5% there
#: but takes the hot-set worst case at 8 ways to 1.32 times the loop.
_SCAN_ROUNDS = 2

#: Levels of the lifting step's sparse table at most, so the table holds
#: at most this many int32 copies of the trace. One descent skips up to
#: ``2**_LIFT_LEVELS - 1`` positions; a longer stretch takes several.
_LIFT_LEVELS = 10


def simulate_cache_lru(
    config: CacheConfig, trace: MemTrace, *, flush: bool = True
) -> CacheStats:
    """Exact set-associative LRU simulation (all write/allocate policies).

    A write-back/write-allocate cache of at most
    :data:`STACK_KERNEL_MAX_WAYS` ways runs the stack-distance kernel
    (:func:`_lru_stack_kernel`). Every other configuration runs
    ``Cache.access`` without its per-access overhead: blocks and write
    flags become lists once, and each set is one insertion-ordered dict,
    oldest line first. A hit pops its block and re-inserts it at the
    young end; a fill into a full set evicts ``next(iter(lines))``. At
    associativity 1 the victim is forced, so every replacement policy
    runs here. The engines count only misses, holes and evictions;
    fetches and write-through words follow from those once, at the end.
    """
    reason = cache_vector_reason(config)
    if reason is not None:
        raise ConfigurationError(
            f"no vector engine for {config.describe()}: {reason}"
        )
    n = len(trace)
    stats = CacheStats(
        accesses=n, reads=trace.read_count, writes=trace.write_count
    )
    if n == 0:
        return stats
    writeback = config.write_policy is WritePolicy.WRITEBACK
    allocate = config.allocate
    ways = config.associativity
    blocks = trace.addresses // config.block_bytes
    if writeback and allocate is AllocatePolicy.WRITE_ALLOCATE:
        if ways <= STACK_KERNEL_MAX_WAYS:
            counts = _lru_stack_kernel(
                blocks, trace.is_write, config.num_sets, ways
            )
        else:
            counts = _lru_writeback_allocate(
                blocks.tolist(),
                trace.is_write.tolist(),
                [{} for _ in range(config.num_sets)],
                ways,
            )
    else:
        words = ((trace.addresses % config.block_bytes) // WORD_BYTES).tolist()
        counts = _lru_any_policy(
            blocks.tolist(),
            words,
            trace.is_write.tolist(),
            [{} for _ in range(config.num_sets)],
            config,
        )
    misses, write_misses, holes, written_back, dirty_left = counts

    read_misses = misses - write_misses
    stats.read_hits = stats.reads - read_misses
    stats.write_hits = stats.writes - write_misses
    # Read misses and reads of write-validated holes fetch a block; write
    # misses fetch one only under write-allocate.
    fetches = read_misses + holes
    if allocate is AllocatePolicy.WRITE_ALLOCATE:
        fetches += write_misses
    stats.fetch_bytes = fetches * config.block_bytes
    if not writeback:  # every write sends its word below, hit or miss
        stats.writethrough_bytes = stats.writes * WORD_BYTES
    elif allocate is AllocatePolicy.NO_ALLOCATE:  # write misses go around
        stats.writethrough_bytes = write_misses * WORD_BYTES
    # A write-validate line writes back only its dirty words; any other
    # dirty line writes back its whole block.
    if allocate is AllocatePolicy.WRITE_VALIDATE:
        unit = WORD_BYTES
    else:
        unit = config.block_bytes
    stats.writeback_bytes = written_back * unit
    if flush:
        stats.flush_writeback_bytes = dirty_left * unit
    return stats


def _lru_stack_kernel(
    blocks: np.ndarray, writes: np.ndarray, num_sets: int, ways: int
) -> tuple[int, int, int, int, int]:
    """The write-back/write-allocate counts of an LRU cache, from the
    set-grouped trace instead of a walk over each reference.

    LRU is a stack algorithm (Mattson et al., 1970): a reference hits an
    A-way set iff fewer than A distinct blocks of its set were touched
    since the block's previous reference.

    * One stable sort groups the references by set. A repeat of the
      entry before it is a hit that moves nothing, so each run of repeats
      collapses to one entry, whose write flag is the run's OR.
    * An entry's *window* is the stretch since its block's previous
      entry. A window shorter than A hits. Adjacent entries differ, so a
      window of two or more holds two distinct blocks: at one way no
      window hits, and at two ways no longer one. Above two ways, the
      window's distinct blocks are its first occurrences, the entries
      whose previous occurrence lies before the window, and
      :func:`_window_hits` counts them.
    * Each miss opens a generation of its block. A generation is dirty
      iff one of its references writes, and it is written back unless it
      is its block's last one and still resident at the end: fewer than
      A distinct blocks of its set follow the block's last entry.
    """
    set_mask = num_sets - 1
    block, first_write, written = _collapsed_by_set(blocks, writes, set_mask)
    sets = block & set_mask
    m = block.size
    if ways == 1:
        # Every entry misses and is a generation of its own; each set ends
        # holding its last entry.
        last_of_set = np.append(sets[1:] != sets[:-1], True)
        dirty_left = int(np.count_nonzero(written & last_of_set))
        written_back = int(np.count_nonzero(written)) - dirty_left
        write_misses = int(np.count_nonzero(first_write))
        return m, write_misses, 0, written_back, dirty_left

    # Each entry's previous occurrence, from the entries grouped by block.
    index = np.int32 if m < 2**31 else np.int64
    by_block = _stable_order(block, int(block.max()))
    same = block[by_block[1:]] == block[by_block[:-1]]
    prev = np.full(m, -1, dtype=index)
    prev[by_block[1:][same]] = by_block[:-1][same]
    seen = prev >= 0
    window = np.arange(m, dtype=index) - prev - 1
    hit = seen & (window < ways)
    if ways > 2:
        wide = np.flatnonzero(seen & (window >= ways)).astype(index)
        hit[wide[_window_hits(prev, prev[wide], wide, ways)]] = True
    miss = ~hit
    misses = int(np.count_nonzero(miss))
    write_misses = int(np.count_nonzero(miss & first_write))

    # Generations, in block order: each miss opens one, and boundary[k]
    # marks where a block's entries begin (k == m: past the last block).
    opens = np.flatnonzero(miss[by_block])
    generation_dirty = _any_in_stretches(written[by_block], opens)
    boundary = np.ones(m + 1, dtype=bool)
    boundary[1:-1] = ~same
    final_dirty = np.zeros(m, dtype=bool)
    final_dirty[by_block[boundary[1:]]] = generation_dirty[
        boundary[np.append(opens[1:], m)]
    ]
    # A block's final entry is resident iff fewer than ``ways`` final
    # entries of its set follow it.
    final = np.ones(m, dtype=bool)
    final[prev[seen]] = False
    finals = np.flatnonzero(final)
    final_sets = sets[finals]
    dirty_resident = final_dirty[finals]
    dirty_resident[:-ways] &= final_sets[ways:] != final_sets[:-ways]
    dirty_left = int(np.count_nonzero(dirty_resident))
    written_back = int(np.count_nonzero(generation_dirty)) - dirty_left
    return misses, write_misses, 0, written_back, dirty_left


def _collapsed_by_set(
    blocks: np.ndarray, writes: np.ndarray, set_mask: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The references grouped by set, each run of one block collapsed:
    each entry's block, whether its first reference writes, and whether
    any of its references does."""
    order = _stable_order(blocks & set_mask, set_mask)
    grouped = blocks[order]
    grouped_writes = writes[order]
    heads = np.empty(grouped.size, dtype=bool)
    heads[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    return (
        grouped[starts],
        grouped_writes[starts],
        _any_in_stretches(grouped_writes, starts),
    )


def _any_in_stretches(flags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Whether each stretch ``flags[starts[k]:starts[k + 1]]`` holds a
    True, the last stretch running to the end: ``np.logical_or.reduceat``
    from one running count, in half its time."""
    running = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=running[1:])
    return running[np.append(starts[1:], flags.size)] > running[starts]


def _window_hits(
    prev: np.ndarray, begin: np.ndarray, end: np.ndarray, ways: int
) -> np.ndarray:
    """Whether each window ``(begin, end)`` of at least *ways* entries
    holds fewer than *ways* distinct blocks.

    The window's distinct blocks are its first occurrences, the positions
    ``j`` inside it with ``prev[j] < begin``.

    * :data:`_SCAN_ROUNDS` vectorized rounds count the first occurrences,
      *ways* positions at a time. A window misses once its count reaches
      *ways*, and hits once it is scanned to its end.
    * Before them, a sliding maximum of ``prev`` over *ways* positions
      finds the windows whose first *ways* entries are all first
      occurrences: the misses the first round would find, without its
      *ways*-column matrix. On serve-cold's traces it settles 86% of the
      windows at 4 ways and 66% at 8, and saves the kernel 15% of its CPU.
    * :func:`_lifted_hits` settles the windows still open.
    """
    lead = prev  # lead[j]: the largest prev over positions j .. j + width - 1
    width = 1
    while width < ways:
        shift = min(width, ways - width)
        lead = np.maximum(lead[:-shift], lead[shift:])
        width += shift
    hits = np.zeros(begin.size, dtype=bool)
    todo = np.flatnonzero(lead[begin + 1] >= begin)
    begin, end = begin[todo], end[todo]
    pos = begin + 1  # the first position not yet scanned
    count = np.zeros(todo.size, dtype=np.int64)
    offsets = np.arange(ways, dtype=prev.dtype)
    for _ in range(_SCAN_ROUNDS):
        scanned = pos[:, None] + offsets
        inside = scanned < end[:, None]
        np.minimum(scanned, prev.size - 1, out=scanned)
        count += np.count_nonzero(
            inside & (prev[scanned] < begin[:, None]), axis=1
        )
        pos += ways
        missed, exhausted = count >= ways, pos >= end
        hits[todo[exhausted & ~missed]] = True
        keep = ~(missed | exhausted)
        todo, begin, end, pos, count = (
            column[keep] for column in (todo, begin, end, pos, count)
        )
    if todo.size:
        hits[todo] = _lifted_hits(prev, begin, end, pos, count, ways)
    return hits


def _lifted_hits(
    prev: np.ndarray,
    begin: np.ndarray,
    end: np.ndarray,
    pos: np.ndarray,
    count: np.ndarray,
    ways: int,
) -> np.ndarray:
    """:func:`_window_hits` for open windows: *count* first occurrences
    found before position *pos*, none decided yet.

    Each step moves every window to its next first occurrence by binary
    lifting over a sparse table of ``prev`` minima: one descent of log2
    vectorized steps (at most :data:`_LIFT_LEVELS`) skips the stretch
    before it. Steps repeat until the window has *ways* first
    occurrences (a miss) or none is left before its end (a hit). So no
    trace shape needs a loop over references.
    """
    # table[k][j] is the least prev over positions j .. j + 2**k - 1; the
    # padding past the last entry reads as no first occurrence. Its
    # levels skip up to the longest stretch left in any window.
    levels = min(int((end - pos).max()).bit_length(), _LIFT_LEVELS)
    table = [
        np.concatenate((prev, np.full(1 << levels, prev.size, prev.dtype)))
    ]
    for k in range(1, levels):
        half = 1 << (k - 1)
        level = table[-1].copy()
        np.minimum(table[-1][:-half], table[-1][half:], out=level[:-half])
        table.append(level)
    hits = np.zeros(begin.size, dtype=bool)
    todo = np.arange(begin.size)
    while todo.size:
        # Skip the longest stretch from pos, up to the table's reach, that
        # holds no first occurrence: pos lands on the next one, at or past
        # the window's end, or (after a full-length skip) anywhere.
        for k in range(levels - 1, -1, -1):
            np.add(pos, 1 << k, out=pos, where=table[k][pos] >= begin)
        inside = pos < end
        found = inside & (table[0][pos] < begin)
        count += found
        pos += found
        hits[todo[~inside]] = True
        keep = inside & (count < ways)
        todo, begin, end, pos, count = (
            column[keep] for column in (todo, begin, end, pos, count)
        )
    return hits


def _lru_writeback_allocate(
    blocks: list, writes: list, stacks: list[dict], ways: int
) -> tuple[int, int, int, int, int]:
    """The write-back/write-allocate loop: a line's value is its dirty flag."""
    set_mask = len(stacks) - 1  # set counts are powers of two
    misses = write_misses = written_back = 0
    for block, write in zip(blocks, writes):
        lines = stacks[block & set_mask]
        dirty = lines.pop(block, None)
        if dirty is None:
            misses += 1
            if write:
                write_misses += 1
            if len(lines) >= ways and lines.pop(next(iter(lines))):
                written_back += 1
            lines[block] = write
        else:
            lines[block] = dirty or write
    dirty_left = sum(sum(lines.values()) for lines in stacks)
    return misses, write_misses, 0, written_back, dirty_left


def _lru_any_policy(
    blocks: list,
    words: list,
    writes: list,
    stacks: list[dict],
    config: CacheConfig,
) -> tuple[int, int, int, int, int]:
    """Any write/allocate policy: a line is its (valid, dirty) word masks.

    Only write-validate ever leaves a word invalid; a Python int holds
    the masks of any block size.
    """
    set_mask = len(stacks) - 1
    ways = config.associativity
    writeback = config.write_policy is WritePolicy.WRITEBACK
    no_allocate = config.allocate is AllocatePolicy.NO_ALLOCATE
    write_validate = config.allocate is AllocatePolicy.WRITE_VALIDATE
    full = (1 << config.words_per_block) - 1
    # Write-back cost of a dirty mask, in words or in blocks.
    cost = int.bit_count if write_validate else bool
    misses = write_misses = holes = written_back = 0
    for block, word, write in zip(blocks, words, writes):
        bit = 1 << word
        lines = stacks[block & set_mask]
        line = lines.pop(block, None)
        if line is not None:
            valid, dirty = line
            if write:
                valid |= bit
                if writeback:
                    dirty |= bit
            elif not valid & bit:  # read of a write-validated hole
                holes += 1
                valid = full
            lines[block] = (valid, dirty)
            continue
        misses += 1
        if write:
            write_misses += 1
            if no_allocate:
                continue  # the word goes around; the set is untouched
            line = (bit if write_validate else full, bit if writeback else 0)
        else:
            line = (full, 0)
        if len(lines) >= ways:
            written_back += cost(lines.pop(next(iter(lines)))[1])
        lines[block] = line
    dirty_left = sum(
        cost(dirty) for lines in stacks for _, dirty in lines.values()
    )
    return misses, write_misses, holes, written_back, dirty_left


# --------------------------------------------------------------------------
# One-pass multi-size families
# --------------------------------------------------------------------------


def _record_family(
    kind: str,
    trace: MemTrace,
    results: dict[int, CacheStats],
    started: float | None = None,
) -> None:
    """Credit a family pass with the per-size simulations it replaced.

    Each size's stats cover the full trace, so the counters receive the
    *equivalent* per-size reference counts — ``cache.accesses`` divided
    by wall-clock then reads as effective throughput, which is exactly
    the quantity the one-pass sweep is supposed to multiply.
    """
    if TRACER.enabled and started is not None:
        TRACER.emit_span(
            "engine.family",
            started,
            time.time(),
            family=kind,
            trace=trace.name,
            sizes=len(results),
            accesses=sum(stats.accesses for stats in results.values()),
        )
    if not OBS.enabled:
        return
    if started is not None:
        OBS.observe(
            f"engine.family.{kind}.time", max(0.0, time.time() - started)
        )
    OBS.count("cache.simulations", len(results))
    for stats in results.values():
        OBS.count("cache.accesses", stats.accesses)
        OBS.count("cache.misses", stats.misses)
        OBS.count("cache.fetch_bytes", stats.fetch_bytes)
        OBS.count(
            "cache.writeback_bytes",
            stats.writeback_bytes + stats.flush_writeback_bytes,
        )
        OBS.count("cache.writethrough_bytes", stats.writethrough_bytes)


def direct_mapped_family(
    trace: MemTrace,
    sizes_bytes: list[int],
    *,
    block_bytes: int = 32,
    flush: bool = True,
) -> dict[int, CacheStats]:
    """Exact stats for every direct-mapped WB/WA cache size in one pass.

    One stable sort at the smallest set count; each size doubling then
    refines the permutation with a single stable bit partition (an LSD
    radix step), which reproduces ``np.argsort(blocks % sets, stable)``
    for that size exactly — so every per-size result is bit-identical to
    a single direct-mapped ``Cache.simulate`` while the O(n log n) sort
    is paid once for the whole axis.
    """
    results: dict[int, CacheStats] = {}
    if not sizes_bytes:
        return results
    started = time.time()
    for size in sizes_bytes:
        # Validate every size eagerly (matches per-size construction).
        CacheConfig(size_bytes=size, block_bytes=block_bytes)
    n = len(trace)
    blocks = trace.addresses // block_bytes
    writes = trace.is_write
    order: np.ndarray | None = None
    bits_done = 0
    for size in sorted(set(sizes_bytes)):
        num_sets = size // block_bytes
        bits = num_sets.bit_length() - 1
        if n == 0:
            results[size] = CacheStats()
            continue
        if order is None:
            order = _stable_order(blocks % num_sets, num_sets - 1)
        else:
            for bit in range(bits_done, bits):
                is_set = ((blocks[order] >> bit) & 1).astype(bool)
                order = np.concatenate((order[~is_set], order[is_set]))
        bits_done = bits
        config = CacheConfig(size_bytes=size, block_bytes=block_bytes)
        results[size] = _dm_stats_from_order(
            config, blocks, writes, order, trace, flush
        )
    _record_family("direct-mapped", trace, results, started)
    return results


def _dm_stats_from_order(
    config: CacheConfig,
    blocks: np.ndarray,
    writes: np.ndarray,
    order: np.ndarray,
    trace: MemTrace,
    flush: bool,
) -> CacheStats:
    """Direct-mapped WB/WA stats given the set-grouped permutation.

    The family's per-size step. A single direct-mapped cache runs the
    stack-distance kernel's one-way case instead, which counts the same
    stats a second way; the differential suite pins both to the scalar
    loop on every size of random sweeps.
    """
    n = blocks.size
    stats = CacheStats(
        accesses=n, reads=trace.read_count, writes=trace.write_count
    )
    sorted_blocks = blocks[order]
    sorted_sets = sorted_blocks % config.num_sets
    sorted_writes = writes[order]

    same_set = np.empty(n, dtype=bool)
    same_set[0] = False
    same_set[1:] = sorted_sets[1:] == sorted_sets[:-1]
    same_block = np.empty(n, dtype=bool)
    same_block[0] = False
    same_block[1:] = sorted_blocks[1:] == sorted_blocks[:-1]
    hit = same_set & same_block
    miss = ~hit

    stats.read_hits = int(np.sum(hit & ~sorted_writes))
    stats.write_hits = int(np.sum(hit & sorted_writes))
    stats.fetch_bytes = int(miss.sum()) * config.block_bytes

    run_id = np.cumsum(miss) - 1
    dirty_runs = np.zeros(int(run_id[-1]) + 1, dtype=bool)
    np.logical_or.at(dirty_runs, run_id[sorted_writes], True)
    dirty_total = int(dirty_runs.sum()) * config.block_bytes

    last_of_set = np.zeros(int(run_id[-1]) + 1, dtype=bool)
    set_change = np.empty(n, dtype=bool)
    set_change[:-1] = sorted_sets[1:] != sorted_sets[:-1]
    set_change[-1] = True
    last_of_set[run_id[set_change]] = True
    flushed = int(np.sum(dirty_runs & last_of_set)) * config.block_bytes
    if flush:
        stats.flush_writeback_bytes = flushed
        stats.writeback_bytes = dirty_total - flushed
    else:
        stats.writeback_bytes = dirty_total - flushed
    return stats


def fully_associative_lru_family(
    trace: MemTrace,
    sizes_bytes: list[int],
    *,
    block_bytes: int = 32,
    flush: bool = True,
) -> dict[int, CacheStats]:
    """Exact stats for every fully-associative LRU WB/WA size in one pass.

    Built on the extended Mattson analysis of
    :func:`repro.trace.mrc.traffic_curve`: one stack-distance pass yields
    hits, fetches, write-backs, and flush write-backs for *every*
    capacity at once. Bit-identical to simulating each size with
    ``CacheConfig.fully_associative`` (the differential suite holds it
    to exact equality).
    """
    from repro.trace.mrc import traffic_curve

    started = time.time()
    for size in sizes_bytes:
        CacheConfig.fully_associative(size, block_bytes)
    curve = traffic_curve(trace, block_bytes=block_bytes)
    results = {
        size: curve.stats_at(size // block_bytes, flush=flush)
        for size in sizes_bytes
    }
    _record_family("fully-associative-lru", trace, results, started)
    return results


# --------------------------------------------------------------------------
# Minimal-traffic cache (Belady MIN) fast engine
# --------------------------------------------------------------------------


@dataclass(slots=True)
class PreparedMTC:
    """Pass-1 products of an MTC run, reusable across cache sizes.

    ``dense`` maps each reference to a dense block id (``np.unique``
    keeps ids in block-value order, so heap tie-breaks on dense ids
    order identically to ties on raw block numbers).
    """

    block_bytes: int
    dense: np.ndarray        #: per-reference dense block id (int64)
    next_use: np.ndarray     #: per-reference next-use position (int64)
    is_write: np.ndarray     #: per-reference write flag (bool)
    #: Sorted positions of each block's first reference (always misses).
    first_positions: np.ndarray
    num_blocks: int          #: distinct blocks in the trace


def prepare_mtc(trace: MemTrace, block_bytes: int = WORD_BYTES) -> PreparedMTC:
    """Vectorized pass 1: dense ids, next-use chains, first touches."""
    blocks = trace.addresses // block_bytes
    uniq, dense = np.unique(blocks, return_inverse=True)
    dense = dense.astype(np.int64, copy=False)
    n = dense.size
    next_use = np.full(n, NEVER, dtype=np.int64)
    if n:
        order = _stable_order(dense, uniq.size - 1)
        grouped = dense[order]
        heads = np.empty(n, dtype=bool)
        heads[0] = True
        heads[1:] = grouped[1:] != grouped[:-1]
        same = ~heads[1:]
        next_use[order[:-1][same]] = order[1:][same]
        first_positions = np.sort(order[heads])
    else:
        first_positions = np.empty(0, dtype=np.int64)
    return PreparedMTC(
        block_bytes=block_bytes,
        dense=dense,
        next_use=next_use,
        is_write=trace.is_write,
        first_positions=first_positions,
        num_blocks=int(uniq.size),
    )


def mtc_fast_supported(config: MTCConfig) -> str | None:
    """Why *config* cannot use the fast MTC engine (None = it can)."""
    if config.words_per_block != 1:
        return (
            "the batched MTC engine is word-granularity only "
            f"(got {config.block_bytes}-byte blocks)"
        )
    return None


#: Hit runs at least this long are handled with array operations; below
#: it, numpy's per-call overhead beats its throughput.
_NUMPY_RUN = 32

#: The fast MTC's victim heap is rebuilt from its live entries once it
#: holds more than ``max(4 * capacity, _HEAP_FLOOR)`` of them.
_HEAP_FLOOR = 32_768


def simulate_mtc_fast(
    config: MTCConfig,
    trace: MemTrace,
    *,
    flush: bool = True,
    prepared: PreparedMTC | None = None,
) -> CacheStats:
    """Fast word-granularity MTC simulation (exact Belady MIN + bypass).

    Pass 1 is fully vectorized (and shareable across sizes through
    *prepared*). Pass 2 visits only the misses that can change the cache,
    on three exact facts:

    * **The fill has a closed form.** Until the C-th distinct word
      arrives (position F), nothing is evicted or bypassed, so the misses
      are the first touches, and they, the dirty flags and the resident
      set with its next-use keys are array reductions over ``[0, F]``;
      the victim heap is built with one ``heapify``. When the MTC holds
      every distinct word, F is the last reference and no loop runs.
    * **After F the MTC stays full.** With bypass on, a word referenced
      only once is then always bypassed and changes nothing, so its
      position is dropped before the loop (the next-use chains are
      renumbered; positions and dense ids keep their order, so heap ties
      break as before) and only counted as a miss. Any later miss whose
      next use is NEVER is bypassed without a heap scan.
    * **The loop jumps from miss to miss.** A reference misses iff it is
      its word's first touch, or its word's previous reference was
      bypassed, or the word was evicted since; an evicted or bypassed
      word's next reference is the next-use chain value that decided it.
      First touches are pre-marked on a byte timeline and each induced
      miss is marked with one store when it is caused, so the next miss
      is one C-level ``bytearray.find`` away. Everything strictly between
      two misses is a hit run: it only marks words dirty and pushes the
      new key of each word's last occurrence in the run. The miss counts
      are read off the timeline afterwards, and the hit counts follow.

    The state is a heap and a bytearray of dirty flags (a word is dirty
    only while resident). A heap entry is one int, ``w - (use <<
    shift)``, that orders like ``(-use, w)``; a live entry's key is its
    resident word's *current* next use, since a heap ordered by stale
    lower bounds can bury the true MIN victim below a fresher-looking
    top. An entry goes stale when its word is referenced at ``use``, and
    an evicted word's live entry is the heap top popped with it. So at a
    miss every stale entry's ``use`` lies before the miss and every live
    one's after it: the top is always live, and stale entries stay buried
    without a per-word key table or a stale check. Buried entries grow with
    the hits, not with C, so at a miss a heap longer than ``max(4C,
    _HEAP_FLOOR)`` is rebuilt from its live entries (at most C); the top,
    the least live entry, stays the same.
    """
    import heapq

    reason = mtc_fast_supported(config)
    if reason is not None:
        raise ConfigurationError(f"no vector engine for {config.describe()}: {reason}")
    if prepared is None:
        prepared = prepare_mtc(trace, config.block_bytes)
    elif prepared.block_bytes != config.block_bytes:
        raise ConfigurationError(
            f"prepared pass for {prepared.block_bytes}-byte blocks reused "
            f"at {config.block_bytes}-byte blocks"
        )
    elif prepared.dense.size != len(trace):
        raise ConfigurationError(
            f"prepared pass for {prepared.dense.size} references reused "
            f"on a {len(trace)}-reference trace"
        )

    n = int(prepared.dense.size)
    stats = CacheStats(
        accesses=n, reads=trace.read_count, writes=trace.write_count
    )
    if n == 0:
        return stats

    write_validate = config.allocate is AllocatePolicy.WRITE_VALIDATE
    allow_bypass = config.bypass
    num_blocks = prepared.num_blocks
    dense = prepared.dense
    next_use = prepared.next_use
    is_write = prepared.is_write
    first_positions = prepared.first_positions

    # ---- fill: references [0, F], every miss a first touch ----
    filled = min(config.capacity_blocks, num_blocks)
    if filled == num_blocks:
        fill_end = n
    else:
        fill_end = int(first_positions[filled - 1]) + 1
    misses = filled
    write_misses = int(np.count_nonzero(is_write[first_positions[:filled]]))
    writeback_words = 0
    writethrough_words = 0  # bypassed writes
    dirty = bytearray(num_blocks)
    dirty_view = np.frombuffer(dirty, dtype=np.uint8)
    if fill_end < n or flush:
        dirty_view[dense[:fill_end][is_write[:fill_end]]] = 1

    if fill_end < n:
        # ---- after F: drop single-use words, renumber the chains ----
        late = first_positions[filled:]
        if allow_bypass:
            single = next_use[late] == NEVER
            dropped = late[single]
            late = late[~single]
            writethrough_words = int(np.count_nonzero(is_write[dropped]))
            misses += dropped.size
            write_misses += writethrough_words
        else:
            dropped = late[:0]
        keep = np.ones(n - fill_end + 1, dtype=bool)
        keep[dropped - fill_end] = False
        # local[p - fill_end] is kept position p's index on the loop's
        # timeline; the extra last slot maps NEVER to one past its end.
        local = np.cumsum(keep) - 1
        kept = np.flatnonzero(keep[:-1]) + fill_end
        span = int(local[-1])
        tail_dense = dense[kept]
        tail_write = is_write[kept]
        tail_next = local[np.minimum(next_use[kept], n) - fill_end]

        # Resident words at F: each one's last occurrence in the fill.
        last = np.flatnonzero(next_use[:fill_end] >= fill_end)
        resident = dense[last]
        resident_next = local[np.minimum(next_use[last], n) - fill_end]
        shift = num_blocks.bit_length()
        mask = (1 << shift) - 1
        heap = (resident - (resident_next << shift)).tolist()
        heapq.heapify(heap)

        # miss_flag[p] is 1 iff position p misses: first touches are
        # pre-marked, induced misses are marked when they are caused.
        miss_flag = bytearray(span)
        missed = np.frombuffer(miss_flag, dtype=bool)
        missed[local[late - fill_end]] = True
        find_flag = miss_flag.find
        dense_l = tail_dense.tolist()
        next_l = tail_next.tolist()
        write_l = tail_write.tolist()
        tail_entry = tail_dense - (tail_next << shift)
        entry_l = tail_entry.tolist()
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        heap_bound = max(4 * config.capacity_blocks, _HEAP_FLOOR)

        start = 0
        while True:
            following = find_flag(1, start)
            if following < 0:
                following = span
            # ---- hit run [start, following): dirty marks, new keys ----
            if following - start >= _NUMPY_RUN:
                written = tail_write[start:following]
                if written.any():
                    dirty_view[tail_dense[start:following][written]] = 1
                # The run positions whose next use escapes the run are
                # each word's last occurrence within it.
                rel = start + np.flatnonzero(
                    tail_next[start:following] >= following
                )
                for entry in tail_entry[rel].tolist():
                    heappush(heap, entry)
            else:
                for pos in range(start, following):
                    if write_l[pos]:
                        dirty[dense_l[pos]] = 1
                    if next_l[pos] >= following:
                        heappush(heap, entry_l[pos])
            if following >= span:
                break

            # ---- the miss at `following` ----
            start = following + 1
            if len(heap) > heap_bound:
                # Live entries: their word's next use lies past this miss.
                heap[:] = [
                    entry for entry in heap
                    if ((entry & mask) - entry) >> shift > following
                ]
                heapq.heapify(heap)
            use = next_l[following]
            if allow_bypass and use == span:
                # No future use: bypassed whatever the victim is.
                writethrough_words += write_l[following]
                continue
            if not heap:
                raise SimulationError("full MTC with an empty victim heap")
            top = heap[0]  # always live: see the docstring
            victim = top & mask
            victim_use = (victim - top) >> shift
            if allow_bypass and use >= victim_use:
                writethrough_words += write_l[following]
                miss_flag[use] = 1
                continue
            # Evict the top, insert this word.
            if dirty[victim]:
                writeback_words += 1
                dirty[victim] = 0
            if victim_use < span:
                miss_flag[victim_use] = 1
            dirty[dense_l[following]] = write_l[following]
            heapreplace(heap, entry_l[following])

        misses += int(np.count_nonzero(missed))
        write_misses += int(np.count_nonzero(tail_write[missed]))

    # A read miss fetches its word whether it is inserted or bypassed; a
    # write miss fetches only when inserted under write-allocate.
    read_misses = misses - write_misses
    fetch_words = read_misses
    if not write_validate:
        fetch_words += write_misses - writethrough_words
    stats.read_hits = stats.reads - read_misses
    stats.write_hits = stats.writes - write_misses
    stats.fetch_bytes = fetch_words * WORD_BYTES
    stats.writeback_bytes = writeback_words * WORD_BYTES
    stats.writethrough_bytes = writethrough_words * WORD_BYTES
    if flush:
        # Only resident words are ever dirty.
        stats.flush_writeback_bytes = dirty.count(1) * WORD_BYTES
    return stats
