"""Low-level building blocks for synthetic address streams.

Each helper returns a :class:`Stream`: a reference stream that knows its
length before it is built and builds only the prefix a caller takes. The
workload models in :mod:`repro.workloads` compose streams into full
benchmark traces. All generators are deterministic given their ``rng`` and
are vectorized so that million-reference traces are cheap to build.

The blocks correspond to the access idioms the paper attributes to its
benchmarks: dense array sweeps (Swm, Tomcatv), conflicting multi-array
sweeps (Su2cor), hash-table probing (Compress), pointer chasing (Li,
Eqntott), tiled kernels (Dnasa2), and hot/cold heap references (Perl,
Vortex).
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.trace.model import MemTrace, WORD_BYTES

StreamPair = tuple[np.ndarray, np.ndarray]


class Stream:
    """A reference stream whose length is known before it is built.

    ``size`` is the stream's full length. :meth:`take` builds its first
    *n* references, exactly the whole stream cut at *n*, and does the
    deterministic work for that prefix only. A kernel makes every random
    draw when it creates its stream, with the same calls, sizes and order
    whatever is later taken, so the draws that follow from the same
    generator never depend on a budget.
    """

    __slots__ = ("size", "_first")

    def __init__(self, size: int, first: Callable[[int], StreamPair]) -> None:
        self.size = int(size)
        #: ``first(n)`` returns the first n references, 0 < n <= size.
        self._first = first

    def take(self, n: int | None = None) -> StreamPair:
        """The first *n* references as ``(addresses, is_write)`` (int64
        and bool arrays); all of them when *n* is None."""
        n = self.size if n is None else max(0, min(n, self.size))
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        return self._first(n)


def from_arrays(addresses: np.ndarray, writes: np.ndarray) -> Stream:
    """A stream over references that are already built."""
    return Stream(addresses.size, lambda n: (addresses[:n], writes[:n]))


def _check_positive(value: int, name: str) -> None:
    if value <= 0:
        raise WorkloadError(f"{name} must be positive, got {value}")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def periodic(first: Callable[[int], np.ndarray], period: int, n: int) -> np.ndarray:
    """The first *n* entries of a period, ``first(period)``, repeated end
    to end.

    From one whole period on, the period is built once and tiled, as a
    whole-stream build does; a prefix shorter than one period builds only
    itself.
    """
    if n <= period:
        return first(n)
    return np.tile(first(period), _ceil_div(n, period))[:n]


def _store_marks(n: int, every: int) -> np.ndarray:
    """*n* store flags with every *every*-th one set (none when 0)."""
    writes = np.zeros(n, dtype=bool)
    if every > 0:
        writes[every - 1:: every] = True
    return writes


def _concat_prefix(parts: Iterator[np.ndarray], n: int) -> np.ndarray:
    """The first *n* entries of *parts* laid end to end; parts past the
    prefix are never built."""
    kept: list[np.ndarray] = []
    total = 0
    for part in parts:
        kept.append(part)
        total += part.size
        if total >= n:
            break
    return np.concatenate(kept)[:n]


def sweep(
    base: int,
    length_words: int,
    *,
    passes: int = 1,
    stride_words: int = 1,
    write_every: int = 0,
    repeats: int = 1,
) -> Stream:
    """Sequential sweep over an array: the streaming idiom of Swm/Tomcatv.

    Produces ``passes`` left-to-right passes over ``length_words`` words
    starting at byte address *base*, with an optional stride. When
    *write_every* is n > 0, every n-th reference is a store (read-modify-
    write loops store a fraction of what they load). *repeats* issues each
    word address that many times consecutively — the byte-scanning loops of
    Compress appear to a word-granularity tracer as four back-to-back
    references per word.
    """
    _check_positive(length_words, "length_words")
    _check_positive(passes, "passes")
    _check_positive(stride_words, "stride_words")
    _check_positive(repeats, "repeats")
    period = _ceil_div(length_words, stride_words) * repeats
    step = stride_words * WORD_BYTES

    def one_pass(m: int) -> np.ndarray:
        words = base + np.arange(_ceil_div(m, repeats), dtype=np.int64) * step
        if repeats > 1:
            words = np.repeat(words, repeats)[:m]
        return words

    def first(n: int) -> StreamPair:
        return periodic(one_pass, period, n), _store_marks(n, write_every)

    return Stream(period * passes, first)


def column_sweep(
    base: int,
    rows: int,
    row_words: int,
    *,
    passes: int = 1,
    write_every: int = 0,
) -> Stream:
    """Column-major sweep over a row-major 2-D array.

    Consecutive references stride a whole row apart, so small caches see no
    spatial locality at all; once a cache can hold one block per row
    (``rows x block`` bytes) adjacent column sweeps re-hit the same blocks
    and the traffic collapses. This is the vectorized-along-columns idiom
    of Tomcatv and the transposed phases of FFT codes.
    """
    _check_positive(rows, "rows")
    _check_positive(row_words, "row_words")
    _check_positive(passes, "passes")
    period = rows * row_words

    def one_pass(m: int) -> np.ndarray:
        # Columns outermost: reference k is row k % rows of column k // rows.
        k = np.arange(m, dtype=np.int64)
        return base + ((k % rows) * row_words + k // rows) * WORD_BYTES

    def first(n: int) -> StreamPair:
        return periodic(one_pass, period, n), _store_marks(n, write_every)

    return Stream(period * passes, first)


def interleaved_sweep(
    bases: list[int],
    length_words: int,
    *,
    passes: int = 1,
    write_last_array: bool = True,
) -> Stream:
    """Element-wise interleaved sweep over several arrays (stencil/update
    loops: ``c[i] = f(a[i], b[i])``).

    For each index i the generator touches ``a0[i], a1[i], ... ak[i]`` in
    turn; when *write_last_array* is set the final array of each group is
    stored, the rest loaded. When the arrays' bases conflict modulo a cache
    size this reproduces Su2cor's pathological conflict behaviour.
    """
    if not bases:
        raise WorkloadError("interleaved_sweep needs at least one array")
    _check_positive(length_words, "length_words")
    _check_positive(passes, "passes")
    arrays = len(bases)

    def one_pass(m: int) -> np.ndarray:
        index = np.arange(_ceil_div(m, arrays), dtype=np.int64) * WORD_BYTES
        return np.stack([base + index for base in bases], axis=1).reshape(-1)[:m]

    def first(n: int) -> StreamPair:
        return (
            periodic(one_pass, arrays * length_words, n),
            _store_marks(n, arrays if write_last_array else 0),
        )

    return Stream(arrays * length_words * passes, first)


def random_probes(
    rng: np.random.Generator,
    base: int,
    table_words: int,
    count: int,
    *,
    write_fraction: float = 0.0,
    hot_fraction: float = 0.0,
    hot_words: int = 0,
) -> Stream:
    """Uniform random probes into a table: Compress's hash-table idiom.

    Optionally a *hot_fraction* of probes lands in a small hot region of
    *hot_words* words at the start of the table (dictionary heads, counters),
    giving a modest amount of temporal locality without spatial locality.
    """
    _check_positive(table_words, "table_words")
    _check_positive(count, "count")
    if not 0.0 <= write_fraction <= 1.0:
        raise WorkloadError(f"write_fraction out of range: {write_fraction}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise WorkloadError(f"hot_fraction out of range: {hot_fraction}")
    indices = rng.integers(0, table_words, size=count, dtype=np.int64)
    if hot_fraction > 0.0:
        if hot_words <= 0:
            raise WorkloadError("hot_words must be positive when hot_fraction > 0")
        hot_mask = rng.random(count) < hot_fraction
        indices[hot_mask] = rng.integers(0, hot_words, size=int(hot_mask.sum()))
    writes = rng.random(count) < write_fraction
    return Stream(
        count, lambda n: (base + indices[:n] * WORD_BYTES, writes[:n])
    )


def zipf_words(
    rng: np.random.Generator, table_words: int, count: int, *, alpha: float
) -> Callable[[int], np.ndarray]:
    """Draw *count* Zipf(*alpha*) word indices into a shuffled table.

    Word rank *k* is drawn with probability proportional to
    ``1/(k+1)^alpha``, and a random permutation scatters the ranks
    through the table. Returns ``first(n)``, the first *n* indices (int64).

    The draws are ``rng.permutation(table_words)`` then ``rng.choice(
    table_words, size=count, p=weights)``, with the choice split into its
    own steps (the weights' normalized cumulative sum, ``count``
    uniforms, a right-sided ``searchsorted``): the same indices and the
    same generator state, but a prefix pays only its own lookups. The
    ranks become the weights and then their CDF in place: the table costs
    one float array beside the permutation.
    """
    cdf = np.arange(1, table_words + 1, dtype=np.float64)
    # In place, ``**=`` takes the same path (and so gives the same bits)
    # as ``ranks ** -alpha``.
    cdf **= -alpha
    cdf /= cdf.sum()
    permutation = rng.permutation(table_words)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    uniforms = rng.random(count)

    def first(n: int) -> np.ndarray:
        return permutation[cdf.searchsorted(uniforms[:n], side="right")]

    return first


def zipf_probes(
    rng: np.random.Generator,
    base: int,
    table_words: int,
    count: int,
    *,
    alpha: float = 1.1,
    write_fraction: float = 0.0,
) -> Stream:
    """Zipf-distributed probes: hot/cold heap objects (Perl, Vortex).

    Word *k* is touched with probability proportional to ``1/(k+1)^alpha``,
    producing strong temporal locality on a small set of hot words over a
    large cold footprint. The word identity mapping is shuffled so hot words
    are scattered through the table (no accidental spatial locality).
    """
    _check_positive(table_words, "table_words")
    _check_positive(count, "count")
    if alpha <= 0:
        raise WorkloadError(f"alpha must be positive, got {alpha}")
    words = zipf_words(rng, table_words, count, alpha=alpha)
    writes = rng.random(count) < write_fraction
    return Stream(
        count, lambda n: (base + words(n) * WORD_BYTES, writes[:n])
    )


def pointer_chain(
    rng: np.random.Generator,
    base: int,
    nodes: int,
    node_words: int,
    count: int,
    *,
    write_fraction: float = 0.05,
    locality: float = 0.0,
) -> Stream:
    """Pointer-chasing over a linked structure (Li's cons cells).

    A random permutation over *nodes* nodes is walked; visiting a node
    touches its *node_words* consecutive words (header + fields), giving
    node-sized spatial locality but no inter-node locality. *locality* in
    [0, 1) makes the permutation prefer nearby nodes, modelling a compacting
    allocator.
    """
    _check_positive(nodes, "nodes")
    _check_positive(node_words, "node_words")
    _check_positive(count, "count")
    if not 0.0 <= locality < 1.0:
        raise WorkloadError(f"locality out of range: {locality}")
    if locality:
        # Biased successor choice: jump a geometric distance forward.
        jumps = rng.geometric(1.0 - locality, size=count).astype(np.int64)

        def visits(k: int) -> np.ndarray:
            return np.cumsum(jumps[:k]) % nodes
    else:
        order = rng.permutation(nodes).astype(np.int64)

        def visits(k: int) -> np.ndarray:
            return np.tile(order, k // nodes + 1)[:k]

    writes = rng.random(count * node_words) < write_fraction
    offsets = np.arange(node_words, dtype=np.int64)

    def first(n: int) -> StreamPair:
        node_seq = visits(_ceil_div(n, node_words))
        addresses = (
            base
            + (node_seq[:, None] * node_words + offsets[None, :]) * WORD_BYTES
        ).reshape(-1)
        return addresses[:n], writes[:n]

    return Stream(count * node_words, first)


def tiled_matrix_multiply(
    base_a: int,
    base_b: int,
    base_c: int,
    n: int,
    tile: int,
) -> Stream:
    """Reference stream of a tiled N x N matrix multiply (Dnasa2's MxM).

    Emits the loads of A and B and the load+store of C for a blocked
    ``C += A x B`` with square tiles of side *tile*. The stream is generated
    per tile with vectorized index arithmetic; its traffic obeys the
    O(N^3 / sqrt(S)) law analysed in the paper's Section 2.4.
    """
    _check_positive(n, "n")
    _check_positive(tile, "tile")
    if n % tile:
        raise WorkloadError(f"tile {tile} must divide matrix side {n}")
    blocks = n // tile
    tile_refs = tile * tile
    # One output tile: the A and B tiles of every bk, then C loaded and
    # stored.
    group = (2 * blocks + 2) * tile_refs
    group_writes = np.zeros(group, dtype=bool)
    group_writes[-tile_refs:] = True

    def parts() -> Iterator[np.ndarray]:
        ii, kk = np.meshgrid(
            np.arange(tile, dtype=np.int64),
            np.arange(tile, dtype=np.int64),
            indexing="ij",
        )
        flat_ik = (ii * n + kk).ravel()
        for bi in range(blocks):
            for bj in range(blocks):
                c_block = ((bi * tile + ii) * n + bj * tile + kk).ravel()
                for bk in range(blocks):
                    yield base_a + (flat_ik + (bi * tile * n + bk * tile)) * WORD_BYTES
                    yield base_b + (flat_ik + (bk * tile * n + bj * tile)) * WORD_BYTES
                c_addr = base_c + c_block * WORD_BYTES
                yield c_addr
                yield c_addr

    def first(m: int) -> StreamPair:
        return (
            _concat_prefix(parts(), m),
            np.tile(group_writes, _ceil_div(m, group))[:m],
        )

    return Stream(blocks * blocks * group, first)


#: Load both endpoints of a butterfly, then store both.
_BUTTERFLY_WRITES = np.array([False, False, True, True])


def fft_butterflies(base: int, n_points: int, *, element_words: int = 2) -> Stream:
    """Reference stream of an in-place radix-2 FFT over *n_points* complex
    points (Dnasa2's FFT kernel).

    Each of the ``log2 N`` stages reads and writes both endpoints of every
    butterfly; elements are *element_words* words (real + imaginary).
    """
    _check_positive(n_points, "n_points")
    if n_points & (n_points - 1):
        raise WorkloadError(f"n_points must be a power of two, got {n_points}")
    stages = n_points.bit_length() - 1

    def parts() -> Iterator[np.ndarray]:
        indices = np.arange(n_points, dtype=np.int64)
        span = 1
        while span < n_points:
            partner = indices ^ span
            lower = indices[indices < partner]
            upper = partner[indices < partner]
            # load both, store both — classic butterfly
            pair_sequence = np.stack([lower, upper, lower, upper], axis=1).reshape(-1)
            for word in range(element_words):
                yield base + (pair_sequence * element_words + word) * WORD_BYTES
            span *= 2

    def first(m: int) -> StreamPair:
        return (
            _concat_prefix(parts(), m),
            np.tile(_BUTTERFLY_WRITES, _ceil_div(m, 4))[:m],
        )

    # Each stage issues four references per butterfly, N/2 butterflies,
    # per element word.
    return Stream(stages * 2 * n_points * element_words, first)


def stencil_sweeps(
    base: int,
    n: int,
    *,
    iterations: int = 1,
    points: int = 5,
) -> Stream:
    """Jacobi-style *points*-point stencil over an N x N grid (Tomcatv,
    Hydro2d, Applu idiom).

    Each iteration loads the neighbours of every interior cell and stores
    the cell, in row-major order — high spatial locality, little temporal
    locality beyond adjacent rows.
    """
    _check_positive(n, "n")
    _check_positive(iterations, "iterations")
    if points not in (5, 9):
        raise WorkloadError(f"only 5- and 9-point stencils supported, got {points}")
    if points == 5:
        neighbour_offsets = np.array([-n, -1, 1, n], dtype=np.int64)
    else:
        neighbour_offsets = np.array(
            [-n - 1, -n, -n + 1, -1, 1, n - 1, n, n + 1], dtype=np.int64
        )
    per_cell = np.concatenate([neighbour_offsets, np.zeros(1, dtype=np.int64)])
    interior = max(0, n - 2)
    period = interior * interior * per_cell.size

    def one_iteration(m: int) -> np.ndarray:
        # Whole interior rows up to the one that holds reference m.
        rows = min(interior, _ceil_div(_ceil_div(m, per_cell.size), interior))
        rr, cc = np.meshgrid(
            np.arange(1, rows + 1, dtype=np.int64),
            np.arange(1, n - 1, dtype=np.int64),
            indexing="ij",
        )
        centre = (rr * n + cc).ravel()
        cell_addresses = centre[:, None] + per_cell[None, :]
        return (base + cell_addresses.reshape(-1) * WORD_BYTES)[:m]

    def first(m: int) -> StreamPair:
        # Each cell loads its neighbours, then stores its centre.
        return periodic(one_iteration, period, m), _store_marks(m, per_cell.size)

    return Stream(period * iterations, first)


def quicksort_scans(
    base: int,
    n_words: int,
    *,
    min_run_words: int = 64,
    write_every: int = 5,
    bottom_repeats: int = 3,
) -> Stream:
    """Depth-first recursive partition scans — the quicksort memory idiom.

    Scans the range, then recurses into each half, producing reuse at every
    power-of-two granularity: a cache of C words captures the rescans of
    all sub-ranges smaller than ~2C, so the traffic ratio declines
    *logarithmically* with cache size. This is the smooth working-set
    spectrum of Eqntott's Table 7 row (R from 1.04 at 1 KB down to 0.06 at
    1 MB).
    """
    _check_positive(n_words, "n_words")
    _check_positive(min_run_words, "min_run_words")

    @functools.cache
    def refs(length: int) -> int:
        # References a range of *length* words issues, its recursion included.
        if length <= 0:
            return 0
        if length <= min_run_words:
            return bottom_repeats * length
        half = length // 2
        return length + refs(half) + refs(length - half)

    def runs() -> Iterator[np.ndarray]:
        # Iterative depth-first traversal of the recursion tree.
        stack: list[tuple[int, int]] = [(0, n_words)]
        while stack:
            lo, hi = stack.pop()
            length = hi - lo
            if length <= 0:
                continue
            run = base + np.arange(lo, hi, dtype=np.int64) * WORD_BYTES
            if length > min_run_words:
                yield run
                mid = lo + length // 2
                # Push right first so the left half is scanned immediately
                # after its parent (short reuse distance).
                stack.append((mid, hi))
                stack.append((lo, mid))
            else:
                # The insertion-sort bottom makes several passes over each
                # min-run — the dense reuse that keeps even 1 KB caches at a
                # traffic ratio near 1 for sorting codes.
                for _ in range(bottom_repeats):
                    yield run

    def first(n: int) -> StreamPair:
        return _concat_prefix(runs(), n), _store_marks(n, write_every)

    return Stream(refs(n_words), first)


def fft2d_passes(base: int, rows: int, cols: int) -> Stream:
    """Reference stream of a 2-D FFT over a rows x cols complex grid.

    Row phase: an in-place radix-2 FFT along each (contiguous) row — good
    spatial locality even in small caches. Column phase: ``log2(rows)``
    strided passes over the grid — no locality until a cache holds one
    block per row. The row length is padded by one element to avoid
    pathological power-of-two set aliasing, as real FFT codes do.
    """
    _check_positive(rows, "rows")
    _check_positive(cols, "cols")
    if cols & (cols - 1):
        raise WorkloadError(f"cols must be a power of two, got {cols}")
    if rows & (rows - 1):
        raise WorkloadError(f"rows must be a power of two, got {rows}")
    element_words = 2  # complex: real + imaginary
    # Pad the row stride to an odd word count: an even stride aliases the
    # columns into a fraction of a direct-mapped cache's sets.
    row_stride = cols * element_words + 1
    parts = [
        fft_butterflies(
            base + row * row_stride * WORD_BYTES, cols,
            element_words=element_words,
        )
        for row in range(rows)
    ]
    column_phase_passes = max(1, int(np.log2(rows)))
    parts.append(
        column_sweep(
            base,
            rows,
            row_stride,
            passes=column_phase_passes,
            write_every=2,
        )
    )
    return concat_streams(parts)


def merge_sort_passes(base: int, n_words: int) -> Stream:
    """Reference stream of a bottom-up merge sort over *n_words* words.

    Each of the ``log2 N`` passes streams the whole array once as reads
    (from the source buffer) and once as writes (to the destination buffer),
    alternating buffers — the O(N log N / log S) traffic shape of Table 2.
    """
    _check_positive(n_words, "n_words")
    if n_words & (n_words - 1):
        raise WorkloadError(f"n_words must be a power of two, got {n_words}")
    passes = max(1, int(np.log2(n_words)))

    def parts() -> Iterator[np.ndarray]:
        src = base
        dst = base + n_words * WORD_BYTES
        index = np.arange(n_words, dtype=np.int64) * WORD_BYTES
        for _ in range(passes):
            yield np.stack([src + index, dst + index], axis=1).reshape(-1)
            src, dst = dst, src

    def first(n: int) -> StreamPair:
        return _concat_prefix(parts(), n), _store_marks(n, 2)

    return Stream(passes * 2 * n_words, first)


def round_robin(
    streams: Sequence[Stream],
    chunks: Sequence[int],
    *,
    limit: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interleave streams in round-robin chunks: the one interleave kernel.

    Each round visits the streams in list order and takes the next
    ``chunks[i]`` references of stream *i* (fewer at its end); an exhausted
    stream drops out of later rounds. Returns ``(addresses, is_write,
    owner)``, where ``owner[k]`` (int64) is the index of the stream that
    output *k* came from.

    With *limit*, only the first *limit* outputs are built — exactly the
    unlimited result's prefix. The schedule is computed from the streams'
    sizes and covers only the rounds that prefix spans, and each stream is
    asked only for the prefix those rounds consume.
    """
    addresses, writes, sizes = _gather_rounds(streams, chunks, limit)
    stream_ids = np.arange(len(streams), dtype=np.int64)
    owner = np.repeat(np.tile(stream_ids, sizes.size // len(streams)), sizes)
    return addresses, writes, owner


def _gather_rounds(
    streams: Sequence[Stream], chunks: Sequence[int], limit: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`round_robin` without the owner array, which a plain
    interleave does not need: returns ``(addresses, is_write, sizes)``,
    where ``sizes`` (rounds x streams, row-major) counts the references
    each round takes from each stream."""
    if not streams:
        raise WorkloadError("round_robin needs at least one stream")
    if len(chunks) != len(streams):
        raise WorkloadError(
            f"{len(streams)} streams but {len(chunks)} chunk sizes"
        )
    chunk = np.asarray(chunks, dtype=np.int64)
    if chunk.min() < 1:
        raise WorkloadError(f"chunk sizes must be positive, got {list(chunks)}")
    lengths = np.array([s.size for s in streams], dtype=np.int64)
    rounds = int((-(-lengths // chunk)).max())
    if limit is not None:
        _check_positive(limit, "limit")
        # Every round but the last takes a whole chunk, at least
        # min(chunks) references, from the stream that lasts longest, so
        # this many rounds always reach the limit.
        rounds = min(rounds, -(-limit // int(chunk.min())))
    # Segment (r, i) is stream i's slice [r * chunk_i, r * chunk_i + size);
    # flattened row-major, the segments are in output order.
    starts = np.arange(rounds, dtype=np.int64)[:, None] * chunk
    sizes = np.clip(lengths - starts, 0, chunk).ravel()
    ends = np.cumsum(sizes)
    if limit is not None:
        ends = np.minimum(ends, limit)
        sizes = np.diff(ends, prepend=0)
    # Gather from one pool holding the consumed prefix of each stream. The
    # pool is built first, so a nested interleave finishes before this
    # one's gather arrays exist.
    used = sizes.reshape(rounds, len(streams)).sum(axis=0)
    taken = [s.take(int(n)) for s, n in zip(streams, used)]
    pool_addresses = np.concatenate([addresses for addresses, _ in taken])
    pool_writes = np.concatenate([writes for _, writes in taken])
    del taken
    pool_base = np.cumsum(used) - used
    source = (starts + pool_base).ravel() - (ends - sizes)
    index = np.arange(int(used.sum()), dtype=np.int64) + np.repeat(source, sizes)
    return pool_addresses[index], pool_writes[index], sizes


def interleave_streams(
    rng: np.random.Generator,
    streams: list[Stream],
    *,
    chunk: int = 64,
) -> Stream:
    """Interleave several streams in round-robin chunks.

    Models phase-interleaved program behaviour (e.g. Perl alternating hash
    probing with string scanning) while keeping each stream's internal
    order. The longest stream advances *chunk* references per round and
    shorter streams proportionally fewer, so all streams finish together —
    a truncated prefix of the result then preserves each stream's share of
    the reference mix. Chunk sizes come from the streams' full sizes; a
    prefix takes only the prefix of each stream its rounds consume (see
    :func:`round_robin`).
    """
    _check_positive(chunk, "chunk")
    if not streams:
        raise WorkloadError("interleave_streams needs at least one stream")
    longest = max(s.size for s in streams)
    if longest == 0:
        raise WorkloadError("cannot interleave empty streams")
    chunk_sizes = [max(1, round(chunk * s.size / longest)) for s in streams]
    del rng  # reserved for future randomized interleaving

    def first(n: int) -> StreamPair:
        addresses, writes, _ = _gather_rounds(streams, chunk_sizes, n)
        return addresses, writes

    return Stream(sum(s.size for s in streams), first)


def concat_streams(streams: list[Stream]) -> Stream:
    """Concatenate streams back-to-back (program phases in sequence).

    A prefix builds only the streams it reaches. A stream that appears
    several times in the list (a phase that repeats) is built once, to the
    longest prefix any of its places reads.
    """
    if not streams:
        raise WorkloadError("concat_streams needs at least one stream")

    def first(n: int) -> StreamPair:
        cuts: list[tuple[Stream, int]] = []
        start = 0
        for stream in streams:
            if start >= n:
                break
            cuts.append((stream, min(stream.size, n - start)))
            start += stream.size
        longest: dict[Stream, int] = {}
        for stream, count in cuts:
            longest[stream] = max(longest.get(stream, 0), count)
        built = {stream: stream.take(count) for stream, count in longest.items()}
        return (
            np.concatenate([built[stream][0][:count] for stream, count in cuts]),
            np.concatenate([built[stream][1][:count] for stream, count in cuts]),
        )

    return Stream(sum(s.size for s in streams), first)


def truncate(stream: Stream, limit: int) -> Stream:
    """Clip a stream to at most *limit* references."""
    _check_positive(limit, "limit")
    return Stream(min(limit, stream.size), stream.take)


def to_trace(stream: Stream, name: str = "") -> MemTrace:
    """Build a whole stream into a :class:`MemTrace`."""
    addresses, writes = stream.take()
    return MemTrace(addresses, writes, name=name)
