"""Low-level building blocks for synthetic address streams.

Each helper produces ``(addresses, is_write)`` numpy array pairs that the
workload models in :mod:`repro.workloads` compose into full benchmark
traces. All generators are deterministic given their ``rng`` and are
vectorized so that million-reference traces are cheap to build.

The blocks correspond to the access idioms the paper attributes to its
benchmarks: dense array sweeps (Swm, Tomcatv), conflicting multi-array
sweeps (Su2cor), hash-table probing (Compress), pointer chasing (Li,
Eqntott), tiled kernels (Dnasa2), and hot/cold heap references (Perl,
Vortex).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.trace.model import MemTrace, WORD_BYTES

StreamPair = tuple[np.ndarray, np.ndarray]


def _check_positive(value: int, name: str) -> None:
    if value <= 0:
        raise WorkloadError(f"{name} must be positive, got {value}")


def sweep(
    base: int,
    length_words: int,
    *,
    passes: int = 1,
    stride_words: int = 1,
    write_every: int = 0,
    repeats: int = 1,
) -> StreamPair:
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
    one_pass = base + np.arange(0, length_words, stride_words, dtype=np.int64) * WORD_BYTES
    if repeats > 1:
        one_pass = np.repeat(one_pass, repeats)
    addresses = np.tile(one_pass, passes)
    writes = np.zeros(addresses.size, dtype=bool)
    if write_every > 0:
        writes[write_every - 1:: write_every] = True
    return addresses, writes


def column_sweep(
    base: int,
    rows: int,
    row_words: int,
    *,
    passes: int = 1,
    write_every: int = 0,
) -> StreamPair:
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
    rr, cc = np.meshgrid(
        np.arange(rows, dtype=np.int64),
        np.arange(row_words, dtype=np.int64),
        indexing="ij",
    )
    # Transpose the visit order: iterate columns outermost.
    order = (rr * row_words + cc).T.reshape(-1)
    addresses = np.tile(base + order * WORD_BYTES, passes)
    writes = np.zeros(addresses.size, dtype=bool)
    if write_every > 0:
        writes[write_every - 1:: write_every] = True
    return addresses, writes


def interleaved_sweep(
    bases: list[int],
    length_words: int,
    *,
    passes: int = 1,
    write_last_array: bool = True,
) -> StreamPair:
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
    index = np.arange(length_words, dtype=np.int64) * WORD_BYTES
    per_array = [base + index for base in bases]
    stacked = np.stack(per_array, axis=1).reshape(-1)
    addresses = np.tile(stacked, passes)
    writes = np.zeros(len(bases), dtype=bool)
    if write_last_array:
        writes[-1] = True
    write_pattern = np.tile(writes, length_words * passes)
    return addresses, write_pattern


def random_probes(
    rng: np.random.Generator,
    base: int,
    table_words: int,
    count: int,
    *,
    write_fraction: float = 0.0,
    hot_fraction: float = 0.0,
    hot_words: int = 0,
) -> StreamPair:
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
    addresses = base + indices * WORD_BYTES
    writes = rng.random(count) < write_fraction
    return addresses, writes


def zipf_probes(
    rng: np.random.Generator,
    base: int,
    table_words: int,
    count: int,
    *,
    alpha: float = 1.1,
    write_fraction: float = 0.0,
) -> StreamPair:
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
    ranks = np.arange(1, table_words + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    weights /= weights.sum()
    permutation = rng.permutation(table_words)
    drawn = rng.choice(table_words, size=count, p=weights)
    addresses = base + permutation[drawn].astype(np.int64) * WORD_BYTES
    writes = rng.random(count) < write_fraction
    return addresses, writes


def pointer_chain(
    rng: np.random.Generator,
    base: int,
    nodes: int,
    node_words: int,
    count: int,
    *,
    write_fraction: float = 0.05,
    locality: float = 0.0,
) -> StreamPair:
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
        node_seq = np.cumsum(jumps) % nodes
    else:
        order = rng.permutation(nodes).astype(np.int64)
        repeats = count // nodes + 1
        node_seq = np.tile(order, repeats)[:count]
    offsets = np.arange(node_words, dtype=np.int64)
    addresses = (
        base
        + (node_seq[:, None] * node_words + offsets[None, :]) * WORD_BYTES
    ).reshape(-1)
    writes = rng.random(addresses.size) < write_fraction
    return addresses, writes


def tiled_matrix_multiply(
    base_a: int,
    base_b: int,
    base_c: int,
    n: int,
    tile: int,
) -> StreamPair:
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
    addr_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []
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
                a_block = base_a + (flat_ik + (bi * tile * n + bk * tile)) * WORD_BYTES
                b_block = base_b + (flat_ik + (bk * tile * n + bj * tile)) * WORD_BYTES
                addr_parts.extend((a_block, b_block))
                write_parts.append(np.zeros(a_block.size + b_block.size, dtype=bool))
            c_addr = base_c + c_block * WORD_BYTES
            addr_parts.extend((c_addr, c_addr))
            rw = np.zeros(2 * c_addr.size, dtype=bool)
            rw[c_addr.size:] = True
            write_parts.append(rw)
    return np.concatenate(addr_parts), np.concatenate(write_parts)


def fft_butterflies(base: int, n_points: int, *, element_words: int = 2) -> StreamPair:
    """Reference stream of an in-place radix-2 FFT over *n_points* complex
    points (Dnasa2's FFT kernel).

    Each of the ``log2 N`` stages reads and writes both endpoints of every
    butterfly; elements are *element_words* words (real + imaginary).
    """
    _check_positive(n_points, "n_points")
    if n_points & (n_points - 1):
        raise WorkloadError(f"n_points must be a power of two, got {n_points}")
    addr_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []
    indices = np.arange(n_points, dtype=np.int64)
    span = 1
    while span < n_points:
        partner = indices ^ span
        lower = indices[indices < partner]
        upper = partner[indices < partner]
        # load both, store both — classic butterfly
        pair_sequence = np.stack([lower, upper, lower, upper], axis=1).reshape(-1)
        writes = np.tile(np.array([False, False, True, True]), lower.size)
        for word in range(element_words):
            addr_parts.append(base + (pair_sequence * element_words + word) * WORD_BYTES)
            write_parts.append(writes)
        span *= 2
    return np.concatenate(addr_parts), np.concatenate(write_parts)


def stencil_sweeps(
    base: int,
    n: int,
    *,
    iterations: int = 1,
    points: int = 5,
) -> StreamPair:
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
    rows = np.arange(1, n - 1, dtype=np.int64)
    cols = np.arange(1, n - 1, dtype=np.int64)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    centre = (rr * n + cc).ravel()
    if points == 5:
        neighbour_offsets = np.array([-n, -1, 1, n], dtype=np.int64)
    else:
        neighbour_offsets = np.array(
            [-n - 1, -n, -n + 1, -1, 1, n - 1, n, n + 1], dtype=np.int64
        )
    per_cell = np.concatenate([neighbour_offsets, np.zeros(1, dtype=np.int64)])
    cell_addresses = centre[:, None] + per_cell[None, :]
    writes_one = np.zeros(per_cell.size, dtype=bool)
    writes_one[-1] = True
    one_iteration = base + cell_addresses.reshape(-1) * WORD_BYTES
    one_writes = np.tile(writes_one, centre.size)
    return (
        np.tile(one_iteration, iterations),
        np.tile(one_writes, iterations),
    )


def quicksort_scans(
    base: int,
    n_words: int,
    *,
    min_run_words: int = 64,
    write_every: int = 5,
    bottom_repeats: int = 3,
) -> StreamPair:
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
    addr_parts: list[np.ndarray] = []
    # Iterative depth-first traversal of the recursion tree.
    stack: list[tuple[int, int]] = [(0, n_words)]
    while stack:
        lo, hi = stack.pop()
        length = hi - lo
        if length <= 0:
            continue
        run = base + np.arange(lo, hi, dtype=np.int64) * WORD_BYTES
        if length > min_run_words:
            addr_parts.append(run)
            mid = lo + length // 2
            # Push right first so the left half is scanned immediately
            # after its parent (short reuse distance).
            stack.append((mid, hi))
            stack.append((lo, mid))
        else:
            # The insertion-sort bottom makes several passes over each
            # min-run — the dense reuse that keeps even 1 KB caches at a
            # traffic ratio near 1 for sorting codes.
            addr_parts.extend([run] * bottom_repeats)
    addresses = np.concatenate(addr_parts)
    writes = np.zeros(addresses.size, dtype=bool)
    if write_every > 0:
        writes[write_every - 1:: write_every] = True
    return addresses, writes


def fft2d_passes(base: int, rows: int, cols: int) -> StreamPair:
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
    parts: list[StreamPair] = []
    for row in range(rows):
        parts.append(
            fft_butterflies(
                base + row * row_stride * WORD_BYTES, cols,
                element_words=element_words,
            )
        )
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


def merge_sort_passes(base: int, n_words: int) -> StreamPair:
    """Reference stream of a bottom-up merge sort over *n_words* words.

    Each of the ``log2 N`` passes streams the whole array once as reads
    (from the source buffer) and once as writes (to the destination buffer),
    alternating buffers — the O(N log N / log S) traffic shape of Table 2.
    """
    _check_positive(n_words, "n_words")
    if n_words & (n_words - 1):
        raise WorkloadError(f"n_words must be a power of two, got {n_words}")
    passes = max(1, int(np.log2(n_words)))
    src = base
    dst = base + n_words * WORD_BYTES
    addr_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []
    index = np.arange(n_words, dtype=np.int64) * WORD_BYTES
    for _ in range(passes):
        merged = np.stack([src + index, dst + index], axis=1).reshape(-1)
        addr_parts.append(merged)
        writes = np.zeros(merged.size, dtype=bool)
        writes[1::2] = True
        write_parts.append(writes)
        src, dst = dst, src
    return np.concatenate(addr_parts), np.concatenate(write_parts)


def round_robin(
    streams: Sequence[StreamPair],
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
    unlimited result's prefix. The schedule then covers only the rounds that
    prefix spans, and the gather reads only the prefix of each stream those
    rounds consume.
    """
    if not streams:
        raise WorkloadError("round_robin needs at least one stream")
    if len(chunks) != len(streams):
        raise WorkloadError(
            f"{len(streams)} streams but {len(chunks)} chunk sizes"
        )
    chunk = np.asarray(chunks, dtype=np.int64)
    if chunk.min() < 1:
        raise WorkloadError(f"chunk sizes must be positive, got {list(chunks)}")
    lengths = np.array([s[0].size for s in streams], dtype=np.int64)
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
    # Gather from one pool holding the consumed prefix of each stream.
    used = sizes.reshape(rounds, len(streams)).sum(axis=0)
    pool_base = np.cumsum(used) - used
    source = (starts + pool_base).ravel() - (ends - sizes)
    index = np.arange(int(used.sum()), dtype=np.int64) + np.repeat(source, sizes)
    stream_ids = np.arange(len(streams), dtype=np.int64)
    owner = np.repeat(np.tile(stream_ids, rounds), sizes)
    pool_addresses = np.concatenate([s[0][:n] for s, n in zip(streams, used)])
    pool_writes = np.concatenate([s[1][:n] for s, n in zip(streams, used)])
    return pool_addresses[index], pool_writes[index], owner


def interleave_streams(
    rng: np.random.Generator,
    streams: list[StreamPair],
    *,
    chunk: int = 64,
    limit: int | None = None,
) -> StreamPair:
    """Interleave several streams in round-robin chunks.

    Models phase-interleaved program behaviour (e.g. Perl alternating hash
    probing with string scanning) while keeping each stream's internal
    order. The longest stream advances *chunk* references per round and
    shorter streams proportionally fewer, so all streams finish together —
    a truncated prefix of the result then preserves each stream's share of
    the reference mix. *limit* builds only that prefix (see
    :func:`round_robin`); chunk sizes still come from the full lengths.
    """
    _check_positive(chunk, "chunk")
    if not streams:
        raise WorkloadError("interleave_streams needs at least one stream")
    longest = max(s[0].size for s in streams)
    if longest == 0:
        raise WorkloadError("cannot interleave empty streams")
    chunk_sizes = [
        max(1, round(chunk * s[0].size / longest)) for s in streams
    ]
    del rng  # reserved for future randomized interleaving
    addresses, writes, _ = round_robin(streams, chunk_sizes, limit=limit)
    return addresses, writes


def concat_streams(
    streams: list[StreamPair], *, limit: int | None = None
) -> StreamPair:
    """Concatenate streams back-to-back (program phases in sequence).

    *limit* builds only the first *limit* references.
    """
    if not streams:
        raise WorkloadError("concat_streams needs at least one stream")
    if limit is not None:
        _check_positive(limit, "limit")
        ends = np.cumsum([s[0].size for s in streams])
        streams = streams[: int(np.searchsorted(ends, limit)) + 1]
    return (
        np.concatenate([s[0] for s in streams])[:limit],
        np.concatenate([s[1] for s in streams])[:limit],
    )


def truncate(pair: StreamPair, limit: int) -> StreamPair:
    """Clip a stream to at most *limit* references."""
    _check_positive(limit, "limit")
    addresses, writes = pair
    return addresses[:limit], writes[:limit]


def to_trace(pair: StreamPair, name: str = "") -> MemTrace:
    """Wrap a stream pair into a :class:`MemTrace`."""
    addresses, writes = pair
    return MemTrace(addresses, writes, name=name)
