"""Tests for the synthetic address-stream building blocks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.scenario.mixer import OFFSET_STEP, interleave_weighted
from repro.trace import synth
from repro.trace.model import MemTrace


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSweep:
    def test_addresses_and_passes(self):
        addresses, writes = synth.sweep(100, 4, passes=2).take()
        assert addresses.tolist() == [100, 104, 108, 112] * 2
        assert not writes.any()

    def test_write_every(self):
        _, writes = synth.sweep(0, 8, write_every=4).take()
        assert writes.tolist() == [False, False, False, True] * 2

    def test_stride(self):
        addresses, _ = synth.sweep(0, 8, stride_words=2).take()
        assert addresses.tolist() == [0, 8, 16, 24]

    def test_repeats_issue_consecutive_duplicates(self):
        addresses, _ = synth.sweep(0, 2, repeats=3).take()
        assert addresses.tolist() == [0, 0, 0, 4, 4, 4]

    def test_invalid_args(self):
        with pytest.raises(WorkloadError):
            synth.sweep(0, 0)
        with pytest.raises(WorkloadError):
            synth.sweep(0, 4, passes=0)


class TestColumnSweep:
    def test_visits_columns_outermost(self):
        addresses, _ = synth.column_sweep(0, rows=2, row_words=3).take()
        # column 0: words 0, 3; column 1: words 1, 4; column 2: words 2, 5
        assert (addresses // 4).tolist() == [0, 3, 1, 4, 2, 5]

    def test_total_references(self):
        addresses, _ = synth.column_sweep(0, 5, 7, passes=2).take()
        assert addresses.size == 5 * 7 * 2


class TestInterleavedSweep:
    def test_lockstep_ordering(self):
        addresses, writes = synth.interleaved_sweep([0, 1000], 2).take()
        assert addresses.tolist() == [0, 1000, 4, 1004]

    def test_write_last_array(self):
        _, writes = synth.interleaved_sweep(
            [0, 1000], 2, write_last_array=True
        ).take()
        assert writes.tolist() == [False, True, False, True]

    def test_no_arrays_rejected(self):
        with pytest.raises(WorkloadError):
            synth.interleaved_sweep([], 4)


class TestProbes:
    def test_random_probes_stay_in_table(self, rng):
        addresses, _ = synth.random_probes(rng, 1000, 64, 500).take()
        assert addresses.min() >= 1000
        assert addresses.max() < 1000 + 64 * 4

    def test_random_probes_write_fraction(self, rng):
        _, writes = synth.random_probes(
            rng, 0, 64, 5000, write_fraction=0.5
        ).take()
        assert 0.4 < writes.mean() < 0.6

    def test_hot_fraction_requires_hot_words(self, rng):
        with pytest.raises(WorkloadError):
            synth.random_probes(rng, 0, 64, 10, hot_fraction=0.5)

    def test_hot_region_concentrates_probes(self, rng):
        addresses, _ = synth.random_probes(
            rng, 0, 10_000, 5000, hot_fraction=0.9, hot_words=16
        ).take()
        hot_hits = (addresses < 16 * 4).mean()
        assert hot_hits > 0.8

    def test_zipf_head_is_hot(self, rng):
        addresses, _ = synth.zipf_probes(rng, 0, 1000, 20_000, alpha=1.2).take()
        counts = np.bincount(addresses // 4, minlength=1000)
        top10_share = np.sort(counts)[-10:].sum() / counts.sum()
        assert top10_share > 0.25

    def test_zipf_alpha_validated(self, rng):
        with pytest.raises(WorkloadError):
            synth.zipf_probes(rng, 0, 100, 10, alpha=0.0)


class TestPointerChain:
    def test_node_words_touched_consecutively(self, rng):
        addresses, _ = synth.pointer_chain(
            rng, 0, nodes=8, node_words=3, count=4
        ).take()
        words = addresses // 4
        # Each visit touches 3 consecutive words of one node.
        for i in range(0, words.size, 3):
            chunk = words[i : i + 3]
            assert chunk.tolist() == list(range(chunk[0], chunk[0] + 3))

    def test_locality_validated(self, rng):
        with pytest.raises(WorkloadError):
            synth.pointer_chain(rng, 0, 8, 2, 4, locality=1.0)


class TestKernels:
    def test_tiled_mxm_footprint(self):
        addresses, writes = synth.tiled_matrix_multiply(
            0, 10_000, 20_000, 8, 4
        ).take()
        trace = MemTrace(addresses, writes)
        # Three 8x8 matrices touched entirely.
        assert trace.footprint_bytes == 3 * 8 * 8 * 4

    def test_tiled_mxm_writes_only_c(self):
        addresses, writes = synth.tiled_matrix_multiply(
            0, 10_000, 20_000, 8, 4
        ).take()
        assert addresses[writes].min() >= 20_000

    def test_tile_must_divide_side(self):
        with pytest.raises(WorkloadError):
            synth.tiled_matrix_multiply(0, 1, 2, 10, 4)

    def test_fft_reference_count(self):
        addresses, _ = synth.fft_butterflies(0, 8, element_words=2).take()
        # log2(8)=3 stages x 4 pairs x 4 refs x 2 words = 96
        assert addresses.size == 3 * 4 * 4 * 2

    def test_fft_requires_power_of_two(self):
        with pytest.raises(WorkloadError):
            synth.fft_butterflies(0, 12)

    def test_fft2d_has_row_and_column_phases(self):
        addresses, _ = synth.fft2d_passes(0, 4, 8).take()
        assert addresses.size > 0
        # Column phase strides are the padded row (odd word count).
        assert (8 * 2 + 1) % 2 == 1

    def test_stencil_writes_centre_only(self):
        addresses, writes = synth.stencil_sweeps(0, 4, points=5).take()
        # 4x4 grid -> 2x2 interior cells, 5 refs each, centre written last
        assert addresses.size == 4 * 5
        assert writes.tolist() == ([False] * 4 + [True]) * 4

    def test_stencil_rejects_unknown_points(self):
        with pytest.raises(WorkloadError):
            synth.stencil_sweeps(0, 4, points=7)

    def test_merge_sort_alternates_read_write(self):
        addresses, writes = synth.merge_sort_passes(0, 8).take()
        assert writes.tolist()[:4] == [False, True, False, True]

    def test_quicksort_scans_have_log_levels(self):
        addresses, _ = synth.quicksort_scans(0, 64, min_run_words=8,
                                             bottom_repeats=1).take()
        # levels: 64, 2x32, 4x16, 8x8 -> 4 full passes over the array
        assert addresses.size == 4 * 64

    def test_quicksort_bottom_repeats(self):
        single = synth.quicksort_scans(
            0, 64, min_run_words=8, bottom_repeats=1
        ).take()
        triple = synth.quicksort_scans(
            0, 64, min_run_words=8, bottom_repeats=3
        ).take()
        assert triple[0].size == single[0].size + 2 * 64


class TestCombinators:
    def test_interleave_preserves_stream_order(self, rng):
        a = synth.sweep(0, 64)
        b = synth.sweep(10_000, 64)
        addresses, _ = synth.interleave_streams(rng, [a, b], chunk=8).take()
        from_a = addresses[addresses < 10_000]
        assert np.all(np.diff(from_a) > 0)

    def test_interleave_preserves_total_counts(self, rng):
        a = synth.sweep(0, 100)
        b = synth.sweep(10_000, 37)
        addresses, _ = synth.interleave_streams(rng, [a, b], chunk=8).take()
        assert addresses.size == 137

    def test_interleave_proportional_chunks_preserve_prefix_mix(self, rng):
        # A truncated prefix keeps each stream's share of references.
        a = synth.sweep(0, 1000)
        b = synth.sweep(100_000, 250)
        addresses, _ = synth.interleave_streams(rng, [a, b], chunk=40).take()
        prefix = addresses[:500]
        share_b = (prefix >= 100_000).mean()
        assert 0.1 < share_b < 0.3  # 250/1250 = 0.2

    def test_interleave_empty_streams_rejected(self, rng):
        with pytest.raises(WorkloadError):
            synth.interleave_streams(rng, [])

    def test_concat(self):
        a = synth.sweep(0, 4)
        b = synth.sweep(100, 4)
        addresses, _ = synth.concat_streams([a, b]).take()
        assert addresses.tolist()[:4] == [0, 4, 8, 12]
        assert addresses.tolist()[4:] == [100, 104, 108, 112]

    @pytest.mark.parametrize("limit", [1, 4, 5, 8, 9])
    def test_concat_limit_is_a_prefix(self, limit):
        streams = [synth.sweep(0, 4), synth.sweep(100, 4)]
        addresses, writes = synth.concat_streams(streams).take(limit)
        whole = synth.concat_streams(streams).take()
        assert addresses.tolist() == whole[0][:limit].tolist()
        assert writes.tolist() == whole[1][:limit].tolist()

    def test_truncate(self):
        pair = synth.truncate(synth.sweep(0, 100), 10).take()
        assert pair[0].size == 10

    def test_to_trace(self):
        trace = synth.to_trace(synth.sweep(0, 4), name="x")
        assert isinstance(trace, MemTrace)
        assert trace.name == "x"


def reference_round_robin(streams, chunks):
    """The per-round chunk loop :func:`synth.round_robin` vectorizes —
    the reference it is checked against."""
    addr_parts, write_parts, owner_parts = [], [], []
    cursors = [0] * len(streams)
    live = set(range(len(streams)))
    while live:
        for index in sorted(live):
            addresses, writes = streams[index]
            start = cursors[index]
            stop = min(start + chunks[index], addresses.size)
            addr_parts.append(addresses[start:stop])
            write_parts.append(writes[start:stop])
            owner_parts.append(np.full(stop - start, index, dtype=np.int64))
            cursors[index] = stop
            if stop >= addresses.size:
                live.discard(index)
    return (
        np.concatenate(addr_parts),
        np.concatenate(write_parts),
        np.concatenate(owner_parts),
    )


@st.composite
def stream_sets(draw):
    """1-5 streams of 0-300 word-aligned refs; every (stream, position)
    has its own address, so any reordering shows."""
    lengths = draw(st.lists(st.integers(0, 300), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [
        (
            (index << 20) + np.arange(length, dtype=np.int64) * 4,
            rng.random(length) < 0.3,
        )
        for index, length in enumerate(lengths)
    ]


def as_streams(pairs):
    """Wrap built ``(addresses, is_write)`` pairs as kernel inputs."""
    return [synth.from_arrays(*pair) for pair in pairs]


def assert_same_arrays(actual, expected):
    for got, want in zip(actual, expected, strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestRoundRobinKernel:
    @settings(max_examples=200, deadline=None)
    @given(streams=stream_sets(), data=st.data())
    def test_matches_reference_loop(self, streams, data):
        chunks = data.draw(
            st.lists(
                st.integers(1, 100),
                min_size=len(streams),
                max_size=len(streams),
            )
        )
        expected = reference_round_robin(streams, chunks)
        total = expected[0].size
        limit = data.draw(st.integers(1, total + 5))
        assert_same_arrays(
            synth.round_robin(as_streams(streams), chunks), expected
        )
        assert_same_arrays(
            synth.round_robin(as_streams(streams), chunks, limit=limit),
            [array[:limit] for array in expected],
        )

    @settings(max_examples=100, deadline=None)
    @given(streams=stream_sets(), data=st.data())
    def test_weighted_mixer_matches_reference_loop(self, streams, data):
        quantum = data.draw(st.integers(1, 20))
        weights = data.draw(
            st.lists(
                st.integers(1, 5),
                min_size=len(streams),
                max_size=len(streams),
            )
        )
        addresses, writes, owner = reference_round_robin(
            streams, [quantum * weight for weight in weights]
        )
        limit = data.draw(st.integers(1, addresses.size + 5))
        expected = (
            addresses + owner * OFFSET_STEP,
            writes,
            owner.astype(np.int16),
        )
        assert_same_arrays(
            interleave_weighted(
                as_streams(streams), quantum=quantum, weights=weights
            ),
            expected,
        )
        assert_same_arrays(
            interleave_weighted(
                as_streams(streams), quantum=quantum, weights=weights,
                limit=limit,
            ),
            [array[:limit] for array in expected],
        )

    @settings(max_examples=100, deadline=None)
    @given(streams=stream_sets(), quantum=st.integers(1, 100))
    def test_interference_interleave_matches_reference_loop(
        self, streams, quantum
    ):
        """Unit weights are the plain quantum round-robin of threads
        sharing one cache, each in its own 1 GB window."""
        addresses, writes, owner = reference_round_robin(
            streams, [quantum] * len(streams)
        )
        assert_same_arrays(
            interleave_weighted(
                as_streams(streams),
                quantum=quantum,
                weights=[1] * len(streams),
            ),
            (addresses + owner * (1 << 30), writes, owner.astype(np.int16)),
        )

    def test_limit_stops_inside_a_chunk(self):
        head = (np.arange(10, dtype=np.int64) * 4, np.zeros(10, dtype=bool))
        tail = (np.arange(1000, dtype=np.int64) * 4, np.ones(1000, dtype=bool))
        addresses, writes, owner = synth.round_robin(
            as_streams([head, tail]), [5, 100], limit=7
        )
        assert addresses.tolist() == [0, 4, 8, 12, 16, 0, 4]
        assert owner.tolist() == [0] * 5 + [1] * 2
        assert writes.tolist() == [False] * 5 + [True] * 2

    @pytest.mark.parametrize(
        "chunks, match", [([0], "positive"), ([1, 2], "chunk sizes")]
    )
    def test_bad_chunks_rejected(self, chunks, match):
        with pytest.raises(WorkloadError, match=match):
            synth.round_robin([synth.sweep(0, 4)], chunks)

    def test_non_positive_limit_rejected(self):
        with pytest.raises(WorkloadError, match="limit"):
            synth.round_robin([synth.sweep(0, 4)], [2], limit=0)

    def test_all_empty_streams_give_empty_arrays(self):
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        addresses, writes, owner = synth.round_robin(
            as_streams([empty, empty]), [3, 4]
        )
        assert addresses.size == writes.size == owner.size == 0
        assert addresses.dtype == np.int64 and writes.dtype == bool


def nested_interleave():
    rng = np.random.default_rng(0)
    inner = synth.interleave_streams(
        rng, [synth.sweep(0, 7, passes=3), synth.sweep(400, 5)], chunk=4
    )
    return synth.interleave_streams(
        rng, [inner, synth.column_sweep(800, 3, 5, write_every=2)], chunk=6
    )


def repeated_concat():
    head = synth.fft_butterflies(0, 4)
    return synth.concat_streams([head, synth.sweep(400, 3), head])


class TestStreamPrefixes:
    """``take(n)`` is the whole stream cut at *n*, for every kernel and
    every *n*, including prefixes that end inside a period and exactly on
    one; ``size`` is the whole stream's length."""

    KERNELS = {
        "sweep": lambda: synth.sweep(
            40, 5, passes=3, stride_words=2, write_every=4, repeats=2
        ),
        "column_sweep": lambda: synth.column_sweep(
            0, 3, 4, passes=2, write_every=5
        ),
        "interleaved_sweep": lambda: synth.interleaved_sweep(
            [0, 400, 800], 4, passes=2
        ),
        "random_probes": lambda: synth.random_probes(
            np.random.default_rng(1), 0, 50, 30, write_fraction=0.4,
            hot_fraction=0.5, hot_words=4,
        ),
        "zipf_probes": lambda: synth.zipf_probes(
            np.random.default_rng(2), 0, 50, 30, write_fraction=0.4
        ),
        "pointer_chain": lambda: synth.pointer_chain(
            np.random.default_rng(3), 0, 5, 3, 12
        ),
        "pointer_chain_local": lambda: synth.pointer_chain(
            np.random.default_rng(4), 0, 5, 3, 12, locality=0.5
        ),
        "tiled_matrix_multiply": lambda: synth.tiled_matrix_multiply(
            0, 1000, 2000, 4, 2
        ),
        "fft_butterflies": lambda: synth.fft_butterflies(0, 8),
        "stencil_sweeps": lambda: synth.stencil_sweeps(
            0, 6, iterations=2, points=9
        ),
        "quicksort_scans": lambda: synth.quicksort_scans(
            0, 40, min_run_words=6, write_every=3
        ),
        "fft2d_passes": lambda: synth.fft2d_passes(0, 4, 4),
        "merge_sort_passes": lambda: synth.merge_sort_passes(0, 8),
        "nested_interleave": nested_interleave,
        "repeated_concat": repeated_concat,
        "truncate": lambda: synth.truncate(synth.sweep(0, 9, passes=2), 13),
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_prefix_is_the_whole_stream_cut(self, name):
        stream = self.KERNELS[name]()
        addresses, writes = stream.take()
        assert addresses.size == writes.size == stream.size > 0
        assert addresses.dtype == np.int64 and writes.dtype == bool
        for n in range(stream.size + 2):
            prefix = stream.take(n)
            assert prefix[0].tolist() == addresses[:n].tolist(), n
            assert prefix[1].tolist() == writes[:n].tolist(), n

    def test_concat_builds_a_repeated_part_once(self):
        calls = []
        part = synth.sweep(0, 4)
        spy = synth.Stream(part.size, lambda n: calls.append(n) or part.take(n))
        addresses, _ = synth.concat_streams([spy, synth.sweep(400, 2)] * 3).take()
        assert calls == [4]
        assert (addresses // 4).tolist() == [0, 1, 2, 3, 100, 101] * 3

    def test_interleave_takes_only_the_consumed_prefixes(self, rng):
        asked = []

        def spy(stream):
            return synth.Stream(
                stream.size, lambda n: asked.append(n) or stream.take(n)
            )

        long, short = spy(synth.sweep(0, 1000)), spy(synth.sweep(8000, 100))
        synth.interleave_streams(rng, [long, short], chunk=50).take(120)
        # Rounds take 50 + 5 references: three rounds reach 120.
        assert asked == [110, 10]


class TestZipfWords:
    """:func:`synth.zipf_words` splits ``rng.choice(n, size=k, p=w)`` into
    its steps so that a prefix pays only its own lookups. It must give the
    same indices and leave the generator in the same state; a numpy release
    that changes ``choice`` fails here by name, not as digest mismatches."""

    @pytest.mark.parametrize(
        "table_words, alpha",
        [
            pytest.param(48, 1.35, id="espresso-rows"),
            pytest.param(384, 1.25, id="compress-hot-table"),
            pytest.param(196_608, 1.0, id="vortex-index"),
            pytest.param(1_441_792, 1.05, id="perl-heap"),
        ],
    )
    def test_matches_permuted_choice(self, table_words, alpha):
        count = 20_000
        weights = np.arange(1, table_words + 1, dtype=np.float64) ** (-alpha)
        weights /= weights.sum()
        reference_rng = np.random.default_rng(5)
        permutation = reference_rng.permutation(table_words)
        expected = permutation[
            reference_rng.choice(table_words, size=count, p=weights)
        ]
        rng = np.random.default_rng(5)
        words = synth.zipf_words(rng, table_words, count, alpha=alpha)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert np.array_equal(words(count), expected)
        assert np.array_equal(words(777), expected[:777])

    def test_a_table_costs_one_float_array_beside_its_permutation(self):
        table_words = 1_441_792  # Perl's heap
        tracemalloc.start()
        try:
            synth.zipf_words(
                np.random.default_rng(0), table_words, 1000, alpha=1.05
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The CDF and the permutation are two table-sized 8-byte arrays.
        assert peak < 2.5 * table_words * 8


class TestDeterminism:
    """Every rng-driven builder is a pure function of the generator state
    — the property the scenario engine's content addressing rests on."""

    BUILDERS = {
        "random_probes": lambda rng: synth.random_probes(
            rng, 0, 1000, 500, write_fraction=0.3,
            hot_fraction=0.5, hot_words=16,
        ).take(),
        "zipf_probes": lambda rng: synth.zipf_probes(
            rng, 0, 1000, 500, alpha=1.2, write_fraction=0.3
        ).take(),
        "pointer_chain": lambda rng: synth.pointer_chain(
            rng, 0, 64, 4, 500, locality=0.5
        ).take(),
        "interleave_streams": lambda rng: synth.interleave_streams(
            rng, [synth.sweep(0, 64), synth.sweep(4096, 64)], chunk=8
        ).take(),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_same_seed_same_stream(self, name):
        build = self.BUILDERS[name]
        a = build(np.random.default_rng(11))
        b = build(np.random.default_rng(11))
        c = build(np.random.default_rng(12))
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()
        if name != "interleave_streams":  # its schedule is seed-free
            assert a[0].tolist() != c[0].tolist()

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_stream_pair_shape_contract(self, name):
        addresses, writes = self.BUILDERS[name](np.random.default_rng(3))
        assert addresses.dtype == np.int64
        assert writes.dtype == bool
        assert addresses.shape == writes.shape


class TestSizeOneEdgeCases:
    def test_single_word_sweep_write_every_one(self):
        addresses, writes = synth.sweep(0, 1, write_every=1).take()
        assert addresses.tolist() == [0]
        assert writes.tolist() == [True]

    def test_single_word_sweep_repeats_count_toward_write_every(self):
        addresses, writes = synth.sweep(0, 1, repeats=3, write_every=2).take()
        assert addresses.tolist() == [0, 0, 0]
        # write_every counts references, not distinct words: the cadence
        # keeps ticking through consecutive repeats.
        assert writes.tolist() == [False, True, False]

    def test_single_word_passes(self):
        addresses, writes = synth.sweep(0, 1, passes=2).take()
        assert addresses.tolist() == [0, 0]
        assert not writes.any()

    def test_single_probe(self):
        addresses, writes = synth.random_probes(
            np.random.default_rng(0), 0, 1, 1, write_fraction=1.0
        ).take()
        assert addresses.tolist() == [0]
        assert writes.tolist() == [True]
