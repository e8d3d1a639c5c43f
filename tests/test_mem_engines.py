"""Differential property suite for the vectorized simulation engines.

Every vector kernel in :mod:`repro.mem.engines` must produce
*bit-identical* :class:`~repro.mem.cache.CacheStats` to the scalar
reference loops — not statistically close, exactly equal — across
associativities, block sizes, write policies, allocation policies, and
flush settings. These tests are the contract that lets experiments pick
engines freely (and cache results) without the choice ever being
observable.
"""

import dataclasses
import hashlib
import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.runner import ScaledAxis
from repro.experiments.scenarios import SCENARIO_SPECS
from repro.mem import engines
from repro.mem import cache as cache_module
from repro.mem.cache import (
    AllocatePolicy,
    Cache,
    CacheConfig,
    CacheStats,
    WritePolicy,
)
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.scenario.spec import ScenarioSpec
from repro.scenario.workload import ScenarioWorkload
from repro.trace.model import MemTrace
from repro.workloads.registry import (
    all_workloads,
    get_workload,
    workload_names,
)


def stats_key(stats):
    """Every externally-visible CacheStats field, as one tuple."""
    return (
        stats.accesses,
        stats.reads,
        stats.writes,
        stats.read_hits,
        stats.write_hits,
        stats.fetch_bytes,
        stats.writeback_bytes,
        stats.writethrough_bytes,
        stats.flush_writeback_bytes,
    )


def make_trace(kind: str, n: int, seed: int) -> MemTrace:
    rng = np.random.default_rng(seed)
    if kind == "mix":
        addrs = rng.integers(0, max(4, n // 2), size=n) * 4
    elif kind == "seq":
        addrs = (np.arange(n) % max(4, n // 3)) * 4
    else:  # hot: a small hot region plus a cold tail
        hot = rng.integers(0, 16, size=n)
        cold = rng.integers(0, max(4, n * 2), size=n)
        addrs = np.where(rng.random(n) < 0.7, hot, cold) * 4
    return MemTrace(
        addrs.astype(np.int64), rng.random(n) < 0.3, name=f"{kind}-{n}"
    )


def traces(max_words: int = 200, max_len: int = 400):
    return st.builds(
        lambda addrs, writes: MemTrace(
            np.asarray(addrs, dtype=np.int64) * 4,
            np.asarray((writes + [False] * len(addrs))[: len(addrs)]),
        ),
        st.lists(st.integers(0, max_words - 1), min_size=1, max_size=max_len),
        st.lists(st.booleans(), min_size=0, max_size=max_len),
    )


POLICY_COMBOS = [
    (WritePolicy.WRITEBACK, AllocatePolicy.WRITE_ALLOCATE),
    (WritePolicy.WRITEBACK, AllocatePolicy.WRITE_VALIDATE),
    (WritePolicy.WRITEBACK, AllocatePolicy.NO_ALLOCATE),
    (WritePolicy.WRITETHROUGH, AllocatePolicy.WRITE_ALLOCATE),
    (WritePolicy.WRITETHROUGH, AllocatePolicy.NO_ALLOCATE),
]


# --------------------------------------------------------------------------
# Set-associative LRU stack loop
# --------------------------------------------------------------------------

#: (size, block, associativity, replacement). At associativity 1 every
#: combination but write-back/write-allocate runs through the stack loop,
#: where any replacement policy's victim is forced; (512, 32, 16) is one
#: fully-associative set; 256-byte blocks carry 64-word write-validate
#: masks, 512-byte blocks 128-word ones.
LOOP_GEOMETRIES = [
    (256, 16, 2, "lru"),
    (1024, 32, 4, "lru"),
    (4096, 32, 8, "lru"),
    (512, 64, 2, "lru"),
    (256, 16, 1, "lru"),
    (256, 16, 1, "fifo"),
    (256, 16, 1, "random"),
    (256, 16, 1, "min"),
    (512, 32, 16, "lru"),
    (512, 256, 1, "lru"),
    (1024, 512, 2, "lru"),
]


def loop_config(geometry, write_policy, allocate):
    size, block, assoc, replacement = geometry
    return CacheConfig(
        size_bytes=size,
        block_bytes=block,
        associativity=assoc,
        replacement=replacement,
        write_policy=write_policy,
        allocate=allocate,
    )


@settings(max_examples=100, deadline=None)
@given(
    trace=traces(),
    geometry=st.sampled_from(LOOP_GEOMETRIES),
    policies=st.sampled_from(POLICY_COMBOS),
    flush=st.booleans(),
)
def test_columns_match_scalar(trace, geometry, policies, flush):
    config = loop_config(geometry, *policies)
    scalar = Cache(config).simulate(trace, flush=flush, engine="scalar")
    vector = Cache(config).simulate(trace, flush=flush, engine="vector")
    assert stats_key(scalar) == stats_key(vector)


def test_columns_match_scalar_dense_grid():
    """Deterministic sweep over every policy combo and several shapes."""
    shapes = [
        (256, 16, 2, "lru"),
        (1024, 32, 4, "lru"),
        (65536, 32, 4, "lru"),
        (256, 16, 1, "lru"),
        (256, 16, 1, "fifo"),
        (256, 16, 1, "random"),
        (1024, 32, 32, "lru"),
        (1024, 512, 2, "lru"),
    ]
    for kind in ("mix", "seq", "hot"):
        trace = make_trace(kind, 800, seed=11)
        for geometry in shapes:
            for write_policy, allocate in POLICY_COMBOS:
                config = loop_config(geometry, write_policy, allocate)
                scalar = Cache(config).simulate(trace, engine="scalar")
                vector = Cache(config).simulate(trace, engine="vector")
                assert stats_key(scalar) == stats_key(vector), (
                    kind,
                    config.describe(),
                )


def test_columns_empty_trace():
    empty = MemTrace(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
    config = CacheConfig(size_bytes=1024, block_bytes=32, associativity=4)
    assert stats_key(Cache(config).simulate(empty, engine="vector")) == (
        stats_key(Cache(config).simulate(empty, engine="scalar"))
    )


# --------------------------------------------------------------------------
# Stack-distance kernel (write-back/write-allocate LRU up to 8 ways)
# --------------------------------------------------------------------------


def few_blocks_per_set(ways: int, sets: int, max_len: int = 300):
    """Block numbers over a few more blocks per set than *ways*, so that
    windows stay open past the scan rounds and reach the lifting step."""
    return st.lists(
        st.integers(0, (ways + 3) * sets - 1), min_size=1, max_size=max_len
    )


@settings(max_examples=200, deadline=None)
@given(
    ways=st.sampled_from([1, 2, 4, 8, 16, 32]),
    sets=st.sampled_from([1, 2, 4]),
    data=st.data(),
    flush=st.booleans(),
    rounds=st.integers(0, 3),
)
def test_stack_kernel_matches_scalar(ways, sets, data, flush, rounds):
    """Every write-back/write-allocate LRU cache a ``CacheConfig`` can
    hold (power-of-two ways): the kernel up to 8 ways, after 0-3 scan
    rounds, and the stack loop at 16 and 32."""
    blocks = data.draw(few_blocks_per_set(ways, sets))
    n = len(blocks)
    words = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    writes = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    trace = MemTrace(
        np.asarray(blocks, dtype=np.int64) * 16 + np.asarray(words) * 4,
        np.asarray(writes, dtype=bool),
    )
    config = CacheConfig(
        size_bytes=16 * ways * sets, block_bytes=16, associativity=ways
    )
    scalar = Cache(config).simulate(trace, flush=flush, engine="scalar")
    with mock.patch.object(engines, "_SCAN_ROUNDS", rounds):
        vector = Cache(config).simulate(trace, flush=flush, engine="vector")
    assert stats_key(vector) == stats_key(scalar)


@settings(max_examples=200, deadline=None)
@given(
    ways=st.integers(1, 17),
    sets=st.sampled_from([1, 2, 4]),
    data=st.data(),
    rounds=st.integers(0, 3),
    levels=st.integers(1, 3),
)
def test_stack_kernel_matches_the_loop_at_any_ways(
    ways, sets, data, rounds, levels
):
    """The kernel against the stack loop at any number of ways, 17 too,
    which no ``CacheConfig`` holds, with lifting tables so short that a
    window's stretch takes several descents."""
    blocks = data.draw(few_blocks_per_set(ways, sets))
    n = len(blocks)
    writes = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    loop = engines._lru_writeback_allocate(
        blocks, writes, [{} for _ in range(sets)], ways
    )
    with mock.patch.object(
        engines, "_SCAN_ROUNDS", rounds
    ), mock.patch.object(engines, "_LIFT_LEVELS", levels):
        kernel = engines._lru_stack_kernel(
            np.asarray(blocks, dtype=np.int64),
            np.asarray(writes, dtype=bool),
            sets,
            ways,
        )
    assert kernel == loop


@pytest.mark.parametrize(
    "ways,engine",
    [
        (engines.STACK_KERNEL_MAX_WAYS, "_lru_stack_kernel"),
        (2 * engines.STACK_KERNEL_MAX_WAYS, "_lru_writeback_allocate"),
    ],
)
def test_the_kernel_serves_up_to_its_cap(monkeypatch, ways, engine):
    """The kernel runs up to ``STACK_KERNEL_MAX_WAYS`` ways and the
    stack loop past it."""
    calls = []
    for name in ("_lru_stack_kernel", "_lru_writeback_allocate"):
        original = getattr(engines, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(engines, name, counting)
    config = CacheConfig(size_bytes=4096, block_bytes=32, associativity=ways)
    Cache(config).simulate(hot_set_trace(hot_blocks=ways), engine="vector")
    assert calls == [engine]


def test_three_hot_blocks_reach_the_lifting_step(monkeypatch):
    """Three blocks that share a set leave windows the scan rounds cannot
    settle; binary lifting settles them exactly."""
    trace = hot_set_trace(hot_blocks=3)
    lifted = []
    lifted_hits = engines._lifted_hits

    def counting(prev, begin, *rest):
        lifted.append(begin.size)
        return lifted_hits(prev, begin, *rest)

    monkeypatch.setattr(engines, "_lifted_hits", counting)
    config = CacheConfig(size_bytes=1024, block_bytes=32, associativity=4)
    vector = Cache(config).simulate(trace, engine="vector")
    assert sum(lifted) > 0
    scalar = Cache(config).simulate(trace, engine="scalar")
    assert stats_key(vector) == stats_key(scalar)


#: The request kinds of the benchmark's serve-cold workload: every SPEC92
#: workload and every committed scenario shape.
SERVE_COLD_KINDS = [("workload", name) for name in workload_names("SPEC92")]
SERVE_COLD_KINDS += [("scenario", name) for name in SCENARIO_SPECS]


@pytest.mark.parametrize("kind,name", SERVE_COLD_KINDS)
def test_serve_cold_requests_match_scalar(kind, name):
    """Each serve-cold request kind at every grid shape, 1-way included,
    at 3,000 references (served requests take 20,000)."""
    refs, seed = 3000, 3
    if kind == "workload":
        workload = get_workload(name)
    else:
        spec = dict(SCENARIO_SPECS[name], refs=refs, seed=seed)
        workload = ScenarioWorkload(ScenarioSpec.from_dict(spec))
    trace = workload.generate(seed=seed, max_refs=refs)
    sizes = sorted({size for size, _ in SERVE_COLD_SHAPES})
    for size, assoc in SERVE_COLD_SHAPES + [(size, 1) for size in sizes]:
        config = CacheConfig(
            size_bytes=size, block_bytes=32, associativity=assoc
        )
        vector = Cache(config).simulate(trace, engine="vector")
        scalar = Cache(config).simulate(trace, engine="scalar")
        assert stats_key(vector) == stats_key(scalar), (size, assoc)


# --------------------------------------------------------------------------
# Miss-jumping MTC engine
# --------------------------------------------------------------------------


MTC_POLICIES = [
    (allocate, bypass, flush)
    for allocate in (
        AllocatePolicy.WRITE_VALIDATE,
        AllocatePolicy.WRITE_ALLOCATE,
    )
    for bypass in (True, False)
    for flush in (True, False)
]


def assert_mtc_engines_agree(trace, size):
    """The fast MTC equals the scalar loop under every policy combination."""
    for allocate, bypass, flush in MTC_POLICIES:
        config = MTCConfig(size_bytes=size, allocate=allocate, bypass=bypass)
        scalar = MinimalTrafficCache(config).simulate(
            trace, flush=flush, engine="scalar"
        )
        fast = MinimalTrafficCache(config).simulate(
            trace, flush=flush, engine="vector"
        )
        assert stats_key(scalar) == stats_key(fast), (
            config.describe(),
            flush,
        )


def reuse_and_single_use_traces(max_len: int = 600):
    """A 32-word reused set mixed with words drawn from ~5000, most of
    which occur once, so the fill point lands mid-trace at most sizes."""
    reference = st.tuples(
        st.one_of(st.integers(0, 31), st.integers(32, 4999)), st.booleans()
    )
    return st.lists(reference, min_size=1, max_size=max_len).map(
        lambda refs: MemTrace(
            np.array([word for word, _ in refs], dtype=np.int64) * 4,
            np.array([write for _, write in refs], dtype=bool),
        )
    )


@settings(max_examples=100, deadline=None)
@given(
    trace=st.one_of(traces(), reuse_and_single_use_traces()),
    size=st.sampled_from([4 << k for k in range(11)]),
)
def test_mtc_fast_matches_scalar(trace, size):
    """Small word sets fill the MTC early or never; the single-use family
    puts the fill point mid-trace, so the dropped-word path runs."""
    assert_mtc_engines_agree(trace, size)


def distinct_words_trace(
    distinct: int, n: int = 400, seed: int = 9
) -> MemTrace:
    """*n* references over exactly *distinct* words, reads and writes."""
    rng = np.random.default_rng(seed)
    words = np.concatenate(
        [rng.permutation(distinct), rng.integers(0, distinct, n - distinct)]
    )
    rng.shuffle(words)
    return MemTrace(words.astype(np.int64) * 4, rng.random(n) < 0.4)


@pytest.mark.parametrize(
    "trace, size",
    [
        pytest.param(distinct_words_trace(40), 4, id="capacity-1"),
        pytest.param(distinct_words_trace(17), 64, id="capacity-distinct-1"),
        pytest.param(distinct_words_trace(16), 64, id="capacity-distinct"),
        pytest.param(
            MemTrace(np.array([12]), np.array([True])), 4, id="one-reference"
        ),
        pytest.param(
            MemTrace(
                np.arange(300, dtype=np.int64)[::-1] * 4,
                np.arange(300) % 3 == 0,
            ),
            64,
            id="all-single-use",
        ),
        pytest.param(
            MemTrace(
                np.random.default_rng(2).integers(0, 64, 500) * 4,
                np.ones(500, dtype=bool),
            ),
            64,
            id="all-write",
        ),
    ],
)
def test_mtc_fast_edge_cases(trace, size):
    assert_mtc_engines_agree(trace, size)


def test_mtc_prepared_from_another_trace_is_refused():
    """A reused pass-1 product must come from a trace of the same length."""
    prepared = engines.prepare_mtc(make_trace("mix", 300, seed=1))
    other = make_trace("mix", 301, seed=1)
    with pytest.raises(ConfigurationError, match="301-reference"):
        MinimalTrafficCache(MTCConfig(size_bytes=256)).simulate(
            other, engine="vector", prepared=prepared
        )


def test_mtc_prepared_reuse_across_sizes():
    """One pass-1 product serves every size of a row, bit-identically."""
    trace = make_trace("mix", 3000, seed=5)
    prepared = engines.prepare_mtc(trace)
    for size in (64, 256, 1024, 65536, 1 << 20):
        config = MTCConfig(size_bytes=size)
        scalar = MinimalTrafficCache(config).simulate(trace, engine="scalar")
        fast = MinimalTrafficCache(config).simulate(
            trace, engine="vector", prepared=prepared
        )
        assert stats_key(scalar) == stats_key(fast), size


#: Reference budget and trace seed of :data:`MTC_DIGESTS`.
MTC_DIGEST_REFS = 20_000
MTC_DIGEST_SEED = 0
#: (allocate, bypass) of each digest column, in order.
MTC_DIGEST_COLUMNS = (
    (AllocatePolicy.WRITE_VALIDATE, True),
    (AllocatePolicy.WRITE_VALIDATE, False),
    (AllocatePolicy.WRITE_ALLOCATE, True),
    (AllocatePolicy.WRITE_ALLOCATE, False),
)

#: SHA-256 over every ``CacheStats`` field of the fast MTC (flush on) at
#: each of Table 8's twelve simulated sizes, 256 B-512 KB, at the default
#: scale; one digest per (allocate, bypass) column above. Any change to
#: the fast MTC that moves one hit or one byte of traffic fails here.
MTC_DIGESTS = {
    "Compress": (
        "42a013f67079a32b26740ac1500791e680e521c1c7efcc844e9ae6347feca560",
        "07a12053465368d851cea9a6b974bc1d07a98399364faf2eea27ea8254de35e8",
        "b5c64e4b78ec34db05671be335c2c71738bdee47b5abdc5548e27be48d473a74",
        "882c786deb3e446f441afb8a62bad1a7077d6c58763536f00479857405f1b300",
    ),
    "Dnasa2": (
        "75a8729697b2f70ab6eb965fa0bd63f66fbe9b76fb79cfd9c2a58606e9a4d359",
        "75a8729697b2f70ab6eb965fa0bd63f66fbe9b76fb79cfd9c2a58606e9a4d359",
        "75a8729697b2f70ab6eb965fa0bd63f66fbe9b76fb79cfd9c2a58606e9a4d359",
        "75a8729697b2f70ab6eb965fa0bd63f66fbe9b76fb79cfd9c2a58606e9a4d359",
    ),
    "Eqntott": (
        "35e8ec19dbb242460fba399ba00126e8b1b77b964add3061c91d806d1156adcc",
        "9c4c0336a88d9f0975d160096ef41bf452e4cdd7e763894bf65b828df72ce977",
        "bb4685e8ca1fb1268f102320deaa99c879bb5ae4ab1c480139dcd3c773c1f206",
        "22f9d03088a0acf29e3bd1908ee65b367a78ef573f88d93b38064937e67ae922",
    ),
    "Espresso": (
        "4237861c06178d31d47359bc234b766498e52d0bc8f9b4c825d8af3bd45a60e8",
        "000affd90c88097af1b23349f858950d134f6041d8ff3cd70315c09e1d57848e",
        "8ad649fc59803f44026faac73210bc309e227c7b084fea9457703bec2221effe",
        "0276ab7cd008509bb3d8a103ffc7d182f75712794be94a8a853ebcbe4b6ecd2f",
    ),
    "Su2cor": (
        "82d0079902070dca176064987e5fd75bf0f13f9f869fbd7de50d62e2a7756cca",
        "26da0aa67a76205b30122dfe309e80cfe17ff70caf0c8db671e6dfbab9e422d2",
        "9b7b41e9929ead1a3c5fc85db32420b0cfcfb04c100670b47b1de23cb6919483",
        "425e50d60b3fb81303660ecebf63314a3e8102f6d2de48230ecfbe137a97fc20",
    ),
    "Swm": (
        "74ce8e15bd2581223fd60292fe701e0687d4a24bdb46f2676c487fe55eb782e5",
        "3623d6a5a828c5bf8235dae3986c156b831cc37c262451cf4107ced009567a33",
        "1ca62ceea599ce026a3375d9cb89e8015c83c6a9760ded7124978d1e08b30651",
        "edcd72ebc6d50fff4aa70df62f38aef4661dd1fc0ac404380f0c53201684654c",
    ),
    "Tomcatv": (
        "ca570dfa99bdb5cf8935261b9bec9d98b0aa06cdbff6aba2e79dac2637d9a8f0",
        "1a339f17d5aedd644ed90f29eb6640ec3907e953943f2bfa9edaa78a98769db3",
        "99e8c7800018081b5956d06ff945384b01ce0e688b7270d1ad326da064da9375",
        "e0cd4a0edf91d007c26b800f8d31781010bd20e81ab6dcaa30dcd118db6ad262",
    ),
}


class TestMTCDigests:
    @pytest.mark.parametrize("name", sorted(MTC_DIGESTS))
    def test_table8_grid_pinned(self, name):
        axis = ScaledAxis()
        sizes = [axis.simulated_size(size) for size in axis.paper_sizes]
        trace = get_workload(name).generate(
            seed=MTC_DIGEST_SEED, max_refs=MTC_DIGEST_REFS
        )
        prepared = engines.prepare_mtc(trace)
        digests = []
        for allocate, bypass in MTC_DIGEST_COLUMNS:
            digest = hashlib.sha256()
            for size in sizes:
                config = MTCConfig(
                    size_bytes=size, allocate=allocate, bypass=bypass
                )
                stats = engines.simulate_mtc_fast(
                    config, trace, prepared=prepared
                )
                digest.update(repr(dataclasses.astuple(stats)).encode())
            digests.append(digest.hexdigest())
        assert tuple(digests) == MTC_DIGESTS[name]

    def test_every_table8_benchmark_is_pinned(self):
        assert sorted(MTC_DIGESTS) == sorted(
            workload.name for workload in all_workloads("SPEC92")
        )


class TestMTCHeapBound:
    """Buried (stale) victim-heap entries grow with the hits; rebuilding the
    heap from its live entries keeps it proportional to C."""

    def test_victim_heap_stays_bounded(self, monkeypatch):
        # A 1 KB MTC (C = 256 words) over 150k Compress references: left
        # unbounded, the heap would reach 53,732 entries. Rebuilt once it
        # passes max(4C, 32768), it peaks a few pushes above that bound.
        trace = get_workload("Compress").generate(seed=0, max_refs=150_000)
        peak = 0
        push = heapq.heappush

        def recording_push(heap, item):
            nonlocal peak
            push(heap, item)
            peak = max(peak, len(heap))

        monkeypatch.setattr(heapq, "heappush", recording_push)
        engines.simulate_mtc_fast(MTCConfig(size_bytes=1024), trace)
        assert 32_768 < peak < 34_000

    @pytest.mark.parametrize("size", [16, 64, 256])
    def test_rebuilds_change_no_statistic(self, monkeypatch, size):
        # With no floor the bound is 4C, so small MTCs rebuild often.
        rebuilds = 0
        heapify = heapq.heapify

        def counting_heapify(heap):
            nonlocal rebuilds
            rebuilds += 1
            heapify(heap)

        monkeypatch.setattr(engines, "_HEAP_FLOOR", 0)
        monkeypatch.setattr(heapq, "heapify", counting_heapify)
        assert_mtc_engines_agree(make_trace("hot", 3000, seed=3), size)
        # One heapify per fill; the rest are rebuilds.
        assert rebuilds > 2 * len(MTC_POLICIES)


def test_mtc_fast_rejects_multiword_blocks_under_vector():
    trace = make_trace("mix", 50, seed=1)
    config = MTCConfig(size_bytes=1024, block_bytes=32)
    with pytest.raises(ConfigurationError):
        MinimalTrafficCache(config).simulate(trace, engine="vector")
    # ...but auto quietly falls back to the scalar loop.
    scalar = MinimalTrafficCache(config).simulate(trace, engine="scalar")
    auto = MinimalTrafficCache(config).simulate(trace, engine="auto")
    assert stats_key(scalar) == stats_key(auto)


# --------------------------------------------------------------------------
# One-pass multi-size families
# --------------------------------------------------------------------------


SIZES = [256, 512, 1024, 4096, 65536]


@settings(max_examples=25, deadline=None)
@given(trace=traces())
def test_direct_mapped_family_matches_per_size(trace):
    family = engines.direct_mapped_family(trace, SIZES, block_bytes=32)
    for size in SIZES:
        config = CacheConfig(size_bytes=size, block_bytes=32)
        scalar = Cache(config).simulate(trace, engine="scalar")
        assert stats_key(family[size]) == stats_key(scalar), size


def test_direct_mapped_sorts_cross_the_16_bit_set_index():
    """The set-index sorts run on the narrowest key type: 2^16 sets fit
    uint16 (numpy's radix sort), 2^17 need uint32. The family, the
    per-size vector engine and the scalar loop agree on both sides."""
    rng = np.random.default_rng(7)
    words = rng.integers(0, 1 << 21, size=1500)  # blocks up to 2^18
    trace = MemTrace(rng.choice(words, size=4000) * 4, rng.random(4000) < 0.3)
    sizes = [(1 << 16) * 32, (1 << 17) * 32]
    family = engines.direct_mapped_family(trace, sizes, block_bytes=32)
    for size in sizes:
        config = CacheConfig(size_bytes=size, block_bytes=32)
        scalar = stats_key(Cache(config).simulate(trace, engine="scalar"))
        assert stats_key(family[size]) == scalar, size
        alone = engines.direct_mapped_family(trace, [size], block_bytes=32)
        assert stats_key(alone[size]) == scalar, size
        vector = Cache(config).simulate(trace, engine="vector")
        assert stats_key(vector) == scalar, size


#: Words a wide family trace draws from: at 16-byte blocks, 4096 blocks,
#: so sets keep sharing blocks up to 2^11 sets and runs merge there.
WIDE_WORDS = 1 << 14


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    block_bytes=st.sampled_from([16, 32, 64]),
    flush=st.booleans(),
)
def test_direct_mapped_family_refines_wide_traces(data, block_bytes, flush):
    """Traces over 2^14 words plus a few hot ones, whose refinements
    merge runs, on a shuffled size list that repeats one size."""
    n = data.draw(st.integers(1, 2000))
    hot = data.draw(
        st.lists(st.integers(0, WIDE_WORDS - 1), min_size=1, max_size=4)
    )
    hot_share = data.draw(st.sampled_from([0.2, 0.5, 0.8]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    words = np.where(
        rng.random(n) < hot_share,
        rng.choice(hot, size=n),
        rng.integers(0, WIDE_WORDS, size=n),
    )
    trace = MemTrace(words * 4, rng.random(n) < 0.3)
    exponents = data.draw(
        st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True)
    )
    sizes = [block_bytes << exponent for exponent in exponents]
    sizes = data.draw(
        st.permutations(sizes + [data.draw(st.sampled_from(sizes))])
    )
    family = engines.direct_mapped_family(
        trace, sizes, block_bytes=block_bytes, flush=flush
    )
    assert sorted(family) == sorted(set(sizes))
    for size in sizes:
        config = CacheConfig(size_bytes=size, block_bytes=block_bytes)
        scalar = Cache(config).simulate(trace, flush=flush, engine="scalar")
        assert stats_key(family[size]) == stats_key(scalar), size


def test_direct_mapped_family_merges_runs_a_refinement_brings_together():
    """Blocks A, B, A share a set at 2 sets and split at 4; the second A
    writes. Three misses at 2 sets; at 4 sets A's two entries merge into
    one dirty entry whose first reference reads."""
    a, b = 0, 2  # block numbers: set 0 at 2 sets, sets 0 and 2 at 4
    trace = MemTrace([a * 32, b * 32, a * 32 + 4], [False, False, True])
    blocks, writes = trace.addresses // 32, trace.is_write
    entries = engines._collapsed_by_set(blocks, writes, writes, 1)
    assert [column.tolist() for column in entries] == [
        [a, b, a], [False, False, True], [False, False, True]
    ]
    refined = engines._collapsed_by_set(*entries, 3)
    assert [column.tolist() for column in refined] == [
        [a, b], [False, False], [True, False]
    ]
    family = engines.direct_mapped_family(trace, [64, 128], block_bytes=32)
    assert family[64].misses == 3
    assert family[128].misses == 2
    assert family[128].writes - family[128].write_hits == 0  # a read miss
    assert family[128].flush_writeback_bytes == 32  # A stays dirty
    for size in (64, 128):
        config = CacheConfig(size_bytes=size, block_bytes=32)
        scalar = Cache(config).simulate(trace, engine="scalar")
        assert stats_key(family[size]) == stats_key(scalar), size


def test_direct_mapped_family_of_an_empty_trace():
    empty = MemTrace(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
    family = engines.direct_mapped_family(empty, [1024, 256], block_bytes=32)
    assert list(family) == [256, 1024]
    for size, stats in family.items():
        config = CacheConfig(size_bytes=size, block_bytes=32)
        scalar = Cache(config).simulate(empty, engine="scalar")
        assert stats_key(stats) == stats_key(scalar) == stats_key(CacheStats())


def test_mtc_dense_ids_past_16_bits():
    """prepare_mtc sorts dense word ids on uint32 past 2^16 words."""
    trace = distinct_words_trace((1 << 16) + 500, n=70_000)
    config = MTCConfig(size_bytes=4096)
    scalar = MinimalTrafficCache(config).simulate(trace, engine="scalar")
    fast = MinimalTrafficCache(config).simulate(trace, engine="vector")
    assert stats_key(fast) == stats_key(scalar)


@settings(max_examples=25, deadline=None)
@given(trace=traces())
def test_fully_associative_family_matches_per_size(trace):
    """The one-pass family, the stack loop and the scalar loop agree."""
    family = engines.fully_associative_lru_family(trace, SIZES, block_bytes=32)
    for size in SIZES:
        config = CacheConfig(
            size_bytes=size, block_bytes=32, associativity=size // 32
        )
        scalar = Cache(config).simulate(trace, engine="scalar")
        vector = Cache(config).simulate(trace, engine="vector")
        assert stats_key(family[size]) == stats_key(scalar), size
        assert stats_key(vector) == stats_key(scalar), size


# --------------------------------------------------------------------------
# Engine selection
# --------------------------------------------------------------------------

#: The set-associative (size, associativity) pairs of the benchmark's
#: serve-cold request grid (sizes 1-64 KB, 32-byte blocks).
SERVE_COLD_SHAPES = [
    (size, assoc) for size in (1024, 4096, 16384, 65536) for assoc in (2, 4)
]


def hot_set_trace(
    n: int = 20_000, seed: int = 4, hot_blocks: int = 64
) -> MemTrace:
    """80% of references on *hot_blocks* blocks that map to set 0 at every
    serve-cold shape (their block numbers are multiples of 1024, the
    grid's largest set count); the rest spread thinly over other sets."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, hot_blocks, size=n) * 1024 * 32
    cold = rng.integers(0, 1 << 16, size=n) * 4
    addrs = np.where(rng.random(n) < 0.8, hot, cold)
    return MemTrace(
        addrs.astype(np.int64), rng.random(n) < 0.3, name="hot-set"
    )


def test_auto_never_falls_back_for_eligible_configs(monkeypatch):
    """No trace shape sends an eligible config to the per-access loop."""
    trace = hot_set_trace()

    def refuse(self, address, is_write):
        raise AssertionError("auto fell back to Cache.access")

    monkeypatch.setattr(Cache, "access", refuse)
    for size, assoc in SERVE_COLD_SHAPES:
        config = CacheConfig(
            size_bytes=size, block_bytes=32, associativity=assoc
        )
        stats = Cache(config).simulate(trace, engine="auto")
        assert stats.accesses == len(trace), (size, assoc)


def test_listener_keeps_the_per_access_loop(monkeypatch):
    trace = hot_set_trace()
    calls = []
    access = Cache.access

    def counting(self, address, is_write):
        calls.append(address)
        return access(self, address, is_write)

    monkeypatch.setattr(Cache, "access", counting)
    config = CacheConfig(size_bytes=4096, block_bytes=32, associativity=4)
    Cache(config, listener=lambda *args: None).simulate(trace, engine="auto")
    assert len(calls) == len(trace)


def test_an_engine_served_cache_builds_no_per_set_state(monkeypatch):
    """``Cache`` builds its replacement policy and set lines on first
    per-access use: never under an engine, once under the scalar loop."""
    built = []
    make_policy = cache_module.make_policy

    def counting(*args):
        built.append(args)
        return make_policy(*args)

    monkeypatch.setattr(cache_module, "make_policy", counting)
    trace = make_trace("mix", 500, seed=2)
    config = CacheConfig(size_bytes=65536, block_bytes=32)
    auto = Cache(config).simulate(trace, engine="auto")
    assert built == []
    scalar = Cache(config).simulate(trace, engine="scalar")
    assert built == [("lru", 2048, 1)]
    assert stats_key(auto) == stats_key(scalar)


def test_engine_selection_roundtrip():
    assert engines.current_engine() in engines.ENGINE_CHOICES
    before = engines.current_engine()
    with engines.use_engine("scalar"):
        assert engines.current_engine() == "scalar"
        assert engines.resolve_engine() == "scalar"
        assert engines.resolve_engine("vector") == "vector"
        with engines.use_engine(None):
            assert engines.current_engine() == "scalar"
    assert engines.current_engine() == before


def test_engine_selection_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        engines.set_engine("simd")
    with pytest.raises(ConfigurationError):
        engines.resolve_engine("fast")


def test_vector_engine_refuses_listeners():
    trace = make_trace("mix", 100, seed=2)
    config = CacheConfig(size_bytes=1024, block_bytes=32, associativity=2)
    events = []
    cache = Cache(config, listener=lambda *args: events.append(args))
    with pytest.raises(ConfigurationError):
        cache.simulate(trace, engine="vector")


def test_scalar_selection_disables_dm_fast_path():
    """'scalar' must be the honest per-access loop even for DM caches."""
    trace = make_trace("seq", 500, seed=3)
    config = CacheConfig(size_bytes=1024, block_bytes=32)
    scalar = Cache(config).simulate(trace, engine="scalar")
    auto = Cache(config).simulate(trace, engine="auto")
    assert stats_key(scalar) == stats_key(auto)


def test_cli_engine_choices_stay_in_sync():
    from repro import cli

    assert tuple(cli.ENGINE_CHOICES) == tuple(engines.ENGINE_CHOICES)


# --------------------------------------------------------------------------
# Chunked simulation (satellite: merge vs boundary flushes)
# --------------------------------------------------------------------------


def test_simulate_chunked_equals_whole_trace():
    whole = make_trace("mix", 2000, seed=7)
    chunks = [whole[:611], whole[611:1400], whole[1400:]]
    config = CacheConfig(size_bytes=512, block_bytes=32)
    expected = Cache(config).simulate(whole, engine="scalar")
    chunked = Cache(config).simulate_chunked(chunks)
    assert stats_key(expected) == stats_key(chunked)


def test_merge_of_chunk_runs_is_not_chunked_simulation():
    """Simulating chunks independently and merging double-counts the
    end-of-chunk dirty flushes (each run flushes its own dirty lines);
    simulate_chunked carries state across the boundary instead."""
    addrs = np.arange(64, dtype=np.int64) * 4
    writes = np.ones(64, dtype=bool)
    first = MemTrace(addrs, writes)
    second = MemTrace(addrs, writes)
    whole = MemTrace.concatenate([first, second])
    config = CacheConfig(size_bytes=256, block_bytes=32)

    a = Cache(config).simulate(first, engine="scalar")
    b = Cache(config).simulate(second, engine="scalar")
    merged = a.merge(b)
    chunked = Cache(config).simulate_chunked([first, second])
    expected = Cache(config).simulate(whole, engine="scalar")

    assert stats_key(chunked) == stats_key(expected)
    assert merged.flush_writeback_bytes > expected.flush_writeback_bytes


def test_simulate_chunked_requires_fresh_cache():
    trace = make_trace("mix", 100, seed=9)
    config = CacheConfig(size_bytes=256, block_bytes=32)
    cache = Cache(config)
    cache.simulate(trace)
    with pytest.raises(SimulationError):
        cache.simulate_chunked([trace])


def test_simulate_chunked_interrupt_then_resume_byte_identical():
    """A chunked run killed mid-stream by an injected fault resumes on
    the same instance and finishes with stats identical to an
    uninterrupted whole-trace run."""
    from repro.errors import FaultInjected
    from repro.exec.faults import injected_faults

    whole = make_trace("mix", 3000, seed=11)
    chunks = [whole[:800], whole[800:1700], whole[1700:2400], whole[2400:]]
    config = CacheConfig(size_bytes=512, block_bytes=32)
    expected = Cache(config).simulate(whole, engine="scalar")

    cache = Cache(config)
    with injected_faults("sim.chunk@:2"):
        with pytest.raises(FaultInjected):
            cache.simulate_chunked(chunks)
    resumed = cache.simulate_chunked(chunks[2:], resume=True)
    assert stats_key(resumed) == stats_key(expected)


def test_simulate_chunked_resume_preserves_oracle_future():
    """Resume must not re-prepare oracle policies: MIN was prepared with
    the full future on the original call, and re-preparing with only the
    remaining chunks would change its eviction decisions."""
    from repro.errors import FaultInjected
    from repro.exec.faults import injected_faults

    whole = make_trace("hot", 2000, seed=3)
    chunks = [whole[:700], whole[700:1400], whole[1400:]]
    config = CacheConfig(size_bytes=256, block_bytes=32, replacement="min")
    expected = Cache(config).simulate(whole)

    cache = Cache(config)
    with injected_faults("sim.chunk@:1"):
        with pytest.raises(FaultInjected):
            cache.simulate_chunked(chunks)
    resumed = cache.simulate_chunked(chunks[1:], resume=True)
    assert stats_key(resumed) == stats_key(expected)


def test_unknown_engine_names_the_value():
    with pytest.raises(ConfigurationError, match="unknown engine 'gpu'"):
        engines.set_engine("gpu")
    with pytest.raises(ConfigurationError, match="scalar"):
        # The message also lists the valid choices.
        engines.resolve_engine("turbo")


def test_simulate_with_unknown_engine_is_loud():
    trace = make_trace("mix", 50, seed=1)
    cache = Cache(CacheConfig(size_bytes=256, block_bytes=32))
    with pytest.raises(ConfigurationError, match="unknown engine"):
        cache.simulate(trace, engine="bogus")
