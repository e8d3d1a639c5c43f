"""Differential property suite for the vectorized simulation engines.

Every vector kernel in :mod:`repro.mem.engines` must produce
*bit-identical* :class:`~repro.mem.cache.CacheStats` to the scalar
reference loops — not statistically close, exactly equal — across
associativities, block sizes, write policies, allocation policies, and
flush settings. These tests are the contract that lets experiments pick
engines freely (and cache results) without the choice ever being
observable.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.mem import engines
from repro.mem.cache import AllocatePolicy, Cache, CacheConfig, WritePolicy
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.trace.model import MemTrace


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
# Miss-jumping MTC engine
# --------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    trace=traces(),
    size=st.sampled_from([64, 256, 4096]),
    allocate=st.sampled_from(
        [AllocatePolicy.WRITE_VALIDATE, AllocatePolicy.WRITE_ALLOCATE]
    ),
    bypass=st.booleans(),
    flush=st.booleans(),
)
def test_mtc_fast_matches_scalar(trace, size, allocate, bypass, flush):
    config = MTCConfig(size_bytes=size, allocate=allocate, bypass=bypass)
    scalar = MinimalTrafficCache(config).simulate(
        trace, flush=flush, engine="scalar"
    )
    fast = MinimalTrafficCache(config).simulate(
        trace, flush=flush, engine="vector"
    )
    assert stats_key(scalar) == stats_key(fast)


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


def hot_set_trace(n: int = 20_000, seed: int = 4) -> MemTrace:
    """80% of references on 64 blocks that map to set 0 at every
    serve-cold shape (their block numbers are multiples of 1024, the
    grid's largest set count); the rest spread thinly over other sets."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 64, size=n) * 1024 * 32
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
