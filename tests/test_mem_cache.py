"""Tests for the set-associative cache model and its traffic accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.mem import engines
from repro.mem.cache import (
    AllocatePolicy,
    Cache,
    CacheConfig,
    CacheStats,
    WritePolicy,
)
from repro.trace.model import MemTrace

from conftest import make_trace


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(size_bytes=1024, block_bytes=32, associativity=4)
        assert config.num_blocks == 32
        assert config.num_sets == 8
        assert config.words_per_block == 8
        assert not config.is_fully_associative

    def test_fully_associative_factory(self):
        config = CacheConfig.fully_associative(1024, 32)
        assert config.num_sets == 1
        assert config.associativity == 32
        assert config.is_fully_associative

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, block_bytes=32)

    def test_block_smaller_than_word_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=64, block_bytes=2)

    def test_cache_smaller_than_block_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=16, block_bytes=32)

    def test_excess_associativity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=64, block_bytes=32, associativity=4)

    def test_write_validate_requires_writeback(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(
                size_bytes=64,
                block_bytes=32,
                write_policy=WritePolicy.WRITETHROUGH,
                allocate=AllocatePolicy.WRITE_VALIDATE,
            )

    def test_describe_mentions_shape(self):
        text = CacheConfig(size_bytes=65536, block_bytes=32).describe()
        assert "64KB" in text and "32B" in text


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        cache = Cache(CacheConfig(size_bytes=128, block_bytes=32))
        assert cache.access(0, False) is False
        assert cache.access(0, False) is True
        assert cache.access(4, False) is True  # same block

    def test_read_miss_fetches_block(self):
        cache = Cache(CacheConfig(size_bytes=128, block_bytes=32))
        cache.access(0, False)
        assert cache.stats.fetch_bytes == 32

    def test_conflict_eviction_direct_mapped(self):
        cache = Cache(CacheConfig(size_bytes=64, block_bytes=32))  # 2 sets
        cache.access(0, False)
        cache.access(128, False)  # same set as 0
        assert not cache.contains(0)

    def test_lru_in_two_way_set(self):
        cache = Cache(
            CacheConfig(size_bytes=128, block_bytes=32, associativity=2)
        )  # 2 sets, 2 ways
        cache.access(0, False)      # set 0
        cache.access(64, False)     # set 0
        cache.access(0, False)      # touch 0: 64 becomes LRU
        cache.access(128, False)    # set 0: evicts 64
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_flush_returns_and_counts_dirty_bytes(self):
        cache = Cache(CacheConfig(size_bytes=128, block_bytes=32))
        cache.access(0, True)
        flushed = cache.flush()
        assert flushed == 32
        assert cache.stats.flush_writeback_bytes == 32
        assert not cache.contains(0)

    def test_flush_of_clean_cache_is_free(self):
        cache = Cache(CacheConfig(size_bytes=128, block_bytes=32))
        cache.access(0, False)
        assert cache.flush() == 0


class TestWritePolicies:
    def test_writeback_defers_traffic(self):
        cache = Cache(CacheConfig(size_bytes=64, block_bytes=32))
        cache.access(0, True)   # write-allocate fetch
        assert cache.stats.fetch_bytes == 32
        assert cache.stats.writeback_bytes == 0
        cache.access(128, True)  # evicts dirty block 0
        assert cache.stats.writeback_bytes == 32

    def test_write_coalescing(self):
        """Many writes to one block cost a single write-back."""
        cache = Cache(CacheConfig(size_bytes=128, block_bytes=32))
        for offset in range(0, 32, 4):
            cache.access(offset, True)
        cache.flush()
        total_wb = cache.stats.writeback_bytes + cache.stats.flush_writeback_bytes
        assert total_wb == 32

    def test_writethrough_sends_every_word(self):
        config = CacheConfig(
            size_bytes=128,
            block_bytes=32,
            write_policy=WritePolicy.WRITETHROUGH,
        )
        cache = Cache(config)
        cache.access(0, False)  # bring block in
        cache.access(0, True)
        cache.access(4, True)
        assert cache.stats.writethrough_bytes == 8
        assert cache.flush() == 0  # nothing dirty

    def test_no_allocate_write_misses_go_around(self):
        config = CacheConfig(
            size_bytes=128,
            block_bytes=32,
            write_policy=WritePolicy.WRITETHROUGH,
            allocate=AllocatePolicy.NO_ALLOCATE,
        )
        cache = Cache(config)
        cache.access(0, True)
        assert cache.stats.fetch_bytes == 0
        assert cache.stats.writethrough_bytes == 4
        assert not cache.contains(0)


class TestWriteValidate:
    def _cache(self):
        return Cache(
            CacheConfig(
                size_bytes=128,
                block_bytes=32,
                allocate=AllocatePolicy.WRITE_VALIDATE,
            )
        )

    def test_write_miss_fetches_nothing(self):
        cache = self._cache()
        cache.access(0, True)
        assert cache.stats.fetch_bytes == 0
        assert cache.contains(0)

    def test_read_of_validated_word_hits(self):
        cache = self._cache()
        cache.access(0, True)
        assert cache.access(0, False) is True
        assert cache.stats.fetch_bytes == 0

    def test_read_of_hole_fetches_block(self):
        cache = self._cache()
        cache.access(0, True)       # validates only word 0
        cache.access(4, False)      # hole: fetch whole block
        assert cache.stats.fetch_bytes == 32

    def test_writeback_covers_only_dirty_words(self):
        cache = self._cache()
        cache.access(0, True)
        cache.access(4, True)
        assert cache.flush() == 8   # two dirty words

    def test_word_granular_at_4_byte_blocks(self):
        cache = Cache(
            CacheConfig(
                size_bytes=64,
                block_bytes=4,
                allocate=AllocatePolicy.WRITE_VALIDATE,
            )
        )
        cache.access(0, True)
        assert cache.stats.fetch_bytes == 0
        cache.flush()
        assert cache.stats.flush_writeback_bytes == 4


class TestSimulate:
    def test_requires_fresh_cache(self, small_trace):
        cache = Cache(CacheConfig(size_bytes=1024, block_bytes=32))
        cache.access(0, False)
        with pytest.raises(SimulationError):
            cache.simulate(small_trace)

    def test_accounting_identity(self, small_trace):
        stats = Cache(CacheConfig(size_bytes=1024, block_bytes=32)).simulate(
            small_trace
        )
        assert stats.accesses == len(small_trace)
        assert stats.reads == small_trace.read_count
        assert stats.writes == small_trace.write_count
        assert stats.hits + stats.misses == stats.accesses

    def test_no_cache_beats_tiny_cache_on_random(self, small_trace):
        """The paper: small caches can generate more traffic than no cache."""
        stats = Cache(CacheConfig(size_bytes=256, block_bytes=32)).simulate(
            small_trace
        )
        assert stats.traffic_ratio > 1.0

    def test_huge_cache_traffic_is_cold_plus_flush(self, small_trace):
        stats = Cache(CacheConfig(size_bytes=1 << 20, block_bytes=32)).simulate(
            small_trace
        )
        # every distinct block fetched once; dirty blocks flushed once
        blocks = np.unique(small_trace.addresses // 32).size
        assert stats.fetch_bytes == blocks * 32
        assert stats.writeback_bytes == 0

    def test_flush_disabled(self, small_trace):
        stats = Cache(CacheConfig(size_bytes=1 << 20, block_bytes=32)).simulate(
            small_trace, flush=False
        )
        assert stats.flush_writeback_bytes == 0

    def test_streaming_traffic_ratio_near_one(self, streaming_trace):
        """Unit-stride streams: fetch each block once per pass + writebacks."""
        stats = Cache(CacheConfig(size_bytes=256, block_bytes=32)).simulate(
            streaming_trace
        )
        assert 1.0 <= stats.traffic_ratio <= 2.2


class TestFastPathEquivalence:
    """The vectorized direct-mapped path must equal the general path."""

    @pytest.mark.parametrize("size,block", [(256, 32), (1024, 16), (4096, 64)])
    def test_exact_match_on_random_trace(self, rng, size, block):
        addresses = rng.integers(0, 2048, size=8000) * 4
        writes = rng.random(8000) < 0.4
        trace = MemTrace(addresses, writes)
        config = CacheConfig(size_bytes=size, block_bytes=block)
        fast = Cache(config).simulate(trace)
        general_cache = Cache(config, listener=lambda *a: None)
        assert not engines._dm_fast_eligible(config, general_cache.listener)
        general = general_cache.simulate(trace)
        for field in (
            "read_hits",
            "write_hits",
            "fetch_bytes",
            "writeback_bytes",
            "writethrough_bytes",
            "flush_writeback_bytes",
        ):
            assert getattr(fast, field) == getattr(general, field), field

    def test_fast_path_without_flush(self, rng):
        addresses = rng.integers(0, 512, size=3000) * 4
        writes = rng.random(3000) < 0.5
        trace = MemTrace(addresses, writes)
        config = CacheConfig(size_bytes=512, block_bytes=32)
        fast = Cache(config).simulate(trace, flush=False)
        general = Cache(config, listener=lambda *a: None).simulate(
            trace, flush=False
        )
        assert fast.writeback_bytes == general.writeback_bytes
        assert fast.flush_writeback_bytes == general.flush_writeback_bytes == 0

    def test_empty_trace(self):
        stats = Cache(CacheConfig(size_bytes=256, block_bytes=32)).simulate(
            MemTrace([], [])
        )
        assert stats.total_traffic_bytes == 0


class TestListener:
    def test_events_sum_to_stats(self, small_trace):
        events = []
        config = CacheConfig(size_bytes=512, block_bytes=32)
        cache = Cache(config, listener=lambda k, a, n: events.append((k, a, n)))
        stats = cache.simulate(small_trace)
        by_kind = {}
        for kind, _, nbytes in events:
            by_kind[kind] = by_kind.get(kind, 0) + nbytes
        assert by_kind.get("fetch", 0) == stats.fetch_bytes
        assert by_kind.get("writeback", 0) == stats.writeback_bytes
        assert by_kind.get("flush", 0) == stats.flush_writeback_bytes

    def test_writeback_events_carry_victim_address(self):
        events = []
        config = CacheConfig(size_bytes=64, block_bytes=32)  # 2 sets
        cache = Cache(config, listener=lambda k, a, n: events.append((k, a)))
        cache.access(0, True)
        cache.access(128, False)  # evicts dirty block 0
        assert ("writeback", 0) in events


class TestCacheStats:
    def test_merge(self):
        a = CacheStats(accesses=10, reads=6, writes=4, fetch_bytes=100)
        b = CacheStats(accesses=5, reads=5, writes=0, writeback_bytes=50)
        merged = a.merge(b)
        assert merged.accesses == 15
        assert merged.fetch_bytes == 100
        assert merged.writeback_bytes == 50

    def test_ratio_of_empty_run_is_zero(self):
        assert CacheStats().traffic_ratio == 0.0
        assert CacheStats().miss_rate == 0.0
