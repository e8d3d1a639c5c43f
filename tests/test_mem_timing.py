"""Tests for the timing memory system (buses, MSHRs, prefetch, modes)."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.mem.cache import AllocatePolicy, CacheConfig, WritePolicy
from repro.mem.timing import (
    BusSpec,
    MemoryMode,
    TimingBus,
    TimingMemory,
    TimingMemoryParams,
)


def params(**overrides) -> TimingMemoryParams:
    base = dict(
        l1_config=CacheConfig(size_bytes=512, block_bytes=32, name="L1"),
        l2_config=CacheConfig(
            size_bytes=4096, block_bytes=64, associativity=4, name="L2"
        ),
        l1_l2_bus=BusSpec(width_bytes=16, proc_cycles_per_beat=3),
        l2_mem_bus=BusSpec(width_bytes=8, proc_cycles_per_beat=3),
        l1_hit_cycles=1,
        l2_access_cycles=9,
        memory_access_cycles=27,
        mshr_count=1,
        tagged_prefetch=False,
    )
    base.update(overrides)
    return TimingMemoryParams(**base)


class TestBusSpec:
    def test_beats(self):
        spec = BusSpec(width_bytes=16, proc_cycles_per_beat=3)
        assert spec.beats(32) == 2
        assert spec.beats(20) == 2

    def test_occupancy_includes_overhead(self):
        spec = BusSpec(width_bytes=16, proc_cycles_per_beat=3, overhead_beats=1)
        assert spec.occupancy_cycles(32) == (2 + 1) * 3

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            BusSpec(width_bytes=0, proc_cycles_per_beat=3)


class TestTimingBus:
    def test_fcfs_queueing(self):
        bus = TimingBus(BusSpec(16, 3, overhead_beats=0), infinite=False)
        first_done, end1 = bus.transfer(0, 32)   # occupies [0, 6)
        assert first_done == 3
        assert end1 == 6
        _, end2 = bus.transfer(0, 32)            # queues behind
        assert end2 == 12

    def test_no_queueing_when_idle(self):
        bus = TimingBus(BusSpec(16, 3, overhead_beats=0), infinite=False)
        bus.transfer(0, 32)
        _, end = bus.transfer(100, 32)
        assert end == 106

    @pytest.mark.parametrize("overhead", [0, 1])
    def test_every_size_occupies_its_own_cycles(self, overhead):
        spec = BusSpec(16, 3, overhead_beats=overhead)
        bus = TimingBus(spec, infinite=False)
        sizes = list(range(1, 3 * spec.width_bytes + 1))
        # Repeated, descending and interleaved: the bus's inline ceiling
        # division agrees with the spec at every size, in any order.
        for size in sizes + sizes[::-1] + sizes[::2] + sizes[1::2] + sizes:
            start, busy = bus.next_free, bus.busy_cycles
            _, end = bus.transfer(start, size)
            assert end - start == spec.occupancy_cycles(size)
            assert bus.busy_cycles - busy == spec.occupancy_cycles(size)

    def test_infinite_bus_one_beat_no_queue(self):
        bus = TimingBus(BusSpec(16, 3), infinite=True)
        a_first, a_end = bus.transfer(0, 4096)
        b_first, b_end = bus.transfer(0, 4096)
        assert a_end == b_end == 3
        assert bus.busy_cycles == 0


class TestModes:
    def test_perfect_mode_is_always_one_cycle(self):
        memory = TimingMemory(params(), MemoryMode.PERFECT)
        for t, address in ((0, 0), (5, 1 << 20), (9, 64)):
            assert memory.access(t, address, False) == t + 1

    def test_l1_hit_time(self):
        memory = TimingMemory(params(), MemoryMode.FULL)
        memory.access(0, 0, False)          # miss, fills block
        assert memory.access(100, 4, False) == 101

    def test_full_miss_latency_exceeds_infinite(self):
        full = TimingMemory(params(), MemoryMode.FULL)
        infinite = TimingMemory(params(), MemoryMode.INFINITE)
        t_full = full.access(0, 0, False)
        t_inf = infinite.access(0, 0, False)
        assert t_inf <= t_full
        # Both include the intrinsic L2 + memory latencies.
        assert t_inf >= 9 + 27

    def test_store_completes_immediately(self):
        memory = TimingMemory(params(), MemoryMode.FULL)
        assert memory.access(0, 0, True) == 1  # write buffer
        assert memory.stats.l1_misses == 1     # but the miss was processed

    def test_l2_hit_is_cheaper_than_l2_miss(self):
        memory = TimingMemory(params(), MemoryMode.FULL)
        t_miss = memory.access(0, 0, False)           # L2 miss
        # Evict block 0 from L1 (512B direct-mapped: 16 sets) with a
        # conflicting block, then re-access: now it hits in L2.
        memory.access(1000, 512, False)
        t_l2_hit = memory.access(2000, 0, False) - 2000
        assert t_l2_hit < t_miss


class TestMSHR:
    def test_blocking_cache_serializes_misses(self):
        memory = TimingMemory(params(mshr_count=1), MemoryMode.FULL)
        first = memory.access(0, 0, False)
        second = memory.access(0, 4096, False)
        assert second > first  # waited for the only MSHR

    def test_lockup_free_overlaps_misses(self):
        blocking = TimingMemory(params(mshr_count=1), MemoryMode.FULL)
        lockup_free = TimingMemory(params(mshr_count=8), MemoryMode.FULL)
        b_times = [blocking.access(0, i * 4096, False) for i in range(4)]
        l_times = [lockup_free.access(0, i * 4096, False) for i in range(4)]
        assert max(l_times) < max(b_times)
        assert lockup_free.stats.mshr_stall_cycles == 0

    def test_merge_into_outstanding_fill(self):
        memory = TimingMemory(params(mshr_count=8), MemoryMode.FULL)
        first = memory.access(0, 0, False)
        merged = memory.access(1, 4, False)  # same block, in flight
        assert memory.stats.mshr_merges == 1
        assert merged <= first

    def test_infinite_mode_keeps_mshr_limit(self):
        """T_I removes bus width, not the blocking-cache structure."""
        memory = TimingMemory(params(mshr_count=1), MemoryMode.INFINITE)
        first = memory.access(0, 0, False)
        second = memory.access(0, 4096, False)
        assert second > first


class TestPrefetch:
    def test_miss_triggers_next_block_prefetch(self):
        memory = TimingMemory(
            params(tagged_prefetch=True, mshr_count=8), MemoryMode.FULL
        )
        memory.access(0, 0, False)
        assert memory.stats.prefetches_issued >= 1
        # The next sequential block is (eventually) resident.
        assert memory.access(500, 32, False) == 501

    def test_prefetch_generates_traffic(self):
        plain = TimingMemory(params(mshr_count=8), MemoryMode.FULL)
        prefetching = TimingMemory(
            params(tagged_prefetch=True, mshr_count=8), MemoryMode.FULL
        )
        for t, address in enumerate(range(0, 2048, 4)):
            plain.access(t * 10, address, False)
            prefetching.access(t * 10, address, False)
        assert (
            prefetching.stats.l1_l2_traffic_bytes
            >= plain.stats.l1_l2_traffic_bytes
        )

    def test_prefetch_dropped_without_mshr(self):
        memory = TimingMemory(
            params(tagged_prefetch=True, mshr_count=1), MemoryMode.FULL
        )
        memory.access(0, 0, False)
        assert memory.stats.prefetches_dropped >= 1


class TestWritebackTraffic:
    def test_dirty_eviction_reaches_memory_bus(self):
        memory = TimingMemory(params(), MemoryMode.FULL)
        memory.access(0, 0, True)        # dirty block 0
        memory.access(100, 512, False)   # evicts it (same L1 set)
        assert memory.stats.l1_l2_traffic_bytes >= 32 + 32  # fetches + wb


class TestValidation:
    def test_zero_mshrs_rejected(self):
        with pytest.raises(ConfigurationError):
            params(mshr_count=0)

    def test_zero_hit_time_rejected(self):
        with pytest.raises(ConfigurationError):
            params(l1_hit_cycles=0)

    @pytest.mark.parametrize("level", ["L1", "L2"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("write_policy", WritePolicy.WRITETHROUGH),
            ("allocate", AllocatePolicy.NO_ALLOCATE),
            ("allocate", AllocatePolicy.WRITE_VALIDATE),
            ("replacement", "fifo"),
        ],
    )
    def test_policies_it_cannot_time_are_refused(self, level, field, value):
        # The timing memory implements LRU, write-back and write-allocate
        # only; anything else would be timed and counted wrongly.
        key = f"{level.lower()}_config"
        config = dataclasses.replace(getattr(params(), key), **{field: value})
        with pytest.raises(ConfigurationError, match=f"{level} {field}"):
            params(**{key: config})

    def test_busy_fraction(self):
        memory = TimingMemory(params(), MemoryMode.FULL)
        memory.access(0, 0, False)
        l1l2, l2mem = memory.busy_fraction(1000)
        assert 0 < l1l2 < 1
        assert 0 < l2mem < 1
        assert memory.busy_fraction(0) == (0.0, 0.0)
