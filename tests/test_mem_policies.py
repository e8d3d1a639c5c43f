"""Tests for replacement policies, including the MIN oracle."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.mem.cache import CacheConfig
from repro.mem.policies import (
    FIFOPolicy,
    LRUPolicy,
    MINPolicy,
    NEVER,
    RandomPolicy,
    compute_next_use,
    make_policy,
)


class TestComputeNextUse:
    def test_simple_chain(self):
        blocks = np.array([1, 2, 1, 3, 2])
        result = compute_next_use(blocks).tolist()
        assert result == [2, 4, NEVER, NEVER, NEVER]

    def test_all_distinct(self):
        blocks = np.array([1, 2, 3])
        assert compute_next_use(blocks).tolist() == [NEVER] * 3

    def test_repeated_single_block(self):
        blocks = np.array([5, 5, 5])
        assert compute_next_use(blocks).tolist() == [1, 2, NEVER]

    def test_empty(self):
        assert compute_next_use(np.array([], dtype=np.int64)).size == 0


class TestLRU:
    def test_evicts_least_recently_touched(self):
        policy = LRUPolicy(1, 2)
        policy.on_fill(0, 10, time=0)
        policy.on_fill(0, 20, time=1)
        policy.on_access(0, 10, time=2)  # 20 is now LRU
        assert policy.choose_victim(0, time=3) == 20

    def test_eviction_removes_block(self):
        policy = LRUPolicy(1, 2)
        policy.on_fill(0, 10, time=0)
        policy.on_fill(0, 20, time=1)
        policy.on_evict(0, 10)
        assert policy.choose_victim(0, time=2) == 20

    def test_empty_set_raises(self):
        policy = LRUPolicy(1, 2)
        with pytest.raises(SimulationError):
            policy.choose_victim(0, time=0)


class TestFIFO:
    def test_hits_do_not_refresh(self):
        policy = FIFOPolicy(1, 2)
        policy.on_fill(0, 10, time=0)
        policy.on_fill(0, 20, time=1)
        policy.on_access(0, 10, time=2)  # FIFO ignores the touch
        assert policy.choose_victim(0, time=3) == 10


class TestRandom:
    def test_victim_is_resident(self):
        policy = RandomPolicy(1, 4, seed=3)
        for block in (1, 2, 3, 4):
            policy.on_fill(0, block, time=block)
        for _ in range(20):
            assert policy.choose_victim(0, time=99) in (1, 2, 3, 4)

    def test_deterministic_for_seed(self):
        def victims(seed):
            policy = RandomPolicy(1, 4, seed=seed)
            for block in (1, 2, 3, 4):
                policy.on_fill(0, block, time=block)
            return [policy.choose_victim(0, time=9) for _ in range(10)]

        assert victims(1) == victims(1)

    def test_evicting_absent_block_raises(self):
        policy = RandomPolicy(1, 2)
        with pytest.raises(SimulationError):
            policy.on_evict(0, 42)


class TestMIN:
    def test_requires_prepare(self):
        policy = MINPolicy(1, 2)
        with pytest.raises(SimulationError):
            policy.on_fill(0, 1, time=0)

    def test_evicts_furthest_future_use(self):
        # Trace of blocks: 1 2 3 1 2 -> block 1 reused at 3, block 2 at 4:
        # the MIN victim at time 2 is block 2 (furthest next use).
        blocks = np.array([1, 2, 3, 1, 2])
        policy = MINPolicy(1, 2)
        policy.prepare(blocks)
        policy.on_fill(0, 1, time=0)
        policy.on_fill(0, 2, time=1)
        assert policy.choose_victim(0, time=2) == 2

    def test_never_reused_is_first_victim(self):
        blocks = np.array([1, 2, 1, 2, 9])
        policy = MINPolicy(1, 2)
        policy.prepare(blocks)
        policy.on_fill(0, 1, time=0)
        policy.on_fill(0, 2, time=1)
        policy.on_access(0, 1, time=2)
        policy.on_access(0, 2, time=3)
        # both reused already; their next uses are now NEVER
        assert policy.choose_victim(0, time=4) in (1, 2)

    def test_stale_heap_entries_skipped(self):
        blocks = np.array([1, 2, 1, 2, 1, 2])
        policy = MINPolicy(1, 2)
        policy.prepare(blocks)
        policy.on_fill(0, 1, time=0)
        policy.on_fill(0, 2, time=1)
        policy.on_access(0, 1, time=2)  # pushes a new heap entry for 1
        policy.on_access(0, 2, time=3)
        victim = policy.choose_victim(0, time=4)
        assert victim == 2  # block 1's next use (4) < block 2's (5)


def test_min_victim_fix():
    """Explicit check of the MIN choice in TestMIN.test_evicts_furthest."""
    blocks = np.array([1, 2, 3, 1, 2])
    policy = MINPolicy(1, 2)
    policy.prepare(blocks)
    policy.on_fill(0, 1, time=0)   # next use at 3
    policy.on_fill(0, 2, time=1)   # next use at 4
    assert policy.choose_victim(0, time=2) == 2


class TestRegistry:
    def test_known_names(self):
        for name, cls in (
            ("lru", LRUPolicy),
            ("fifo", FIFOPolicy),
            ("random", RandomPolicy),
            ("min", MINPolicy),
        ):
            assert isinstance(make_policy(name, 4, 2), cls)

    def test_case_insensitive(self):
        assert isinstance(make_policy("LRU", 1, 1), LRUPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown replacement"):
            make_policy("belady2", 1, 1)

    def test_unknown_rejected_by_the_cache_config(self):
        """A cache builds its policy on first access, so its config
        checks the name."""
        with pytest.raises(ConfigurationError, match="unknown replacement"):
            CacheConfig(size_bytes=1024, replacement="belady2")

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUPolicy(0, 4)
