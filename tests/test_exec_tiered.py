"""Tests for the tiered (memory + disk) result cache.

The hot tier is the perf-critical half of the serving cache: these tests
pin its LRU semantics (eviction order, byte accounting under overwrite,
oversize refusal), the fork-coherence contract (a forked child starts
cold and can never serve stale hot data), and the :class:`TieredCache`
facade's promote / verify / fall-through behaviour against the disk
tier.
"""

import json
import multiprocessing
import os

import pytest

from repro.errors import ConfigurationError
from repro.exec import MISS, ResultCache
from repro.exec.keys import stable_hash
from repro.exec.tiered import DEFAULT_HOT_BYTES, HotTier, TieredCache


def payload(size: int, fill: bytes = b"x") -> bytes:
    return fill * size


class TestHotTierLRU:
    def test_eviction_order_is_deterministic_lru(self):
        tier = HotTier(budget_bytes=30)
        tier.put("aa", payload(10))
        tier.put("bb", payload(10))
        tier.put("cc", payload(10))
        assert tier.keys() == ["aa", "bb", "cc"]
        # A hit refreshes recency: aa moves to MRU, bb becomes the victim.
        assert tier.get("aa") == payload(10)
        tier.put("dd", payload(10))
        assert tier.keys() == ["cc", "aa", "dd"]
        assert tier.get("bb") is None
        assert tier.evictions == 1

    def test_eviction_is_size_aware_not_count_aware(self):
        tier = HotTier(budget_bytes=100)
        for index in range(10):
            tier.put(f"{index:02x}", payload(10))
        assert len(tier) == 10
        # One 95-byte entry displaces as many LRU entries as needed.
        tier.put("ff", payload(95))
        assert tier.resident_bytes <= 100
        assert "ff" in tier.keys()
        assert tier.keys()[-1] == "ff"

    def test_overwrite_adjusts_byte_accounting(self):
        tier = HotTier(budget_bytes=100)
        tier.put("aa", payload(40))
        tier.put("bb", payload(40))
        assert tier.resident_bytes == 80
        # Overwriting aa with a smaller body must release the old bytes —
        # naive `bytes += len(new)` would claim 110 and evict bb.
        tier.put("aa", payload(30))
        assert tier.resident_bytes == 70
        assert tier.evictions == 0
        assert sorted(tier.keys()) == ["aa", "bb"]
        # And growing it evicts only once the *net* size exceeds budget.
        tier.put("aa", payload(60))
        assert tier.resident_bytes == 100
        assert tier.evictions == 0

    def test_oversize_entry_is_refused_not_thrashing(self):
        tier = HotTier(budget_bytes=50)
        tier.put("aa", payload(20))
        tier.put("bb", payload(51))  # bigger than the whole budget
        assert tier.get("bb") is None
        assert tier.get("aa") == payload(20)  # nothing was evicted for it
        assert tier.oversize == 1
        assert tier.evictions == 0

    def test_counters_and_stats(self):
        tier = HotTier(budget_bytes=100)
        tier.put("aa", payload(10))
        tier.get("aa")
        tier.get("bb")
        stats = tier.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] == 10
        assert stats["budget_bytes"] == 100

    def test_budget_must_be_positive_int(self):
        for bad in (0, -1, 1.5, "64M", True):
            with pytest.raises(ConfigurationError, match="byte budget"):
                HotTier(budget_bytes=bad)


class TestForkCoherence:
    def test_forked_child_starts_cold_and_misses(self):
        """A child inherits a snapshot it must not serve from: after the
        fork every operation discards the inherited entries, so the
        worst case is a miss (fall through to the fork-safe disk tier),
        never a stale or parent-evicted hot entry."""
        tier = HotTier(budget_bytes=1000)
        tier.put("aa", payload(10))
        assert tier.get("aa") is not None

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()

        def child():
            queue.put(
                {
                    "get": tier.get("aa"),
                    "len": len(tier),
                    "misses": tier.misses,
                }
            )

        proc = ctx.Process(target=child)
        proc.start()
        seen = queue.get(timeout=30)
        proc.join(30)
        assert proc.exitcode == 0
        assert seen["get"] is None  # inherited entry was discarded
        assert seen["len"] == 0
        assert seen["misses"] == 1  # the cold probe counted in the child
        # The parent's tier is untouched by the child's reset.
        assert tier.get("aa") == payload(10)
        assert len(tier) == 1

    def test_child_can_repopulate_after_reset(self):
        tier = HotTier(budget_bytes=1000)
        tier.put("aa", payload(10))
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()

        def child():
            tier.put("bb", payload(5))
            queue.put((tier.get("bb") is not None, len(tier)))

        proc = ctx.Process(target=child)
        proc.start()
        hit, count = queue.get(timeout=30)
        proc.join(30)
        assert hit is True
        assert count == 1  # just bb; aa was discarded by the fork reset


class TestTieredCache:
    KEY = {"kind": "test", "size": 4096}
    VALUE = {"output": "hello\n", "misses": 3}

    def test_put_writes_disk_first_then_hot(self, tmp_path):
        cache = TieredCache(tmp_path)
        cache.put(self.KEY, self.VALUE)
        # Durable on disk (a fresh instance sees it)...
        assert ResultCache(tmp_path).get(self.KEY) == self.VALUE
        # ...and resident in the hot tier.
        assert len(cache.hot) == 1

    def test_hot_hit_does_not_touch_disk(self, tmp_path):
        cache = TieredCache(tmp_path)
        cache.put(self.KEY, self.VALUE)
        # Remove the disk entry out from under the cache: a hot hit must
        # still answer (it never opens the file).
        for entry in cache.disk._entries():
            entry.unlink()
        assert cache.get(self.KEY) == self.VALUE
        assert cache.hot.hits == 1
        assert cache.disk.misses == 0

    def test_disk_hit_promotes_to_hot(self, tmp_path):
        ResultCache(tmp_path).put(self.KEY, self.VALUE)
        cache = TieredCache(tmp_path)
        assert cache.get(self.KEY) == self.VALUE  # hot miss, disk hit
        assert cache.hot.misses == 1
        assert cache.disk.hits == 1
        assert len(cache.hot) == 1
        assert cache.get(self.KEY) == self.VALUE  # now a hot hit
        assert cache.hot.hits == 1
        assert cache.disk.hits == 1  # disk untouched the second time

    def test_true_miss_falls_through_both_tiers(self, tmp_path):
        cache = TieredCache(tmp_path)
        assert cache.get(self.KEY) is MISS
        assert cache.hot.misses == 1
        assert cache.disk.misses == 1
        assert cache.misses == 1  # facade counts only true misses

    def test_mangled_hot_entry_degrades_to_miss(self, tmp_path):
        cache = TieredCache(tmp_path)
        cache.put(self.KEY, self.VALUE)
        digest = stable_hash(self.KEY)
        cache.hot._entries[digest] = b"{not json"
        assert cache.get(self.KEY) == self.VALUE  # answered by disk
        assert cache.disk.hits == 1

    def test_hot_entry_key_is_verified(self, tmp_path):
        """A colliding digest must never return the wrong value — the
        same re-verification contract the disk tier honours."""
        cache = TieredCache(tmp_path)
        cache.put(self.KEY, self.VALUE)
        digest = stable_hash(self.KEY)
        cache.hot._entries[digest] = json.dumps(
            {"key": {"other": 1}, "value": "wrong"}
        ).encode()
        assert cache.get(self.KEY) == self.VALUE  # fell through to disk

    def test_facade_counters_mirror_resultcache_surface(self, tmp_path):
        cache = TieredCache(tmp_path)
        cache.put(self.KEY, self.VALUE)
        cache.get(self.KEY)  # hot hit
        cache.get({"missing": True})
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.stores == 1
        assert cache.corrupt == 0
        assert cache.root == ResultCache(tmp_path).root
        assert cache.stats().entries == 1

    def test_clear_empties_both_tiers_and_the_log(self, tmp_path):
        cache = TieredCache(tmp_path)
        cache.put(self.KEY, self.VALUE)
        cache.get(self.KEY)
        removed = cache.clear()
        assert removed == 1
        assert len(cache.hot) == 0
        assert cache.get(self.KEY) is MISS

    def test_lookups_write_nothing_under_the_root(self, tmp_path):
        """Nothing on disk grows with the lookup count."""
        cache = TieredCache(tmp_path)
        cache.put(self.KEY, self.VALUE)
        before = sorted(tmp_path.rglob("*"))
        for _ in range(3):
            cache.get(self.KEY)
            cache.get({"missing": True})
        assert sorted(tmp_path.rglob("*")) == before

    def test_default_budget_is_default_hot_bytes(self, tmp_path):
        assert TieredCache(tmp_path).hot.budget_bytes == DEFAULT_HOT_BYTES

