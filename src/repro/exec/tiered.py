"""Two-tier result cache: an in-memory hot tier over the disk cache.

The on-disk :class:`~repro.exec.cache.ResultCache` made repeated work
free across processes and restarts, but every hit still costs a file
open, a read, and a JSON parse. Under serving load the same handful of
results is fetched thousands of times, so this module adds the tier the
paper's memory-system argument predicts: a small, fast store in front of
a large, slow one, with placement driven by measured reuse.

:class:`HotTier`
    A size-aware LRU over *serialized entry bytes*: the budget is a byte
    count, not an entry count, so one huge sweep result cannot silently
    evict a thousand small ones unnoticed — it visibly costs its size.
    Hit/miss/eviction counters are kept on the instance and mirrored to
    the obs registry (``exec.cache.hot.*``): their ratio is the tier's
    hit ratio at the configured budget. The tier keeps no per-lookup
    log, so nothing it writes grows with the request count.

:class:`TieredCache`
    The get/put facade the serve layer's cache uses. ``get`` probes
    the hot tier, falls through to disk on a miss, and promotes disk
    hits; ``put`` writes disk first (durability), then the hot tier.
    It is API-compatible with :class:`ResultCache` (``root``, ``get``,
    ``put``, ``stats``, ``clear``, hit/miss/store/corrupt counters), so
    :func:`repro.exec.pool.run_tasks`, the checkpoint machinery, and the
    serve scheduler need no changes to run tiered.

Fork safety
-----------
Pool workers fork while the parent's hot tier is populated. The tier is
plain process memory, so the child inherits a *snapshot* that the parent
keeps mutating — sharing it would be incoherent (and the inherited lock
state unsafe). Every operation therefore checks ``os.getpid()`` against
the creating pid and, after a fork, discards the inherited entries: the
child starts cold and falls through to the disk tier, which is
fork-safe by construction (atomic same-filesystem renames). A child can
therefore never serve a hot entry the parent evicted or that predates
the fork — misses are the worst case, never stale data. Thread safety
within one process is a plain lock around the LRU structure; the disk
tier needs none beyond what it already has.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path

from repro.errors import ConfigurationError
from repro.exec.cache import MISS, CacheStats, ResultCache
from repro.exec.keys import canonical_key, stable_hash
from repro.obs import OBS

__all__ = [
    "DEFAULT_HOT_BYTES",
    "HotTier",
    "TieredCache",
]

#: Default hot-tier byte budget. Result envelopes are a few hundred bytes
#: to a few tens of KB, so this holds on the order of 10^3..10^5 entries.
DEFAULT_HOT_BYTES = 64 << 20


class HotTier:
    """Size-aware LRU of serialized cache entries, keyed by digest."""

    def __init__(self, budget_bytes: int = DEFAULT_HOT_BYTES) -> None:
        if (
            isinstance(budget_bytes, bool)
            or not isinstance(budget_bytes, int)
            or budget_bytes <= 0
        ):
            raise ConfigurationError(
                f"hot-tier byte budget must be a positive integer, "
                f"got {budget_bytes!r}"
            )
        self.budget_bytes = budget_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0
        #: Entries refused because they alone exceed the byte budget.
        self.oversize = 0

    # -- fork internals ------------------------------------------------------------

    def _maybe_reset_after_fork(self) -> None:
        """Discard inherited state in a forked child (lock already held)."""
        if os.getpid() == self._pid:
            return
        self._pid = os.getpid()
        self._entries = OrderedDict()
        self._bytes = 0

    # -- the LRU -------------------------------------------------------------------

    def get(self, digest: str) -> bytes | None:
        """The serialized entry for *digest*, or None."""
        with self._lock:
            self._maybe_reset_after_fork()
            payload = self._entries.get(digest)
            if payload is None:
                self.misses += 1
                if OBS.enabled:
                    OBS.count("exec.cache.hot.miss")
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            if OBS.enabled:
                OBS.count("exec.cache.hot.hit")
            return payload

    def put(self, digest: str, payload: bytes) -> None:
        """Insert (or refresh) one serialized entry, evicting LRU-first."""
        with self._lock:
            self._maybe_reset_after_fork()
            if len(payload) > self.budget_bytes:
                # Refuse rather than evict the whole tier for one entry.
                self.oversize += 1
                return
            previous = self._entries.pop(digest, None)
            if previous is not None:
                self._bytes -= len(previous)
            self._entries[digest] = payload
            self._bytes += len(payload)
            self.stores += 1
            while self._bytes > self.budget_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.evictions += 1
                if OBS.enabled:
                    OBS.count("exec.cache.hot.evict")

    def clear(self) -> int:
        """Drop every entry; returns how many were resident."""
        with self._lock:
            self._maybe_reset_after_fork()
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            return dropped

    def __len__(self) -> int:
        with self._lock:
            self._maybe_reset_after_fork()
            return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            self._maybe_reset_after_fork()
            return self._bytes

    def keys(self) -> list[str]:
        """Digests in LRU-to-MRU order (eviction order), for tests/ops."""
        with self._lock:
            self._maybe_reset_after_fork()
            return list(self._entries)

    def stats(self) -> dict[str, int]:
        """Counters + occupancy as JSON data (``/healthz``)."""
        with self._lock:
            self._maybe_reset_after_fork()
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "oversize": self.oversize,
            }

    def __repr__(self) -> str:
        return (
            f"<HotTier {len(self._entries)} entries "
            f"{self._bytes}/{self.budget_bytes}B hits={self.hits} "
            f"misses={self.misses} evictions={self.evictions}>"
        )


class TieredCache:
    """Hot tier + disk cache behind the :class:`ResultCache` interface."""

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        hot_bytes: int = DEFAULT_HOT_BYTES,
    ) -> None:
        self.disk = ResultCache(root)
        self.hot = HotTier(hot_bytes)

    # -- ResultCache-compatible surface --------------------------------------------

    @property
    def root(self) -> Path:
        return self.disk.root

    @property
    def hits(self) -> int:
        """Total hits across both tiers (what a CLI run reports)."""
        return self.hot.hits + self.disk.hits

    @property
    def misses(self) -> int:
        """True misses: lookups that fell through both tiers."""
        return self.disk.misses

    @property
    def stores(self) -> int:
        return self.disk.stores

    @property
    def corrupt(self) -> int:
        return self.disk.corrupt

    def get(self, material: object) -> object:
        """The cached value for *material*, or the exec-cache MISS sentinel."""
        canonical = canonical_key(material)
        digest = stable_hash(material)
        payload = self.hot.get(digest)
        if payload is not None:
            try:
                entry = json.loads(payload.decode("utf-8"))
            except ValueError:
                entry = None
            if (
                isinstance(entry, dict)
                and canonical_key(entry.get("key")) == canonical
            ):
                return entry["value"]
            # A mangled or colliding hot entry degrades to a miss, the
            # same contract the disk tier honours.
        value = self.disk.get(material)
        if value is not MISS:
            self.hot.put(digest, self._serialize(material, value))
            if OBS.enabled:
                OBS.count("exec.cache.disk.hit")
        return value

    def put(self, material: object, value: object) -> None:
        """Store durably on disk first, then populate the hot tier."""
        self.disk.put(material, value)  # raises on non-JSON values
        self.hot.put(stable_hash(material), self._serialize(material, value))

    @staticmethod
    def _serialize(material: object, value: object) -> bytes:
        return json.dumps(
            {"key": material, "value": value}, sort_keys=True
        ).encode("utf-8")

    def stats(self) -> CacheStats:
        return self.disk.stats()

    def clear(self) -> int:
        """Empty both tiers; returns disk entries removed."""
        self.hot.clear()
        return self.disk.clear()

    def __repr__(self) -> str:
        return f"<TieredCache {self.disk!r} hot={self.hot!r}>"
