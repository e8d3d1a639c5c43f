"""Content-addressed on-disk result cache backing the execution layer.

Layout (default root ``.repro-cache/``, override with ``REPRO_CACHE_DIR``
or the ``--cache-dir`` flags)::

    .repro-cache/
      ab/
        abcdef...0123.json    # one JSON entry per cached result
      quarantine/
        abcdef...0123.json    # corrupt entries, moved aside for autopsy
      INTERRUPTED.json        # checkpoint marker (repro.exec.resilience)

Each entry records its full key material alongside the value::

    {"schema": "repro.exec-cache/v1", "key": {...}, "value": ...}

``get`` re-verifies the stored key against the requested material, so a
hash collision or a truncated/corrupted file degrades to a miss, never to
a wrong answer. A *corrupt* entry (unparsable JSON, schema mismatch, a
mangled key) is additionally **quarantined**: moved to ``quarantine/``,
counted on the instance (``corrupt``) and in the ``exec.cache.corrupt``
obs counter, and surfaced by ``repro cache stats``. A well-formed entry
whose stored key merely differs from the request (a hash collision) is
left in place — it is somebody's valid entry, not damage.

Writes go through a temp file plus :func:`os.replace`, making concurrent
writers (parallel sweep workers) safe: the last writer wins with a
complete entry. The fault-injection points ``cache.corrupt`` and
``cache.truncate`` (:mod:`repro.exec.faults`) damage a just-stored entry
on demand so the quarantine path stays exercised in CI.

Invalidation is purely key-driven: every key includes the code epoch
(:func:`repro.exec.keys.code_epoch`), so editing any source file retires
all prior entries. ``repro cache clear`` exists for reclaiming disk, not
for correctness.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CacheCorruption, ConfigurationError
from repro.exec.keys import canonical_key, stable_hash, try_canonical_key
from repro.faults import FAULTS
from repro.obs import OBS

__all__ = [
    "CACHE_SCHEMA",
    "MISS",
    "QUARANTINE_DIR",
    "CacheStats",
    "ResultCache",
]

CACHE_SCHEMA = "repro.exec-cache/v1"

#: Subdirectory of the cache root holding quarantined corrupt entries.
QUARANTINE_DIR = "quarantine"

#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is a
#: legitimate cached value — the sweep grids store it for "<<<" cells).
MISS = object()


@dataclass(frozen=True, slots=True)
class CacheStats:
    """A point-in-time summary of what is on disk under the cache root."""

    root: str
    entries: int
    total_bytes: int
    quarantined: int = 0

    def describe(self) -> str:
        text = (
            f"cache {self.root}: {self.entries} entries, "
            f"{self.total_bytes:,} bytes"
        )
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        return text

    def to_json(self) -> dict[str, object]:
        """The stats as JSON data (``repro cache stats --json``, /healthz).

        Always includes ``quarantined`` — ops tooling alerting on
        quarantine growth must not have to treat an absent field as zero.
        """
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "quarantined": self.quarantined,
        }


def _parse_entry(path: Path, text: str) -> dict:
    """Decode and structurally validate one on-disk entry.

    Raises :class:`CacheCorruption` naming the file for anything a
    correct writer could not have produced.
    """
    try:
        entry = json.loads(text)
    except ValueError as exc:
        raise CacheCorruption(
            f"cache entry {path} is not valid JSON: {exc}"
        ) from exc
    if (
        not isinstance(entry, dict)
        or entry.get("schema") != CACHE_SCHEMA
        or "value" not in entry
    ):
        raise CacheCorruption(
            f"cache entry {path} does not match schema {CACHE_SCHEMA!r}"
        )
    if try_canonical_key(entry.get("key")) is None:
        raise CacheCorruption(
            f"cache entry {path} has a non-canonical key"
        )
    return entry


class ResultCache:
    """JSON-backed store of computed results, addressed by key material.

    Instances also track session counters (``hits``/``misses``/``stores``
    /``corrupt``) so callers can report what a run actually reused — and
    what it had to quarantine — without consulting the metrics registry.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # -- lookup ---------------------------------------------------------------

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it cannot re-trip every lookup."""
        target = self.root / QUARANTINE_DIR / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            pass  # a concurrent reader may have moved it first
        self.corrupt += 1
        if OBS.enabled:
            OBS.count("exec.cache.corrupt")

    def get(self, material: object) -> object:
        """The cached value for *material*, or the module sentinel MISS."""
        canonical = canonical_key(material)
        path = self._path(stable_hash(material))
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return MISS
        try:
            entry = _parse_entry(path, text)
        except CacheCorruption:
            self._quarantine(path)
            self.misses += 1
            return MISS
        if canonical_key(entry["key"]) != canonical:
            # A well-formed entry for different material: a hash
            # collision, not corruption. Leave it in place.
            self.misses += 1
            return MISS
        self.hits += 1
        return entry["value"]

    def put(self, material: object, value: object) -> None:
        """Store *value* under *material*; the value must be JSON data."""
        digest = stable_hash(material)
        entry = {"schema": CACHE_SCHEMA, "key": material, "value": value}
        try:
            payload = json.dumps(entry, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"cached value for key {material!r} is not JSON-serialisable: "
                f"{exc}"
            ) from exc
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The temp file lives in the entry's own shard directory — inside
        # the cache root, never the system tmp dir — so os.replace is a
        # same-filesystem atomic rename. A crash between write and rename
        # leaves only an unreadable *.tmp orphan, never a partial .json
        # that get() could open; clear() sweeps such orphans.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        if FAULTS.active:
            label = canonical_key(material)
            if FAULTS.take("cache.corrupt", label):
                path.write_text("{garbage written by fault injection")
            if FAULTS.take("cache.truncate", label):
                path.write_text(payload[: len(payload) // 2])

    # -- maintenance ----------------------------------------------------------

    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            path
            for path in self.root.glob("*/*.json")
            if path.parent.name != QUARANTINE_DIR
        )

    def _quarantined(self) -> list[Path]:
        return sorted(self.root.glob(f"{QUARANTINE_DIR}/*.json"))

    def stats(self) -> CacheStats:
        entries = self._entries()
        total = sum(path.stat().st_size for path in entries)
        return CacheStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=total,
            quarantined=len(self._quarantined()),
        )

    def clear(self) -> int:
        """Delete every entry (incl. quarantine); returns the count.

        Also sweeps orphaned ``*.tmp`` files left by a writer that
        crashed between temp-file write and atomic rename (not counted —
        they were never readable entries).
        """
        entries = self._entries() + self._quarantined()
        for path in entries:
            try:
                path.unlink()
            except OSError:
                pass
        for orphan in sorted(self.root.glob("*/*.tmp")):
            try:
                orphan.unlink()
            except OSError:
                pass
        for shard in sorted(self.root.glob("*")):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass  # non-empty (e.g. a concurrent writer) — keep it
        return len(entries)

    def __repr__(self) -> str:
        return (
            f"<ResultCache {self.root} hits={self.hits} "
            f"misses={self.misses} stores={self.stores} "
            f"corrupt={self.corrupt}>"
        )
