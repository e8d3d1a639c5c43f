"""Stable cache keys: canonical JSON hashing, the code epoch, workload ids.

Every entry in the on-disk result cache (:mod:`repro.exec.cache`) is
addressed by the SHA-256 of *canonical JSON* key material — a plain dict
describing everything that determines the cached value: the workload
spec, the simulator configuration, the trace seed, and the *code epoch*.

The code epoch is a fingerprint of the ``repro`` source tree itself.
Including it in every key means a cache never has to be manually
invalidated after a code change: edit any ``.py`` file under
``src/repro`` and every previous entry simply stops matching.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "canonical_key",
    "try_canonical_key",
    "stable_hash",
    "code_epoch",
    "workload_key",
    "sampling_key",
]

#: Memoized per-process code fingerprint (the source tree cannot change
#: under a running simulation).
_EPOCH: str | None = None


def canonical_key(material: object) -> str:
    """Render key material as canonical JSON (sorted keys, no whitespace).

    Tuples serialise as arrays, so structurally equal tuple/list material
    produces the same key. Non-JSON material (objects, NaN) is rejected —
    a key that cannot be serialised deterministically cannot be stable.
    """
    try:
        return json.dumps(
            material, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"cache key material is not canonical JSON: {exc}"
        ) from exc


def try_canonical_key(material: object) -> str | None:
    """:func:`canonical_key`, or ``None`` for non-canonicalisable material.

    Used when reading *untrusted* key material back from disk — a
    corrupted cache entry may deserialise to something (``NaN``,
    ``Infinity``) that canonical JSON rejects, and the reader wants a
    quarantine decision, not an exception.
    """
    try:
        return canonical_key(material)
    except ConfigurationError:
        return None


def stable_hash(material: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of *material*."""
    return hashlib.sha256(canonical_key(material).encode("utf-8")).hexdigest()


def code_epoch() -> str:
    """Fingerprint of every ``.py`` file under the installed repro package.

    Stable across processes and machines for identical sources; changes
    whenever any source file changes, which retires all cached results
    computed by the old code.
    """
    global _EPOCH
    if _EPOCH is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _EPOCH = digest.hexdigest()[:16]
    return _EPOCH


def sampling_key() -> dict[str, object] | None:
    """Key material isolating sampled-engine results from exact ones.

    Exact engines are bit-identical, so cache keys never mention the
    engine. Sampled runs produce *estimates* that depend on the rate,
    seed, and stratum count — results from different sampling parameters
    (or from exact runs) must never collide. Returns None whenever the
    current configuration cannot sample (keys stay byte-identical to
    historical exact keys); otherwise a dict of the sampling parameters.

    Conservative by design: under ``auto`` with a configured rate the
    decision to sample is per-trace-size, which key material cannot see,
    so any configuration that *could* sample gets the sampled key — the
    worst case is a cache miss on an exact result, never a wrong hit.

    Imports lazily: key construction must stay numpy-free unless
    sampling is actually in play.
    """
    from repro.mem import engines, sampling

    selection = engines.current_engine()
    if not sampling.may_sample(selection):
        return None
    config = sampling.current_sampling()
    if config is None:
        from repro.mem import sampled

        config = sampled.default_sampling()
    return {
        "engine": "sampled",
        "rate": config.effective_rate,
        "seed": config.seed,
        "strata": config.strata,
    }


def workload_key(workload) -> dict[str, object]:
    """Key material identifying one workload instance.

    The generator class (module-qualified), the benchmark name, and the
    footprint scale pin the trace stream; the seed and reference budget
    belong to the *measurement* part of the key, supplied by the caller.

    Workloads exposing ``key_material()`` (scenario workloads, whose
    name is only a label) contribute that material too, so two scenarios
    can never collide — and no scenario can collide with a named
    benchmark, whose key has no ``extra`` entry and a different class.
    """
    cls = type(workload)
    material: dict[str, object] = {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "name": workload.name,
        "scale": workload.scale,
    }
    describe = getattr(workload, "key_material", None)
    if callable(describe):
        material["extra"] = describe()
    return material
