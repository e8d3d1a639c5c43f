"""Composable access-pattern library: the :class:`TracePattern` protocol.

The paper's 14 workloads are fixed generators; this module supplies the
*parameterized* patterns that modern (datacenter-style) traffic is built
from — uniform-random, Zipfian, hotspot, bursty, sequential/strided, and
phase-switching compositions of those (cf. the CXL-fabric-sim workload
taxonomy). Every pattern is deterministic for a given ``rng`` and
vectorized like :mod:`repro.trace.synth`, whose builders do the actual
stream construction wherever one fits.

A pattern is anything with ``stream(rng) -> Stream``; the
:class:`~repro.workloads.base.SyntheticWorkload` base class implements
the same method, so named benchmarks and scenario patterns are
interchangeable wherever a trace source is needed.

Patterns are described declaratively as dicts (``{"kind": "zipfian",
"alpha": 1.2}``); :func:`canonical_pattern` validates a dict and fills
defaults, and :func:`build_pattern` instantiates the generator. The
canonical dict is what scenario content addresses hash, so equivalent
spellings of a pattern key identically into the exec cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScenarioError
from repro.trace import synth
from repro.trace.synth import Stream

__all__ = [
    "TracePattern",
    "PATTERN_KINDS",
    "build_pattern",
    "canonical_pattern",
    "pattern_catalog",
    "pattern_names",
]

try:  # pragma: no cover - version guard
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


@runtime_checkable
class TracePattern(Protocol):
    """Anything that can emit a reference stream deterministically.

    ``stream`` must be a pure function of the generator state: the same
    ``rng`` seed always yields a byte-identical
    :class:`~repro.trace.synth.Stream`. It makes all of its random draws
    when called; taking a prefix of the result draws nothing more.
    """

    def stream(self, rng: np.random.Generator) -> Stream: ...


#: Nesting bound for ``phased`` compositions (phases of phases).
MAX_PHASE_DEPTH = 4

#: Patterns address at most this many refs; guards accidental huge specs.
MAX_PATTERN_REFS = 50_000_000


def _require_fraction(value: object, field: str, *, kind: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(
            f"pattern {kind!r}: field {field!r} must be a number, got {value!r}"
        )
    value = float(value)
    if not 0.0 <= value <= 1.0 or value != value:
        raise ScenarioError(
            f"pattern {kind!r}: field {field!r} must be in [0, 1], got {value!r}"
        )
    return value


def _require_positive_number(value: object, field: str, *, kind: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(
            f"pattern {kind!r}: field {field!r} must be a number, got {value!r}"
        )
    value = float(value)
    if not value > 0 or value == float("inf"):
        raise ScenarioError(
            f"pattern {kind!r}: field {field!r} must be positive and finite, "
            f"got {value!r}"
        )
    return value


def _require_positive_int(value: object, field: str, *, kind: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ScenarioError(
            f"pattern {kind!r}: field {field!r} must be a positive integer, "
            f"got {value!r}"
        )
    return value


@dataclass(frozen=True, slots=True)
class UniformRandomPattern:
    """Uniform random probes over the whole footprint: no locality at all."""

    footprint_words: int
    refs: int
    write_fraction: float

    def stream(self, rng: np.random.Generator) -> Stream:
        return synth.random_probes(
            rng, 0, self.footprint_words, self.refs,
            write_fraction=self.write_fraction,
        )


@dataclass(frozen=True, slots=True)
class ZipfianPattern:
    """Zipf(α)-skewed probes: a hot head over a long cold tail."""

    footprint_words: int
    refs: int
    write_fraction: float
    alpha: float

    def stream(self, rng: np.random.Generator) -> Stream:
        return synth.zipf_probes(
            rng, 0, self.footprint_words, self.refs,
            alpha=self.alpha, write_fraction=self.write_fraction,
        )


@dataclass(frozen=True, slots=True)
class HotspotPattern:
    """Hot-region probes: ``hot_prob`` of refs land in a ``hot_fraction``
    slice of the footprint, the rest are uniform over all of it."""

    footprint_words: int
    refs: int
    write_fraction: float
    hot_fraction: float
    hot_prob: float

    def stream(self, rng: np.random.Generator) -> Stream:
        hot_words = max(1, int(self.footprint_words * self.hot_fraction))
        return synth.random_probes(
            rng, 0, self.footprint_words, self.refs,
            write_fraction=self.write_fraction,
            hot_fraction=self.hot_prob,
            hot_words=hot_words,
        )


@dataclass(frozen=True, slots=True)
class BurstyPattern:
    """On/off phases: each burst hammers one random region, each gap
    wanders uniformly over the footprint.

    A burst picks a contiguous region of ``burst_fraction`` of the
    footprint and issues ``burst_refs`` uniform refs inside it (dense
    temporal locality); ``gap_refs`` uniform refs over the whole
    footprint separate consecutive bursts.
    """

    footprint_words: int
    refs: int
    write_fraction: float
    burst_refs: int
    gap_refs: int
    burst_fraction: float

    def stream(self, rng: np.random.Generator) -> Stream:
        burst_words = max(1, int(self.footprint_words * self.burst_fraction))
        cycle = self.burst_refs + self.gap_refs
        cycles = -(-self.refs // cycle)  # ceil
        starts = rng.integers(
            0, max(1, self.footprint_words - burst_words + 1),
            size=cycles, dtype=np.int64,
        )
        burst_offsets = rng.integers(
            0, burst_words, size=(cycles, self.burst_refs), dtype=np.int64
        )
        gap_indices = rng.integers(
            0, self.footprint_words, size=(cycles, self.gap_refs),
            dtype=np.int64,
        )
        writes = rng.random(self.refs) < self.write_fraction

        def first(n: int) -> synth.StreamPair:
            rows = -(-n // cycle)  # the cycles the prefix reaches
            per_cycle = np.concatenate(
                [starts[:rows, None] + burst_offsets[:rows], gap_indices[:rows]],
                axis=1,
            )
            return per_cycle.reshape(-1)[:n] * synth.WORD_BYTES, writes[:n]

        return Stream(self.refs, first)


@dataclass(frozen=True, slots=True)
class SequentialPattern:
    """Strided streaming passes over the footprint (the Swm idiom).

    Deterministic: the write mix comes from ``write_every`` (every n-th
    reference stores), derived from the tenant's ``write_fraction`` when
    not given explicitly. The rng is unused but accepted — sequential
    streams are the degenerate, fully-deterministic pattern.
    """

    footprint_words: int
    refs: int
    stride_words: int
    write_every: int

    def stream(self, rng: np.random.Generator) -> Stream:
        del rng  # a sweep has no random component
        per_pass = -(-self.footprint_words // self.stride_words)  # ceil
        passes = max(1, -(-self.refs // per_pass))
        passes_stream = synth.sweep(
            0, self.footprint_words,
            passes=passes,
            stride_words=self.stride_words,
            write_every=self.write_every,
        )
        return synth.truncate(passes_stream, self.refs)


@dataclass(frozen=True, slots=True)
class PhasedPattern:
    """Phase-switching composition: each sub-pattern runs as one program
    phase, back to back, in spec order."""

    phases: tuple[TracePattern, ...]

    def stream(self, rng: np.random.Generator) -> Stream:
        # One independent generator per phase, derived from the parent
        # stream: determinism survives any internal draw-count change in
        # an individual phase's builder.
        seeds = rng.integers(
            0, np.iinfo(np.int64).max, size=len(self.phases)
        )
        return synth.concat_streams(
            [
                phase.stream(np.random.default_rng(int(seed)))
                for phase, seed in zip(self.phases, seeds)
            ]
        )


def _canonical_uniform(params: dict, kind: str) -> dict:
    del params, kind
    return {}


def _canonical_zipfian(params: dict, kind: str) -> dict:
    alpha = _require_positive_number(
        params.get("alpha", 1.1), "alpha", kind=kind
    )
    return {"alpha": alpha}


def _canonical_hotspot(params: dict, kind: str) -> dict:
    hot_fraction = _require_fraction(
        params.get("hot_fraction", 0.1), "hot_fraction", kind=kind
    )
    if hot_fraction == 0.0:
        raise ScenarioError(
            f"pattern {kind!r}: field 'hot_fraction' must be > 0 "
            "(a zero-sized hot region is the uniform pattern)"
        )
    hot_prob = _require_fraction(
        params.get("hot_prob", 0.9), "hot_prob", kind=kind
    )
    return {"hot_fraction": hot_fraction, "hot_prob": hot_prob}


def _canonical_bursty(params: dict, kind: str) -> dict:
    burst_refs = _require_positive_int(
        params.get("burst_refs", 2048), "burst_refs", kind=kind
    )
    gap_refs = _require_positive_int(
        params.get("gap_refs", 256), "gap_refs", kind=kind
    )
    burst_fraction = _require_fraction(
        params.get("burst_fraction", 0.05), "burst_fraction", kind=kind
    )
    if burst_fraction == 0.0:
        raise ScenarioError(
            f"pattern {kind!r}: field 'burst_fraction' must be > 0"
        )
    return {
        "burst_refs": burst_refs,
        "gap_refs": gap_refs,
        "burst_fraction": burst_fraction,
    }


def _canonical_sequential(params: dict, kind: str) -> dict:
    stride_words = _require_positive_int(
        params.get("stride_words", 1), "stride_words", kind=kind
    )
    write_every = params.get("write_every")
    if write_every is not None:
        write_every = _require_positive_int(
            write_every, "write_every", kind=kind
        )
    return {"stride_words": stride_words, "write_every": write_every}


def _canonical_phased(params: dict, kind: str, *, depth: int = 0) -> dict:
    if depth >= MAX_PHASE_DEPTH:
        raise ScenarioError(
            f"pattern {kind!r}: phases nested deeper than {MAX_PHASE_DEPTH}"
        )
    phases = params.get("phases")
    if not isinstance(phases, list) or not phases:
        raise ScenarioError(
            f"pattern {kind!r}: field 'phases' must be a non-empty list of "
            f"pattern objects, got {phases!r}"
        )
    return {
        "phases": [
            canonical_pattern(phase, _depth=depth + 1) for phase in phases
        ]
    }


#: kind -> (canonicalizer, one-line description). The catalog order is
#: the documentation order.
PATTERN_KINDS: dict[str, tuple] = {
    "uniform": (
        _canonical_uniform,
        "uniform random probes over the footprint (no locality)",
    ),
    "zipfian": (
        _canonical_zipfian,
        "Zipf(alpha)-skewed probes: hot head, long cold tail",
    ),
    "hotspot": (
        _canonical_hotspot,
        "hot_prob of refs hit a hot_fraction slice of the footprint",
    ),
    "bursty": (
        _canonical_bursty,
        "on/off phases: bursts hammer one region, gaps wander the footprint",
    ),
    "sequential": (
        _canonical_sequential,
        "strided streaming passes over the footprint",
    ),
    "phased": (
        _canonical_phased,
        "phase-switching composition of sub-patterns, run back to back",
    ),
}


def pattern_names() -> list[str]:
    """The known pattern kinds, in catalog order."""
    return list(PATTERN_KINDS)


def pattern_catalog() -> list[dict[str, object]]:
    """Machine-readable pattern vocabulary (``repro list --json``)."""
    return [
        {
            "kind": kind,
            "description": description,
            "defaults": canonical_pattern({"kind": kind})
            if kind != "phased"
            else {"phases": []},
        }
        for kind, (_, description) in PATTERN_KINDS.items()
    ]


def canonical_pattern(spec: object, *, _depth: int = 0) -> dict:
    """Validate a pattern dict and return its fully-defaulted canonical form.

    The canonical form always carries ``kind`` plus every kind parameter
    at its resolved value, so equivalent spellings hash identically.
    Unknown fields are rejected — a typo must not silently become a
    default.
    """
    if not isinstance(spec, dict):
        raise ScenarioError(
            f"pattern must be an object like {{'kind': 'zipfian'}}, "
            f"got {spec!r}"
        )
    kind = spec.get("kind")
    if kind not in PATTERN_KINDS:
        raise ScenarioError(
            f"unknown pattern kind {kind!r}; known: "
            + ", ".join(pattern_names())
        )
    canonicalize = PATTERN_KINDS[kind][0]
    if kind == "phased":
        params = canonicalize(spec, kind, depth=_depth)
        known = {"kind", "phases"}
    else:
        params = canonicalize(spec, kind)
        known = {"kind"} | set(params)
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ScenarioError(
            f"pattern {kind!r}: unknown field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return {"kind": kind, **params}


def build_pattern(
    spec: dict,
    *,
    footprint_words: int,
    refs: int,
    write_fraction: float,
) -> TracePattern:
    """Instantiate the generator for one canonical pattern dict.

    *footprint_words*, *refs*, and *write_fraction* come from the tenant
    that owns the pattern (the scenario spec resolves them); the pattern
    dict carries only the kind-specific shape parameters.
    """
    canonical = canonical_pattern(spec)
    if footprint_words <= 0:
        raise ScenarioError(
            f"footprint_words must be positive, got {footprint_words}"
        )
    if not 0 < refs <= MAX_PATTERN_REFS:
        raise ScenarioError(
            f"refs must be in [1, {MAX_PATTERN_REFS}], got {refs}"
        )
    kind = canonical["kind"]
    if kind == "uniform":
        return UniformRandomPattern(footprint_words, refs, write_fraction)
    if kind == "zipfian":
        return ZipfianPattern(
            footprint_words, refs, write_fraction, canonical["alpha"]
        )
    if kind == "hotspot":
        return HotspotPattern(
            footprint_words, refs, write_fraction,
            canonical["hot_fraction"], canonical["hot_prob"],
        )
    if kind == "bursty":
        return BurstyPattern(
            footprint_words, refs, write_fraction,
            canonical["burst_refs"], canonical["gap_refs"],
            canonical["burst_fraction"],
        )
    if kind == "sequential":
        write_every = canonical["write_every"]
        if write_every is None:
            # Derive the deterministic store cadence from the tenant's
            # write mix: every n-th reference stores.
            write_every = (
                round(1.0 / write_fraction) if write_fraction > 0 else 0
            )
        return SequentialPattern(
            footprint_words, refs, canonical["stride_words"], write_every
        )
    # phased: split the ref budget evenly across phases, remainder to the
    # earliest phases, so the total is exact.
    phases = canonical["phases"]
    share, extra = divmod(refs, len(phases))
    built = []
    for index, phase in enumerate(phases):
        phase_refs = share + (1 if index < extra else 0)
        if phase_refs == 0:
            raise ScenarioError(
                f"refs={refs} is too small for {len(phases)} phases"
            )
        built.append(
            build_pattern(
                phase,
                footprint_words=footprint_words,
                refs=phase_refs,
                write_fraction=write_fraction,
            )
        )
    return PhasedPattern(tuple(built))
