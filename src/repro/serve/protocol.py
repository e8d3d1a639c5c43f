"""Wire protocol: request schemas, normalisation, and content-addressed ids.

The service accepts two request kinds, each the JSON mirror of an
existing CLI invocation:

``simulate`` (``POST /v1/simulate``)
    One cache (and optionally MTC) run over a named workload — the JSON
    form of ``repro simulate``. Fields: ``workload`` (required unless
    ``scenario`` is given), ``size``, ``block``, ``assoc``, ``mtc``,
    ``max_refs``, ``seed``. Alternatively ``scenario`` carries an inline
    scenario spec object (see docs/scenarios.md); the spec normalises to
    its canonical form, so equivalent spellings coalesce, and the spec's
    own seed is authoritative (an explicit ``seed`` field is rejected
    alongside ``scenario``).

``sweep`` (``POST /v1/sweep``)
    One experiment grid (table7, table8, ...) — the JSON form of
    ``repro experiment``. Fields: ``experiment`` (required),
    ``max_refs``, ``engine``.

Normalisation is the heart of the coalescer: every optional field is
resolved to its CLI default and sizes are canonicalised to byte counts,
so two requests that would run the *same simulation* produce the same
normalised dict — and therefore the same job id — no matter how they
were spelled (``"16KB"`` vs ``16384``, omitted vs explicit default).

Job ids are content addresses: the SHA-256 of the canonical JSON of
(request, code epoch), truncated for readability. The same material is
the job's exec-cache key, which is what lets the server reuse completed
work across restarts — the in-memory job table is a view; the
content-addressed cache is the durable record.

Validation raises :class:`repro.errors.ProtocolError` (HTTP 400) with
messages that name the offending field, mirroring the CLI's parse-time
errors.
"""

from __future__ import annotations

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ScenarioError,
    WorkloadError,
)
from repro.exec.keys import code_epoch, stable_hash
from repro.util import parse_size

__all__ = [
    "MAX_WAIT",
    "PROTOCOL_VERSION",
    "SIMULATE_DEFAULTS",
    "SWEEP_DEFAULTS",
    "job_id",
    "job_material",
    "normalize_request",
    "normalize_simulate",
    "normalize_sweep",
]

#: Version tag carried by job materials; bump on incompatible changes so
#: old cache entries stop matching (the code epoch usually retires them
#: first, but the tag makes the intent explicit).
PROTOCOL_VERSION = "repro.serve/v1"

#: The longest a submit or job GET may ask the server to hold its answer
#: for the job to finish (``?wait=<seconds>``; longer asks are clamped).
#: Well below the router's 30 s proxy timeout, so a parked request never
#: reads as a sick shard.
MAX_WAIT = 10.0

#: Optional-field defaults, kept equal to the ``repro simulate`` parser
#: defaults (a test pins the two in sync).
SIMULATE_DEFAULTS = {
    "size": "16KB",
    "block": 32,
    "assoc": 1,
    "mtc": False,
    "max_refs": 200_000,
    "seed": 0,
}

#: Optional-field defaults for sweeps; ``None`` means "let the
#: experiment's own default stand".
SWEEP_DEFAULTS = {
    "max_refs": None,
    "engine": None,
}


def _require_fields(body: object, known: set[str], kind: str) -> dict:
    if not isinstance(body, dict):
        raise ProtocolError(
            f"{kind} request body must be a JSON object, got "
            f"{type(body).__name__}"
        )
    unknown = sorted(set(body) - known)
    if unknown:
        raise ProtocolError(
            f"unknown {kind} request field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return body


def _positive_int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ProtocolError(
            f"field {field!r} must be a positive integer, got {value!r}"
        )
    return value


def _int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"field {field!r} must be an integer, got {value!r}"
        )
    return value


def _bool(value: object, field: str) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(
            f"field {field!r} must be a boolean, got {value!r}"
        )
    return value


def _check_cache_shape(size: int, block: int, assoc: int) -> None:
    """Refuse a cache shape the worker's ``CacheConfig`` would refuse.

    Each stage adds one field to a shape the earlier stages accepted
    (the size with a one-word block, then the block, then the
    associativity), so the error names the first field that breaks it.
    """
    from repro.mem.cache import CacheConfig
    from repro.trace.model import WORD_BYTES

    stages = (
        ("size", dict(size_bytes=size, block_bytes=WORD_BYTES)),
        ("block", dict(size_bytes=size, block_bytes=block)),
        (
            "assoc",
            dict(size_bytes=size, block_bytes=block, associativity=assoc),
        ),
    )
    for field, shape in stages:
        try:
            CacheConfig(**shape)
        except ConfigurationError as exc:
            raise ProtocolError(f"field {field!r}: {exc}") from exc


def normalize_simulate(body: object) -> dict:
    """Validate a simulate request body into its canonical form.

    The canonical form has every field present, ``workload`` in registry
    spelling, and ``size`` as an integer byte count.
    """
    from repro.workloads.registry import get_workload

    body = _require_fields(
        body, {"workload", "scenario"} | set(SIMULATE_DEFAULTS), "simulate"
    )
    scenario = body.get("scenario")
    spec = None
    if scenario is not None:
        if body.get("workload") is not None:
            raise ProtocolError(
                "give either 'workload' or 'scenario', not both"
            )
        if "seed" in body:
            raise ProtocolError(
                "field 'seed' is not allowed with 'scenario': the spec "
                "carries its own seed (and the content address covers it)"
            )
        from repro.scenario.spec import ScenarioSpec

        try:
            spec = ScenarioSpec.from_dict(scenario)
        except ScenarioError as exc:
            raise ProtocolError(f"field 'scenario': {exc}") from exc
    else:
        name = body.get("workload")
        if not isinstance(name, str) or not name:
            raise ProtocolError(
                f"field 'workload' must be a non-empty string, got {name!r}"
            )
        try:
            workload = get_workload(name)
        except WorkloadError as exc:
            raise ProtocolError(str(exc)) from exc

    merged = dict(SIMULATE_DEFAULTS, **body)
    try:
        size_bytes = parse_size(merged["size"])
    except ConfigurationError as exc:
        raise ProtocolError(f"field 'size': {exc}") from exc
    if size_bytes <= 0:
        raise ProtocolError(
            f"field 'size' must be a positive byte count, got {merged['size']!r}"
        )
    request = {
        "kind": "simulate",
        "size": size_bytes,
        "block": _positive_int(merged["block"], "block"),
        "assoc": _positive_int(merged["assoc"], "assoc"),
        "mtc": _bool(merged["mtc"], "mtc"),
        "max_refs": _positive_int(merged["max_refs"], "max_refs"),
    }
    _check_cache_shape(size_bytes, request["block"], request["assoc"])
    if spec is not None:
        # The canonical spec is the durable identity: equivalent
        # spellings produce the same normalised request, hence the same
        # job id, exactly as named workloads do via registry spelling.
        request["scenario"] = spec.canonical()
        request["seed"] = spec.seed
    else:
        request["workload"] = workload.name  # registry spelling
        request["seed"] = _int(merged["seed"], "seed")
    return request


def normalize_sweep(body: object) -> dict:
    """Validate a sweep request body into its canonical form."""
    from repro.cli import ENGINE_CHOICES, EXPERIMENT_MODULES

    body = _require_fields(body, {"experiment"} | set(SWEEP_DEFAULTS), "sweep")
    name = body.get("experiment")
    if name not in EXPERIMENT_MODULES:
        raise ProtocolError(
            f"unknown experiment {name!r}; known: "
            + ", ".join(sorted(EXPERIMENT_MODULES))
        )
    request: dict = {"kind": "sweep", "experiment": name}
    max_refs = body.get("max_refs", SWEEP_DEFAULTS["max_refs"])
    request["max_refs"] = (
        None if max_refs is None else _positive_int(max_refs, "max_refs")
    )
    engine = body.get("engine", SWEEP_DEFAULTS["engine"])
    if engine is not None and engine not in ENGINE_CHOICES:
        raise ProtocolError(
            f"field 'engine' must be one of {', '.join(ENGINE_CHOICES)}, "
            f"got {engine!r}"
        )
    request["engine"] = engine
    return request


_NORMALIZERS = {
    "simulate": normalize_simulate,
    "sweep": normalize_sweep,
}


def normalize_request(kind: str, body: object) -> dict:
    """Dispatch to the normaliser for *kind* (the POST route decides)."""
    try:
        normalize = _NORMALIZERS[kind]
    except KeyError:
        raise ProtocolError(f"unknown request kind {kind!r}") from None
    return normalize(body)


def job_material(request: dict) -> dict:
    """The canonical key material for one normalised request.

    Doubles as the job's exec-cache key: the code epoch makes stale
    results self-invalidating exactly as in the rest of the exec layer.
    """
    return {
        "schema": PROTOCOL_VERSION,
        "epoch": code_epoch(),
        "request": request,
    }


def job_id(material: dict) -> str:
    """Content-addressed job id (truncated SHA-256 of the material)."""
    return stable_hash(material)[:16]
