"""Fault-injection harness: exercise every recovery path on demand.

A fault *plan* is a set of specs, each naming a fault point in the
execution stack, an optional label match, a firing budget, and an
optional numeric parameter. The spec string syntax (used by the CLI's
``--inject-fault`` flag and the ``REPRO_FAULTS`` environment variable)
is ``point[@match][*times][=param]``, with multiple specs joined by
``;``::

    worker.kill@table7:Swm      # kill the worker running the Swm row
    task.raise@Swm*2            # raise FaultInjected twice
    task.delay@Swm=0.5          # sleep 0.5s before the task
    cache.corrupt*3             # garbage the next three stored entries
    task.interrupt@table8       # simulate Ctrl-C before a table8 task
    shard.kill@/v1/simulate     # crash a serve shard mid-request
    conn.drop@POST*3            # sever three router->shard round trips
    shard.slow@/v1/jobs=0.5     # stall a shard 0.5s on matching requests

Fault points
------------
``task.raise``
    Raise :class:`~repro.errors.FaultInjected` in place of running a
    matching task (fires wherever the task runs: worker or parent).
``task.delay``
    Sleep ``param`` seconds before running a matching task.
``worker.kill``
    ``os._exit`` the pool worker about to run a matching task — a hard
    crash, surfacing as ``BrokenProcessPool`` in the parent. Inert
    outside pool workers, so serial escalation always survives it.
``task.interrupt``
    Raise ``KeyboardInterrupt`` in the parent before dispatching a
    matching task — a deterministic stand-in for SIGINT.
``cache.corrupt`` / ``cache.truncate``
    Damage a just-stored result-cache entry (garbage / half the payload).
    The match is tested against the entry's canonical key text, so
    ``cache.corrupt@Swm`` hits only that workload's rows.
``sim.chunk``
    Raise :class:`~repro.errors.FaultInjected` at a chunk boundary in
    :meth:`Cache.simulate_chunked`; the label is ``<trace name>:<chunk
    index>``.
``shard.kill``
    ``os._exit`` a forked serve shard after it has read a matching
    request but before answering — a mid-request crash the router's
    supervision must absorb. The label is ``shard<i>:<METHOD> <path>``.
    Inert in the process that armed the plan (a single-worker ``repro
    serve`` or a test harness is never its own chaos victim).
``shard.slow``
    Sleep ``param`` seconds inside a serve shard before routing a
    matching request — latency injection for timeout/drain coverage.
``conn.drop``
    Sever one router->shard proxy round trip: the router closes a pooled
    worker connection and treats the request as a connection failure, so
    failover, Retry-After, and circuit-breaker accounting all run.
    Enacted by the router via :meth:`FaultPlan.take` (same label shape
    as ``shard.kill``), never via :meth:`FaultPlan.fire`.

Firing budgets and scope
------------------------
Each spec fires at most ``times`` times (default 1). Budgets are counted
per process by default — a forked worker inherits the parent's unspent
specs. When the plan is configured with a *scope directory* (the CLI
always does this), budgets are instead claimed as ``O_EXCL`` token files
in that directory, shared across the parent and every worker: a
``*1`` spec then fires exactly once per run no matter which process
reaches it first, which is what makes "fail once, then recover" tests
deterministic under a process pool.

The plan every fault point checks, :data:`FAULTS`, lives in the leaf
module :mod:`repro.faults` so the simulator core can check it without
importing the execution layer; this module parses specs into it and arms
it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ConfigurationError
from repro.faults import FAULTS, FaultPlan, FaultSpec

__all__ = [
    "FAULT_POINTS",
    "FaultSpec",
    "FaultPlan",
    "FAULTS",
    "parse_fault_spec",
    "configure_faults",
    "armed_faults",
    "injected_faults",
]

#: Every hook the execution stack exposes; specs naming anything else are
#: rejected at parse time.
FAULT_POINTS = (
    "task.raise",
    "task.delay",
    "worker.kill",
    "task.interrupt",
    "cache.corrupt",
    "cache.truncate",
    "sim.chunk",
    "shard.kill",
    "shard.slow",
    "conn.drop",
)


def _parse_one(text: str) -> FaultSpec:
    body = text.strip()
    param = 0.0
    if "=" in body:
        body, param_text = body.rsplit("=", 1)
        try:
            param = float(param_text)
        except ValueError as exc:
            raise ConfigurationError(
                f"fault spec {text!r}: parameter {param_text!r} is not a number"
            ) from exc
        if param < 0:
            raise ConfigurationError(
                f"fault spec {text!r}: parameter must be >= 0"
            )
    times = 1
    if "*" in body:
        body, times_text = body.rsplit("*", 1)
        try:
            times = int(times_text)
        except ValueError as exc:
            raise ConfigurationError(
                f"fault spec {text!r}: count {times_text!r} is not an integer"
            ) from exc
        if times < 1:
            raise ConfigurationError(
                f"fault spec {text!r}: count must be >= 1"
            )
    match = ""
    if "@" in body:
        body, match = body.split("@", 1)
    point = body.strip()
    if point not in FAULT_POINTS:
        raise ConfigurationError(
            f"fault spec {text!r}: unknown fault point {point!r}; "
            f"choose from {', '.join(FAULT_POINTS)}"
        )
    return FaultSpec(
        point=point, match=match, times=times, param=param, remaining=times
    )


def parse_fault_spec(spec: str) -> list[FaultSpec]:
    """Parse a ``;``-joined spec string into :class:`FaultSpec` items."""
    specs = [_parse_one(part) for part in spec.split(";") if part.strip()]
    if not specs:
        raise ConfigurationError(f"fault spec {spec!r} names no faults")
    return specs


def configure_faults(
    spec: str | None, *, scope_dir: str | os.PathLike | None = None
) -> FaultPlan:
    """(Re)load :data:`FAULTS` from a spec string; ``None`` deactivates."""
    if spec is None:
        FAULTS.reset()
    else:
        FAULTS.load(parse_fault_spec(spec), scope_dir=scope_dir)
    return FAULTS


@contextmanager
def injected_faults(
    spec: str, *, scope_dir: str | os.PathLike | None = None
) -> Iterator[FaultPlan]:
    """Activate a fault plan for a block, restoring the prior plan after."""
    prior = (FAULTS.specs, FAULTS.active, FAULTS.parent_pid, FAULTS.scope_dir)
    configure_faults(spec, scope_dir=scope_dir)
    try:
        yield FAULTS
    finally:
        (
            FAULTS.specs,
            FAULTS.active,
            FAULTS.parent_pid,
            FAULTS.scope_dir,
        ) = prior


@contextmanager
def armed_faults(spec: str) -> Iterator[FaultPlan]:
    """Arm :data:`FAULTS` from *spec* for one command run.

    Budgets are scoped to a fresh ``repro-faults-*`` temporary directory,
    so a ``*1`` spec fires exactly once across the parent and every
    forked worker. On exit the plan is disarmed and the directory
    removed, also when *spec* fails to parse. Only the arming process
    cleans up: a forked child that unwinds through the block leaves the
    plan and the directory to its parent.
    """
    scope = tempfile.mkdtemp(prefix="repro-faults-")
    owner = os.getpid()
    try:
        yield configure_faults(spec, scope_dir=scope)
    finally:
        if os.getpid() == owner:
            configure_faults(None)
            shutil.rmtree(scope, ignore_errors=True)
