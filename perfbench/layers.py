"""Per-layer timing for the traced run, recorded from outside the program.

:func:`install` wraps each layer's public entry points. A wrapper opens a
span on the program's own tracer (:data:`repro.obs.TRACER`), so forked
serve shards write their spans into the same JSONL log as the benchmark
process, and records two attributes on it:

* ``self_s`` — the call's duration minus the time spent in wrapped calls
  nested inside it on the same thread or asyncio task (its child spans);
* ``root`` — the outermost wrapped span of that chain, which tells the
  batch path (``exec.run_tasks``) apart from admission (``serve.admit``).

:func:`summarize` reads the log back and sums self time per span name.
Install the wrappers before the serve tree forks; they stay in place in
the shards for the shards' lifetime.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

from repro.obs import TRACER
from repro.obs.spans import read_spans

#: Prefix of every span this module writes, so they never collide with the
#: program's own span names.
PREFIX = "bench."

_FRAME: contextvars.ContextVar["_Frame | None"] = contextvars.ContextVar(
    "perfbench_layer_frame", default=None
)


class _Frame:
    __slots__ = ("root", "child_s")

    def __init__(self, name: str, parent: "_Frame | None") -> None:
        self.root = parent.root if parent is not None else name
        self.child_s = 0.0


def _close(span, frame: _Frame, parent: _Frame | None, seconds: float) -> None:
    if parent is not None:
        parent.child_s += seconds
    span.attrs["self_s"] = seconds - frame.child_s
    span.attrs["root"] = frame.root


def _wrap(name: str, fn, describe=None):
    """*fn* timed as span ``bench.<name>``; *describe(args, result)* adds attrs."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            parent = _FRAME.get()
            frame = _Frame(name, parent)
            token = _FRAME.set(frame)
            with TRACER.span(PREFIX + name) as span:
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _FRAME.reset(token)
                    _close(span, frame, parent, time.perf_counter() - start)
                if describe is not None:
                    span.attrs.update(describe(args, result))
                return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _FRAME.get()
        frame = _Frame(name, parent)
        token = _FRAME.set(frame)
        with TRACER.span(PREFIX + name) as span:
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                _FRAME.reset(token)
                _close(span, frame, parent, time.perf_counter() - start)
            if describe is not None:
                span.attrs.update(describe(args, result))
            return result

    return wrapper


def _refs(args, result) -> dict:
    return {"refs": len(result)}


def _pool_attrs(args, result) -> dict:
    return {"workers": result._max_workers}


def _targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, describe) for every wrapped entry point."""
    from repro.cpu import itrace
    from repro.cpu.machine import Machine
    from repro.exec import pool
    from repro.exec.tiered import TieredCache
    from repro.experiments import table6, table7, table8
    from repro.mem import engines
    from repro.mem.cache import Cache
    from repro.mem.mtc import MinimalTrafficCache
    from repro.scenario.workload import ScenarioWorkload
    from repro.serve import jobs
    from repro.serve.router import ShardedServer
    from repro.serve.server import SimulationServer
    from repro.workloads.base import SyntheticWorkload

    targets = [
        ("workloads.gen", SyntheticWorkload, "generate", _refs),
        ("scenario.gen", ScenarioWorkload, "_build", None),
        ("mem.cache", Cache, "simulate", None),
        ("mem.family", engines, "direct_mapped_family", None),
        ("mem.family", engines, "fully_associative_lru_family", None),
        ("mem.mtc", MinimalTrafficCache, "simulate", None),
        ("mem.mtc", engines, "prepare_mtc", None),
        ("cpu.itrace", itrace, "build_instruction_trace", None),
        ("cpu.itrace", itrace, "instruction_trace_for_workload", None),
        ("cpu.core", Machine, "run", None),
        ("exec.run_tasks", pool, "run_tasks", None),
        ("exec.pool.fork", pool, "ProcessPoolExecutor", _pool_attrs),
        ("exec.cache.get", TieredCache, "get", None),
        ("exec.cache.put", TieredCache, "put", None),
        ("cli.replay", jobs, "execute_request", None),
        ("serve.admit", SimulationServer, "_submit", None),
        ("router.proxy", ShardedServer, "_proxy", None),
    ]
    for module in (table6, table7, table8):
        targets.append(("experiments", module, "run", None))
        targets.append(("experiments", module, "render", None))
    return targets


@dataclass
class Installed:
    """What :func:`install` replaced, so :meth:`restore` can undo it."""

    patches: list[tuple[object, str, object]] = field(default_factory=list)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        self.patches.clear()


def install() -> Installed:
    """Wrap every layer entry point, including copies bound by
    ``from module import name`` in already-imported ``repro`` modules."""
    installed = Installed()
    for name, owner, attribute, describe in _targets():
        original = getattr(owner, attribute)
        wrapped = _wrap(name, original, describe)
        owners = [owner]
        if not isinstance(owner, type):
            owners += [
                module
                for module_name, module in list(sys.modules.items())
                if module_name.startswith("repro")
                and module is not owner
                and getattr(module, attribute, None) is original
            ]
        for target in owners:
            installed.patches.append((target, attribute, original))
            setattr(target, attribute, wrapped)
    return installed


@dataclass
class SpanTotals:
    """Self time per wrapped span name, from one log."""

    self_s: dict[str, float] = field(default_factory=dict)
    #: Self time of all spans under each root span name.
    by_root: dict[str, float] = field(default_factory=dict)
    refs: int = 0
    pool_workers: int = 0

    def ms(self, name: str) -> float:
        return 1000.0 * self.self_s.get(name, 0.0)

    def rooted_ms(self, root: str) -> float:
        return 1000.0 * self.by_root.get(root, 0.0)


def summarize(path: str, *, start: float = 0.0) -> SpanTotals:
    """Sum the wrapped spans in the log at *path* that began after *start*
    (epoch seconds)."""
    totals = SpanTotals()
    for record in read_spans(path):
        name = record["name"]
        if not name.startswith(PREFIX) or record["start"] < start:
            continue
        name = name[len(PREFIX):]
        attrs = record["attrs"]
        seconds = float(attrs["self_s"])
        totals.self_s[name] = totals.self_s.get(name, 0.0) + seconds
        root = attrs["root"]
        totals.by_root[root] = totals.by_root.get(root, 0.0) + seconds
        if name == "workloads.gen":
            totals.refs += int(attrs["refs"])
        elif name == "exec.pool.fork":
            totals.pool_workers += int(attrs["workers"])
    return totals
