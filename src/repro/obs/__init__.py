"""repro.obs — instrumentation layer: metrics, spans, profiling.

One recording model answers "where did the time and the bytes go?":
counters and gauges, bounded timers, and spans. The layer has four
pieces:

* :mod:`repro.obs.registry` — aggregate metrics: counters, gauges and
  bounded timers;
* :mod:`repro.obs.hist` — the fixed-bucket histogram every timer is,
  and an exact interpolated percentile for raw sample lists;
* :mod:`repro.obs.spans` — request-scoped tracing (:data:`TRACER`):
  trace/span ids propagated serve → scheduler → pool worker → engine,
  logged as JSONL with parent links for ``repro spans`` analysis;
* :mod:`repro.obs.profiler` — the experiment profiling harness behind
  ``python -m repro profile`` and its ``--output`` JSON.

Hot simulator code talks to one process-wide facade, :data:`OBS`::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.count("cache.accesses", stats.accesses)
        OBS.count("cache.misses", stats.misses)

``OBS`` starts *disabled*: ``OBS.enabled`` is a plain attribute, so the
disabled cost of a hook is one attribute load and a branch — bounded and
far below the 5% wall-clock budget. :func:`instrumented` is the one way
to turn it on: a context manager that installs a fresh registry for a
block and restores the previous state on exit. Tests and embedders may
also build an independent :class:`Instrumentation` and pass it around
explicitly.

Determinism contract: every counter/gauge value is a pure function of
the simulated inputs (seed, trace, configuration). Wall-clock time only
ever enters timer samples, span start/end stamps and profiler output.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.hist import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    percentile_interpolated,
)
from repro.obs.registry import Counter, Gauge, MetricsRegistry
from repro.obs.spans import (
    SPAN_SCHEMA,
    TRACER,
    SpanTracer,
    configure_tracing,
    disable_tracing,
)

__all__ = [
    "OBS",
    "Instrumentation",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "percentile_interpolated",
    "TRACER",
    "SpanTracer",
    "SPAN_SCHEMA",
    "instrumented",
    "configure_tracing",
    "disable_tracing",
]


class Instrumentation:
    """A metrics registry behind one cheap gate.

    ``enabled`` gates everything; when False the facade's methods are
    never supposed to be called (call sites guard with ``if OBS.enabled``)
    but remain safe no-ops if they are.
    """

    __slots__ = ("registry", "enabled")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        enabled: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.enabled = enabled

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.registry.gauge(name).set(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record *seconds* into the bounded timer *name*."""
        if self.enabled:
            self.registry.timer(name).observe(seconds)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Instrumentation {state}>"


#: The process-wide facade every simulator layer imports. Disabled by
#: default; :func:`instrumented` turns it on for one block at a time.
OBS = Instrumentation()


@contextmanager
def instrumented(
    *, registry: MetricsRegistry | None = None
) -> Iterator[Instrumentation]:
    """Enable :data:`OBS` for a block, then restore its previous state.

    The block gets *registry* (a fresh one by default). The previous
    registry and enabled flag come back untouched on exit, so blocks
    nest and tests stay isolated.
    """
    prev_registry, prev_enabled = OBS.registry, OBS.enabled
    OBS.registry = registry if registry is not None else MetricsRegistry()
    OBS.enabled = True
    try:
        yield OBS
    finally:
        OBS.registry, OBS.enabled = prev_registry, prev_enabled
