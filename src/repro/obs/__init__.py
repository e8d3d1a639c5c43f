"""repro.obs — instrumentation layer: metrics, events, spans, profiling.

The layer has five pieces:

* :mod:`repro.obs.registry` — aggregate metrics: counters, gauges and
  bounded timers;
* :mod:`repro.obs.hist` — the fixed-bucket histogram every timer is,
  and an exact interpolated percentile for raw sample lists;
* :mod:`repro.obs.events` — structured event sinks (JSONL events,
  stderr structured logging, a no-op default);
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
        OBS.emit("cache.simulate", config=config.describe(), misses=stats.misses)

``OBS`` starts *disabled*: ``OBS.enabled`` is a plain attribute, so the
disabled cost of a hook is one attribute load and a branch — bounded and
far below the 5% wall-clock budget. :func:`instrumented` is the one way
to turn it on: a context manager that installs a fresh registry (and
optionally a sink) for a block and restores the previous state on exit.
Tests and embedders may also build an independent
:class:`Instrumentation` and pass it around explicitly.

Determinism contract: every field of every emitted event, and every
counter/gauge value, is a pure function of the simulated inputs (seed,
trace, configuration). Wall-clock time only ever enters timer samples
and profiler output, never the event stream.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.events import (
    EventSink,
    JsonlSink,
    MemorySink,
    MultiSink,
    NullSink,
    StderrSink,
)
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
    "EventSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "StderrSink",
    "MultiSink",
    "TRACER",
    "SpanTracer",
    "SPAN_SCHEMA",
    "instrumented",
    "configure_tracing",
    "disable_tracing",
]


class Instrumentation:
    """A metrics registry plus an event sink behind one cheap gate.

    ``enabled`` gates everything; when False the facade's methods are
    never supposed to be called (call sites guard with ``if OBS.enabled``)
    but remain safe no-ops if they are.
    """

    __slots__ = ("registry", "sink", "enabled", "_seq")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sink: EventSink | None = None,
        *,
        enabled: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink if sink is not None else NullSink()
        self.enabled = enabled
        self._seq = 0

    # -- metrics -----------------------------------------------------------------

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

    # -- events ------------------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> None:
        """Emit one structured event (if a real sink is attached)."""
        if not (self.enabled and self.sink.enabled):
            return
        self._seq += 1
        event: dict[str, object] = {"seq": self._seq, "kind": kind}
        event.update(fields)
        self.sink.emit(event)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Instrumentation {state} sink={type(self.sink).__name__}>"


#: The process-wide facade every simulator layer imports. Disabled by
#: default; :func:`instrumented` turns it on for one block at a time.
OBS = Instrumentation()


@contextmanager
def instrumented(
    *,
    registry: MetricsRegistry | None = None,
    sink: EventSink | None = None,
) -> Iterator[Instrumentation]:
    """Enable :data:`OBS` for a block, then restore its previous state.

    The block gets *registry* (a fresh one by default). A given *sink*
    replaces the current one for the block and is closed on exit;
    without one, the sink already attached keeps receiving events. The
    previous registry, sink, enabled flag and sequence number come back
    untouched on exit, so blocks nest and tests stay isolated.
    """
    prev_registry, prev_sink = OBS.registry, OBS.sink
    prev_enabled, prev_seq = OBS.enabled, OBS._seq
    OBS.registry = registry if registry is not None else MetricsRegistry()
    if sink is not None:
        OBS.sink = sink
    OBS.enabled = True
    OBS._seq = 0
    try:
        yield OBS
    finally:
        if sink is not None and sink is not prev_sink:
            sink.close()
        OBS.registry, OBS.sink = prev_registry, prev_sink
        OBS.enabled, OBS._seq = prev_enabled, prev_seq
