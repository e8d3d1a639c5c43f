"""Metrics registry: counters, gauges and bounded timers.

The registry is the *aggregate* half of the observability layer (the
per-run half is the span log, :mod:`repro.obs.spans`). Simulators increment
counters and observe timer samples; at the end of a run the registry is
snapshotted into a plain ``dict`` that is stable under a fixed seed —
counter and gauge values are deterministic; timer *durations* are wall
clock and therefore excluded from determinism guarantees (only their
sample counts are deterministic).

Three instrument kinds share one namespace:

* :class:`Counter` — monotonically increasing integers;
* :class:`Gauge` — last-value-wins floats;
* timers — a :class:`~repro.obs.hist.Histogram` of durations: fixed
  buckets, O(1) per observation and O(buckets) memory however many
  samples arrive, so a server that never restarts records its queue
  waits and batch times the same way one experiment records its stages.
  ``count`` and ``total_s`` are exact; percentiles are estimated within
  a bucket.

The registry is thread-safe for the serve layer's access pattern: the
scheduler thread updates counters and timers while the asyncio event
loop renders ``/metrics`` (:meth:`MetricsRegistry.exposition`) and
``/healthz`` concurrently.

Metric naming convention: dotted lowercase paths, ``<layer>.<what>``
(``cache.accesses``, ``bus.l2_mem.busy_cycles``, ``core.mispredictions``).
Instrument names are created on first use; reading an absent metric via
:meth:`MetricsRegistry.snapshot` simply omits it.
"""

from __future__ import annotations

import threading

from repro.errors import ConfigurationError
from repro.obs.hist import Histogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing integer metric.

    ``inc`` is thread-safe: a read-modify-write on an attribute is not
    atomic under the interpreter, and the serve layer increments from
    both the event loop and the scheduler thread.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A last-value-wins metric (window occupancy, configured sizes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class MetricsRegistry:
    """Create-on-first-use store of counters, gauges and timers.

    Registries are cheap; the profiler builds a fresh one per run so that
    snapshots describe exactly one experiment. A name may hold only one
    instrument kind — asking for ``counter(n)`` after ``gauge(n)`` raises.

    Instrument *creation* is serialised by one lock so two threads racing
    on the same name get the same instance; snapshot/exposition copy the
    name tables under that lock, then read instruments lock-free (each
    instrument guards its own state where needed).
    """

    __slots__ = ("_counters", "_gauges", "_timers", "_lock")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._create(self._counters, name, Counter)
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            found = self._create(self._gauges, name, Gauge)
        return found

    def timer(self, name: str) -> Histogram:
        """The bounded duration histogram *name*, created on first use."""
        found = self._timers.get(name)
        if found is None:
            found = self._create(self._timers, name, Histogram)
        return found

    def _create(self, table: dict, name: str, kind: type):
        """Slow path of the getters: create *name* in *table* once."""
        with self._lock:
            found = table.get(name)
            if found is None:
                for other in (self._counters, self._gauges, self._timers):
                    if other is not table and name in other:
                        raise ConfigurationError(
                            f"metric {name!r} already registered with a "
                            "different kind"
                        )
                found = table[name] = kind(name)
            return found

    def _tables(
        self,
    ) -> tuple[dict[str, Counter], dict[str, Gauge], dict[str, Histogram]]:
        """Consistent copies of the name tables (safe to iterate)."""
        with self._lock:
            return dict(self._counters), dict(self._gauges), dict(self._timers)

    def snapshot(self) -> dict[str, object]:
        """All metric values as one JSON-serialisable dict, sorted names."""
        counters, gauges, timers = self._tables()
        return {
            "counters": {name: counters[name].value for name in sorted(counters)},
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "timers": {name: timers[name].snapshot() for name in sorted(timers)},
        }

    def counter_values(self) -> dict[str, int]:
        """Just the counters — the deterministic part of a snapshot."""
        counters = self._tables()[0]
        return {name: counters[name].value for name in sorted(counters)}

    @staticmethod
    def _escape_name(name: str) -> str:
        """Metric name made line-format-safe for :meth:`exposition`.

        The format is ``<name> <value>``, one per line, parsed back with
        ``rpartition(" ")`` — so a space, newline, or backslash in a
        name would corrupt the stream. Escaped in that order:
        ``\\`` → ``\\\\``, newline → ``\\n``, space → ``\\_``.
        """
        return (
            name.replace("\\", "\\\\")
            .replace("\n", "\\n")
            .replace(" ", "\\_")
        )

    def exposition(self) -> str:
        """The registry as a line-oriented text export (``GET /metrics``).

        One ``<name> <value>`` pair per line, grouped by instrument kind
        under ``#`` comment headers, names sorted within each group so
        the output is diffable and greppable. Timers flatten their
        snapshots into ``<name>.<stat>`` lines (``count`` first). Floats
        render via ``repr`` so no precision is invented or dropped;
        names are escaped per :meth:`_escape_name`. Safe to call while
        other threads update instruments.

        >>> registry = MetricsRegistry()
        >>> registry.counter("serve.requests").inc(3)
        >>> print(registry.exposition())
        # counters
        serve.requests 3
        """
        counters, gauges, timers = self._tables()
        lines: list[str] = []

        def value_text(value: object) -> str:
            return repr(value) if isinstance(value, float) else str(value)

        if counters:
            lines.append("# counters")
            for name in sorted(counters):
                lines.append(f"{self._escape_name(name)} {counters[name].value}")
        if gauges:
            lines.append("# gauges")
            for name in sorted(gauges):
                lines.append(
                    f"{self._escape_name(name)} {value_text(gauges[name].value)}"
                )
        if timers:
            lines.append("# timers")
            for name in sorted(timers):
                safe = self._escape_name(name)
                summary = timers[name].snapshot()
                for stat in sorted(summary, key=lambda s: (s != "count", s)):
                    lines.append(f"{safe}.{stat} {value_text(summary[stat])}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every instrument (names included)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} timers={len(self._timers)}>"
        )
