"""Structured event-trace sinks: JSONL events for simulation runs.

An *event* is one flat JSON object::

    {"seq": 17, "kind": "cache.evict", "block": 4096, "dirty": true, ...}

``seq`` is a logical sequence number assigned by the
:class:`~repro.obs.Instrumentation` facade, not wall-clock time — event
streams must be byte-identical across two runs with the same seed, so no
sink field may depend on timing. Kinds are dotted lowercase paths
(``cache.simulate``, ``bus.transfer``, ``mshr.stall``, ``core.run``,
``sweep.cell``); see docs/observability.md for the schema.

Sinks:

* :class:`NullSink` — the default; ``enabled`` is False so hot paths skip
  event construction entirely (near-zero disabled overhead).
* :class:`MemorySink` — collects events in a list (tests, ad-hoc use).
* :class:`JsonlSink` — one ``json.dumps(..., sort_keys=True)`` line per
  event (the ``--trace-events PATH`` CLI flag).
* :class:`StderrSink` — human-oriented ``key=value`` lines (``--verbose``).
* :class:`MultiSink` — fan-out to several sinks.
"""

from __future__ import annotations

import io
import json
import sys
from collections.abc import Sequence

__all__ = [
    "EventSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "StderrSink",
    "MultiSink",
]


class EventSink:
    """Base class: receives fully-formed event dicts from the facade."""

    #: Hot paths check this before building the event dict at all.
    enabled: bool = True

    def emit(self, event: dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (files); idempotent."""

    def flush(self) -> None:
        """Push buffered output to its destination; idempotent.

        The execution layer flushes sinks before forking worker
        processes so children never inherit (and later replay) buffered
        parent bytes into a shared file descriptor.
        """


class NullSink(EventSink):
    """Swallows everything; the near-zero-overhead default."""

    enabled = False

    def emit(self, event: dict[str, object]) -> None:
        pass


class MemorySink(EventSink):
    """Keeps events in memory; ``events`` is the list itself."""

    def __init__(self) -> None:
        self.events: list[dict[str, object]] = []

    def emit(self, event: dict[str, object]) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[dict[str, object]]:
        return [e for e in self.events if e.get("kind") == kind]


class JsonlSink(EventSink):
    """Writes one sorted-keys JSON line per event to a path or stream."""

    def __init__(self, target: str | io.TextIOBase) -> None:
        if isinstance(target, str):
            self._file = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = target
            self._owns = False

    def emit(self, event: dict[str, object]) -> None:
        self._file.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._owns and not self._file.closed:
            self._file.close()

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()


class StderrSink(EventSink):
    """Structured-logging sink: ``[repro] kind key=value ...`` per event."""

    def __init__(self, stream: io.TextIOBase | None = None) -> None:
        self._stream = stream if stream is not None else sys.stderr

    def emit(self, event: dict[str, object]) -> None:
        kind = event.get("kind", "?")
        fields = " ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in ("kind", "seq")
        )
        print(f"[repro] {event.get('seq', 0):>6} {kind} {fields}".rstrip(),
              file=self._stream)


class MultiSink(EventSink):
    """Fans each event out to every child sink."""

    def __init__(self, sinks: Sequence[EventSink]) -> None:
        self.sinks = tuple(sinks)

    def emit(self, event: dict[str, object]) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()
