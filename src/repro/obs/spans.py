"""Request-scoped span tracing: propagated trace/span ids and JSONL logs.

Where the metrics registry (:mod:`repro.obs.registry`) answers "how
much, in total", spans answer "where did this request's *time* go", and
which run moved which bytes. A span is one timed region with identity::

    {"trace": "t3f2a-1", "span": "3f2a-2", "parent": "3f2a-1",
     "name": "serve.exec", "start": 1754..., "end": 1754...,
     "pid": 16170, "attrs": {"job": "83afc21b9f02f1fd"}}

* ``trace`` groups every span of one request (created at HTTP admission
  or at CLI dispatch);
* ``parent`` links the tree together — including across *process
  boundaries*: the serve scheduler serializes the current context into
  each :class:`repro.exec.Task`, and the pool worker re-hydrates it
  before running, so worker-side spans (engine stages, per-chunk
  simulation) are children of the parent-side request span;
* ``start``/``end`` are epoch seconds (``time.time()``), the one clock
  that is comparable across forked processes.

The process-wide :data:`TRACER` starts **disabled**; hot paths guard
every hook behind ``if TRACER.enabled`` so the disabled cost is one
attribute load and a branch, and disabled output is byte-identical to a
build without this module. When enabled (``--trace-spans PATH``), each
process appends complete lines to the shared log with an
``O_APPEND`` handle it opened itself (re-opened after fork), so
concurrent writers never interleave partial records.

The second half of the module reads span logs back: :func:`build_trees`
reconstructs the per-trace span trees, :func:`critical_path` extracts
the chain that determined a request's latency, and
:func:`folded_stacks` emits folded-stack lines consumable by
``flamegraph.pl`` / speedscope. ``repro spans`` is the CLI over these.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigurationError

__all__ = [
    "SPAN_SCHEMA",
    "Span",
    "SpanTracer",
    "TRACER",
    "SpanNode",
    "configure_tracing",
    "disable_tracing",
    "read_spans",
    "build_trees",
    "select_trace",
    "render_tree",
    "critical_path",
    "render_critical_path",
    "folded_stacks",
]

#: Version tag for the span JSONL schema (every record carries it).
SPAN_SCHEMA = "repro.spans/v1"

#: The ambient span context: ``{"trace": ..., "span": ...}`` or None.
_CURRENT: ContextVar[dict | None] = ContextVar("repro_span_context",
                                              default=None)


class Span:
    """One open span; mutate ``attrs`` before the block exits."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "attrs")

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.time()
        self.attrs = attrs

    def context(self) -> dict:
        """The serializable context naming this span as parent.

        Ship this dict alongside a task (it is plain JSON data) and
        re-hydrate it in the worker with :meth:`SpanTracer.adopt`.
        """
        return {"trace": self.trace_id, "span": self.span_id}


class SpanTracer:
    """The process-wide span writer (:data:`TRACER`).

    Disabled by default; :meth:`configure` points it at a JSONL path and
    enables it. Forked children inherit the enabled flag and path but
    re-open the file on first emit (the parent owns the inherited
    handle), appending whole lines so writers never corrupt each other.
    """

    __slots__ = ("enabled", "_path", "_file", "_file_pid", "_seq", "_lock")

    def __init__(self) -> None:
        self.enabled = False
        self._path: str | None = None
        self._file = None
        self._file_pid = 0
        self._seq = 0
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def configure(self, path: str) -> None:
        """Start tracing into *path* (truncated first)."""
        with self._lock:
            self._close_locked()
            try:
                with open(path, "w", encoding="utf-8"):
                    pass
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot open span log {path!r}: {exc}"
                ) from exc
            self._path = path
            self._seq = 0
            self.enabled = True

    def deactivate(self) -> None:
        """Stop tracing and release the log handle."""
        with self._lock:
            self.enabled = False
            self._path = None
            self._close_locked()

    @property
    def path(self) -> str | None:
        return self._path

    def flush(self) -> None:
        """Flush the log handle (called before forking workers)."""
        with self._lock:
            if self._file is not None and not self._file.closed:
                self._file.flush()

    def _close_locked(self) -> None:
        if self._file is not None and self._file_pid == os.getpid():
            try:
                self._file.close()
            except OSError:
                pass
        self._file = None
        self._file_pid = 0

    # -- identity ----------------------------------------------------------------

    def _next_id(self) -> str:
        with self._lock:
            self._seq += 1
            return f"{os.getpid():x}-{self._seq}"

    def current(self) -> dict | None:
        """The ambient context (``{"trace", "span"}``) or None."""
        return _CURRENT.get()

    def context(self) -> dict | None:
        """Alias of :meth:`current` — the dict to serialize into a task."""
        return _CURRENT.get()

    @contextmanager
    def adopt(self, ctx: dict | None) -> Iterator[None]:
        """Re-hydrate a serialized context as the ambient one (workers)."""
        token = _CURRENT.set(dict(ctx) if ctx else None)
        try:
            yield
        finally:
            _CURRENT.reset(token)

    # -- emission ----------------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, *, ctx: dict | None = None, **attrs: object
    ) -> Iterator[Span]:
        """Open a span around a code region.

        The parent is *ctx* when given, else the ambient context; with
        neither, this span roots a fresh trace. The ambient context is
        set to this span for the duration, so nested spans (including
        ones opened by library code that never saw *ctx*) chain onto it.
        """
        if not self.enabled:
            yield Span(name, "", "", None, attrs)
            return
        parent = ctx if ctx is not None else _CURRENT.get()
        span_id = self._next_id()
        if parent:
            trace_id = parent["trace"]
            parent_id = parent["span"]
        else:
            trace_id = f"t{span_id}"
            parent_id = None
        span = Span(name, trace_id, span_id, parent_id, attrs)
        token = _CURRENT.set(span.context())
        try:
            yield span
        finally:
            _CURRENT.reset(token)
            self._write(
                span.name,
                span.trace_id,
                span.span_id,
                span.parent_id,
                span.start,
                time.time(),
                span.attrs,
            )

    def begin(
        self, name: str, *, ctx: dict | None = None, **attrs: object
    ) -> Span | None:
        """Open a long-lived span without scoping it to a code block.

        Used for spans whose start and end live in different callbacks —
        the ``serve.request`` root opens at HTTP admission and closes
        when the scheduler marks the job terminal. The record is only
        written at :meth:`finish`, but the ids are fixed here, so child
        spans emitted in between (and in worker processes) already carry
        valid parent links. Returns ``None`` when tracing is disabled.
        """
        if not self.enabled:
            return None
        parent = ctx if ctx is not None else _CURRENT.get()
        span_id = self._next_id()
        if parent:
            trace_id, parent_id = parent["trace"], parent["span"]
        else:
            trace_id, parent_id = f"t{span_id}", None
        return Span(name, trace_id, span_id, parent_id, attrs)

    def finish(self, span: Span | None, end: float | None = None) -> None:
        """Write a span opened with :meth:`begin` (no-op on ``None``)."""
        if span is None or not self.enabled:
            return
        self._write(
            span.name,
            span.trace_id,
            span.span_id,
            span.parent_id,
            span.start,
            end if end is not None else time.time(),
            span.attrs,
        )

    def emit_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        ctx: dict | None = None,
        **attrs: object,
    ) -> None:
        """Record a span whose interval was measured elsewhere.

        Used for retroactive regions like queue wait, where the start
        was stamped at admission and the end is only known when the
        scheduler picks the job up.
        """
        if not self.enabled:
            return
        parent = ctx if ctx is not None else _CURRENT.get()
        span_id = self._next_id()
        if parent:
            trace_id, parent_id = parent["trace"], parent["span"]
        else:
            trace_id, parent_id = f"t{span_id}", None
        self._write(name, trace_id, span_id, parent_id, start, end, attrs)

    def _write(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        start: float,
        end: float,
        attrs: dict,
    ) -> None:
        record = {
            "schema": SPAN_SCHEMA,
            "trace": trace_id,
            "span": span_id,
            "parent": parent_id,
            "name": name,
            "start": start,
            "end": end,
            "pid": os.getpid(),
            "attrs": {key: attrs[key] for key in sorted(attrs)},
        }
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._path is None:
                return
            if self._file is None or self._file_pid != os.getpid():
                # First emit in this process (or post-fork): open our own
                # O_APPEND handle; whole-line appends never interleave.
                self._file = open(self._path, "a", encoding="utf-8")
                self._file_pid = os.getpid()
            self._file.write(line)
            self._file.flush()


#: The process-wide tracer every layer imports. Disabled by default; the
#: CLI (``--trace-spans``) and the server turn it on for one run.
TRACER = SpanTracer()


def configure_tracing(path: str) -> SpanTracer:
    """Enable :data:`TRACER` on *path* and return it."""
    TRACER.configure(path)
    return TRACER


def disable_tracing() -> None:
    """Disable :data:`TRACER` and close its log."""
    TRACER.deactivate()


# -- span-log analysis ------------------------------------------------------------


@dataclass(slots=True)
class SpanNode:
    """One span record plus its reconstructed children."""

    record: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def span_id(self) -> str:
        return self.record["span"]

    @property
    def trace_id(self) -> str:
        return self.record["trace"]

    @property
    def start(self) -> float:
        return self.record["start"]

    @property
    def end(self) -> float:
        return self.record["end"]

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def self_seconds(self) -> float:
        """Duration not covered by child spans (clamped at zero)."""
        return max(
            0.0, self.seconds - sum(child.seconds for child in self.children)
        )

    def attr(self, key: str) -> object:
        return (self.record.get("attrs") or {}).get(key)


def read_spans(path: str) -> list[dict]:
    """Parse one span JSONL log; non-span lines are rejected loudly."""
    records: list[dict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"{path}:{number}: not valid JSON: {exc}"
                    ) from exc
                if record.get("schema") != SPAN_SCHEMA:
                    raise ConfigurationError(
                        f"{path}:{number}: not a {SPAN_SCHEMA} record "
                        f"(schema={record.get('schema')!r}); is this an "
                        f"event log rather than a span log?"
                    )
                records.append(record)
    except OSError as exc:
        raise ConfigurationError(f"cannot read span log {path!r}: {exc}") from exc
    return records


def build_trees(records: list[dict]) -> list[SpanNode]:
    """Reconstruct span trees; returns the roots sorted by start time.

    A span whose parent id never appears in the log (e.g. the log was
    truncated, or the parent process died before closing its span) is
    promoted to a root rather than dropped, so partial logs still render.
    """
    nodes = {record["span"]: SpanNode(record) for record in records}
    roots: list[SpanNode] = []
    for record in records:
        node = nodes[record["span"]]
        parent = nodes.get(record.get("parent") or "")
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: (child.start, child.span_id))
    roots.sort(key=lambda root: (root.start, root.span_id))
    return roots


def select_trace(
    roots: list[SpanNode],
    *,
    trace: str | None = None,
    job: str | None = None,
) -> SpanNode:
    """The root matching a trace id or a ``job`` attribute, validated."""
    if trace is not None:
        matches = [root for root in roots if root.trace_id == trace]
        what = f"trace {trace!r}"
    elif job is not None:
        if not job:
            # An empty prefix would "match" every root, including spans
            # with no job attribute at all.
            raise ConfigurationError("--job needs a non-empty id or prefix")
        matches = [root for root in roots if root.attr("job") == job]
        if not matches:
            # Job ids are long content hashes; accept an unambiguous
            # prefix (roots without a job attribute never match).
            matches = [
                root
                for root in roots
                if str(root.attr("job") or "").startswith(job)
            ]
            distinct = sorted({str(root.attr("job")) for root in matches})
            if len(distinct) > 1:
                raise ConfigurationError(
                    f"job prefix {job!r} is ambiguous: " + ", ".join(distinct)
                )
        what = f"job {job!r}"
    else:
        raise ConfigurationError("select_trace needs a trace id or a job id")
    if not matches:
        known = sorted({root.trace_id for root in roots})
        raise ConfigurationError(
            f"no spans for {what} in this log (traces: "
            + (", ".join(known[:8]) if known else "none")
            + (", ..." if len(known) > 8 else "")
            + ")"
        )
    return matches[0]


def _format_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.1f}ms"


def _describe(node: SpanNode) -> str:
    attrs = node.record.get("attrs") or {}
    shown = " ".join(
        f"{key}={attrs[key]}" for key in sorted(attrs) if attrs[key] is not None
    )
    pid = node.record.get("pid")
    tag = f" [pid {pid}]" if pid is not None else ""
    return f"{node.name}{tag}" + (f" {shown}" if shown else "")


def render_tree(root: SpanNode) -> str:
    """Indented tree view with total and self time per span."""
    lines = [f"trace {root.trace_id}"]

    def walk(node: SpanNode, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{_describe(node)}  "
            f"total={_format_ms(node.seconds)} "
            f"self={_format_ms(node.self_seconds)}"
        )
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 1)
    return "\n".join(lines)


def critical_path(root: SpanNode) -> list[SpanNode]:
    """The chain of spans that determined the trace's end-to-end time.

    Standard last-finisher extraction: starting at the root, repeatedly
    descend into the child whose *end* is latest — the one the parent
    was still waiting on when it closed. The returned list runs root to
    leaf; each node's :attr:`~SpanNode.self_seconds` is its contribution.
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda child: (child.end, child.start))
        path.append(node)
    return path


def render_critical_path(root: SpanNode) -> str:
    """The critical path as one line per hop with share-of-total."""
    path = critical_path(root)
    total = root.seconds or 1e-12
    lines = [
        f"critical path of trace {root.trace_id} "
        f"({_format_ms(root.seconds)} end to end):"
    ]
    for node in path:
        share = node.self_seconds / total
        lines.append(
            f"  {_format_ms(node.self_seconds):>10s}  {share:>6.1%}  "
            f"{_describe(node)}"
        )
    covered = sum(node.self_seconds for node in path)
    lines.append(
        f"  {_format_ms(covered):>10s}  {covered / total:>6.1%}  (path total)"
    )
    return "\n".join(lines)


def folded_stacks(roots: list[SpanNode]) -> list[str]:
    """Folded-stack lines (``a;b;c <microseconds>``) for flamegraph tools.

    Each span contributes its *self* time under its ancestry path, so
    the flame widths sum to real wall clock per trace. Identical stacks
    across traces are merged (summed), matching ``flamegraph.pl`` input
    expectations; speedscope imports the same format.
    """
    weights: dict[str, int] = {}

    def walk(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{node.name}" if prefix else node.name
        micros = round(node.self_seconds * 1e6)
        if micros > 0:
            weights[stack] = weights.get(stack, 0) + micros
        for child in node.children:
            walk(child, stack)

    for root in roots:
        walk(root, "")
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]
