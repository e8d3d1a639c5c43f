"""The asyncio HTTP/JSON server: routing, backpressure, live metrics.

Stdlib-only by construction: requests are parsed directly off asyncio
streams (no ``http.server``, no third-party framework), bodies capped at
1 MiB and lines at 64 KiB. Connections are **keep-alive** by default
(HTTP/1.1 semantics: a client that doesn't send ``Connection: close``
may pipeline sequential requests over one TCP connection); HTTP/1.0
peers get one request per connection unless they ask for
``keep-alive``. That is all the HTTP a
batch-simulation service needs, and every byte of it is inspectable in
this one module.

Endpoints::

    POST /v1/simulate   submit one cache/MTC run        -> 202 (or 200 answered)
    POST /v1/sweep      submit one experiment grid      -> 202 (or 200 answered)
    GET  /v1/jobs/<id>  job state; result once done     -> 200 / 404
    GET  /healthz       liveness + queue/jobs/cache     -> 200
    GET  /metrics       obs-registry text exposition    -> 200

The request path is deliberately thin: normalise (400 on bad input),
content-address, then answer without executing anything when possible —
coalesce onto an in-flight or completed equivalent in the job table
(200, ``serve.coalesced``) or answer straight from the tiered result
cache (200 with the result inline, ``serve.cache.answered``). Only
genuinely new work is admitted into the bounded queue (429 +
``Retry-After`` when full, ``serve.rejected``). Everything heavy happens
in the scheduler's batches.

Lifecycle: :meth:`SimulationServer.run` blocks until SIGINT/SIGTERM
(or a cross-thread :meth:`shutdown`), then drains — the running batch
completes, queued jobs are cancelled, and the process exits 0. The obs
facade is active for the server's lifetime so ``/metrics`` always has a
live registry; the previous facade state is restored on exit.

For multi-process serving (``repro serve --workers N``)
:class:`SimulationServer` is the per-shard backend:
:class:`repro.serve.router.ShardedServer` binds the public socket, forks
N workers each running a ``SimulationServer`` on a pre-bound localhost
socket (the ``sock`` parameter), and routes by consistent-hashed job id
so coalescing and the hot tier keep their within-shard locality.

:class:`HttpServer` is the part both servers share: the keep-alive
connection loop, the request parser, the error envelope and the drain.
Once a drain begins every response carries ``Connection: close``; the
drain closes the listener and the idle connections, lets a connection
that is mid-request finish its response, then waits for the handlers.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass

from repro import obs
from repro.errors import (
    AdmissionRejected,
    JobNotFound,
    ProtocolError,
    ServeError,
    ServiceUnavailable,
)
from repro.faults import FAULTS
from repro.obs import OBS, TRACER
from repro.serve.admission import AdmissionQueue
from repro.serve.jobs import DEFAULT_JOB_HISTORY, DONE, JobRecord, JobTable
from repro.serve.protocol import job_id, job_material, normalize_request
from repro.serve.scheduler import Scheduler

__all__ = ["HttpServer", "ServeConfig", "SimulationServer"]

#: Request-body ceiling; a simulate/sweep request is a few hundred bytes,
#: so anything near this is a client bug, not a bigger valid request.
MAX_BODY_BYTES = 1 << 20

#: Longest request line or header line; a longer one is answered 400.
#: It is the asyncio stream limit, named here so the error can say it.
MAX_LINE_BYTES = 1 << 16

#: Per-connection read budget; protects the accept loop from stalled peers.
READ_TIMEOUT = 30.0

#: How long a drain waits for connection handlers to unwind.
DRAIN_TIMEOUT = 5.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(slots=True)
class ServeConfig:
    """Everything ``repro serve`` configures, in one picklable bag."""

    host: str = "127.0.0.1"
    port: int = 8765
    queue_depth: int = 64
    max_inflight: int = 4
    jobs: int = 1
    #: Exec-cache root for job results; ``None`` disables caching (and
    #: with it completed-work coalescing across restarts and the
    #: cache-answered fast path).
    cache_dir: str | None = None
    #: A :class:`repro.exec.RetryPolicy`, or ``None`` for the default.
    retry: object | None = None
    #: JSONL span-log path; ``None`` (the default) disables request
    #: tracing entirely (zero per-request overhead, identical output).
    trace_spans: str | None = None
    #: In-memory hot-tier byte budget in front of the disk cache.
    #: ``None`` means the tiered default
    #: (:data:`repro.exec.tiered.DEFAULT_HOT_BYTES`); ``0`` serves from
    #: the plain disk cache. Only meaningful with a *cache_dir*.
    hot_bytes: int | None = None
    #: Worker processes. 1 serves in-process; N > 1 makes ``repro
    #: serve`` start a :class:`~repro.serve.router.ShardedServer` that
    #: forks N of these behind one public port.
    workers: int = 1
    #: Max terminal job records retained in the in-memory table. With a
    #: cache, evicted ids are recoverable by resubmission — the cache
    #: answers instantly.
    job_history: int = DEFAULT_JOB_HISTORY
    #: This worker's shard index under a router (``None`` standalone);
    #: cosmetic: banner + ``/healthz`` labelling only.
    shard: int | None = None
    #: A :class:`repro.exec.RetryPolicy` governing the router's shard
    #: respawns (budget + deterministically-jittered backoff), or
    #: ``None`` for the router's default. Ignored by a standalone
    #: single-worker server.
    restart_policy: object | None = None


def _json_bytes(payload: object) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


#: What a route handler produces: (status, body, content-type, headers).
#: The connection loop owns the Connection header, so handlers never
#: decide keep-alive policy.
Reply = tuple[int, bytes, str, dict]


def _json_reply(
    status: int, payload: object, headers: dict[str, str] | None = None
) -> Reply:
    return status, _json_bytes(payload), "application/json", headers or {}


def _error_json(status: int, exc: Exception) -> Reply:
    """The ``{"error": {"type", "message"}}`` envelope every error uses."""
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    return _json_reply(status, payload)


def _response(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: dict[str, str] | None = None,
    *,
    close: bool = True,
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS[status]}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _wants_keep_alive(version: str, headers: dict[str, str]) -> bool:
    """HTTP/1.1 defaults to keep-alive; 1.0 must ask; close always wins."""
    connection = headers.get("connection", "").lower()
    if "close" in connection:
        return False
    if version == "HTTP/1.0":
        return "keep-alive" in connection
    return True


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:
        # StreamReader.readline's report of a line past the stream limit.
        raise ProtocolError(
            f"request line or header longer than the "
            f"{MAX_LINE_BYTES}-byte limit"
        ) from None


async def read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    """The header lines after an HTTP/1.x start line, names lowercased.

    Requests and the router's worker responses both use it.
    """
    headers: dict[str, str] = {}
    while True:
        raw = await _read_line(reader)
        if raw in (b"\r\n", b"\n", b""):
            return headers
        name, sep, value = raw.decode("latin-1", "replace").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
        if len(headers) > 100:
            raise ProtocolError("too many request headers")


async def _next_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, str, dict[str, str]] | None:
    """Parse one HTTP/1.x request head + body off the stream.

    Returns ``(method, target, body, version, headers)``, or ``None``
    when the peer closed without sending anything; raises
    :class:`ProtocolError` for requests this server will not interpret
    (the connection still gets a clean 400).
    """
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target, version = parts[0].upper(), parts[1], parts[2]
    headers = await read_headers(reader)
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ProtocolError("Content-Length is not an integer") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    return method, target, body, version, headers


class HttpServer:
    """The HTTP/1.x front both servers share: one keep-alive connection
    loop, one error envelope, one drain.

    A subclass answers a parsed request in :meth:`_handle` and names the
    counter bumped per request in :attr:`REQUEST_COUNTER`. Everything
    about connections lives here: keep-alive, :data:`READ_TIMEOUT`, the
    400 and 500 replies, ``Connection: close`` once draining, and the
    drain itself (:meth:`_drain_connections`).
    """

    #: The obs counter bumped once per parsed request.
    REQUEST_COUNTER = "serve.requests"

    def __init__(self) -> None:
        #: (host, port) actually bound — resolves ``port=0`` requests.
        self.address: tuple[str, int] | None = None
        #: Set once the listener is bound (cross-thread test harnesses).
        self.ready = threading.Event()
        self.draining = False
        self._listener: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested: asyncio.Event | None = None
        #: Open client connections (keep-alive means they outlive single
        #: requests); the idle ones are closed at drain so shutdown never
        #: hangs on a peer parked between requests.
        self._connections: set[asyncio.StreamWriter] = set()
        #: The subset currently *inside* a request. Drain spares these:
        #: their handlers finish writing the in-flight response (with
        #: ``Connection: close``), then exit, so a keep-alive client never
        #: loses an answered request to shutdown timing.
        self._busy: set[asyncio.StreamWriter] = set()
        self._handler_tasks: set[asyncio.Task] = set()

    async def _handle(self, method: str, target: str, body: bytes) -> Reply:
        """Answer one parsed request (a :class:`ServeError` becomes its
        status; anything else a 500)."""
        raise NotImplementedError

    def _error_reply(self, exc: ServeError) -> Reply:
        return _error_json(exc.http_status, exc)

    async def _listen(self, **where) -> None:
        """Bind the listener (``sock=`` or ``host=``/``port=``)."""
        self._listener = await asyncio.start_server(
            self._handle_connection, limit=MAX_LINE_BYTES, **where
        )
        self.address = self._listener.sockets[0].getsockname()[:2]

    def shutdown(self) -> None:
        """Request a graceful drain; safe to call from any thread.

        Idempotent, including *after* the server has already exited —
        a supervisor script (or test harness) that shuts down on every
        path must not crash when drain already won the race.
        """
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._begin_shutdown)
            except RuntimeError:
                pass  # loop already closed: the drain is complete

    def _begin_shutdown(self) -> None:
        self.draining = True
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def _drain_connections(self) -> None:
        """Close the listener and the idle connections; let busy ones
        finish their response, then wait for every handler."""
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        for writer in list(self._connections - self._busy):
            try:
                writer.close()
            except Exception:
                pass
        # Closed sockets wake parked handlers with EOF; busy handlers
        # finish their in-flight response. Wait for both so loop teardown
        # never has to cancel one mid-read or mid-write.
        pending = [task for task in self._handler_tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=DRAIN_TIMEOUT)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests off one connection until it closes.

        Keep-alive is decided per request: the loop continues while both
        sides agree (HTTP/1.1 without ``Connection: close``) and no drain
        has begun. Each iteration is bounded by :data:`READ_TIMEOUT`,
        which doubles as the idle timeout between keep-alive requests.
        """
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        self._connections.add(writer)
        try:
            while True:
                try:
                    parsed = await asyncio.wait_for(
                        _next_request(reader), timeout=READ_TIMEOUT
                    )
                except ProtocolError as exc:
                    writer.write(_response(*self._error_reply(exc)))
                    await writer.drain()
                    return
                except (
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    OSError,
                ):
                    return  # peer stalled or vanished; nothing to answer
                if parsed is None:
                    return  # clean close between requests
                method, target, body, version, req_headers = parsed
                if OBS.enabled:
                    OBS.count(self.REQUEST_COUNTER)
                self._busy.add(writer)
                try:
                    try:
                        reply = await self._handle(method, target, body)
                    except ServeError as exc:
                        reply = self._error_reply(exc)
                    except Exception as exc:  # handler bug: 500, keep serving
                        reply = _error_json(500, exc)
                    closing = self.draining or not _wants_keep_alive(
                        version, req_headers
                    )
                    writer.write(_response(*reply, close=closing))
                    await writer.drain()
                finally:
                    self._busy.discard(writer)
                if closing:
                    return
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._handler_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass


class SimulationServer(HttpServer):
    """One service instance: listener + job table + queue + scheduler."""

    def __init__(
        self, config: ServeConfig, *, sock: socket.socket | None = None
    ) -> None:
        super().__init__()
        self.config = config
        self.table = JobTable(history=config.job_history)
        self.queue = AdmissionQueue(config.queue_depth)
        cache = None
        if config.cache_dir is not None:
            from repro.exec.cache import ResultCache
            from repro.exec.tiered import DEFAULT_HOT_BYTES, TieredCache

            hot = (
                DEFAULT_HOT_BYTES
                if config.hot_bytes is None
                else config.hot_bytes
            )
            if hot > 0:
                cache = TieredCache(config.cache_dir, hot_bytes=hot)
            else:
                cache = ResultCache(config.cache_dir)
        self.cache = cache
        #: Pre-bound listening socket (sharded workers inherit theirs
        #: from the router across fork); ``None`` binds host:port.
        self._sock = sock
        self.scheduler = Scheduler(
            self.queue,
            self.table,
            max_inflight=config.max_inflight,
            jobs=config.jobs,
            cache=cache,
            retry=config.retry,
        )
        self._scheduler_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the scheduler (loop must be running)."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        if self._sock is not None:
            await self._listen(sock=self._sock)
        else:
            await self._listen(host=self.config.host, port=self.config.port)
        self._scheduler_task = asyncio.create_task(self.scheduler.run())
        self.ready.set()

    async def _main(self, install_signals: bool) -> int:
        await self.start()
        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, self._begin_shutdown)
        host, port = self.address
        label = (
            f"shard {self.config.shard} serving"
            if self.config.shard is not None
            else "serving"
        )
        print(
            f"{label} on http://{host}:{port} "
            f"(queue-depth={self.config.queue_depth}, "
            f"max-inflight={self.config.max_inflight}, "
            f"jobs={self.config.jobs})",
            file=sys.stderr,
            flush=True,
        )
        await self._shutdown_requested.wait()
        # Finish the running batch and cancel the queue first: until
        # then clients can still poll the running jobs.
        self.scheduler.stop()
        drained = 0
        try:
            drained = await self._scheduler_task
        except Exception as exc:  # pragma: no cover - scheduler bug
            print(f"scheduler crashed during drain: {exc}", file=sys.stderr)
        await self._drain_connections()
        print(
            f"shutting down: drained {drained} in-flight job(s), "
            f"{self.scheduler.cancelled} cancelled",
            file=sys.stderr,
            flush=True,
        )
        return 0

    def run(self, *, install_signals: bool = True) -> int:
        """Blocking entry point: serve until shut down, then drain.

        Runs under :func:`repro.obs.instrumented` for the server's
        lifetime (so ``/metrics`` and the serve counters are live), which
        restores the previous facade state afterwards — embedding a
        server in a test leaves global state exactly as found.
        """
        tracing_before = TRACER.enabled
        if self.config.trace_spans is not None:
            TRACER.configure(self.config.trace_spans)
        try:
            with obs.instrumented():
                return asyncio.run(self._main(install_signals))
        finally:
            if self.config.trace_spans is not None and not tracing_before:
                TRACER.deactivate()

    # -- request handling ----------------------------------------------------------

    async def _handle(self, method: str, target: str, body: bytes) -> Reply:
        if FAULTS.active:
            # Serve-layer chaos hooks: the request is parsed (so the
            # label carries method + path) but not yet acted on, which
            # makes a fired shard.kill a mid-request crash the router
            # must absorb with zero client failures. shard.kill is inert
            # in the process that armed the plan (see FaultPlan.fire), so
            # only forked shards ever die here.
            tag = (
                f"shard{self.config.shard}"
                if self.config.shard is not None
                else "serve"
            )
            label = f"{tag}:{method} {target.split('?', 1)[0]}"
            FAULTS.fire("shard.slow", label)
            FAULTS.fire("shard.kill", label)
        return self._route(method, target, body)

    def _error_reply(self, exc: ServeError) -> Reply:
        status, body, ctype, headers = super()._error_reply(exc)
        if isinstance(exc, AdmissionRejected):
            if OBS.enabled:
                OBS.count("serve.rejected")
            headers["Retry-After"] = str(int(exc.retry_after))
        return status, body, ctype, headers

    # -- routing -------------------------------------------------------------------

    def _route(self, method: str, target: str, body: bytes) -> Reply:
        path = target.split("?", 1)[0]
        if path in ("/v1/simulate", "/v1/sweep"):
            if method != "POST":
                return self._method_not_allowed("POST")
            return self._submit(path.rsplit("/", 1)[1], body)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._job_status(path[len("/v1/jobs/"):])
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._healthz()
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._metrics()
        raise JobNotFound(f"no route for {path!r}")

    @staticmethod
    def _method_not_allowed(allowed: str) -> Reply:
        payload = {"error": {"type": "MethodNotAllowed",
                             "message": f"use {allowed}"}}
        return _json_reply(405, payload, {"Allow": allowed})

    def _submit(self, kind: str, body: bytes) -> Reply:
        if self.draining:
            raise ServiceUnavailable(
                "server is draining for shutdown; resubmit elsewhere or later"
            )
        if body:
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(
                    f"request body is not valid JSON: {exc}"
                ) from exc
        else:
            decoded = {}
        request = normalize_request(kind, decoded)
        material = job_material(request)
        record = JobRecord(
            id=job_id(material), request=request, material=material
        )
        record, coalesced = self.table.resolve(record)
        if coalesced:
            if OBS.enabled:
                OBS.count("serve.coalesced")
        elif self._answer_from_cache(record):
            pass  # terminal record registered; payload built below
        else:
            try:
                self.queue.offer(record)  # raises AdmissionRejected when full
            except AdmissionRejected:
                self.table.discard(record)  # never admitted, never runs
                raise
            record.admitted_at = time.time()
            if TRACER.enabled:
                # The trace root: HTTP admission of this job. It stays
                # open until the scheduler marks the job terminal; its
                # ids are fixed now so every child span (queue wait,
                # exec tasks in pool workers, engine stages) can link
                # to it immediately.
                span = TRACER.begin("serve.request", kind=kind, job=record.id)
                record.trace_span = span
                record.trace_ctx = span.context()
            if OBS.enabled:
                OBS.count("serve.submitted")
            self.scheduler.notify()
        self.scheduler._gauges()
        payload = {
            "job": record.id,
            "state": record.state,
            "coalesced": coalesced,
            "cached": record.cached,
        }
        answered = record.state == DONE and record.result is not None
        if answered:
            # The result rides along on the submit response, so a
            # repeated (coalesced-onto-done or cache-answered) request
            # costs one round trip, not submit + poll.
            payload["result"] = record.result
        return _json_reply(200 if (coalesced or answered) else 202, payload)

    def _answer_from_cache(self, record: JobRecord) -> bool:
        """Answer a fresh submission straight from the result cache.

        The tiered cache is consulted *before* queueing: a hit registers
        the record as already-done (born terminal, ``cached=True``) and
        nothing is scheduled. This is what makes repeats cheap — the hot
        tier turns them into a dict lookup.
        """
        if self.cache is None:
            return False
        from repro.exec.cache import MISS

        value = self.cache.get(record.material)
        if value is MISS:
            return False
        now = time.time()
        with self.scheduler.state_lock:
            record.result = value
            record.state = DONE
            record.cached = True
            record.admitted_at = now
            record.finished_at = now
            record.service_seconds = 0.0
            self.table.mark_terminal(record)
            if OBS.enabled:
                OBS.count("serve.cache.answered")
        return True

    def _job_status(self, job_id_text: str) -> Reply:
        record = self.table.get(job_id_text)
        if record is None:
            raise JobNotFound(
                f"no job {job_id_text!r} (job state is in-memory; results "
                f"persist in the result cache — resubmit to recover them)"
            )
        return _json_reply(200, record.describe())

    def _healthz(self) -> Reply:
        # One consistent snapshot: terminal transitions (scheduler) and
        # the cache-answer path mutate job counts, counters, and
        # timers together under this lock, so a scrape racing a
        # completion sees either all of its effects or none.
        with self.scheduler.state_lock:
            payload = {
                "status": "draining" if self.draining else "ok",
                "queue": {
                    "depth": len(self.queue),
                    "capacity": self.queue.capacity,
                },
                "inflight": self.scheduler.inflight,
                "jobs": self.table.counts(),
                "cache": self.cache.stats().to_json() if self.cache else None,
            }
            if self.config.shard is not None:
                payload["shard"] = self.config.shard
            hot = getattr(self.cache, "hot", None)
            if hot is not None:
                payload["hot_tier"] = hot.stats()
            payload["jobs"]["evicted"] = self.table.evicted
            if OBS.enabled:
                # Bounded latency timers (empty until the first batch
                # runs; created on demand).
                payload["latency"] = {
                    "queue_wait": OBS.registry.timer(
                        "serve.queue.wait"
                    ).snapshot(),
                    "service": OBS.registry.timer(
                        "serve.job.service"
                    ).snapshot(),
                }
        return _json_reply(200, payload)

    def _metrics(self) -> Reply:
        self.scheduler._gauges()  # queue-depth/inflight read fresh
        with self.scheduler.state_lock:
            text = OBS.registry.exposition() if OBS.enabled else ""
        return (
            200,
            (text + "\n").encode("utf-8"),
            "text/plain; charset=utf-8",
            {},
        )
