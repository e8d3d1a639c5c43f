"""Sharded serving: a consistent-hashing front router over N workers.

``repro serve --workers N`` runs one :class:`ShardedServer`: the parent
process binds the public port, pre-binds N loopback sockets, forks N
:class:`~repro.serve.server.SimulationServer` workers (each inheriting
its own listening socket across the fork), and then runs a thin asyncio
proxy that forwards every request to the worker that *owns* it.

Why a router instead of ``SO_REUSEPORT``? A shared-port accept spreads
connections by flow hash, i.e. *randomly* with respect to request
content — identical submissions land on different workers, so request
coalescing stops collapsing duplicates and every shard's hot tier warms
its own redundant copy. The router instead computes the same
content-addressed job id the workers use and consistent-hashes it
(:class:`~repro.serve.shard.HashRing`), so a given request always
reaches the same shard: coalescing and hot-tier locality survive
scale-out by construction. Submissions the router cannot content-address
(malformed bodies) go to shard 0, whose parser produces the same 400 the
single-worker server would.

The workers share one disk cache root (atomic same-filesystem renames
make concurrent writers safe) but each owns a private in-memory job
table and hot tier — the ring means no two shards serve the same key,
so nothing needs cross-process invalidation.

Supervision and failover
------------------------
The router *keeps* every pre-bound listening socket, so a shard's port
never refuses connections — a dead shard's dials simply queue in the
accept backlog until the replacement starts accepting. One supervisor
task per shard watches pid + pipe liveness (the ``multiprocessing``
sentinel becomes readable the instant the child exits) and respawns a
dead shard onto its original socket after a bounded,
deterministically-jittered backoff (the execution layer's
:class:`~repro.exec.resilience.RetryPolicy`, so chaos tests replay the
same schedule every run). A shard that flaps past its restart budget is
marked ``failed`` and ``/healthz`` reports ``degraded`` — the router
itself never crashes, and the surviving shards keep serving their share
of the ring. Respawn is cheap by design: completed results live in the
disk tier of the shared cache, so the replacement's empty hot tier and
job table rebuild on demand.

While the owning shard is down, idempotent requests (``GET``) wait for
the respawn and are retried once against the replacement
(``serve.router.failover``); non-idempotent submits are answered
immediately with 503 + an honest ``Retry-After`` derived from the
restart backoff schedule — and submits are safe to resubmit verbatim,
because job ids are content-addressed (a duplicate coalesces or is
answered from the cache). A per-shard circuit breaker (closed → open on
consecutive proxy failures → half-open probe after a cooldown) turns a
sick-but-accepting shard into fast 503s instead of a pile-up of
30-second proxy timeouts. The serve-layer fault points (``shard.kill``,
``shard.slow``, ``conn.drop`` — see :mod:`repro.exec.faults`) exist to
prove all of this under injected chaos, and the ``serve-chaos`` CI job
does exactly that.

Aggregation endpoints are answered by the router itself:

* ``/healthz`` — router status (``ok`` / ``degraded`` / ``draining``),
  per-shard supervision + breaker state, every *up* worker's own healthz
  payload, and the per-shard routed-request counts;
* ``/metrics`` — worker counters summed by name (correct for monotonic
  counters; the CI hot-tier assertion reads these), the router's own
  counters (``serve.shard.restart``, ``serve.shard.breaker.open``,
  ``serve.router.failover``, ``serve.router.unavailable``), and each
  worker's full exposition prefixed ``shard<i>.`` so per-shard
  gauges/percentiles stay inspectable without pretending summed
  percentiles mean anything.

The router is an :class:`~repro.serve.server.HttpServer`, so its
connection loop and drain are the single-worker server's own.
SIGINT/SIGTERM drains the router's connections, forwards SIGTERM to the
workers (each drains its running batch and cancels its queue), and joins
them before exiting 0. Supervisors stand down at drain — a shard dying
mid-drain is reaped, not respawned.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import signal
import socket
import sys
import time

from repro import obs
from repro.errors import ConfigurationError
from repro.exec.resilience import RetryPolicy
from repro.faults import FAULTS
from repro.obs import OBS
from repro.serve.protocol import job_id, job_material, normalize_request
from repro.serve.server import (
    READ_TIMEOUT,
    HttpServer,
    Reply,
    ServeConfig,
    SimulationServer,
    _json_reply,
    read_headers,
)
from repro.serve.shard import HashRing

__all__ = ["ShardedServer", "CircuitBreaker", "DEFAULT_RESTART_POLICY"]

#: How long the router waits for a forked worker to start accepting.
WORKER_START_TIMEOUT = 30.0

#: Per-worker cap on pooled (idle keep-alive) upstream connections.
POOL_SIZE = 8

#: Upper bound on one proxied round trip. Proxied requests are all fast
#: admission-path replies (the heavy work happens asynchronously in the
#: shard's scheduler), so anything slower than this is a sick shard, not
#: a slow request.
PROXY_TIMEOUT = READ_TIMEOUT

#: Per-shard fetch bound for the /healthz and /metrics aggregators —
#: a wedged shard must not make the router's own health opaque.
AGGREGATE_TIMEOUT = 5.0

#: How long an idempotent request waits for a respawn before giving up.
FAILOVER_WAIT = 15.0

#: Consecutive proxy failures that open a shard's circuit breaker.
BREAKER_THRESHOLD = 3

#: Seconds an open breaker short-circuits before allowing a probe.
BREAKER_COOLDOWN = 0.5

#: A shard that stays up this long earns its restart budget back — the
#: budget bounds *flapping*, not total restarts over a long uptime.
FLAP_RESET_SECONDS = 60.0

#: Restart budget + backoff schedule used when :class:`ServeConfig`
#: does not supply one. Deterministic jitter means a given shard's k-th
#: restart always waits the same time — chaos runs replay exactly.
DEFAULT_RESTART_POLICY = RetryPolicy(
    attempts=5, base_delay=0.2, max_delay=5.0
)

#: Methods safe to transparently retry against a respawned shard.
_IDEMPOTENT = frozenset({"GET", "HEAD"})

_HEALTHZ_RAW = (
    b"GET /healthz HTTP/1.1\r\nHost: router\r\nContent-Length: 0\r\n\r\n"
)
_METRICS_RAW = (
    b"GET /metrics HTTP/1.1\r\nHost: router\r\nContent-Length: 0\r\n\r\n"
)


def _worker_main(
    config: ServeConfig,
    sock: socket.socket,
    close_fds: tuple[int, ...] = (),
) -> None:
    """Entry point of one forked worker: serve on the inherited socket.

    A *respawned* worker is forked from inside the router's running
    event loop, so it starts life with parent-only baggage: the public
    listener, sibling shards' pre-bound sockets, pooled upstream
    connections, open client connections, and a thread-state marker
    claiming an event loop is already running. Close the former
    (best-effort — the fd list is advisory) and clear the latter so this
    child's ``asyncio.run`` starts clean.
    """
    for fd in close_fds:
        if fd == sock.fileno():
            continue
        try:
            os.close(fd)
        except OSError:
            pass
    try:
        asyncio.events._set_running_loop(None)
    except Exception:
        pass
    code = SimulationServer(config, sock=sock).run(install_signals=True)
    raise SystemExit(code)


class _WorkerPool:
    """Keep-alive connection pool to one worker's loopback socket."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def _dial(self):
        return await asyncio.open_connection("127.0.0.1", self.port)

    async def request(self, raw: bytes) -> tuple[int, dict[str, str], bytes]:
        """One round trip: send *raw*, parse the worker's response.

        Reuses an idle pooled connection when possible; a stale one
        (worker restarted or timed the connection out) is detected by
        the failed round trip and retried once on a fresh dial — safe
        because every serve request is idempotent by content addressing.
        """
        while True:
            fresh = not self._idle
            if fresh:
                reader, writer = await self._dial()
            else:
                reader, writer = self._idle.pop()
            try:
                writer.write(raw)
                await writer.drain()
                status, headers, body = await self._read_response(reader)
            except (OSError, asyncio.IncompleteReadError, ConnectionError):
                try:
                    writer.close()
                except Exception:
                    pass
                if fresh:
                    raise  # a brand-new connection failed: worker is down
                continue  # stale pooled connection; retry on a fresh one
            except asyncio.CancelledError:
                # A caller's wait_for expired mid-round-trip; the
                # connection is half-used and must not be pooled.
                try:
                    writer.close()
                except Exception:
                    pass
                raise
            if headers.get("connection", "").lower() == "close":
                writer.close()
            elif len(self._idle) < POOL_SIZE:
                self._idle.append((reader, writer))
            else:
                writer.close()
            return status, headers, body

    @staticmethod
    async def _read_response(
        reader: asyncio.StreamReader,
    ) -> tuple[int, dict[str, str], bytes]:
        line = await reader.readline()
        if not line:
            raise ConnectionError("worker closed the connection")
        parts = line.decode("latin-1", "replace").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ConnectionError(f"malformed worker status line: {line!r}")
        status = int(parts[1])
        headers = await read_headers(reader)
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return status, headers, body

    def drop_idle(self) -> None:
        """Sever one pooled connection (the ``conn.drop`` fault point)."""
        if self._idle:
            _, writer = self._idle.pop()
            try:
                writer.close()
            except Exception:
                pass

    def idle_fds(self) -> list[int]:
        """File descriptors of the pooled connections (for fork hygiene)."""
        fds = []
        for _, writer in list(self._idle):
            sock = writer.get_extra_info("socket")
            try:
                fd = sock.fileno() if sock is not None else -1
            except (OSError, ValueError):
                continue
            if fd >= 0:
                fds.append(fd)
        return fds

    def close(self) -> None:
        for _, writer in self._idle:
            try:
                writer.close()
            except Exception:
                pass
        self._idle.clear()


class CircuitBreaker:
    """Per-shard breaker over *consecutive* proxy failures.

    ``closed`` → ``open`` after :data:`BREAKER_THRESHOLD` consecutive
    failures; ``open`` short-circuits to 503 for
    :data:`BREAKER_COOLDOWN` seconds; then ``half-open`` admits exactly
    one probe request — success closes the breaker, failure reopens it.
    The kept listening sockets mean a sick shard's port rarely *refuses*
    connections, so without a breaker every request to a wedged shard
    would pin a router handler for the full :data:`PROXY_TIMEOUT`.
    """

    __slots__ = ("state", "failures", "opened_at", "_probing")

    def __init__(self) -> None:
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self._probing = False

    def reset(self) -> None:
        self.state = "closed"
        self.failures = 0
        self._probing = False

    def allow(self, now: float) -> bool:
        """May a request be proxied right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if now - self.opened_at < BREAKER_COOLDOWN:
                return False
            self.state = "half-open"
            self._probing = True
            return True
        # half-open: one probe in flight at a time; everyone else waits
        # for its verdict behind a fast 503.
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        self.reset()

    def record_failure(self, now: float) -> bool:
        """Account one failure; True when this call *opened* the breaker."""
        self.failures += 1
        self._probing = False
        if self.state == "half-open" or (
            self.state == "closed" and self.failures >= BREAKER_THRESHOLD
        ):
            self.state = "open"
            self.opened_at = now
            return True
        if self.state == "open":
            self.opened_at = now  # late failure: restart the cooldown
        return False

    def remaining(self, now: float) -> float:
        """Seconds left on an open breaker's cooldown (0 otherwise)."""
        if self.state != "open":
            return 0.0
        return max(0.0, BREAKER_COOLDOWN - (now - self.opened_at))


class _ShardState:
    """Everything the router's supervision tracks about one shard.

    ``mode`` is one of ``starting`` (forked, not yet ready), ``up``
    (serving), ``restarting`` (dead, respawn pending or in progress) and
    ``failed`` (restart budget exhausted; permanently down this run).
    """

    __slots__ = (
        "index",
        "port",
        "sock",
        "config",
        "pool",
        "proc",
        "mode",
        "restarts",
        "restarting_until",
        "started_at",
        "ever_ready",
        "up_event",
        "breaker",
    )

    def __init__(
        self,
        index: int,
        port: int,
        sock: socket.socket,
        config: ServeConfig,
    ) -> None:
        self.index = index
        self.port = port
        self.sock = sock
        self.config = config
        self.pool = _WorkerPool(port)
        self.proc: multiprocessing.Process | None = None
        self.mode = "starting"
        self.restarts = 0
        self.restarting_until: float | None = None
        self.started_at: float | None = None
        self.ever_ready = False
        self.up_event = asyncio.Event()
        self.breaker = CircuitBreaker()


class ShardedServer(HttpServer):
    """The ``--workers N`` frontend: fork, route, supervise, aggregate."""

    REQUEST_COUNTER = "serve.router.requests"

    def __init__(self, config: ServeConfig) -> None:
        super().__init__()
        if config.workers < 2:
            raise ConfigurationError(
                f"ShardedServer needs workers >= 2, got {config.workers} "
                f"(run SimulationServer directly for one worker)"
            )
        self.config = config
        self.restart_policy: RetryPolicy = (
            config.restart_policy
            if config.restart_policy is not None
            else DEFAULT_RESTART_POLICY
        )
        self.ring = HashRing(list(range(config.workers)))
        self.worker_ports: list[int] = []
        self._shards: list[_ShardState] = []
        #: Kept in sync with each shard's live process object so the
        #: drain accounting (and tests) can reach the current children.
        self._procs: list[multiprocessing.Process] = []
        self._supervisors: list[asyncio.Task] = []
        #: Requests routed per shard (also exported as counters).
        self.routed = [0] * config.workers
        #: Supervision counters, mirrored into /metrics and OBS.
        self.restarts_total = 0
        self.failovers = 0
        self.breaker_opens = 0
        self.unavailable = 0

    # -- worker lifecycle ----------------------------------------------------------

    def _spawn_workers(self) -> None:
        """Bind one loopback socket per worker, then fork the workers.

        Binding happens in the parent *before* the fork, so the parent
        knows every port without any IPC and a worker can never lose a
        bind race. Each child serves its own listener; the parent keeps
        every socket open for the process's lifetime — that is what lets
        a supervisor respawn a dead shard onto the *same* port, with
        requests that raced the crash waiting in the accept backlog
        instead of being refused.
        """
        for index in range(self.config.workers):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sock.listen(128)
            port = sock.getsockname()[1]
            worker_config = ServeConfig(
                host="127.0.0.1",
                port=port,
                queue_depth=self.config.queue_depth,
                max_inflight=self.config.max_inflight,
                jobs=self.config.jobs,
                cache_dir=self.config.cache_dir,
                retry=self.config.retry,
                trace_spans=self.config.trace_spans,
                hot_bytes=self.config.hot_bytes,
                workers=1,
                job_history=self.config.job_history,
                shard=index,
            )
            self._shards.append(_ShardState(index, port, sock, worker_config))
            self.worker_ports.append(port)
            self._procs.append(None)  # filled by _start_shard
        for state in self._shards:
            self._start_shard(state)

    def _start_shard(self, state: _ShardState) -> None:
        """Fork (or re-fork) one worker onto its kept pre-bound socket."""
        close_fds = tuple(self._parent_fds(state))
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_worker_main,
            args=(state.config, state.sock, close_fds),
            name=f"repro-serve-shard-{state.index}",
        )
        proc.start()
        state.proc = proc
        self._procs[state.index] = proc

    def _parent_fds(self, state: _ShardState) -> list[int]:
        """Parent-only fds a freshly-forked shard should close.

        Best-effort: missing one only keeps a parent socket alive a
        little longer inside the child; it never breaks correctness.
        """
        fds: list[int] = []

        def add(sock_like) -> None:
            try:
                fd = sock_like.fileno()
            except (OSError, ValueError, AttributeError):
                return
            if fd is not None and fd >= 0:
                fds.append(fd)

        for other in self._shards:
            if other is not state:
                add(other.sock)
            for fd in other.pool.idle_fds():
                fds.append(fd)
        if self._listener is not None:
            for sock in self._listener.sockets:
                add(sock)
        for writer in list(self._connections):
            peer = writer.get_extra_info("socket")
            if peer is not None:
                add(peer)
        return fds

    async def _probe_healthz(self, port: int) -> int:
        """One fresh-connection healthz round trip; returns the status."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: router\r\n"
                b"Connection: close\r\nContent-Length: 0\r\n\r\n"
            )
            await writer.drain()
            status, _, _ = await _WorkerPool._read_response(reader)
            return status
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _await_ready(self, state: _ShardState) -> bool:
        """Probe the shard's healthz until it answers (bounded).

        A dead shard's port still *accepts* (the router keeps the
        pre-bound listening sockets precisely so a respawn can inherit
        them), so readiness must be a completed HTTP round trip, never a
        successful dial.
        """
        deadline = time.monotonic() + WORKER_START_TIMEOUT
        while not self.draining and time.monotonic() < deadline:
            if state.proc is None or not state.proc.is_alive():
                return False
            try:
                status = await asyncio.wait_for(
                    self._probe_healthz(state.port), timeout=2.0
                )
                if status == 200:
                    return True
            except (
                OSError,
                ConnectionError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
            ):
                pass
            await asyncio.sleep(0.05)
        return False

    async def _wait_for_exit(self, proc: multiprocessing.Process) -> None:
        """Resolve when *proc* has exited; the sentinel pipe fd becomes
        readable the moment the child is gone, so an up shard costs the
        supervisor nothing."""
        if proc.is_alive():
            loop = asyncio.get_running_loop()
            exited = asyncio.Event()
            try:
                loop.add_reader(proc.sentinel, exited.set)
            except (OSError, ValueError):
                while proc.is_alive():  # no reader support: poll
                    await asyncio.sleep(0.1)
            else:
                try:
                    await exited.wait()
                finally:
                    try:
                        loop.remove_reader(proc.sentinel)
                    except (OSError, ValueError):
                        pass
        proc.join(timeout=1)  # reap; the child is already gone

    async def _supervise(self, state: _ShardState) -> None:
        """Own one shard's lifecycle: readiness, death, backoff, respawn.

        Cancelled at drain; a shard dying mid-drain is left for
        :meth:`_stop_workers` to reap rather than respawned.
        """
        while True:
            ok = await self._await_ready(state)
            if self.draining:
                return
            if ok:
                state.mode = "up"
                state.ever_ready = True
                state.started_at = time.monotonic()
                state.restarting_until = None
                state.breaker.reset()
                state.up_event.set()
            elif state.proc is not None and state.proc.is_alive():
                # Forked but never became ready within the budget: a
                # wedged start. Terminate and account it like a death.
                state.proc.terminate()
            await self._wait_for_exit(state.proc)
            if self.draining:
                return
            state.up_event.clear()
            exitcode = state.proc.exitcode
            if not state.ever_ready:
                # Dying before *ever* serving is a configuration problem
                # (bad cache dir, import error), not churn — fail the
                # startup loudly instead of respawning in a loop.
                state.mode = "failed"
                return
            state.mode = "restarting"
            now = time.monotonic()
            if (
                state.started_at is not None
                and now - state.started_at >= FLAP_RESET_SECONDS
            ):
                state.restarts = 0  # it held steady; earn the budget back
            state.started_at = None
            state.restarts += 1
            budget = self.restart_policy.attempts
            if state.restarts > budget:
                state.mode = "failed"
                print(
                    f"shard {state.index} exited (code {exitcode}) and "
                    f"exhausted its restart budget ({budget}); serving "
                    f"degraded without it",
                    file=sys.stderr,
                    flush=True,
                )
                return
            self.restarts_total += 1
            if OBS.enabled:
                OBS.count("serve.shard.restart")
            delay = self.restart_policy.backoff(
                f"shard-{state.index}", state.restarts
            )
            state.restarting_until = now + delay
            print(
                f"shard {state.index} exited (code {exitcode}); "
                f"respawning in {delay:.2f}s "
                f"(restart {state.restarts}/{budget})",
                file=sys.stderr,
                flush=True,
            )
            await asyncio.sleep(delay)
            if self.draining:
                return
            state.pool.close()  # pooled connections died with the child
            # Fork from a helper thread so the child's main thread is not
            # the router's event-loop thread (asyncio state stays clean).
            await asyncio.get_running_loop().run_in_executor(
                None, self._start_shard, state
            )

    async def _initial_readiness(self) -> None:
        """Wait until every shard is up once (or fail startup loudly)."""

        async def outcome(state: _ShardState) -> bool:
            while state.mode not in ("up", "failed"):
                await asyncio.sleep(0.02)
            return state.mode == "up"

        try:
            results = await asyncio.wait_for(
                asyncio.gather(*(outcome(s) for s in self._shards)),
                WORKER_START_TIMEOUT + 5.0,
            )
        except asyncio.TimeoutError:
            raise ConfigurationError(
                f"serve workers did not start accepting within "
                f"{WORKER_START_TIMEOUT:.0f}s"
            ) from None
        for state, ok in zip(self._shards, results):
            if not ok:
                raise ConfigurationError(
                    f"serve worker {state.index} exited during startup"
                )

    def _stop_workers(self) -> None:
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()  # SIGTERM -> worker's graceful drain
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=30)
        for state in self._shards:
            state.pool.close()
            try:
                state.sock.close()
            except OSError:
                pass

    # -- routing -------------------------------------------------------------------

    def _shard_for(self, method: str, target: str, body: bytes) -> int:
        """The shard owning this request (0 when it cannot be addressed)."""
        path = target.split("?", 1)[0]
        if method == "POST" and path in ("/v1/simulate", "/v1/sweep"):
            try:
                decoded = json.loads(body.decode("utf-8")) if body else {}
                request = normalize_request(path.rsplit("/", 1)[1], decoded)
            except Exception:
                # The owning worker's parser will produce the same 400
                # a single-worker server would; shard 0 is as good a
                # place as any to say so deterministically.
                return 0
            return self.ring.lookup(job_id(job_material(request)))
        if path.startswith("/v1/jobs/"):
            return self.ring.lookup(path[len("/v1/jobs/"):])
        return 0

    def _retry_after_for(self, state: _ShardState) -> int:
        """An honest Retry-After for a 503: how long until this shard is
        expected back, derived from the restart backoff schedule (plus a
        readiness margin), the breaker cooldown, or a flat floor."""
        now = time.monotonic()
        if state.mode == "failed":
            estimate = 30.0  # not coming back; discourage tight retries
        elif state.mode != "up" and state.restarting_until is not None:
            estimate = (state.restarting_until - now) + 0.5
        elif state.breaker.state != "closed":
            estimate = state.breaker.remaining(now) + 0.1
        else:
            estimate = 1.0
        return max(1, math.ceil(min(estimate, 60.0)))

    def _unavailable(self, state: _ShardState, why: str) -> Reply:
        self.unavailable += 1
        if OBS.enabled:
            OBS.count("serve.router.unavailable")
        retry_after = self._retry_after_for(state)
        message = (
            f"shard {state.index} cannot take this request: {why}; "
            f"retry after {retry_after}s"
        )
        return _json_reply(
            503,
            {"error": {"type": "ShardUnavailable", "message": message}},
            {"Retry-After": str(retry_after)},
        )

    async def _await_recovery(self, state: _ShardState) -> bool:
        """Bounded wait for the shard to be (back) up."""
        try:
            await asyncio.wait_for(state.up_event.wait(), FAILOVER_WAIT)
        except asyncio.TimeoutError:
            return False
        return state.mode == "up"

    async def _shard_request(
        self, state: _ShardState, raw: bytes, label: str
    ) -> tuple[int, dict[str, str], bytes]:
        """One bounded proxy round trip, with the conn.drop fault point."""
        if FAULTS.active:
            spec = FAULTS.take("conn.drop", label)
            if spec is not None:
                state.pool.drop_idle()
                raise ConnectionError(
                    f"injected fault {spec.describe()} fired at {label!r}"
                )
        return await asyncio.wait_for(
            state.pool.request(raw), timeout=PROXY_TIMEOUT
        )

    def _record_failure(self, state: _ShardState) -> None:
        if state.breaker.record_failure(time.monotonic()):
            self.breaker_opens += 1
            if OBS.enabled:
                OBS.count("serve.shard.breaker.open")
            print(
                f"shard {state.index} circuit breaker opened after "
                f"{state.breaker.failures} consecutive proxy failures",
                file=sys.stderr,
                flush=True,
            )

    async def _proxy(
        self, shard: int, method: str, target: str, body: bytes
    ) -> Reply:
        state = self._shards[shard]
        label = f"shard{shard}:{method} {target.split('?', 1)[0]}"
        idempotent = method in _IDEMPOTENT
        raw = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode("latin-1") + body
        failover = False
        if state.mode == "failed":
            return self._unavailable(state, "its restart budget is exhausted")
        if state.mode != "up":
            # Mid-restart. Submits get an honest 503 + Retry-After (they
            # are safe to resubmit verbatim — content addressing dedups);
            # idempotent requests wait out the respawn and retry.
            if not idempotent:
                return self._unavailable(state, "it is restarting")
            if not await self._await_recovery(state):
                return self._unavailable(
                    state, "it did not come back in time"
                )
            failover = True
        if not state.breaker.allow(time.monotonic()):
            return self._unavailable(state, "its circuit breaker is open")
        try:
            status, headers, payload = await self._shard_request(
                state, raw, label
            )
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            self._record_failure(state)
            if not idempotent:
                return self._unavailable(
                    state, f"the proxied request failed ({exc})"
                )
            if not await self._await_recovery(state):
                return self._unavailable(
                    state, f"the proxied request failed ({exc})"
                )
            try:
                status, headers, payload = await self._shard_request(
                    state, raw, label
                )
            except (OSError, ConnectionError, asyncio.TimeoutError) as exc2:
                self._record_failure(state)
                return self._unavailable(
                    state, f"the failover retry failed ({exc2})"
                )
            failover = True
        state.breaker.record_success()
        if failover:
            self.failovers += 1
            if OBS.enabled:
                OBS.count("serve.router.failover")
        self.routed[shard] += 1
        if OBS.enabled:
            OBS.count(f"serve.router.routed.{shard}")
        extra = {}
        retry_after = headers.get("retry-after")
        if retry_after is not None:
            # Forward the worker's own back-pressure hint (admission
            # 429s) instead of silently dropping it at the proxy hop.
            extra["Retry-After"] = retry_after
        return (
            status,
            payload,
            headers.get("content-type", "application/json"),
            extra,
        )

    # -- aggregation ---------------------------------------------------------------

    def _supervision_report(self) -> dict:
        return {
            "restart_budget": self.restart_policy.attempts,
            "restarts": self.restarts_total,
            "failovers": self.failovers,
            "breaker_opens": self.breaker_opens,
            "unavailable": self.unavailable,
            "shards": [
                {
                    "shard": state.index,
                    "state": state.mode,
                    "restarts": state.restarts,
                    "breaker": state.breaker.state,
                }
                for state in self._shards
            ],
        }

    async def _healthz(self) -> Reply:
        shards = []
        degraded = False
        for state in self._shards:
            if state.mode != "up":
                degraded = True
                shards.append(
                    {
                        "status": (
                            "down" if state.mode == "failed" else "restarting"
                        ),
                        "shard": state.index,
                        "restarts": state.restarts,
                    }
                )
                continue
            if state.breaker.state == "open":
                degraded = True
            try:
                _, _, body = await asyncio.wait_for(
                    state.pool.request(_HEALTHZ_RAW),
                    timeout=AGGREGATE_TIMEOUT,
                )
                shards.append(json.loads(body.decode("utf-8")))
            except (
                OSError,
                ConnectionError,
                ValueError,
                asyncio.TimeoutError,
            ) as exc:
                degraded = True
                shards.append(
                    {
                        "status": "unreachable",
                        "shard": state.index,
                        "error": str(exc),
                    }
                )
        status = "draining" if self.draining else (
            "degraded" if degraded else "ok"
        )
        payload = {
            "status": status,
            "role": "router",
            "workers": self.config.workers,
            "routed": list(self.routed),
            "supervision": self._supervision_report(),
            "shards": shards,
        }
        return _json_reply(200, payload)

    async def _metrics(self) -> Reply:
        summed: dict[str, int] = {}
        per_shard: list[tuple[int, str]] = []
        for state in self._shards:
            if state.mode != "up":
                continue  # a dead shard's process counters died with it
            try:
                _, _, body = await asyncio.wait_for(
                    state.pool.request(_METRICS_RAW),
                    timeout=AGGREGATE_TIMEOUT,
                )
            except (OSError, ConnectionError, asyncio.TimeoutError):
                continue
            text = body.decode("utf-8", "replace")
            per_shard.append((state.index, text))
            section = ""
            for line in text.splitlines():
                if line.startswith("#"):
                    section = line[1:].strip()
                    continue
                if section != "counters" or not line:
                    continue
                name, _, value = line.rpartition(" ")
                try:
                    summed[name] = summed.get(name, 0) + int(value)
                except ValueError:
                    pass
        lines = ["# counters (summed across shards)"]
        for name in sorted(summed):
            lines.append(f"{name} {summed[name]}")
        lines.append("# router")
        lines.append(f"serve.router.workers {self.config.workers}")
        for index, count in enumerate(self.routed):
            lines.append(f"serve.router.routed.{index} {count}")
        lines.append(f"serve.shard.restart {self.restarts_total}")
        lines.append(f"serve.shard.breaker.open {self.breaker_opens}")
        lines.append(f"serve.router.failover {self.failovers}")
        lines.append(f"serve.router.unavailable {self.unavailable}")
        for index, text in per_shard:
            for line in text.splitlines():
                if line and not line.startswith("#"):
                    lines.append(f"shard{index}.{line}")
        return (
            200,
            ("\n".join(lines) + "\n").encode("utf-8"),
            "text/plain; charset=utf-8",
            {},
        )

    # -- request handling ----------------------------------------------------------

    async def _handle(self, method: str, target: str, body: bytes) -> Reply:
        path = target.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return await self._healthz()
        if path == "/metrics" and method == "GET":
            return await self._metrics()
        shard = self._shard_for(method, target, body)
        return await self._proxy(shard, method, target, body)

    # -- lifecycle -----------------------------------------------------------------

    async def _main(self, install_signals: bool) -> int:
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        self._supervisors = [
            asyncio.create_task(
                self._supervise(state),
                name=f"repro-supervise-shard-{state.index}",
            )
            for state in self._shards
        ]
        try:
            await self._initial_readiness()
            await self._listen(host=self.config.host, port=self.config.port)
        except BaseException:
            self._begin_shutdown()
            for supervisor in self._supervisors:
                supervisor.cancel()
            await asyncio.gather(*self._supervisors, return_exceptions=True)
            raise
        if install_signals:
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(signum, self._begin_shutdown)
        host, port = self.address
        print(
            f"routing on http://{host}:{port} "
            f"({self.config.workers} shards on ports "
            f"{self.worker_ports}, jobs={self.config.jobs}/shard, "
            f"restart budget {self.restart_policy.attempts})",
            file=sys.stderr,
            flush=True,
        )
        self.ready.set()
        await self._shutdown_requested.wait()
        await self._drain_connections()
        for supervisor in self._supervisors:
            supervisor.cancel()
        await asyncio.gather(*self._supervisors, return_exceptions=True)
        return 0

    def run(self, *, install_signals: bool = True) -> int:
        """Blocking entry point: fork workers, route until shut down.

        The router's own counters live under :func:`repro.obs.instrumented`
        for its lifetime; each shard instruments itself the same way.
        """
        self._spawn_workers()
        try:
            with obs.instrumented():
                code = asyncio.run(self._main(install_signals))
        finally:
            self._stop_workers()
        alive = sum(
            1 for proc in self._procs if proc is not None and proc.is_alive()
        )
        print(
            f"router shut down: {self.config.workers - alive}/"
            f"{self.config.workers} shards drained cleanly",
            file=sys.stderr,
            flush=True,
        )
        return code if alive == 0 else 1
