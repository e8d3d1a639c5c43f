"""Pure-python client for the simulation service (tests, CLI, load gen).

:class:`ServeClient` speaks the wire protocol of
:mod:`repro.serve.server` over stdlib ``http.client``, holding one
**keep-alive** connection per client instance: sequential requests reuse
the TCP connection (matching the server's HTTP/1.1 persistence), and a
connection the server has since closed or timed out is transparently
redialled — safe to retry because every serve request is idempotent by
content addressing. Server-side error envelopes are re-raised as the
*same* typed errors the server mapped onto HTTP in the first place
(:class:`~repro.errors.ProtocolError` for 400,
:class:`~repro.errors.JobNotFound` for 404,
:class:`~repro.errors.AdmissionRejected` — with the parsed
``Retry-After`` — for 429, :class:`~repro.errors.ServiceUnavailable` or
:class:`~repro.errors.ShardUnavailable` — likewise carrying any
``Retry-After`` the router attached — for 503), so client code handles
one taxonomy whether it runs in-process or across the wire.

:meth:`ServeClient.run` is the submit-and-wait convenience the ``repro
submit`` CLI and the load generator use: it submits with a server-side
wait (``?wait=<seconds>``, see :mod:`repro.serve.server`), so the reply
to a request whose job finishes within the wait carries the finished
record and a cold request costs one round trip. Otherwise it waits on
the job with GETs that ask for the same wait (honouring ``Retry-After``
back-off on a full queue when asked to), returns the completed result
envelope, and raises :class:`~repro.errors.RemoteJobFailed` when the
server reports failure.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse

from repro.errors import (
    AdmissionRejected,
    JobNotFound,
    ProtocolError,
    RemoteJobFailed,
    ServeError,
    ServiceUnavailable,
    ShardUnavailable,
)
from repro.serve.protocol import MAX_WAIT

__all__ = ["ServeClient"]

#: HTTP status -> raised error type (the server's taxonomy, mirrored).
#: 429 and 503 are handled inline in :meth:`ServeClient._json` — both
#: carry a parsed ``Retry-After``.
_ERRORS_BY_STATUS = {
    400: ProtocolError,
    404: JobNotFound,
}

#: Pause (seconds) before asking again after a reply that came back
#: unfinished before its wait ran out, as a draining server's does.
DEFAULT_POLL = 0.05

#: Retry-After parsing: unparseable headers fall back to this (seconds).
DEFAULT_RETRY_AFTER = 1.0

#: Upper clamp on a parsed Retry-After. The client *sleeps* this value
#: in run(); a buggy or hostile server must not be able to park us for
#: an hour (or forever, via inf/NaN) with one header.
MAX_RETRY_AFTER = 300.0


def _parse_retry_after(header: str) -> float:
    """Parse a Retry-After header into a sane, sleepable delay.

    Well-formed servers send small non-negative integers, but this value
    feeds ``time.sleep`` directly, so it is defensively clamped to
    ``[0, MAX_RETRY_AFTER]``; NaN and anything unparseable fall back to
    :data:`DEFAULT_RETRY_AFTER`.
    """
    try:
        value = float(header)
    except ValueError:
        return DEFAULT_RETRY_AFTER
    if value != value:  # NaN
        return DEFAULT_RETRY_AFTER
    return min(max(value, 0.0), MAX_RETRY_AFTER)


class ServeClient:
    """Talks to one server at ``base_url`` (e.g. ``http://127.0.0.1:8765``)."""

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ProtocolError(
                f"only http:// servers are supported, got {base_url!r}"
            )
        host = parsed.hostname or parsed.path or "127.0.0.1"
        if not host:
            raise ProtocolError(f"no host in server url {base_url!r}")
        self.host = host
        self.port = parsed.port or 8765
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None
        #: The server-side wait :meth:`job` asks for (seconds); only
        #: :meth:`wait` sets it, around its own GETs.
        self._job_wait = 0.0

    # -- transport -----------------------------------------------------------------

    def close(self) -> None:
        """Drop the cached keep-alive connection (idempotent)."""
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:
                pass
            self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _send(
        self, method: str, path: str, payload: bytes | None
    ) -> tuple[int, dict[str, str], bytes]:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        headers = {}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        self._connection.request(method, path, body=payload, headers=headers)
        response = self._connection.getresponse()
        data = response.read()
        lowered = {
            name.lower(): value for name, value in response.getheaders()
        }
        if response.will_close:
            # The server chose Connection: close (or an HTTP/1.0 peer);
            # fall back cleanly to dial-per-request behaviour.
            self.close()
        return response.status, lowered, data

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        payload = None
        if body is not None:
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
        reused = self._connection is not None
        try:
            return self._send(method, path, payload)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            if reused:
                # A cached connection the server closed between requests
                # (restart, idle timeout) surfaces here; one fresh-dial
                # retry is safe — requests are idempotent by content
                # addressing, so a duplicate submit coalesces.
                try:
                    return self._send(method, path, payload)
                except (OSError, http.client.HTTPException) as retry_exc:
                    self.close()
                    exc = retry_exc
            raise ServeError(
                f"cannot reach server at http://{self.host}:{self.port}: "
                f"{exc} (is `repro serve` running?)"
            ) from exc

    @staticmethod
    def _decode(data: bytes) -> dict:
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServeError(
                f"server sent a non-JSON response: {exc}"
            ) from exc
        if not isinstance(decoded, dict):
            raise ServeError(
                f"server sent a non-object response: {decoded!r}"
            )
        return decoded

    def _json(
        self, method: str, path: str, body: dict | None = None
    ) -> dict:
        status, headers, data = self._request(method, path, body)
        if status < 400:
            return self._decode(data)
        message = "server error"
        kind = ""
        try:
            envelope = self._decode(data)["error"]
            message = envelope["message"]
            kind = envelope.get("type", "")
        except (ServeError, KeyError, TypeError):
            pass
        if status == 429:
            retry_after = _parse_retry_after(headers.get("retry-after", "1"))
            raise AdmissionRejected(message, retry_after=retry_after)
        if status == 503:
            # The router's shard-restart 503s carry an honest Retry-After
            # (clamped exactly like the 429 path); a plain drain 503 does
            # not, and run() fails fast on those.
            header = headers.get("retry-after")
            retry_after = (
                _parse_retry_after(header) if header is not None else None
            )
            cls = (
                ShardUnavailable
                if kind == "ShardUnavailable"
                else ServiceUnavailable
            )
            raise cls(message, retry_after=retry_after)
        raise _ERRORS_BY_STATUS.get(status, ServeError)(message)

    # -- protocol operations -------------------------------------------------------

    def submit_simulate(self, **fields: object) -> dict:
        """``POST /v1/simulate``; returns ``{"job", "state", "coalesced",
        "cached"}`` plus ``"result"`` when answered inline."""
        return self._json("POST", "/v1/simulate", fields)

    def submit_sweep(self, **fields: object) -> dict:
        """``POST /v1/sweep``; same response shape as simulate."""
        return self._json("POST", "/v1/sweep", fields)

    def job(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>`` — the full job record.

        Called from :meth:`wait`, the GET asks the server to hold its
        answer until the job finishes; otherwise it answers at once.
        """
        path = f"/v1/jobs/{job_id}"
        if self._job_wait > 0:
            path += f"?wait={self._job_wait:.3f}"
        return self._json("GET", path)

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        """``GET /metrics`` — the raw text exposition."""
        status, _, data = self._request("GET", "/metrics")
        if status != 200:
            raise ServeError(f"/metrics answered {status}")
        return data.decode("utf-8")

    def metrics(self) -> dict[str, float]:
        """The exposition parsed into ``{name: value}`` (comments dropped)."""
        values: dict[str, float] = {}
        for line in self.metrics_text().splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
        return values

    # -- conveniences --------------------------------------------------------------

    def _wait_budget(self, deadline: float) -> float:
        """The server-side wait one request may ask for: within
        *deadline*, :data:`MAX_WAIT` and half the socket timeout."""
        return max(
            0.0, min(MAX_WAIT, deadline - time.monotonic(), self.timeout / 2)
        )

    @staticmethod
    def _finished(job_id: str, record: dict) -> bool:
        """True once *record* is ``done``; raises :class:`RemoteJobFailed`
        for ``failed``/``cancelled``; False while queued or running."""
        state = record.get("state")
        if state in ("failed", "cancelled"):
            error = record.get("error") or {}
            raise RemoteJobFailed(
                f"job {job_id} {state}: "
                f"{error.get('type', '?')}: {error.get('message', '?')}"
            )
        return state == "done"

    @staticmethod
    def _pause(sent: float, wait: float, poll: float, deadline: float) -> None:
        """Sleep *poll* seconds if a reply came back unfinished before its
        *wait* ran out (a draining server, or one at its parked-waiter
        cap): asking again at once would get the same answer."""
        now = time.monotonic()
        if now - sent < wait:
            time.sleep(max(0.0, min(poll, deadline - now)))

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 300.0,
        poll: float = DEFAULT_POLL,
    ) -> dict:
        """Wait until the job leaves the queued/running states.

        Each GET asks the server to hold its answer until the job
        finishes; *poll* is the pause after a reply that came back
        unfinished before its wait ran out. Returns the final record for
        ``done`` jobs; raises :class:`RemoteJobFailed` for
        ``failed``/``cancelled`` ones and :class:`ServeError` on timeout.
        :class:`JobNotFound` propagates: the record may have been evicted
        from a bounded job table — :meth:`run` handles that by
        resubmitting.
        """
        deadline = time.monotonic() + timeout
        while True:
            wait = self._wait_budget(deadline)
            sent = time.monotonic()
            self._job_wait = wait
            try:
                record = self.job(job_id)
            finally:
                self._job_wait = 0.0
            if self._finished(job_id, record):
                return record
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {record.get('state')} after "
                    f"{timeout:g}s"
                )
            self._pause(sent, wait, poll, deadline)

    def run(
        self,
        kind: str,
        fields: dict,
        *,
        timeout: float = 300.0,
        poll: float = DEFAULT_POLL,
        backoff_on_full: bool = True,
    ) -> dict:
        """Submit one request and wait for its result envelope.

        With *backoff_on_full*, a 429 is retried after the server's
        ``Retry-After`` (until *timeout* is spent) — the closed-loop
        behaviour a well-behaved client owes a load-shedding server. A
        503 that carries a ``Retry-After`` (the sharded router answering
        for a shard mid-restart) is honoured the same way, with the same
        [0, 300] clamp; a 503 *without* one (a draining server) fails
        fast, because waiting would not help.

        The submit asks the server to hold its reply until the job
        finishes (within *timeout*, :data:`MAX_WAIT` and half the socket
        timeout), so a job that finishes in that time, or was answered
        from the cache or a completed equivalent, returns from the one
        round trip. Otherwise :meth:`wait` takes over, and *poll* is its
        pause after a reply that came back unfinished early. If the
        waited-on job vanishes (evicted from a bounded job table, or lost
        with a crashed shard's in-memory job table), the request is
        resubmitted: the server recovers the result from its cache, as
        its 404 message advises.
        """
        deadline = time.monotonic() + timeout

        def _backoff(exc: ServeError, retry_after: float) -> None:
            if not backoff_on_full:
                raise exc
            if time.monotonic() + retry_after > deadline:
                raise exc
            time.sleep(retry_after)

        path = "/v1/simulate" if kind == "simulate" else "/v1/sweep"
        while True:
            while True:
                wait = self._wait_budget(deadline)
                sent = time.monotonic()
                try:
                    submitted = self._json(
                        "POST", f"{path}?wait={wait:.3f}", fields
                    )
                    break
                except AdmissionRejected as exc:
                    _backoff(exc, exc.retry_after)
                except ServiceUnavailable as exc:
                    if exc.retry_after is None:
                        raise  # draining: no amount of patience helps
                    _backoff(exc, exc.retry_after)
            if self._finished(submitted["job"], submitted):
                return submitted
            self._pause(sent, wait, poll, deadline)
            remaining = max(poll, deadline - time.monotonic())
            try:
                return self.wait(
                    submitted["job"], timeout=remaining, poll=poll
                )
            except JobNotFound:
                if time.monotonic() >= deadline:
                    raise
                continue  # evicted terminal record; resubmit recovers it
            except ServiceUnavailable as exc:
                # The owning shard went down mid-poll. When the router
                # says when to come back, do so and resubmit — the job id
                # is content-addressed, so the resubmission coalesces or
                # re-runs identically on the respawned shard.
                if exc.retry_after is None:
                    raise
                if time.monotonic() + exc.retry_after >= deadline:
                    raise
                time.sleep(exc.retry_after)
                continue
