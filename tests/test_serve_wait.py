"""The server-side wait on submits and job GETs (``?wait=<seconds>``).

A request that asks to wait is parked until its job finishes, the wait
runs out (clamped to ``MAX_WAIT``), or a drain begins; the job table's
one terminal transition wakes it. These tests run a real server
in-process (and, for the shard kill, a forked two-shard tree) and hold
jobs with a release event where a test needs a job to stay unfinished.
"""

import asyncio
import contextlib
import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError, RemoteJobFailed
from repro.exec.resilience import RetryPolicy
from repro.serve import HashRing, ServeClient, ServeConfig, ShardedServer
from repro.serve import jobs
from repro.serve.jobs import DONE, JobRecord, JobTable
from repro.serve.protocol import job_id, job_material, normalize_request
from repro.serve.server import DRAIN_TIMEOUT, SimulationServer

BODY = {"workload": "Espresso", "size": "1KB", "max_refs": 2000}


@contextlib.contextmanager
def running_server(**overrides):
    """A live server on an ephemeral port, shut down on exit."""
    server = SimulationServer(ServeConfig(port=0, **overrides))
    codes: list[int] = []
    thread = threading.Thread(
        target=lambda: codes.append(server.run(install_signals=False)),
        daemon=True,
    )
    thread.start()
    assert server.ready.wait(10), "server never bound its listener"
    try:
        with ServeClient(
            f"http://{server.address[0]}:{server.address[1]}", timeout=30
        ) as client:
            yield server, client
    finally:
        server.shutdown()
        thread.join(30)
        assert not thread.is_alive(), "server thread failed to exit"
    assert codes == [0]


@contextlib.contextmanager
def held_jobs(monkeypatch, *, error=None):
    """Every job blocks until the yielded event is set (and then raises
    *error*, when given); the event is set on exit."""
    release = threading.Event()

    def held_execute(request):
        assert release.wait(30)
        if error is not None:
            raise error
        return {"output": "held\n"}

    monkeypatch.setattr("repro.serve.jobs.execute_request", held_execute)
    try:
        yield release
    finally:
        release.set()


def exchange(address, method, path, body=None):
    """One request on its own connection: (status, headers, payload, s)."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    start = time.monotonic()
    try:
        payload = None if body is None else json.dumps(body).encode()
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        data = response.read()
    finally:
        connection.close()
    headers = {name.lower(): value for name, value in response.getheaders()}
    return (
        response.status, headers, json.loads(data), time.monotonic() - start
    )


def in_thread(fn, *args):
    """Run *fn* in a thread; the returned list receives its result."""
    outcome: list = []
    thread = threading.Thread(
        target=lambda: outcome.append(fn(*args)), daemon=True
    )
    thread.start()
    return thread, outcome


def await_parked(client, count, timeout=10.0):
    """Wait until the server reports *count* parked requests."""
    deadline = time.monotonic() + timeout
    while client.healthz()["parked"] != count:
        assert time.monotonic() < deadline, "request never parked"
        time.sleep(0.01)


class CountingClient(ServeClient):
    """Records every (method, path) it sends."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sent: list[tuple[str, str]] = []

    def _request(self, method, path, body=None):
        self.sent.append((method, path))
        return super()._request(method, path, body)


class TestWaitedSubmit:
    def test_a_cold_request_finishes_in_one_round_trip(self, tmp_path):
        with running_server(cache_dir=str(tmp_path / "cache")) as (
            server,
            _,
        ):
            host, port = server.address
            with CountingClient(f"http://{host}:{port}", timeout=30) as client:
                record = client.run("simulate", BODY, timeout=60)
        expected = jobs.execute_request(normalize_request("simulate", BODY))
        assert record["state"] == "done"
        assert record["result"] == expected
        assert record["coalesced"] is False
        assert record["timings"]["total_s"] >= 0
        assert [method for method, _ in client.sent] == ["POST"]
        assert "?wait=" in client.sent[0][1]

    def test_a_submit_without_wait_answers_as_before(self, monkeypatch):
        with running_server() as (server, client), held_jobs(monkeypatch):
            status, _, payload, _ = exchange(
                server.address, "POST", "/v1/simulate", BODY
            )
            assert status == 202
            assert sorted(payload) == ["cached", "coalesced", "job", "state"]
            assert client.job(payload["job"])["state"] in (
                "queued", "running"
            )

    def test_a_waited_submit_on_an_unfinished_job_is_a_202(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.server.MAX_WAIT", 0.2)
        with running_server() as (server, _), held_jobs(monkeypatch):
            status, _, payload, seconds = exchange(
                server.address, "POST", "/v1/simulate?wait=60", BODY
            )
            assert status == 202
            assert payload["state"] in ("queued", "running")
            assert payload["request"]["workload"] == "Espresso"
            assert 0.15 <= seconds < 5
            # A second waited submit coalesces, and says so.
            status, _, again, _ = exchange(
                server.address, "POST", "/v1/simulate?wait=0", BODY
            )
            assert status == 202
            assert again["coalesced"] is True
            assert again["job"] == payload["job"]


class TestWaitedGet:
    def test_returns_when_the_job_finishes(self, monkeypatch):
        with running_server() as (server, client):
            with held_jobs(monkeypatch) as release:
                job = client.submit_simulate(**BODY)["job"]
                thread, outcome = in_thread(
                    exchange, server.address, "GET",
                    f"/v1/jobs/{job}?wait=10",
                )
                await_parked(client, 1)
                release.set()
                thread.join(10)
        status, _, record, seconds = outcome[0]
        assert status == 200
        assert record["state"] == "done"
        assert record["result"] == {"output": "held\n"}
        assert seconds < 10

    def test_answers_running_when_the_clamped_wait_runs_out(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.server.MAX_WAIT", 0.3)
        with running_server() as (server, client), held_jobs(monkeypatch):
            job = client.submit_simulate(**BODY)["job"]
            status, _, record, seconds = exchange(
                server.address, "GET", f"/v1/jobs/{job}?wait=3600"
            )
            assert status == 200
            assert record["state"] in ("queued", "running")
            assert 0.25 <= seconds < 5
            assert client.healthz()["parked"] == 0

    def test_a_failed_job_wakes_its_waiter_with_the_error(
        self, monkeypatch
    ):
        boom = ConfigurationError("boom")
        with running_server() as (server, client):
            with held_jobs(monkeypatch, error=boom) as release:
                thread, outcome = in_thread(
                    exchange, server.address, "POST",
                    "/v1/simulate?wait=10", BODY,
                )
                await_parked(client, 1)
                release.set()
                thread.join(10)
                status, _, record, seconds = outcome[0]
                assert status == 200
                assert record["state"] == "failed"
                assert record["error"]["type"] == "ConfigurationError"
                assert "boom" in record["error"]["message"]
                assert seconds < 10
                # run() turns the same finished reply into the error.
                with pytest.raises(RemoteJobFailed, match="boom"):
                    client.run("simulate", dict(BODY, size="2KB"))

    def test_a_malformed_wait_is_a_400(self):
        with running_server() as (server, client):
            for value in ("", "abc", "nan", "1s"):
                for method, path, body in (
                    ("POST", "/v1/simulate", BODY),
                    ("GET", "/v1/jobs/deadbeef", None),
                ):
                    status, _, payload, _ = exchange(
                        server.address, method, f"{path}?wait={value}", body
                    )
                    assert status == 400, (method, value)
                    assert payload["error"]["type"] == "ProtocolError"
                    assert "'wait'" in payload["error"]["message"]
            # No malformed submit was admitted.
            assert client.healthz()["jobs"] == {"evicted": 0}


class TestParkedWaiters:
    def test_drain_answers_a_parked_waiter_at_once(self, monkeypatch):
        with running_server() as (server, client):
            with held_jobs(monkeypatch):
                job = client.submit_simulate(**BODY)["job"]
                thread, outcome = in_thread(
                    exchange, server.address, "GET",
                    f"/v1/jobs/{job}?wait=10",
                )
                await_parked(client, 1)
                start = time.monotonic()
                server.shutdown()
                thread.join(10)
                answered = time.monotonic() - start
        status, headers, record, _ = outcome[0]
        assert status == 200
        assert record["state"] in ("queued", "running")
        assert headers["connection"] == "close"
        assert answered < DRAIN_TIMEOUT / 5

    def test_a_waiter_past_the_cap_answers_at_once(self, monkeypatch):
        # The cap is the admission queue's capacity: one here.
        with running_server(queue_depth=1) as (server, client):
            with held_jobs(monkeypatch):
                job = client.submit_simulate(**BODY)["job"]
                path = f"/v1/jobs/{job}?wait=10"
                thread, _ = in_thread(exchange, server.address, "GET", path)
                await_parked(client, 1)
                status, _, record, seconds = exchange(
                    server.address, "GET", path
                )
                assert status == 200
                assert record["state"] in ("queued", "running")
                assert seconds < 2
                assert client.healthz()["parked"] == 1
            thread.join(10)

    def test_the_table_wakes_on_a_terminal_transition_and_keeps_no_event(
        self,
    ):
        async def scenario():
            table = JobTable()
            record = JobRecord(id="a", request={"kind": "simulate"},
                               material={})
            table.resolve(record)
            woken = table.next_transition()
            record.state = DONE
            table.mark_terminal(record)
            assert woken.is_set()
            assert table._transition is None  # made again only on demand

        asyncio.run(scenario())


#: Respawn almost immediately.
FAST_RESTARTS = RetryPolicy(attempts=5, base_delay=0.05, max_delay=0.2)


@contextlib.contextmanager
def slow_tree(tmp_path, monkeypatch, seconds):
    """A two-shard tree whose jobs each take *seconds* longer, on a fresh
    cache; yields (server, url) and asserts a clean drain on exit."""
    real_execute = jobs.execute_request

    def slow_execute(request):
        time.sleep(seconds)
        return real_execute(request)

    # Patched before the router forks, so every shard inherits it.
    monkeypatch.setattr("repro.serve.jobs.execute_request", slow_execute)
    server = ShardedServer(ServeConfig(
        port=0, workers=2, cache_dir=str(tmp_path / "cache"),
        restart_policy=FAST_RESTARTS,
    ))
    codes: list[int] = []
    router = threading.Thread(
        target=lambda: codes.append(server.run(install_signals=False)),
        daemon=True,
    )
    router.start()
    assert server.ready.wait(60), "router never came up"
    try:
        yield server, f"http://127.0.0.1:{server.address[1]}"
    finally:
        server.shutdown()
        router.join(60)
    assert not router.is_alive()
    assert codes == [0]


def await_parked_on(url, shard):
    """Wait until *shard* reports one parked request."""
    deadline = time.monotonic() + 30
    with ServeClient(url, timeout=10) as watcher:
        while watcher.healthz()["shards"][shard].get("parked") != 1:
            assert time.monotonic() < deadline, "request never parked"
            time.sleep(0.02)


class TestBehindTheRouter:
    OWNER = HashRing([0, 1]).lookup(
        job_id(job_material(normalize_request("simulate", BODY)))
    )

    def test_a_shard_killed_during_a_parked_submit(
        self, tmp_path, monkeypatch
    ):
        """The owning shard dies while the submit is parked on its job:
        the router's 503 (or its redial of the respawned shard) and the
        client's resubmission still end in the clean run's bytes."""
        clean = jobs.execute_request(normalize_request("simulate", BODY))
        # Long enough to kill the shard mid-job.
        with slow_tree(tmp_path, monkeypatch, 1.0) as (server, url):
            with ServeClient(url, timeout=60) as client:
                thread, outcome = in_thread(
                    lambda: client.run("simulate", BODY, timeout=120)
                )
                await_parked_on(url, self.OWNER)
                os.kill(server._procs[self.OWNER].pid, signal.SIGKILL)
                thread.join(120)
                assert not thread.is_alive(), "run() never returned"
        assert outcome[0]["result"]["output"] == clean["output"]
        assert server.restarts_total >= 1

    def test_the_router_drain_answers_a_parked_submit_at_once(
        self, tmp_path, monkeypatch
    ):
        """The router signals the shard holding a parked request when its
        drain begins, so the request is answered, not dropped once the
        router's drain gives up on it."""
        with slow_tree(tmp_path, monkeypatch, 3.0) as (server, url):
            address = ("127.0.0.1", server.address[1])
            thread, outcome = in_thread(
                exchange, address, "POST", "/v1/simulate?wait=10", BODY
            )
            await_parked_on(url, self.OWNER)
            start = time.monotonic()
            server.shutdown()
            thread.join(10)
            answered = time.monotonic() - start
        status, headers, record, _ = outcome[0]
        assert status == 202
        assert record["state"] in ("queued", "running")
        assert headers["connection"] == "close"
        assert answered < DRAIN_TIMEOUT / 5
