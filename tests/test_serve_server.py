"""End-to-end tests for the simulation service.

Most tests run a real server in-process (listener on an ephemeral port,
scheduler on its own event loop in a worker thread) and talk to it with
:class:`repro.serve.client.ServeClient` over real sockets. The graceful
shutdown test runs ``python -m repro serve`` as a subprocess so it can
deliver an actual SIGINT.
"""

import contextlib
import io
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    AdmissionRejected,
    JobNotFound,
    ProtocolError,
    ServeError,
)
from repro.obs import OBS
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, SimulationServer

REPO_ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def running_server(**overrides):
    """A live server on an ephemeral port, torn down (and OBS restored)."""
    config = ServeConfig(port=0, **overrides)
    server = SimulationServer(config)
    result: list[int] = []
    thread = threading.Thread(
        target=lambda: result.append(server.run(install_signals=False)),
        daemon=True,
    )
    thread.start()
    assert server.ready.wait(10), "server never bound its listener"
    host, port = server.address
    client = ServeClient(f"http://{host}:{port}", timeout=30)
    try:
        yield server, client
    finally:
        server.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server thread failed to exit"
    assert result == [0]
    assert not OBS.enabled, "server did not restore the obs facade"


def run_cli(*argv: str) -> str:
    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


class TestServedResults:
    def test_simulate_is_byte_identical_to_the_cli(self, tmp_path):
        with running_server(cache_dir=str(tmp_path / "cache")) as (_, client):
            record = client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 5000},
                timeout=60,
            )
        direct = run_cli(
            "simulate", "Espresso", "--size", "4KB", "--max-refs", "5000"
        )
        assert record["state"] == "done"
        assert record["result"]["output"] == direct

    def test_sweep_is_byte_identical_to_the_cli(self, tmp_path, monkeypatch):
        # Keeps the direct run's cell cache out of the working directory;
        # the served sweep keeps no cell cache of its own.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with running_server(cache_dir=str(tmp_path / "cache")) as (_, client):
            record = client.run(
                "sweep",
                {"experiment": "table7", "max_refs": 2000},
                timeout=120,
            )
        direct = run_cli("experiment", "table7", "--max-refs", "2000")
        assert record["result"]["output"] == direct

    def test_scenario_with_mtc_is_byte_identical_to_the_cli(self):
        import json

        spec = {
            "name": "served-mix",
            "refs": 5000,
            "seed": 3,
            "tenants": [
                {"pattern": {"kind": "zipfian"}, "footprint": "64KB"},
                {"pattern": {"kind": "sequential"}, "footprint": "32KB"},
            ],
        }
        with running_server() as (_, client):
            record = client.run(
                "simulate",
                {"scenario": spec, "size": "8KB", "mtc": True,
                 "max_refs": 5000},
                timeout=60,
            )
        direct = run_cli(
            "simulate", "scenario:" + json.dumps(spec),
            "--size", "8KB", "--max-refs", "5000", "--mtc",
        )
        assert "inefficiency G" in direct
        assert record["result"]["output"] == direct

    def test_sweep_with_engine_is_byte_identical_to_the_cli(self):
        with running_server() as (_, client):
            record = client.run(
                "sweep",
                {"experiment": "table8", "max_refs": 2000,
                 "engine": "scalar"},
                timeout=120,
            )
        direct = run_cli(
            "experiment", "table8", "--max-refs", "2000",
            "--engine", "scalar", "--no-cache",
        )
        assert record["result"]["output"] == direct
        assert "argv" not in record["result"]

    def test_served_sweep_keeps_no_cell_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with running_server(cache_dir=str(tmp_path / "serve-cache")) as (
            _,
            client,
        ):
            record = client.run(
                "sweep",
                {"experiment": "table7", "max_refs": 2000},
                timeout=120,
            )
        assert record["state"] == "done"
        assert not (tmp_path / ".repro-cache").exists()

    def test_submit_cli_prints_the_served_output(self, tmp_path, capsys):
        with running_server(cache_dir=str(tmp_path / "cache")) as (
            server,
            client,
        ):
            host, port = server.address
            via_submit = run_cli(
                "submit", "simulate", "Espresso",
                "--size", "4KB", "--max-refs", "5000",
                "--server", f"http://{host}:{port}",
            )
            assert "done" in capsys.readouterr().err
        direct = run_cli(
            "simulate", "Espresso", "--size", "4KB", "--max-refs", "5000"
        )
        assert via_submit == direct

    def test_result_reused_across_server_restarts(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        request = {"workload": "Espresso", "size": "4KB", "max_refs": 5000}
        with running_server(cache_dir=cache_dir) as (_, client):
            first = client.run("simulate", request, timeout=60)
        with running_server(cache_dir=cache_dir) as (_, client):
            second = client.run("simulate", request, timeout=60)
            metrics = client.metrics()
        assert second["result"] == first["result"]
        # The restarted server answered inline from the disk tier of the
        # result cache — no task was queued, let alone recomputed.
        assert second["cached"] is True
        assert metrics.get("serve.cache.answered") == 1
        assert metrics.get("exec.cache.disk.hit") == 1


class TestCoalescing:
    def test_identical_submissions_run_once(self, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow_execute(request):
            calls.append(request)
            started.set()
            assert release.wait(30)
            return {"output": "one\n"}

        monkeypatch.setattr("repro.serve.jobs.execute_request", slow_execute)
        body = {"workload": "Espresso", "max_refs": 5000}
        with running_server() as (_, client):
            first = client.submit_simulate(**body)
            assert not first["coalesced"]
            assert started.wait(10)
            # Same request, different spelling: coalesces onto the
            # in-flight job instead of queueing a second run.
            second = client.submit_simulate(
                workload="Espresso", max_refs=5000, size="16KB"
            )
            assert second["coalesced"]
            assert second["job"] == first["job"]
            release.set()
            record = client.wait(first["job"], timeout=30)
            metrics = client.metrics()
        assert record["result"]["output"] == "one\n"
        assert record["coalesced"] == 1
        assert len(calls) == 1
        assert metrics["serve.coalesced"] == 1
        assert metrics["serve.submitted"] == 1
        assert metrics["serve.jobs.done"] == 1

    def test_completed_jobs_also_coalesce(self, tmp_path):
        body = {"workload": "Espresso", "size": "4KB", "max_refs": 5000}
        with running_server(cache_dir=str(tmp_path / "cache")) as (_, client):
            done = client.run("simulate", body, timeout=60)
            again = client.submit_simulate(**body)
            assert again["coalesced"]
            assert again["state"] == "done"
            assert again["job"] == done["job"]
            # A coalesced hit on a done job is answerable immediately.
            assert client.job(again["job"])["result"] == done["result"]


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, monkeypatch):
        started = threading.Event()
        release = threading.Event()

        def slow_execute(request):
            started.set()
            assert release.wait(30)
            return {"output": f"{request['seed']}\n"}

        monkeypatch.setattr("repro.serve.jobs.execute_request", slow_execute)
        with running_server(queue_depth=1, max_inflight=1) as (_, client):
            running = client.submit_simulate(workload="Espresso", seed=0)
            assert started.wait(10)  # seed=0 drained; queue empty again
            queued = client.submit_simulate(workload="Espresso", seed=1)
            with pytest.raises(AdmissionRejected) as excinfo:
                client.submit_simulate(workload="Espresso", seed=2)
            assert excinfo.value.retry_after >= 1.0
            metrics = client.metrics()
            assert metrics["serve.rejected"] == 1
            assert metrics["serve.queue.depth"] == 1
            release.set()
            client.wait(running["job"], timeout=30)
            client.wait(queued["job"], timeout=30)
            # Capacity freed: the previously shed request now admits.
            retried = client.submit_simulate(workload="Espresso", seed=2)
            client.wait(retried["job"], timeout=30)

    def test_client_run_backs_off_and_succeeds(self, monkeypatch):
        release = threading.Event()

        def slow_execute(request):
            release.wait(5)
            return {"output": f"{request['seed']}\n"}

        monkeypatch.setattr("repro.serve.jobs.execute_request", slow_execute)
        with running_server(queue_depth=1, max_inflight=1) as (_, client):
            jobs = [
                client.submit_simulate(workload="Espresso", seed=seed)
                for seed in (0, 1)
            ]
            release.set()
            # seed=2 may be shed at first; run() honours Retry-After and
            # retries until admitted.
            record = client.run(
                "simulate", {"workload": "Espresso", "seed": 2}, timeout=60
            )
            assert record["state"] == "done"
            for submitted in jobs:
                client.wait(submitted["job"], timeout=30)


class TestRetryAfterParsing:
    """The client clamps Retry-After before ever sleeping on it."""

    def test_sane_values_pass_through(self):
        from repro.serve.client import _parse_retry_after

        assert _parse_retry_after("5") == 5.0
        assert _parse_retry_after("0") == 0.0
        assert _parse_retry_after("2.5") == 2.5

    def test_negative_clamps_to_zero(self):
        from repro.serve.client import _parse_retry_after

        assert _parse_retry_after("-30") == 0.0

    def test_absurd_and_infinite_clamp_to_the_ceiling(self):
        from repro.serve.client import MAX_RETRY_AFTER, _parse_retry_after

        assert _parse_retry_after("1e9") == MAX_RETRY_AFTER
        assert _parse_retry_after("inf") == MAX_RETRY_AFTER

    def test_nan_and_garbage_fall_back_to_default(self):
        from repro.serve.client import DEFAULT_RETRY_AFTER, _parse_retry_after

        assert _parse_retry_after("nan") == DEFAULT_RETRY_AFTER
        assert _parse_retry_after("soon") == DEFAULT_RETRY_AFTER
        assert _parse_retry_after("") == DEFAULT_RETRY_AFTER


class TestServiceUnavailableMapping:
    """How the client maps 503 envelopes — the contract the sharded
    router's restart/breaker answers ride on."""

    @staticmethod
    def _scripted_client(monkeypatch, responses):
        """A client whose transport pops canned (status, headers, body)
        triples instead of touching the network."""
        import json

        client = ServeClient("http://127.0.0.1:1", timeout=1)
        script = list(responses)

        def _fake_request(method, path, body=None):
            status, headers, payload = script.pop(0)
            return status, headers, json.dumps(payload).encode("utf-8")

        monkeypatch.setattr(client, "_request", _fake_request)
        return client

    @staticmethod
    def _unavailable(message="shard 0 cannot take this request",
                     kind="ShardUnavailable"):
        return {"error": {"type": kind, "message": message}}

    def test_503_with_shard_envelope_is_shard_unavailable(self, monkeypatch):
        from repro.errors import ShardUnavailable

        client = self._scripted_client(
            monkeypatch,
            [(503, {"retry-after": "2"}, self._unavailable())],
        )
        with pytest.raises(ShardUnavailable) as excinfo:
            client.submit_simulate(workload="Espresso", size="1KB")
        assert excinfo.value.retry_after == 2.0

    def test_503_without_retry_after_has_none_and_fails_fast(
        self, monkeypatch
    ):
        """A drain 503 carries no Retry-After; run() must not spin on
        it — waiting out a shutdown would never help."""
        from repro.errors import ServiceUnavailable

        client = self._scripted_client(
            monkeypatch,
            [(503, {}, self._unavailable(
                "server is draining", kind="ServiceUnavailable"
            ))],
        )
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.run("simulate", {"workload": "Espresso", "size": "1KB"})
        assert excinfo.value.retry_after is None

    def test_huge_router_retry_after_is_clamped(self, monkeypatch):
        from repro.errors import ShardUnavailable
        from repro.serve.client import MAX_RETRY_AFTER

        client = self._scripted_client(
            monkeypatch,
            [(503, {"retry-after": "1e9"}, self._unavailable())],
        )
        with pytest.raises(ShardUnavailable) as excinfo:
            client.submit_simulate(workload="Espresso", size="1KB")
        assert excinfo.value.retry_after == MAX_RETRY_AFTER

    def test_run_honours_retry_after_then_resubmits(self, monkeypatch):
        """A 503-with-Retry-After during submit is retried (like a 429),
        and the resubmission's inline answer is returned."""
        done = {
            "job": "abc123",
            "state": "done",
            "coalesced": False,
            "cached": True,
            "result": {"answer": 42},
        }
        client = self._scripted_client(
            monkeypatch,
            [
                (503, {"retry-after": "0"}, self._unavailable()),
                (200, {}, done),
            ],
        )
        record = client.run(
            "simulate", {"workload": "Espresso", "size": "1KB"}, timeout=5
        )
        assert record["result"] == {"answer": 42}


class TestProtocolErrors:
    def test_malformed_json_is_a_protocol_error(self):
        import http.client

        with running_server() as (server, client):
            with pytest.raises(ProtocolError, match="workload"):
                client.submit_simulate()  # empty body -> missing workload
            host, port = server.address
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request(
                "POST", "/v1/simulate", body=b"not json",
                headers={"Connection": "close"},
            )
            response = connection.getresponse()
            payload = response.read().decode()
            connection.close()
            assert response.status == 400
            assert "JSON" in payload

    def test_impossible_cache_shape_is_refused_before_queueing(self):
        with running_server() as (_, client):
            with pytest.raises(ProtocolError, match="field 'assoc'"):
                client.submit_simulate(
                    workload="Espresso", size="1KB", assoc=64
                )
            assert client.healthz()["jobs"] == {"evicted": 0}

    def test_unknown_job_is_404(self):
        with running_server() as (_, client):
            with pytest.raises(JobNotFound, match="result cache"):
                client.job("deadbeefdeadbeef")

    def test_unknown_route_is_404(self):
        with running_server() as (_, client):
            status, _, _ = client._request("GET", "/v2/nothing")
            assert status == 404

    def test_wrong_method_is_405_with_allow(self):
        with running_server() as (_, client):
            status, headers, _ = client._request("GET", "/v1/simulate")
            assert status == 405
            assert headers["allow"] == "POST"
            status, headers, _ = client._request("POST", "/healthz")
            assert status == 405
            assert headers["allow"] == "GET"

    def test_unreachable_server_is_a_typed_error(self):
        client = ServeClient("http://127.0.0.1:1", timeout=2)
        with pytest.raises(ServeError, match="cannot reach server"):
            client.healthz()


class TestIntrospection:
    def test_healthz_reports_queue_jobs_and_cache(self, tmp_path):
        with running_server(cache_dir=str(tmp_path / "cache")) as (_, client):
            client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 5000},
                timeout=60,
            )
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue"] == {"depth": 0, "capacity": 64}
        assert health["jobs"] == {"done": 1, "evicted": 0}
        assert health["cache"]["entries"] == 1
        assert health["cache"]["quarantined"] == 0

    def test_healthz_without_cache(self):
        with running_server() as (_, client):
            assert client.healthz()["cache"] is None

    def test_metrics_exposition_has_serve_counters(self, tmp_path):
        with running_server(cache_dir=str(tmp_path / "cache")) as (_, client):
            client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 5000},
                timeout=60,
            )
            text = client.metrics_text()
            metrics = client.metrics()
        assert "# counters" in text
        assert metrics["serve.submitted"] == 1
        assert metrics["serve.jobs.done"] == 1
        assert metrics["serve.queue.depth"] == 0
        assert metrics["serve.inflight"] == 0
        assert metrics["serve.requests"] >= 2  # the submit + the polls
        assert metrics["serve.batch.time.count"] == 1


class TestSpanTracing:
    def test_served_job_yields_full_span_tree(self, tmp_path, monkeypatch):
        """Acceptance: a served sweep's span tree roots at the HTTP
        request and reaches per-stage engine spans inside pool worker
        processes, parent links intact across the fork boundary."""
        from repro.obs.spans import build_trees, read_spans, select_trace

        # The nested experiment runs must do real engine work (cache
        # misses), or the tree would stop at exec.cache.lookup.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "inner"))
        log = tmp_path / "spans.jsonl"
        with running_server(
            trace_spans=str(log),
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
        ) as (server, client):
            # A warmup job occupies the first batch; the next two jobs
            # queue behind it and drain *together*, forcing the pool to
            # fork (a single-task batch runs inline in the server).
            warmup = client.submit_sweep(experiment="table2", max_refs=2000)
            first = client.submit_sweep(experiment="table7", max_refs=2000)
            second = client.submit_sweep(experiment="table8", max_refs=2000)
            client.wait(warmup["job"], timeout=120)
            client.wait(first["job"], timeout=120)
            record = client.wait(second["job"], timeout=120)
            server_pid = os.getpid()

        roots = build_trees(read_spans(str(log)))
        root = select_trace(roots, job=record["job"])
        assert root.name == "serve.request"
        assert root.attr("job") == record["job"]
        assert root.attr("state") == "done"
        assert root.record["pid"] == server_pid

        names = set()
        worker_pids = set()

        def walk(node):
            names.add(node.name)
            if node.name == "exec.task":
                worker_pids.add(node.record["pid"])
            for child in node.children:
                assert child.record["trace"] == root.trace_id
                walk(child)

        walk(root)
        assert "serve.queue" in names
        assert "exec.task" in names
        # Engine-stage leaves ran inside the tree (the sweep experiments
        # use the one-pass row families).
        assert "sweep.row" in names or "sim.cache" in names
        assert "engine.family" in names or "sim.mtc" in names
        # At least one span was recorded by a process other than the
        # server: the parent link survived pickling across the fork.
        assert any(pid != server_pid for pid in worker_pids)

    def test_job_timings_block(self, tmp_path):
        log = tmp_path / "spans.jsonl"
        with running_server(trace_spans=str(log)) as (_, client):
            record = client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 5000},
                timeout=60,
            )
        timings = record["timings"]
        assert timings["queue_wait_s"] >= 0.0
        assert timings["service_s"] > 0.0
        assert timings["total_s"] >= timings["queue_wait_s"]
        # The trace id lets an operator jump from the job record to
        # `repro spans --trace <id>`.
        from repro.obs.spans import build_trees, read_spans

        assert timings["trace"] in {
            root.trace_id for root in build_trees(read_spans(str(log)))
        }

    def test_timings_present_without_tracing(self):
        with running_server() as (_, client):
            record = client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 5000},
                timeout=60,
            )
        timings = record["timings"]
        assert timings["service_s"] > 0.0
        assert "trace" not in timings  # no tracer, no trace id

    def test_traced_result_is_byte_identical_to_untraced(self, tmp_path):
        fields = {"workload": "Espresso", "size": "4KB", "max_refs": 5000}
        with running_server(
            trace_spans=str(tmp_path / "spans.jsonl")
        ) as (_, client):
            traced = client.run("simulate", fields, timeout=60)
        with running_server() as (_, client):
            plain = client.run("simulate", fields, timeout=60)
        assert traced["result"]["output"] == plain["result"]["output"]

    def test_tracer_restored_after_shutdown(self, tmp_path):
        from repro.obs import TRACER

        with running_server(trace_spans=str(tmp_path / "spans.jsonl")):
            pass
        assert TRACER.enabled is False

    def test_healthz_latency_block(self, tmp_path):
        with running_server() as (_, client):
            client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 5000},
                timeout=60,
            )
            health = client.healthz()
        assert health["latency"]["queue_wait"]["count"] == 1
        assert health["latency"]["service"]["count"] == 1
        assert health["latency"]["service"]["p95_s"] > 0.0

    def test_metrics_exposition_has_latency_histograms(self, tmp_path):
        with running_server() as (_, client):
            client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 5000},
                timeout=60,
            )
            text = client.metrics_text()
            metrics = client.metrics()
        # Latency distributions are bounded timers: one header, one kind.
        assert "# timers" in text
        assert "# histograms" not in text
        assert metrics["serve.batch.time.count"] == 1
        assert metrics["serve.queue.wait.count"] == 1
        assert metrics["serve.job.service.count"] == 1
        assert metrics["serve.job.service.p99_s"] > 0.0

    def test_spans_cli_renders_job_tree_and_critical_path(self, tmp_path):
        log = tmp_path / "spans.jsonl"
        with running_server(trace_spans=str(log)) as (_, client):
            record = client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 5000},
                timeout=60,
            )
        text = run_cli("spans", str(log), "--job", record["job"])
        assert "serve.request" in text
        assert f"job={record['job']}" in text
        assert "critical path of trace" in text
        folded = run_cli("spans", str(log), "--folded")
        assert any(
            line.startswith("serve.request") for line in folded.splitlines()
        )


class TestKeepAlive:
    def test_sequential_requests_reuse_one_connection(self):
        with running_server() as (_, client):
            client.healthz()
            first = client._connection
            assert first is not None
            first_sock = first.sock
            client.healthz()
            client.metrics_text()
            # Same HTTPConnection, same socket: no redial happened.
            assert client._connection is first
            assert client._connection.sock is first_sock

    def test_connection_close_is_honoured(self):
        import http.client

        with running_server() as (server, _):
            host, port = server.address
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request(
                "GET", "/healthz", headers={"Connection": "close"}
            )
            response = connection.getresponse()
            response.read()
            assert response.will_close
            assert response.getheader("Connection") == "close"
            connection.close()

    def test_http_10_defaults_to_close(self):
        import socket as socket_module

        with running_server() as (server, _):
            host, port = server.address
            with socket_module.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
                data = b""
                while chunk := sock.recv(4096):
                    data += chunk  # server closing = end of response
            assert b"Connection: close" in data
            assert b'"status": "ok"' in data or b'"status":"ok"' in data

    def test_stale_cached_connection_falls_back_to_a_fresh_dial(self):
        import socket as socket_module

        with running_server() as (_, client):
            client.healthz()
            assert client._connection is not None
            # Sever the cached connection under the client (as a server
            # restart or idle timeout would); the next request must
            # detect the stale socket and succeed on a fresh dial.
            client._connection.sock.shutdown(socket_module.SHUT_RDWR)
            assert client.healthz()["status"] == "ok"


@pytest.fixture(scope="class")
def router_address():
    """A 2-worker sharded router on an ephemeral port, for one class."""
    from repro.serve.router import ShardedServer

    server = ShardedServer(ServeConfig(port=0, workers=2))
    codes: list[int] = []
    thread = threading.Thread(
        target=lambda: codes.append(server.run(install_signals=False)),
        daemon=True,
    )
    thread.start()
    assert server.ready.wait(60), "router never came up"
    try:
        yield server.address
    finally:
        server.shutdown()
        thread.join(60)
        assert not thread.is_alive(), "router thread failed to exit"
    assert codes == [0]


def _exchange(address, raw: bytes) -> bytes:
    """Send *raw* on a fresh socket; read until the server closes it."""
    import socket as socket_module

    with socket_module.create_connection(address, timeout=10) as sock:
        sock.sendall(raw)
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
    return data


#: Requests with one line past the 64 KiB stream limit.
OVERLONG = {
    "header": b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000
    + b"\r\n\r\n",
    "request-line": b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
}


def _assert_overlong_is_a_400(address, line: str) -> None:
    data = _exchange(address, OVERLONG[line])
    assert data.startswith(b"HTTP/1.1 400 "), data[:200]
    assert b"Connection: close" in data
    assert b"ProtocolError" in data
    assert b"65536-byte limit" in data


class TestOverlongLines:
    @pytest.mark.parametrize("line", sorted(OVERLONG))
    def test_single_server_answers_400_and_keeps_serving(self, line):
        with running_server() as (server, client):
            _assert_overlong_is_a_400(server.address, line)
            assert client.healthz()["status"] == "ok"


class TestRouterConnectionLoop:
    """The router serves clients through the single server's loop."""

    def test_connection_close_is_honoured(self, router_address):
        import http.client

        connection = http.client.HTTPConnection(*router_address, timeout=30)
        connection.request("GET", "/healthz", headers={"Connection": "close"})
        response = connection.getresponse()
        response.read()
        connection.close()
        assert response.will_close
        assert response.getheader("Connection") == "close"

    def test_http_10_defaults_to_close(self, router_address):
        data = _exchange(
            router_address, b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n"
        )
        assert b"Connection: close" in data
        assert b'"role": "router"' in data

    @pytest.mark.parametrize("line", sorted(OVERLONG))
    def test_overlong_line_is_a_400_and_routing_goes_on(
        self, router_address, line
    ):
        _assert_overlong_is_a_400(router_address, line)
        host, port = router_address
        with ServeClient(f"http://{host}:{port}", timeout=30) as client:
            assert client.healthz()["status"] == "ok"


class TestJobHistory:
    def test_history_bounds_terminal_records_and_cache_recovers(
        self, tmp_path
    ):
        fields = [
            {"workload": "Espresso", "size": size, "max_refs": 2000}
            for size in ("1KB", "2KB")
        ]
        with running_server(
            cache_dir=str(tmp_path / "cache"), job_history=1
        ) as (_, client):
            first = client.run("simulate", fields[0], timeout=60)
            second = client.run("simulate", fields[1], timeout=60)
            # The table keeps one terminal record: completing the second
            # job evicted the first.
            with pytest.raises(JobNotFound):
                client.job(first["job"])
            assert client.job(second["job"])["state"] == "done"
            health = client.healthz()
            assert health["jobs"]["evicted"] == 1
            # Resubmitting the evicted request is answered inline from
            # the result cache — eviction never loses results.
            again = client.submit_simulate(**fields[0])
            assert again["cached"] is True
            assert again["result"] == first["result"]

    def test_client_run_resubmits_when_the_record_is_evicted(
        self, tmp_path, monkeypatch
    ):
        """run() polling a job whose record was evicted mid-wait gets a
        404, resubmits, and completes from the cache."""
        release = threading.Event()
        real_wait = ServeClient.wait
        calls = {"n": 0}

        def evict_then_wait(self, job_id, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise JobNotFound("job evicted (simulated)")
            return real_wait(self, job_id, **kwargs)

        monkeypatch.setattr(ServeClient, "wait", evict_then_wait)
        with running_server(cache_dir=str(tmp_path / "cache")) as (_, client):
            release.set()
            record = client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 2000},
                timeout=60,
            )
        assert record["state"] == "done"
        assert calls["n"] >= 1


class TestScrapeConsistency:
    def test_scrapes_racing_completions_see_consistent_counts(self, tmp_path):
        """/metrics and /healthz snapshot under the scheduler's state
        lock: jobs.done and the service timer count are updated in
        the same critical section, so no scrape may ever observe one
        without the other."""
        inconsistencies = []
        stop = threading.Event()

        def scrape(base_url):
            with ServeClient(base_url, timeout=30) as scraper:
                while not stop.is_set():
                    metrics = scraper.metrics()
                    done = metrics.get("serve.jobs.done", 0)
                    serviced = metrics.get("serve.job.service.count", 0)
                    if done != serviced:
                        inconsistencies.append((done, serviced))
                    health = scraper.healthz()
                    h_done = health["jobs"].get("done", 0)
                    h_serviced = health["latency"]["service"]["count"]
                    if h_done != h_serviced:
                        inconsistencies.append((h_done, h_serviced))

        with running_server() as (server, client):
            host, port = server.address
            scraper_thread = threading.Thread(
                target=scrape, args=(f"http://{host}:{port}",), daemon=True
            )
            scraper_thread.start()
            try:
                for seed in range(8):
                    client.run(
                        "simulate",
                        {"workload": "Espresso", "seed": seed,
                         "max_refs": 2000},
                        timeout=60,
                    )
            finally:
                stop.set()
                scraper_thread.join(30)
        assert not scraper_thread.is_alive()
        assert inconsistencies == []


class TestGracefulShutdown:
    def test_shutdown_after_exit_is_a_no_op(self):
        with running_server() as (server, _):
            pass
        server.shutdown()  # the loop is closed: nothing left to drain

    def test_draining_server_closes_keep_alive_connections(self, monkeypatch):
        import http.client
        import json

        started = threading.Event()
        release = threading.Event()

        def slow_execute(request):
            started.set()
            assert release.wait(30)
            return {"output": "one\n"}

        monkeypatch.setattr("repro.serve.jobs.execute_request", slow_execute)
        with running_server() as (server, client):
            client.submit_simulate(workload="Espresso", max_refs=5000)
            assert started.wait(10)
            connection = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.getheader("Connection") == "keep-alive"
                # The running job holds the drain open: the listener and
                # this connection stay up until its batch finishes.
                server.shutdown()
                deadline = time.monotonic() + 10
                while not server.draining:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert payload["status"] == "draining"
                assert response.getheader("Connection") == "close"
            finally:
                connection.close()
                release.set()

    def test_sigint_drains_and_exits_zero(self, tmp_path):
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--cache-dir", str(cache_dir),
            ],
            stderr=subprocess.PIPE,
            cwd=REPO_ROOT,
            env=env,
            text=True,
        )
        try:
            banner = ""
            deadline = time.monotonic() + 30
            while "serving on" not in banner:
                assert time.monotonic() < deadline, "no serving banner"
                banner = process.stderr.readline()
            address = re.search(r"http://([\d.]+):(\d+)", banner)
            assert address, banner
            client = ServeClient(
                f"http://{address[1]}:{address[2]}", timeout=30
            )
            record = client.run(
                "simulate",
                {"workload": "Espresso", "size": "4KB", "max_refs": 5000},
                timeout=60,
            )
            assert record["state"] == "done"
            process.send_signal(signal.SIGINT)
            remainder = process.stderr.read()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert "shutting down: drained" in remainder
        # The job's envelope was journalled to the exec cache on the way
        # through — the PR-4 checkpoint semantics the service inherits.
        from repro.exec import ResultCache

        assert ResultCache(cache_dir).stats().entries == 1
