"""Tests for ``scripts/load_serve.py``, the closed-loop load generator the
chaos CI jobs drive the simulation service with."""

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, SimulationServer

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "load_serve.py"


@pytest.fixture(scope="module")
def load_serve():
    spec = importlib.util.spec_from_file_location("load_serve", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def server_url():
    """A live in-process server on an ephemeral port."""
    server = SimulationServer(ServeConfig(port=0, queue_depth=256))
    thread = threading.Thread(
        target=server.run, kwargs={"install_signals": False}, daemon=True
    )
    thread.start()
    assert server.ready.wait(10), "server never bound its listener"
    host, port = server.address
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server thread failed to exit"


def test_closed_loop_fleet_completes_and_coalesces(load_serve, server_url):
    summary = load_serve.run_load(
        lambda: ServeClient(server_url, timeout=120.0),
        clients=8,
        requests=3,
        distinct=4,
        max_refs=20_000,
    )
    assert summary["completed"] == 8 * 3
    assert summary["latency_s"]["p50"] <= summary["latency_s"]["p99"]
    # The fleet issues only 4 distinct requests, so the coalescer must
    # have absorbed the rest of the submissions.
    assert summary["coalescing"]["submitted"] <= 4 * 3 + 4
    assert summary["coalescing"]["hit_rate"] > 0.0


def test_every_client_is_closed_when_the_run_returns(load_serve, server_url):
    built = []

    class RecordingClient(ServeClient):
        closed = False

        def close(self):
            super().close()
            self.closed = True

    def factory():
        built.append(RecordingClient(server_url, timeout=120.0))
        return built[-1]

    load_serve.run_load(
        factory, clients=2, requests=1, distinct=1, max_refs=2000
    )
    assert len(built) == 3  # two fleet clients and the metrics probe
    assert all(client.closed for client in built)


def test_summary_is_written_only_where_told(
    load_serve, server_url, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    argv = [
        "--server", server_url, "--clients", "2", "--requests", "1",
        "--distinct", "1", "--max-refs", "2000",
    ]
    assert load_serve.main(argv) == 0
    assert list(tmp_path.iterdir()) == []
    assert load_serve.main(argv + ["--output", "summary.json"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema"] == "repro.bench-serve/v3"
    assert summary["completed"] == 2
