"""Closed-loop load generator for the simulation service.

Run from the repository root (starts its own in-process server tree on
ephemeral ports unless ``--server`` points at a running one):

    PYTHONPATH=src python scripts/load_serve.py [--workers N] [--output PATH]

The measurement has two parts.

**Phase split (cold / warm / hot).** The tiered result cache gives the
same request three very different service paths, and the v3 summary
measures each on the same request set:

* *cold* — a fresh cache root: every request computes. This is the
  paper-work path (simulate N references).
* *warm* — the server is restarted on the populated cache root: the
  in-memory hot tier is empty (it is process memory), so every request
  is answered from the **disk** tier and promoted.
* *hot* — repeats against the running server: answered from the
  in-memory hot tier without touching disk. The job table is bounded
  (``job_history=1``) so repeats measure the cache path rather than
  in-table coalescing.

**Closed-loop fleet.** Each of ``--clients`` worker threads submits one
request, waits for the result, then submits the next — the standard
arrival model for a fixed concurrency level, and the polite behaviour
the admission queue's ``Retry-After`` back-off is designed around.
Requests are drawn round-robin from ``--distinct`` simulate variants, so
the fleet also exercises the request coalescer. The fleet runs against
the *hot* server, so ``throughput_rps`` is the serving-path headline the
tiered cache buys; the cold path's cost is in ``phases.cold``.

With ``--workers N`` (default 2) the tree is the sharded router
(``repro serve --workers N``): the summary additionally reports how the
consistent-hash ring spread the distinct requests across shards.

The summary prints to stdout; ``--output PATH`` also writes it as JSON
(schema ``repro.bench-serve/v3``), which the chaos CI jobs read back.
Percentiles are exact over the held samples
(:func:`repro.obs.hist.percentile_interpolated`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.obs.hist import percentile_interpolated
from repro.serve.client import ServeClient

SCHEMA = "repro.bench-serve/v3"


def run_load(
    client_factory,
    *,
    clients: int,
    requests: int,
    distinct: int,
    max_refs: int,
    timeout: float = 120.0,
) -> dict:
    """Drive the closed-loop fleet; returns the measured summary.

    *client_factory* is a zero-argument callable returning a fresh
    :class:`ServeClient` (one per thread — the client is not shared
    across threads).
    """
    latencies: list[list[float]] = [[] for _ in range(clients)]
    failures: list[BaseException] = []

    def worker(index: int) -> None:
        # Failures are counted per *request*, not per client: one bad
        # round must not silently drop a client's remaining turns. The
        # chaos CI job asserts ``failures == 0`` under injected shard
        # kills — the zero-failed-client-requests acceptance bar —
        # which only means something if every request is attempted.
        with client_factory() as client:
            for turn in range(requests):
                fields = {
                    "workload": "Espresso",
                    "size": "4KB",
                    "max_refs": max_refs,
                    "seed": (index + turn) % distinct,
                }
                begin = time.perf_counter()
                try:
                    record = client.run("simulate", fields, timeout=timeout)
                    assert record["state"] == "done", record
                except BaseException as exc:  # tallied after join
                    failures.append(exc)
                    continue
                latencies[index].append(time.perf_counter() - begin)

    threads = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(clients)
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    if failures and not any(latencies):
        # Nothing at all completed: surface the first cause directly
        # instead of a summary full of zeros.
        raise failures[0]

    with client_factory() as probe:
        metrics = probe.metrics()
    submitted = metrics.get("serve.submitted", 0.0)
    coalesced = metrics.get("serve.coalesced", 0.0)
    answered = metrics.get("serve.cache.answered", 0.0)
    samples = [sample for per_client in latencies for sample in per_client]
    completed = len(samples)
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "clients": clients,
        "requests_per_client": requests,
        "distinct_requests": distinct,
        "max_refs": max_refs,
        "completed": completed,
        "failures": len(failures),
        "elapsed_s": elapsed,
        "throughput_rps": completed / elapsed if elapsed else 0.0,
        "latency_s": {
            "mean": sum(samples) / completed,
            "p50": percentile_interpolated(samples, 50),
            "p95": percentile_interpolated(samples, 95),
            "p99": percentile_interpolated(samples, 99),
            "max": max(samples),
        },
        "coalescing": {
            "submitted": submitted,
            "coalesced": coalesced,
            "answered": answered,
            "hit_rate": (
                (coalesced + answered)
                / (submitted + coalesced + answered)
                if submitted + coalesced + answered
                else 0.0
            ),
        },
    }


# -- phased measurement ----------------------------------------------------------


def _distinct_bodies(distinct: int, max_refs: int) -> list[dict]:
    return [
        {
            "workload": "Espresso",
            "size": "4KB",
            "max_refs": max_refs,
            "seed": seed,
        }
        for seed in range(distinct)
    ]


def _phase_stats(samples: list[float]) -> dict:
    return {
        "count": len(samples),
        "mean_s": sum(samples) / len(samples),
        "p50_s": percentile_interpolated(samples, 50),
        "max_s": max(samples),
    }


def run_phase(
    base_url: str, bodies: list[dict], *, timeout: float = 120.0
) -> list[float]:
    """One sequential pass over *bodies*; per-request latencies."""
    samples = []
    with ServeClient(base_url, timeout=timeout) as client:
        for body in bodies:
            begin = time.perf_counter()
            record = client.run("simulate", body, timeout=timeout)
            samples.append(time.perf_counter() - begin)
            assert record["state"] == "done", record
    return samples


@contextlib.contextmanager
def _running_tree(workers: int, cache_dir: str):
    """An in-process server (or sharded router) on an ephemeral port."""
    from repro.serve.router import ShardedServer
    from repro.serve.server import ServeConfig, SimulationServer

    config = ServeConfig(
        port=0,
        queue_depth=256,
        cache_dir=cache_dir,
        workers=workers,
        job_history=1,  # repeats must hit the cache, not the job table
    )
    server = (
        ShardedServer(config) if workers > 1 else SimulationServer(config)
    )
    thread = threading.Thread(
        target=server.run, kwargs={"install_signals": False}, daemon=True
    )
    thread.start()
    if not server.ready.wait(60):
        raise RuntimeError("in-process server failed to start")
    host, port = server.address
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        thread.join(timeout=60)


def run_benchmark(
    *,
    workers: int,
    clients: int,
    requests: int,
    distinct: int,
    max_refs: int,
    cache_dir: str | None = None,
) -> dict:
    """The full v3 measurement: cold / warm / hot phases + hot fleet."""
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-load-serve-")
    bodies = _distinct_bodies(distinct, max_refs)

    # Phase 1 — cold: fresh cache root, every request computes.
    with _running_tree(workers, cache_dir) as (_, base_url):
        cold = run_phase(base_url, bodies)

    # Phases 2+3 — restart on the populated root: the hot tier is empty
    # (process memory), so the first pass is disk-tier answers (warm) and
    # the repeats are hot-tier answers (hot). The fleet then measures
    # closed-loop throughput on the hot path.
    with _running_tree(workers, cache_dir) as (server, base_url):
        warm = run_phase(base_url, bodies)
        hot = []
        for _ in range(3):
            hot.extend(run_phase(base_url, bodies))
        summary = run_load(
            lambda: ServeClient(base_url, timeout=120.0),
            clients=clients,
            requests=requests,
            distinct=distinct,
            max_refs=max_refs,
        )
        with ServeClient(base_url, timeout=30.0) as probe:
            metrics = probe.metrics()
            routed = (
                probe.healthz().get("routed") if workers > 1 else None
            )

    cold_p50 = percentile_interpolated(cold, 50)
    hot_p50 = percentile_interpolated(hot, 50)
    summary["workers"] = workers
    summary["phases"] = {
        "cold": _phase_stats(cold),
        "warm": _phase_stats(warm),
        "hot": _phase_stats(hot),
        "cold_over_hot_p50": cold_p50 / hot_p50 if hot_p50 else 0.0,
    }
    summary["cache"] = {
        "hot_hits": metrics.get("exec.cache.hot.hit", 0.0),
        "disk_hits": metrics.get("exec.cache.disk.hit", 0.0),
        "answered": metrics.get("serve.cache.answered", 0.0),
    }
    if routed is not None:
        total = sum(routed) or 1
        summary["shards"] = {
            "workers": workers,
            "routed": routed,
            "max_share": max(routed) / total,
        }
    return summary


def render(summary: dict) -> str:
    latency = summary["latency_s"]
    coalescing = summary["coalescing"]
    lines = [
        f"clients:     {summary['clients']} x "
        f"{summary['requests_per_client']} requests "
        f"({summary['distinct_requests']} distinct, "
        f"{summary.get('workers', 1)} worker(s))",
        f"completed:   {summary['completed']} in "
        f"{summary['elapsed_s']:.2f}s "
        f"({summary['throughput_rps']:.1f} req/s"
        + (
            f", {summary['failures']} FAILED"
            if summary.get("failures")
            else ""
        )
        + ")",
        f"latency:     p50 {latency['p50'] * 1000:.1f}ms  "
        f"p95 {latency['p95'] * 1000:.1f}ms  "
        f"p99 {latency['p99'] * 1000:.1f}ms  "
        f"max {latency['max'] * 1000:.1f}ms",
        f"coalescing:  {coalescing['coalesced']:.0f} coalesced + "
        f"{coalescing.get('answered', 0):.0f} cache-answered of "
        f"{coalescing['submitted'] + coalescing['coalesced'] + coalescing.get('answered', 0):.0f} "
        f"submissions ({coalescing['hit_rate']:.1%})",
    ]
    phases = summary.get("phases")
    if phases:
        lines.append(
            "tiers:       "
            + "  ".join(
                f"{name} p50 {phases[name]['p50_s'] * 1000:.1f}ms"
                for name in ("cold", "warm", "hot")
            )
            + f"  (cold/hot = {phases['cold_over_hot_p50']:.0f}x)"
        )
    shards = summary.get("shards")
    if shards:
        lines.append(
            f"shards:      routed {shards['routed']} "
            f"(max share {shards['max_share']:.0%})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--server",
        default=None,
        help="base url of a running server (default: start one in-process; "
        "phase split needs the in-process mode and is skipped here)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="serve worker shards for the in-process tree (default: 2)",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=5)
    parser.add_argument(
        "--distinct",
        type=int,
        default=4,
        help="distinct request variants across the fleet (drives coalescing)",
    )
    parser.add_argument("--max-refs", type=int, default=20_000)
    parser.add_argument(
        "--output",
        default=None,
        help="also write the summary as JSON to this path (default: print only)",
    )
    args = parser.parse_args(argv)

    if args.server is not None:
        # External-server mode: just the closed-loop fleet (no phase
        # split — we cannot restart someone else's server).
        summary = run_load(
            lambda: ServeClient(args.server, timeout=120.0),
            clients=args.clients,
            requests=args.requests,
            distinct=args.distinct,
            max_refs=args.max_refs,
        )
    else:
        summary = run_benchmark(
            workers=args.workers,
            clients=args.clients,
            requests=args.requests,
            distinct=args.distinct,
            max_refs=args.max_refs,
        )

    print(render(summary))
    if args.output is not None:
        Path(args.output).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nwrote {args.output}")
    if summary.get("failures"):
        print(
            f"{summary['failures']} client request(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
