"""The ``serve-cold`` workload.

It drives a ``repro serve --workers 2 --jobs 1`` tree on a fresh cache
root, with a closed loop of :data:`CLIENTS` threads in this process.
Each thread owns one keep-alive ``ServeClient`` and calls
``run("simulate", ...)`` with the client's default poll, because callers
of ``repro submit`` and ``ServeClient.run`` block until their reply
arrives. Every request is distinct, so every one computes: trace
generation, the engines, CLI replay, cache writes, the scheduler and the
router, but no hot-tier reads.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
import layers
import speed
from repro.experiments.scenarios import SCENARIO_SPECS
from repro.serve.client import ServeClient
from repro.serve.jobs import execute_request
from repro.serve.protocol import normalize_request
from repro.workloads.registry import workload_names

HERE = Path(__file__).resolve().parent

#: Closed-loop client threads: one per CPU of a 2-CPU host.
CLIENTS = 2

#: References per request (Espresso at 4KB and this budget is the request
#: shape the older serve baseline measured).
MAX_REFS = 20_000
SIZES = ("1KB", "4KB", "16KB", "64KB")
ASSOCS = (1, 2, 4)
#: One request in this many (of each workload or scenario) carries ``mtc``.
MTC_EVERY = 4

#: Served outputs re-computed in-process and compared byte for byte.
VERIFY_SAMPLE = 12

#: Tail latency percentile: the highest one that keeps at least ten
#: samples beyond it at the run length in use.
TAIL = 95


def request_stream(seed: int):
    """Distinct simulate request bodies, in seeded rounds.

    Each round covers every SPEC92 workload and every committed scenario
    shape (:data:`SCENARIO_SPECS`) once, in shuffled order. Each kind
    cycles through every (size, associativity) pair in a seeded order, and
    every :data:`MTC_EVERY`-th request of a kind also asks for the MTC.
    The trace seed of each request is drawn from *seed*. So every run
    sends the same mix, while the inputs change with *seed*.
    """
    rng = random.Random(seed)
    kinds = [("workload", name) for name in workload_names("SPEC92")]
    kinds += [("scenario", name) for name in SCENARIO_SPECS]
    pending: dict[tuple[str, str], list[tuple[str, int]]] = {
        kind: [] for kind in kinds
    }
    used: set[int] = set()
    while True:
        order = kinds[:]
        rng.shuffle(order)
        for kind, name in order:
            shapes = pending[(kind, name)]
            if not shapes:
                shapes.extend(itertools.product(SIZES, ASSOCS))
                rng.shuffle(shapes)
            size, assoc = shapes.pop()
            trace_seed = rng.randrange(1, 2**31)
            while trace_seed in used:
                trace_seed = rng.randrange(1, 2**31)
            used.add(trace_seed)
            body = {
                "size": size,
                "assoc": assoc,
                "mtc": len(shapes) % MTC_EVERY == 0,
                "max_refs": MAX_REFS,
            }
            if kind == "workload":
                body["workload"] = name
                body["seed"] = trace_seed
            else:
                body["scenario"] = dict(
                    SCENARIO_SPECS[name], refs=MAX_REFS, seed=trace_seed
                )
            yield body


class Tree:
    """A ``repro serve --workers 2 --jobs 1`` tree in a child process.

    The tree runs in its own interpreter, as a user's ``repro serve``
    does, so the clients never share the router's interpreter lock and
    the router's memory is the server's alone. With *trace_log* it starts
    through ``tree.py``, which installs the layer wrappers before the
    router forks its shards, and every process of the tree writes spans
    to *trace_log*.
    """

    def __init__(
        self, root: Path, workdir: Path, *, trace_log: str | None = None
    ) -> None:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        argv = ["serve", "--workers", "2", "--jobs", "1", "--port", "0",
                "--cache-dir", cache_dir]
        if trace_log is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(HERE / "tree.py"), trace_log,
                       *argv]
        self.stderr_path = Path(cache_dir + ".err")
        with open(self.stderr_path, "w") as stderr:
            # A session of its own, so _kill reaches the forked shards too.
            self.proc = subprocess.Popen(
                command, cwd=root, stdout=subprocess.DEVNULL, stderr=stderr,
                env=dict(os.environ, PYTHONPATH=str(root / "src")),
                start_new_session=True,
            )
        try:
            self.url = self._await_banner(time.monotonic() + 60)
        except BaseException:
            self._kill()
            raise

    def _kill(self) -> None:
        """SIGKILL the router and every shard, and reap the router."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def _await_banner(self, deadline: float) -> str:
        while time.monotonic() < deadline:
            found = _BANNER.search(self.stderr_path.read_text())
            if found:
                return f"http://{found.group(1)}:{found.group(2)}"
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            "serve tree did not start: "
            + self.stderr_path.read_text()[-2000:]
        )

    def metrics(self) -> dict[str, float]:
        with ServeClient(self.url, timeout=30.0) as client:
            return client.metrics()

    def pids(self) -> list[int]:
        """The router and its shard processes."""
        pid = self.proc.pid
        try:
            children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
        except OSError:
            children = ""
        return [pid, *map(int, children.split())]

    def cpu_seconds(self) -> float:
        """CPU time the router and shards have used so far."""
        return sum(common.process_cpu_seconds(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        """The largest router or shard process of the tree."""
        return max(common.process_peak_rss_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        """Drain the tree as Ctrl-C would, and wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self._kill()
                raise RuntimeError("serve tree did not drain in 60 s")
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"serve tree exited {self.proc.returncode}: "
                + self.stderr_path.read_text()[-2000:]
            )


_BANNER = re.compile(r"routing on http://([0-9.]+):([0-9]+)")


@dataclass
class Phase:
    """What one closed-loop phase observed."""

    latencies: list[float] = field(default_factory=list)
    #: Client latency minus the server's admission-to-done time, per
    #: polled request: the submit and poll round trips plus poll sleep.
    gaps: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    #: Served output per request index.
    outputs: dict[int, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: The first few failures.
    failures: list[str] = field(default_factory=list)
    polls: int = 0
    elapsed: float = 0.0
    #: Epoch time the phase began.
    started_at: float = 0.0

    def observe(self, index: int, latency: float, record: dict) -> None:
        self.latencies.append(latency)
        timings = record.get("timings")
        if timings is not None and "total_s" in timings:
            self.gaps.append(latency - timings["total_s"])
            self.queue_waits.append(timings.get("queue_wait_s", 0.0))
        self.outputs[index] = record["result"]["output"]


class PollCountingClient(ServeClient):
    """A ``ServeClient`` that counts its job polls (traced runs only)."""

    polls = 0

    def job(self, job_id: str) -> dict:
        self.polls += 1
        return super().job(job_id)


def closed_loop(
    url: str, draw, seconds: float, *, count_polls: bool = False
) -> Phase:
    """:data:`CLIENTS` threads send ``draw()`` -> (index, body) requests
    until *seconds* pass."""
    client_class = PollCountingClient if count_polls else ServeClient
    phase = Phase(started_at=time.time())
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds
    opened = []

    def worker() -> None:
        with client_class(url, timeout=120.0) as client:
            opened.append(client)
            while time.perf_counter() < deadline:
                with lock:
                    index, body = draw()
                    phase.attempted += 1
                begin = time.perf_counter()
                try:
                    record = client.run("simulate", body)
                except Exception as exc:  # counted; the loop keeps going
                    with lock:
                        phase.failed += 1
                        if phase.failed <= 3:
                            phase.failures.append(
                                f"request {index} failed: "
                                f"{type(exc).__name__}: {exc}"
                            )
                    continue
                latency = time.perf_counter() - begin
                with lock:
                    phase.observe(index, latency, record)

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.elapsed = time.perf_counter() - start
    phase.polls = sum(getattr(client, "polls", 0) for client in opened)
    return phase


class Workload:
    """The serve-cold workload, bound to a seed and a work dir."""

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.bodies: dict[int, dict] = {}

    def start(self, *, trace_log: str | None = None) -> tuple[Tree, float]:
        """A tree on a fresh cache root, and the CPU seconds the tree spent
        starting until it routes."""
        tree = Tree(self.root, self.workdir, trace_log=trace_log)
        return tree, tree.cpu_seconds()

    def draw(self):
        """The timed phase's request source: (index, body) per call."""
        stream = request_stream(self.seed)
        counter = iter(range(1 << 62))

        def fresh():
            index = next(counter)
            body = next(stream)
            self.bodies[index] = body
            return index, body

        return fresh

    def verify(self, phases: list[Phase], result: common.Result) -> None:
        """Re-compute a seeded sample of served outputs in-process."""
        for phase in phases:
            result.attempted += phase.attempted
            result.failed += phase.failed
            result.context.extend(phase.failures)
        served: dict[int, str] = {}
        for phase in phases:
            for index, output in phase.outputs.items():
                if served.setdefault(index, output) != output:
                    result.mismatch(
                        f"request {index}: the traced run's halves served "
                        f"different outputs"
                    )
        rng = random.Random(self.seed + 2_000_003)
        sample = rng.sample(sorted(served), min(VERIFY_SAMPLE, len(served)))
        for index in sample:
            request = normalize_request("simulate", self.bodies[index])
            if execute_request(request)["output"] != served[index]:
                result.mismatch(
                    f"request {index}: served output differs from an "
                    f"in-process execute_request"
                )
        result.context.append(
            f"compared {len(sample)} served outputs byte for byte with "
            f"in-process execute_request"
        )


def run(
    *, seed: int, seconds: float, trace: bool, root: Path, workdir: Path
) -> common.Result:
    result = common.Result()
    load = Workload(seed, root, workdir)
    if trace:
        _traced(load, seconds, result)
        return result

    setups, walls = [], []
    with speed.ThreadProbe(speed.SETUP_INTERVAL_S) as setup_probe:
        for repeat in range(common.SETUP_REPEATS):
            begin = time.perf_counter()
            tree, setup = load.start()
            walls.append(time.perf_counter() - begin)
            setups.append(setup)
            if repeat < common.SETUP_REPEATS - 1:
                tree.stop()
    try:
        with speed.ThreadProbe() as probe:
            cpu = tree.cpu_seconds()
            steal = common.steal_jiffies()
            phase = closed_loop(tree.url, load.draw(), seconds)
            cpu = tree.cpu_seconds() - cpu
            steal = common.steal_jiffies() - steal
        peak_rss = tree.peak_rss_mb()
    finally:
        tree.stop()
    load.verify([phase], result)

    n = len(phase.latencies)
    result.add("setup_s", common.median(setups) * setup_probe.factor(), "s",
               f"tree CPU time, median of {len(setups)} set-ups (process "
               f"start to routing), scaled by host speed")
    result.add("cpu_ms_per_op", 1000 * cpu * probe.factor() / n, "ms",
               f"router + shard CPU per request, {n} requests, scaled by "
               f"host speed")
    result.add("peak_rss_mb", peak_rss, "MB", "largest router or shard process")
    result.context.append(
        f"unscaled: setup {common.median(setups):.4f} s, CPU per request "
        f"{1000 * cpu / n:.3f} ms; probe kernel median "
        f"{setup_probe.kernel_ms():.3f} ms in set-up, "
        f"{probe.kernel_ms():.3f} ms over {len(probe.samples)} samples in "
        f"the timed phase"
    )
    result.context.append(
        f"set-up wall clock: median {common.median(walls):.3f} s"
    )
    result.context.extend(_latency_lines(phase))
    result.context.append(
        f"hypervisor steal during the timed phase: "
        f"{steal / common.CLOCK_TICKS:.2f} CPU s in {phase.elapsed:.1f} s"
    )
    return result


def _latency_lines(phase: Phase) -> list[str]:
    """The wall-clock latency figures (printed, not gated)."""
    n = len(phase.latencies)
    return [
        f"p50_ms {1000 * common.percentile(phase.latencies, 50):.3f} ms "
        f"(client-observed, n={n})",
        f"p{TAIL}_ms {1000 * common.percentile(phase.latencies, TAIL):.3f} ms "
        f"(n={n}, {common.beyond(n, TAIL)} beyond)",
        f"rps {n / phase.elapsed:.2f} 1/s ({n} requests in "
        f"{phase.elapsed:.1f} s at {CLIENTS} clients)",
    ]


def _delta(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _shard_delta(after: dict, before: dict, name: str) -> float:
    """A per-shard exposition value (``shard<i>.<name>``), summed."""
    return sum(
        _delta(after, before, key)
        for key in set(after) | set(before)
        if key.startswith("shard") and key.split(".", 1)[1] == name
    )


def _traced(load: Workload, seconds: float, result: common.Result) -> None:
    tree, _ = load.start()
    try:
        plain = closed_loop(tree.url, load.draw(), seconds / 2)
    finally:
        tree.stop()
    count = len(plain.latencies)
    result.add("e2e.p50_ms", 1000 * common.percentile(plain.latencies, 50),
               "ms", f"untraced half: client p50, n={count}")
    result.add("e2e.tail_ms",
               1000 * common.percentile(plain.latencies, TAIL), "ms",
               f"untraced half: p{TAIL}, {common.beyond(count, TAIL)} beyond")
    result.add("e2e.ops_per_s", count / plain.elapsed, "1/s",
               f"untraced half: requests per second at {CLIENTS} clients")

    log = load.workdir / "spans.jsonl"
    tree, _ = load.start(trace_log=str(log))
    try:
        before = tree.metrics()
        traced = closed_loop(
            tree.url, load.draw(), seconds / 2, count_polls=True
        )
        after = tree.metrics()
    finally:
        tree.stop()
    load.verify([plain, traced], result)
    totals = layers.summarize(str(log), start=traced.started_at)

    n = len(traced.latencies)

    def per_request(value: float) -> float:
        return value / n

    def delta(name: str) -> float:
        return _delta(after, before, name)

    layer_ms = {
        "workloads.gen_ms": "workloads.gen",
        "scenario.gen_ms": "scenario.gen",
        "mem.cache_ms": "mem.cache",
        "mem.family_ms": "mem.family",
        "mem.mtc_ms": "mem.mtc",
        "exec.run_tasks_self_ms": "exec.run_tasks",
        "exec.cache.get_ms": "exec.cache.get",
        "exec.cache.put_ms": "exec.cache.put",
        "cli.replay_ms": "cli.replay",
        "serve.admit_ms": "serve.admit",
        "router.proxy_ms": "router.proxy",
    }
    for metric, span in layer_ms.items():
        result.add(metric, per_request(totals.ms(span)), "ms",
                   "self time per request")
    mem_ms = totals.ms("mem.cache") + totals.ms("mem.family") + totals.ms(
        "mem.mtc"
    )
    mem_refs = delta("cache.accesses") + delta("mtc.accesses")
    result.add("workloads.refs", per_request(totals.refs), "count",
               "per request")
    result.add("mem.refs", per_request(mem_refs), "count",
               "cache.accesses + mtc.accesses per request")
    result.add("mem.refs_per_s", mem_refs / (mem_ms / 1000) if mem_ms else 0.0,
               "1/s", "mem.refs / mem self time")

    disk_hits = delta("exec.cache.disk.hit")
    result.add("exec.cache.hot_hit", per_request(delta("exec.cache.hot.hit")),
               "1/op", "per request")
    result.add("exec.cache.disk_hit", per_request(disk_hits), "1/op",
               "per request")
    result.add("exec.cache.miss",
               per_request(delta("exec.cache.hot.miss") - disk_hits), "1/op",
               "lookups missing both tiers, per request")
    result.add("exec.pool.forks", totals.pool_workers, "count",
               "pool worker processes forked in the traced phase")

    def hist_mean_ms(name: str) -> float:
        count = _shard_delta(after, before, f"{name}.count")
        total = _shard_delta(after, before, f"{name}.total_s")
        return 1000 * total / count if count else 0.0

    batches = _shard_delta(after, before, "serve.batch.time.count")
    submitted = delta("serve.submitted")
    answered = delta("serve.cache.answered") + delta("serve.coalesced")
    result.add("serve.queue_wait_ms", hist_mean_ms("serve.queue.wait"), "ms",
               "mean per queued job (serve.queue.wait)")
    result.add("serve.service_ms", hist_mean_ms("serve.job.service"), "ms",
               "mean per queued job (serve.job.service)")
    result.add("serve.batch_size",
               delta("serve.jobs.done") / batches if batches else 0.0,
               "jobs", "serve.jobs.done / serve.batch.time count")
    result.add("serve.answered_share",
               answered / (answered + submitted) if answered + submitted
               else 0.0, "ratio", "submissions answered at admission")
    result.add("serve.rejected", delta("serve.rejected"), "count", "total")

    routed = [
        _delta(after, before, f"serve.router.routed.{index}")
        for index in range(2)
    ]
    result.add("router.max_shard_share",
               max(routed) / sum(routed) if sum(routed) else 0.0, "ratio",
               f"routed {[int(count) for count in routed]}")
    result.add("router.failover", delta("serve.router.failover"), "count",
               "total")
    result.add("router.unavailable", delta("serve.router.unavailable"),
               "count", "total")

    poll_wait_ms = 1000 * sum(traced.gaps) / n
    result.add("client.poll_wait_ms", poll_wait_ms, "ms",
               "client latency minus server total_s, per request")
    result.add("client.polls_per_request", per_request(traced.polls), "1/op",
               "GET /v1/jobs calls per request")

    wall_ms = 1000 * sum(traced.latencies) / n
    queue_ms = 1000 * sum(traced.queue_waits) / n
    batch_ms = per_request(totals.rooted_ms("exec.run_tasks"))
    result.add("traced_wall_ms", wall_ms, "ms",
               f"mean client latency, n={n} traced requests")
    result.add("unattributed_ms",
               wall_ms - poll_wait_ms - queue_ms - batch_ms, "ms",
               "latency not in poll gap, queue wait or batch layers")
    overhead = 100 * (
        common.percentile(traced.latencies, 50)
        / common.percentile(plain.latencies, 50) - 1
    )
    result.add("obs.trace_overhead_pct", overhead, "%",
               f"traced p50 vs plain p50 (n={len(plain.latencies)})")
