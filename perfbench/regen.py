"""The ``regen`` workload: regenerate Tables 7, 8 and 6 in one serial process.

One pass runs each table's ``run`` and ``render`` at the budgets below,
with the program's defaults otherwise: serial, result cache off, engine
``auto``. The timed phase repeats passes on the run's seed until the run
time is spent. Trace generation, the ``mem`` engines (the direct-mapped
one-pass family and the miss-jumping MTC) and the ``cpu`` timing cores
(Table 6: experiments A and F, three memory modes each) do the work; no
serve, router or exec-cache code runs.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import common
import layers
import speed
from repro import obs
from repro.experiments import table6, table7, table8
from repro.obs import TRACER

#: Each table with its reference budget (max_refs per benchmark), in pass
#: order.
TABLES = ((table7, 40_000), (table8, 20_000), (table6, 3_000))

#: The program's default seed: the seed the recorded digest and counts
#: in reference.json belong to.
DEFAULT_SEED = 0

#: Exact simulated counts checked on the default seed (per pass). The
#: traffic byte counts catch engine errors too small to show in the
#: tables' rounded cells.
CHECKED_COUNTS = (
    "core.instructions",
    "core.cycles",
    "cache.accesses",
    "cache.misses",
    "cache.fetch_bytes",
    "cache.writeback_bytes",
    "mtc.accesses",
    "mtc.traffic_bytes",
)

#: Trace bytes a one-pass engine reads per reference: an 8-byte address
#: and a 1-byte write flag.
BYTES_PER_REF = 9

#: What a user's ``repro experiment`` process imports before any work.
IMPORTS = [
    "repro.cli",
    "repro.experiments.table6",
    "repro.experiments.table7",
    "repro.experiments.table8",
]


def one_pass(seed: int, result: common.Result) -> tuple[float, float, str]:
    """Regenerate the three tables once; returns (wall seconds, CPU seconds,
    digest)."""
    digest = hashlib.sha256()
    start = time.perf_counter()
    cpu = time.process_time()
    for module, budget in TABLES:
        name = module.__name__.rsplit(".", 1)[1]
        result.attempted += 1
        try:
            text = module.render(module.run(max_refs=budget, seed=seed))
        except Exception as exc:  # one failed table is one failed operation
            result.failed += 1
            result.context.append(f"{name} failed: {type(exc).__name__}: {exc}")
            text = f"<{name} failed>"
        digest.update(text.encode("utf-8") + b"\0")
    return (
        time.perf_counter() - start,
        time.process_time() - cpu,
        digest.hexdigest(),
    )


def timed_passes(
    seed: int, seconds: float, result: common.Result,
    probe: speed.CpuProbe | None = None,
) -> tuple[list[float], list[float], list[float]]:
    """Passes on *seed* until *seconds* are spent; every pass must render
    the same bytes. Returns the passes' wall and CPU seconds, and with a
    *probe*, their CPU seconds scaled by the probe."""
    walls: list[float] = []
    cpus: list[float] = []
    scaled: list[float] = []
    digests: set[str] = set()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        mark = probe.mark() if probe else None
        wall, cpu, digest = one_pass(seed, result)
        walls.append(wall)
        cpus.append(cpu)
        if probe:
            scaled.append(probe.scale(mark, cpu))
        digests.add(digest)
    if len(digests) > 1:
        result.mismatch(f"regen seed {seed}: passes rendered different tables")
    return walls, cpus, scaled


def default_seed_pass(result: common.Result) -> dict:
    """One pass on the default seed with counters on: the digest of its
    rendered tables and its exact simulated counts (reference.json's
    ``regen`` entry)."""
    with obs.instrumented() as instrumented:
        _, _, digest = one_pass(DEFAULT_SEED, result)
        counters = instrumented.registry.counter_values()
    return {
        "digest": digest,
        "counts": {name: counters.get(name, 0) for name in CHECKED_COUNTS},
    }


def verify(reference: dict, result: common.Result) -> None:
    """The default-seed pass must reproduce the recorded digest and counts."""
    measured = default_seed_pass(result)
    if measured["digest"] != reference["digest"]:
        result.mismatch(
            f"regen default-seed digest {measured['digest'][:16]} != "
            f"recorded {reference['digest'][:16]}"
        )
    for name in CHECKED_COUNTS:
        if measured["counts"][name] != reference["counts"][name]:
            result.mismatch(
                f"regen {name} = {measured['counts'][name]} != recorded "
                f"{reference['counts'][name]}"
            )


def run(
    *, seed: int, seconds: float, trace: bool, root: Path, workdir: Path,
    reference: dict,
) -> common.Result:
    result = common.Result()
    if not trace:
        with speed.ThreadProbe(speed.SETUP_INTERVAL_S) as setup_probe:
            setups = [
                common.fresh_import_cpu_seconds(root, IMPORTS)
                for _ in range(common.SETUP_REPEATS)
            ]
        with speed.CpuProbe() as probe:
            walls, cpus, scaled = timed_passes(seed, seconds, result, probe)
        result.add("setup_s", common.median(setups) * setup_probe.factor(),
                   "s", f"CPU time, median of {len(setups)} fresh-interpreter "
                   f"imports, scaled by host speed")
        result.add("cpu_ms_per_op", 1000 * common.median(scaled), "ms",
                   f"median CPU time of a pass over Tables 7, 8 and 6, "
                   f"scaled by host speed, n={len(scaled)} passes")
        result.add("peak_rss_mb", common.self_peak_rss_mb(), "MB",
                   "runner process")
        result.context.append(
            f"unscaled: setup {common.median(setups):.4f} s, pass CPU "
            f"{1000 * common.median(cpus):.1f} ms; probe kernel median "
            f"{setup_probe.kernel_ms():.3f} ms in set-up, "
            f"{probe.kernel_ms():.3f} ms over {len(probe.samples)} samples "
            f"in the timed passes"
        )
        result.context.extend(_wall_lines(walls))
    else:
        _traced(seed, seconds, result, workdir)
    verify(reference, result)
    return result


def _wall_lines(walls: list[float]) -> list[str]:
    """The wall-clock figures (printed, not gated)."""
    n = len(walls)
    return [
        f"wall_s {common.median(walls):.3f} s (median pass, n={n})",
        f"p90 pass {common.percentile(walls, 90):.3f} s "
        f"({common.beyond(n, 90)} beyond)",
        f"tables per second {3 * n / sum(walls):.4f}",
    ]


def _traced(
    seed: int, seconds: float, result: common.Result, workdir: Path
) -> None:
    # Measured here only: the copy buffers would otherwise count in the
    # untraced run's peak_rss_mb.
    bandwidth = common.copy_bandwidth_gbps()
    plain, _, _ = timed_passes(seed, seconds / 2, result)
    result.add("e2e.p50_ms", 1000 * common.median(plain), "ms",
               f"untraced half: median pass wall, n={len(plain)}")
    result.add("e2e.tail_ms", 1000 * common.percentile(plain, 90), "ms",
               "untraced half: p90 pass wall")
    result.add("e2e.ops_per_s", 3 * len(plain) / sum(plain), "1/s",
               "untraced half: tables per wall second")
    log = workdir / "spans.jsonl"
    installed = layers.install()
    TRACER.configure(str(log))
    try:
        with obs.instrumented() as instrumented:
            traced, _, _ = timed_passes(seed, seconds / 2, result)
            snapshot = instrumented.registry.snapshot()
    finally:
        TRACER.deactivate()
        installed.restore()
    totals = layers.summarize(str(log))
    n = len(traced)
    counters = snapshot["counters"]
    timers = snapshot["timers"]

    def per_pass(value: float) -> float:
        return value / n

    wall_ms = per_pass(1000 * sum(traced))
    mem_ms = per_pass(
        totals.ms("mem.cache") + totals.ms("mem.family") + totals.ms("mem.mtc")
    )
    mem_refs = per_pass(
        counters.get("cache.accesses", 0) + counters.get("mtc.accesses", 0)
    )
    refs_per_s = mem_refs / (mem_ms / 1000) if mem_ms else 0.0
    core_ms = per_pass(totals.ms("cpu.core"))
    instructions = per_pass(counters.get("core.instructions", 0))
    layer_ms = {
        "workloads.gen_ms": "workloads.gen",
        "scenario.gen_ms": "scenario.gen",
        "mem.cache_ms": "mem.cache",
        "mem.family_ms": "mem.family",
        "mem.mtc_ms": "mem.mtc",
        "cpu.itrace_ms": "cpu.itrace",
        "cpu.core_ms": "cpu.core",
        "experiments.self_ms": "experiments",
    }
    for metric, span in layer_ms.items():
        result.add(metric, per_pass(totals.ms(span)), "ms", "self time per pass")
    attributed = per_pass(sum(totals.ms(span) for span in totals.self_s))
    result.add("workloads.refs", per_pass(totals.refs), "count", "per pass")
    result.add("mem.refs", mem_refs, "count",
               "cache.accesses + mtc.accesses per pass")
    result.add("mem.refs_per_s", refs_per_s, "1/s", "mem.refs / mem self time")
    result.add("host.copy_gbps", bandwidth, "GB/s", "numpy copy, context")
    result.add("mem.ceiling_share",
               refs_per_s * BYTES_PER_REF / (bandwidth * 1e9), "ratio",
               f"{BYTES_PER_REF} trace bytes/ref at mem.refs_per_s vs copy")
    for mode in ("perfect", "infinite", "full"):
        total = timers.get(f"machine.mode.{mode}", {}).get("total_s", 0.0)
        result.add(f"cpu.mode.{mode}_ms", per_pass(1000 * total), "ms",
                   "machine.mode timer per pass")
    result.add("cpu.instructions", instructions, "count", "per pass")
    result.add("cpu.cycles", per_pass(counters.get("core.cycles", 0)), "count",
               "per pass")
    result.add("cpu.instr_per_s",
               instructions / (core_ms / 1000) if core_ms else 0.0, "1/s",
               "simulated instructions per host second of cpu.core")
    result.add("traced_wall_ms", wall_ms, "ms", f"mean of n={n} traced passes")
    result.add("unattributed_ms", wall_ms - attributed, "ms",
               f"{100 * (wall_ms - attributed) / wall_ms:.2f}% of traced wall")
    overhead = 100 * (common.median(traced) / common.median(plain) - 1)
    result.add("obs.trace_overhead_pct", overhead, "%",
               f"median traced pass vs median of {len(plain)} plain passes")
    # Spans from layers that regen never reaches must not appear at all.
    stray = sorted(set(totals.self_s) - set(layer_ms.values()))
    if stray:
        result.context.append(f"unexpected layers on regen: {stray}")

