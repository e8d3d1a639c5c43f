"""Benchmark: set-associative LRU simulation, scalar loop vs vector engine.

Runs every SPEC92 benchmark through one representative set-associative
configuration (64 KB, 32-byte blocks, 4-way LRU, write-back
write-allocate) twice — once with the scalar per-access loop and once
with the stack-distance kernel of ``engine="vector"`` — asserting the
two produce identical :class:`~repro.mem.cache.CacheStats` before reporting
per-engine throughput. This is the ``repro profile bench_cache`` target
backing the engine numbers in docs/performance.md; the measured speedup
is the profile's ``bench.cache.speedup`` gauge (in the JSON that
``--output PATH`` writes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.mem.cache import Cache, CacheConfig
from repro.obs import OBS
from repro.util import format_table, fraction
from repro.workloads.base import DEFAULT_SCALE, SyntheticWorkload
from repro.workloads.registry import all_workloads

#: References per benchmark when the caller does not pick a budget.
DEFAULT_BENCH_REFS = 100_000

#: The benchmarked configuration: big enough to exercise real set
#: pressure, associative enough that the kernel counts windows.
BENCH_CONFIG = CacheConfig(
    size_bytes=64 * 1024, block_bytes=32, associativity=4
)


@dataclass(slots=True)
class BenchRow:
    """One benchmark's timings under both engines (identical results)."""

    workload: str
    references: int
    scalar_seconds: float
    vector_seconds: float

    @property
    def speedup(self) -> float:
        return fraction(self.scalar_seconds, self.vector_seconds)

    @property
    def scalar_refs_per_second(self) -> float:
        return fraction(self.references, self.scalar_seconds)

    @property
    def vector_refs_per_second(self) -> float:
        return fraction(self.references, self.vector_seconds)


@dataclass(slots=True)
class BenchResult:
    config: str
    rows: list[BenchRow]

    @property
    def overall_speedup(self) -> float:
        scalar = sum(row.scalar_seconds for row in self.rows)
        vector = sum(row.vector_seconds for row in self.rows)
        return fraction(scalar, vector)


def _stats_key(stats) -> tuple:
    return (
        stats.accesses,
        stats.read_hits,
        stats.write_hits,
        stats.fetch_bytes,
        stats.writeback_bytes,
        stats.writethrough_bytes,
        stats.flush_writeback_bytes,
    )


def run(
    *,
    scale: float = DEFAULT_SCALE,
    max_refs: int | None = None,
    seed: int = 0,
    workloads: list[SyntheticWorkload] | None = None,
) -> BenchResult:
    """Time both cache engines over the SPEC92 suite."""
    refs = max_refs if max_refs is not None else DEFAULT_BENCH_REFS
    if workloads is None:
        workloads = all_workloads("SPEC92", scale=scale)
    rows: list[BenchRow] = []
    for workload in workloads:
        trace = workload.generate(seed=seed, max_refs=refs)
        start = time.perf_counter()
        scalar = Cache(BENCH_CONFIG).simulate(trace, engine="scalar")
        scalar_seconds = time.perf_counter() - start
        start = time.perf_counter()
        vector = Cache(BENCH_CONFIG).simulate(trace, engine="vector")
        vector_seconds = time.perf_counter() - start
        if _stats_key(scalar) != _stats_key(vector):
            raise SimulationError(
                f"engine mismatch on {workload.name}: "
                f"scalar {_stats_key(scalar)} != vector {_stats_key(vector)}"
            )
        row = BenchRow(
            workload=workload.name,
            references=len(trace),
            scalar_seconds=scalar_seconds,
            vector_seconds=vector_seconds,
        )
        rows.append(row)
        if OBS.enabled:
            OBS.observe("bench.cache.scalar", scalar_seconds)
            OBS.observe("bench.cache.vector", vector_seconds)
    result = BenchResult(config=BENCH_CONFIG.describe(), rows=rows)
    if OBS.enabled:
        OBS.gauge("bench.cache.speedup", result.overall_speedup)
    return result


def render(result: BenchResult) -> str:
    rows = [
        [
            row.workload,
            f"{row.references:,}",
            f"{row.scalar_refs_per_second:,.0f}",
            f"{row.vector_refs_per_second:,.0f}",
            f"{row.speedup:.1f}x",
        ]
        for row in result.rows
    ]
    table = format_table(
        ["workload", "refs", "scalar refs/s", "vector refs/s", "speedup"],
        rows,
    )
    return (
        f"cache engine benchmark: {result.config}\n"
        f"{table}\n"
        f"overall speedup: {result.overall_speedup:.1f}x"
    )
