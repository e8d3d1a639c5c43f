"""Benchmark: minimal-traffic-cache simulation, scalar vs miss-jumping engine.

Runs every SPEC92 benchmark through a ladder of MTC sizes twice — the
scalar two-pass loop versus the miss-jumping fast engine with one shared
pass-1 product across the whole ladder — asserting identical traffic
before reporting per-engine throughput. This is the ``repro profile
bench_mtc`` target; the aggregate speedup is the profile's
``bench.mtc.speedup`` gauge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.mem import engines
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.util import format_table, fraction
from repro.obs import OBS
from repro.workloads.base import DEFAULT_SCALE, SyntheticWorkload
from repro.workloads.registry import all_workloads

#: References per benchmark when the caller does not pick a budget.
DEFAULT_BENCH_REFS = 100_000

#: MTC sizes swept per benchmark: miss-heavy small caches through a size
#: big enough to hit the closed-form everything-fits path.
BENCH_SIZES = (256, 1024, 4096, 16384, 65536, 1 << 20)


@dataclass(slots=True)
class BenchRow:
    """One benchmark's ladder timings under both engines."""

    workload: str
    references: int
    scalar_seconds: float
    vector_seconds: float

    @property
    def speedup(self) -> float:
        return fraction(self.scalar_seconds, self.vector_seconds)

    @property
    def scalar_refs_per_second(self) -> float:
        return fraction(
            self.references * len(BENCH_SIZES), self.scalar_seconds
        )

    @property
    def vector_refs_per_second(self) -> float:
        return fraction(
            self.references * len(BENCH_SIZES), self.vector_seconds
        )


@dataclass(slots=True)
class BenchResult:
    sizes: tuple[int, ...]
    rows: list[BenchRow]

    @property
    def overall_speedup(self) -> float:
        scalar = sum(row.scalar_seconds for row in self.rows)
        vector = sum(row.vector_seconds for row in self.rows)
        return fraction(scalar, vector)


def run(
    *,
    scale: float = DEFAULT_SCALE,
    max_refs: int | None = None,
    seed: int = 0,
    workloads: list[SyntheticWorkload] | None = None,
) -> BenchResult:
    """Time both MTC engines over the SPEC92 suite."""
    refs = max_refs if max_refs is not None else DEFAULT_BENCH_REFS
    if workloads is None:
        workloads = all_workloads("SPEC92", scale=scale)
    rows: list[BenchRow] = []
    for workload in workloads:
        trace = workload.generate(seed=seed, max_refs=refs)
        start = time.perf_counter()
        scalar = [
            MinimalTrafficCache(MTCConfig(size_bytes=size))
            .simulate(trace, engine="scalar")
            .total_traffic_bytes
            for size in BENCH_SIZES
        ]
        scalar_seconds = time.perf_counter() - start
        start = time.perf_counter()
        prepared = engines.prepare_mtc(trace)
        vector = [
            MinimalTrafficCache(MTCConfig(size_bytes=size))
            .simulate(trace, engine="vector", prepared=prepared)
            .total_traffic_bytes
            for size in BENCH_SIZES
        ]
        vector_seconds = time.perf_counter() - start
        if scalar != vector:
            raise SimulationError(
                f"engine mismatch on {workload.name}: {scalar} != {vector}"
            )
        rows.append(
            BenchRow(
                workload=workload.name,
                references=len(trace),
                scalar_seconds=scalar_seconds,
                vector_seconds=vector_seconds,
            )
        )
        if OBS.enabled:
            OBS.observe("bench.mtc.scalar", scalar_seconds)
            OBS.observe("bench.mtc.vector", vector_seconds)
    result = BenchResult(sizes=BENCH_SIZES, rows=rows)
    if OBS.enabled:
        OBS.gauge("bench.mtc.speedup", result.overall_speedup)
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
        ["workload", "refs/size", "scalar refs/s", "vector refs/s", "speedup"],
        rows,
    )
    ladder = ", ".join(str(size) for size in result.sizes)
    return (
        f"MTC engine benchmark over sizes [{ladder}] bytes\n"
        f"{table}\n"
        f"overall speedup: {result.overall_speedup:.1f}x"
    )
