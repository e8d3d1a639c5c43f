"""Benchmark: multi-size sweep rows, per-cell simulation vs one-pass family.

Times one Table 7-style row per SPEC92 benchmark — a full ladder of
direct-mapped cache sizes — computed two ways: the per-cell path (one
independent simulation per size, scalar loop) and the one-pass
direct-mapped family (one collapse of the trace, refined from each size
to the next, producing every size at once). Results are asserted
identical before timing is reported.
This is the ``repro profile bench_sweep`` target; the aggregate row
speedup is the profile's ``bench.sweep.speedup`` gauge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.mem import engines
from repro.mem.cache import Cache, CacheConfig
from repro.obs import OBS
from repro.util import format_table, fraction
from repro.workloads.base import DEFAULT_SCALE, SyntheticWorkload
from repro.workloads.registry import all_workloads

#: References per benchmark when the caller does not pick a budget.
DEFAULT_BENCH_REFS = 100_000

#: The swept row: every power-of-two size of a Table 7-style axis.
BENCH_SIZES = tuple(1 << p for p in range(10, 21))  # 1 KB .. 1 MB
BENCH_BLOCK_BYTES = 32


@dataclass(slots=True)
class BenchRow:
    """One benchmark's row timings: per-cell loop vs one-pass family."""

    workload: str
    references: int
    per_cell_seconds: float
    family_seconds: float

    @property
    def speedup(self) -> float:
        return fraction(self.per_cell_seconds, self.family_seconds)


@dataclass(slots=True)
class BenchResult:
    sizes: tuple[int, ...]
    rows: list[BenchRow]

    @property
    def overall_speedup(self) -> float:
        per_cell = sum(row.per_cell_seconds for row in self.rows)
        family = sum(row.family_seconds for row in self.rows)
        return fraction(per_cell, family)


def run(
    *,
    scale: float = DEFAULT_SCALE,
    max_refs: int | None = None,
    seed: int = 0,
    workloads: list[SyntheticWorkload] | None = None,
) -> BenchResult:
    """Time whole sweep rows under both execution strategies."""
    refs = max_refs if max_refs is not None else DEFAULT_BENCH_REFS
    if workloads is None:
        workloads = all_workloads("SPEC92", scale=scale)
    sizes = list(BENCH_SIZES)
    rows: list[BenchRow] = []
    for workload in workloads:
        trace = workload.generate(seed=seed, max_refs=refs)
        start = time.perf_counter()
        per_cell = [
            Cache(
                CacheConfig(size_bytes=size, block_bytes=BENCH_BLOCK_BYTES)
            )
            .simulate(trace, engine="scalar")
            .total_traffic_bytes
            for size in sizes
        ]
        per_cell_seconds = time.perf_counter() - start
        start = time.perf_counter()
        family = engines.direct_mapped_family(
            trace, sizes, block_bytes=BENCH_BLOCK_BYTES
        )
        family_traffic = [family[size].total_traffic_bytes for size in sizes]
        family_seconds = time.perf_counter() - start
        if per_cell != family_traffic:
            raise SimulationError(
                f"row mismatch on {workload.name}: "
                f"{per_cell} != {family_traffic}"
            )
        rows.append(
            BenchRow(
                workload=workload.name,
                references=len(trace),
                per_cell_seconds=per_cell_seconds,
                family_seconds=family_seconds,
            )
        )
        if OBS.enabled:
            OBS.observe("bench.sweep.per_cell", per_cell_seconds)
            OBS.observe("bench.sweep.family", family_seconds)
    result = BenchResult(sizes=tuple(sizes), rows=rows)
    if OBS.enabled:
        OBS.gauge("bench.sweep.speedup", result.overall_speedup)
    return result


def render(result: BenchResult) -> str:
    rows = [
        [
            row.workload,
            f"{row.references:,}",
            f"{row.per_cell_seconds:.3f}s",
            f"{row.family_seconds:.3f}s",
            f"{row.speedup:.1f}x",
        ]
        for row in result.rows
    ]
    table = format_table(
        ["workload", "refs", "per-cell row", "one-pass row", "speedup"],
        rows,
    )
    return (
        f"sweep-row benchmark: {len(result.sizes)} direct-mapped sizes "
        f"({result.sizes[0]:,}B..{result.sizes[-1]:,}B)\n"
        f"{table}\n"
        f"overall speedup: {result.overall_speedup:.1f}x"
    )
