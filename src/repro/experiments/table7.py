"""Table 7: traffic ratios for 32-byte-block direct-mapped caches.

For each SPEC92 benchmark and each cache size from 1 KB to 2 MB (paper
scale), measures the traffic ratio R of a direct-mapped, 32-byte-block,
write-allocate, write-back cache, flushing at program completion. Cells
where the cache exceeds the data set print "<<<" as in the paper.

The paper's headline summary — "reasonably-sized on-chip caches reduce the
traffic from the processor by about half" — is the arithmetic mean of R
over caches >= 64 KB and smaller than the data set, which
:func:`mean_ratio_64kb_up` reproduces (paper value: 0.51).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.traffic import mean_traffic_ratio
from repro.experiments.runner import ScaledAxis, SweepResult, sweep_grid
from repro.mem.cache import Cache, CacheConfig
from repro.trace.model import MemTrace
from repro.workloads.base import DEFAULT_SCALE, SyntheticWorkload
from repro.workloads.registry import all_workloads

#: Paper values for Table 7 (traffic ratios); None marks "<<<" cells.
#: Used by EXPERIMENTS.md generation and shape tests.
PAPER_TABLE7: dict[str, list[float | None]] = {
    # 1KB   2KB   4KB   8KB   16KB  32KB  64KB  128KB 256KB 512KB 1MB   2MB
    "Compress": [3.03, 1.96, 1.76, 1.59, 1.46, 1.29, 1.10, 0.82, 0.43, None, None, None],
    "Dnasa2":   [3.40, 2.87, 1.34, 0.94, 0.73, 0.62, 0.29, 0.05, None, None, None, None],
    "Eqntott":  [1.04, 0.67, 0.55, 0.47, 0.43, 0.39, 0.34, 0.27, 0.18, 0.11, 0.06, None],
    "Espresso": [1.43, 0.68, 0.39, 0.20, 0.08, 0.01, None, None, None, None, None, None],
    "Su2cor":   [7.44, 7.32, 6.88, 6.11, 4.75, 2.99, 1.43, 0.82, 0.61, 0.29, 0.13, None],
    "Swm":      [5.83, 5.41, 3.94, 1.79, 0.63, 0.60, 0.59, 0.58, 0.58, 0.56, None, None],
    "Tomcatv":  [2.96, 2.91, 2.54, 1.48, 0.87, 0.75, 0.74, 0.73, 0.72, 0.71, 0.33, 0.24],
}

#: The paper's Section 4.2 across-benchmark mean for >=64KB caches.
PAPER_MEAN_RATIO = 0.51


@dataclass(slots=True)
class Table7Result:
    sweep: SweepResult
    mean_ratio_64kb_up: float


def measure_traffic_ratio(
    trace: MemTrace, size_bytes: int, *, block_bytes: int = 32
) -> float:
    """R for one direct-mapped write-back cache over *trace*."""
    cache = Cache(CacheConfig(size_bytes=size_bytes, block_bytes=block_bytes))
    return cache.simulate(trace).traffic_ratio


@dataclass(frozen=True, slots=True)
class RatioMeasure:
    """Table 7's row measure: R at every simulated size of one benchmark.

    A frozen dataclass, so it pickles to pool workers and its fields key
    the row in the result cache. Each call generates the benchmark's
    trace once; the trace is dropped when the row returns.
    """

    seed: int
    max_refs: int | None
    block_bytes: int = 32

    def __call__(
        self, workload: SyntheticWorkload, simulated_sizes: list[int]
    ) -> list[float]:
        """All of one benchmark's sizes from a single one-pass sweep.

        ``--engine scalar`` runs each size through the reference loop
        instead; the differential suite pins the two as bit-identical,
        so cached grids and rendered tables never depend on the engine.
        """
        from repro.mem import engines

        trace = workload.generate(seed=self.seed, max_refs=self.max_refs)
        if engines.resolve_engine() == "scalar":
            return [
                measure_traffic_ratio(
                    trace, size, block_bytes=self.block_bytes
                )
                for size in simulated_sizes
            ]
        family = engines.direct_mapped_family(
            trace, list(simulated_sizes), block_bytes=self.block_bytes
        )
        return [family[size].traffic_ratio for size in simulated_sizes]


def run(
    *,
    scale: float = DEFAULT_SCALE,
    max_refs: int | None = None,
    seed: int = 0,
    workloads: list[SyntheticWorkload] | None = None,
) -> Table7Result:
    """Regenerate Table 7 at the given footprint scale."""
    axis = ScaledAxis(scale=scale)
    if workloads is None:
        workloads = all_workloads("SPEC92", scale=scale)
    measure = RatioMeasure(seed=seed, max_refs=max_refs)

    sweep = sweep_grid("Table 7: traffic ratios", workloads, axis, measure)

    # Mean over >=64KB (paper scale) caches smaller than the data set.
    # Both operands are at paper scale: the column sizes label the paper's
    # axis, and the data-set bound comes from Table 3's published MB — the
    # paper-scale analogue of the simulated-scale pair that decided the
    # "<<<" cells (tests pin that the two agree on the eligible columns).
    means = []
    for workload in workloads:
        cells = [
            (size, value)
            for size, value in zip(sweep.column_sizes, sweep.row(workload.name))
            if value is not None
        ]
        mean = mean_traffic_ratio(
            cells,
            min_size=64 * 1024,
            dataset_bytes=int(workload.paper.dataset_mb * 1024 * 1024),
        )
        if mean == mean:  # not NaN
            means.append(mean)
    overall = sum(means) / len(means) if means else float("nan")
    return Table7Result(sweep=sweep, mean_ratio_64kb_up=overall)


def render(result: Table7Result) -> str:
    from repro.experiments.report import render_sweep

    table = render_sweep(result.sweep)
    return (
        f"{table}\n"
        f"Mean R for >=64KB caches below data-set size: "
        f"{result.mean_ratio_64kb_up:.2f} (paper: {PAPER_MEAN_RATIO})"
    )
