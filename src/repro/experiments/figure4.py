"""Figure 4: total traffic vs cache size, caches against the MTC.

Log-log curves for Compress, Eqntott, and Swm: 4-way set-associative
caches at block sizes 4 B-128 B, against the fully-associative MIN MTC in
both write-allocate and write-validate flavours. Large vertical gaps
between a cache curve and the MTC curve are the traffic inefficiencies of
Table 8 made visible; block size is the dominant visible factor for
Compress, write-validate for Eqntott, associativity for Swm at the
data-set boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ScaledAxis
from repro.mem import engines
from repro.mem.cache import AllocatePolicy, Cache, CacheConfig
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.trace.model import MemTrace
from repro.util import powers_of_two
from repro.workloads.base import DEFAULT_SCALE
from repro.workloads.registry import get_workload

#: The paper's Figure 4 panels.
BENCHMARKS = ("Compress", "Eqntott", "Swm")
BLOCK_SIZES = (4, 8, 16, 32, 64, 128)


@dataclass(slots=True)
class Figure4Panel:
    benchmark: str
    #: paper-scale cache sizes on the x axis.
    sizes: list[int]
    #: block size -> traffic (bytes) per size; 4-way caches.
    cache_series: dict[int, list[int]]
    mtc_write_allocate: list[int]
    mtc_write_validate: list[int]


@dataclass(slots=True)
class Figure4Result:
    panels: dict[str, Figure4Panel]
    scale: float


def _cache_traffic(trace: MemTrace, size: int, block: int) -> int:
    config = CacheConfig(
        size_bytes=size,
        block_bytes=block,
        associativity=min(4, size // block),
    )
    return Cache(config).simulate(trace).total_traffic_bytes


def _mtc_traffic(
    trace: MemTrace,
    size: int,
    allocate: AllocatePolicy,
    prepared: engines.PreparedMTC,
) -> int:
    mtc = MinimalTrafficCache(
        MTCConfig(size_bytes=size, allocate=allocate, bypass=True)
    )
    return mtc.simulate(trace, prepared=prepared).total_traffic_bytes


def run(
    *,
    scale: float = DEFAULT_SCALE,
    max_refs: int | None = 150_000,
    seed: int = 0,
    benchmarks: tuple[str, ...] = BENCHMARKS,
    min_size: int = 1024,
    max_size: int = 1024 * 1024,
) -> Figure4Result:
    """Measure every Figure 4 curve.

    The paper's x axis starts at 64 B caches; scaled simulation starts at
    1 KB (paper scale) so that even the smallest cache keeps a few sets.
    """
    axis = ScaledAxis(scale=scale)
    sizes = powers_of_two(min_size, max_size)
    panels: dict[str, Figure4Panel] = {}
    for name in benchmarks:
        workload = get_workload(name, scale=scale)
        trace = workload.generate(seed=seed, max_refs=max_refs)
        cache_series: dict[int, list[int]] = {}
        for block in BLOCK_SIZES:
            series = []
            for paper_size in sizes:
                simulated = axis.simulated_size(paper_size)
                if simulated < block * 4:
                    series.append(-1)  # cache too small for this block
                    continue
                series.append(_cache_traffic(trace, simulated, block))
            cache_series[block] = series
        # One MTC pass 1 serves both policies at every size.
        prepared = engines.prepare_mtc(trace)
        panels[name] = Figure4Panel(
            benchmark=name,
            sizes=sizes,
            cache_series=cache_series,
            mtc_write_allocate=[
                _mtc_traffic(
                    trace,
                    axis.simulated_size(s),
                    AllocatePolicy.WRITE_ALLOCATE,
                    prepared,
                )
                for s in sizes
            ],
            mtc_write_validate=[
                _mtc_traffic(
                    trace,
                    axis.simulated_size(s),
                    AllocatePolicy.WRITE_VALIDATE,
                    prepared,
                )
                for s in sizes
            ],
        )
    return Figure4Result(panels=panels, scale=scale)


def render(result: Figure4Result) -> str:
    from repro.util import format_size

    lines = ["Figure 4: total traffic (KB) by cache/MTC size"]
    for panel in result.panels.values():
        lines.append(f"  {panel.benchmark}")
        header = "    {:<18s}".format("series") + "".join(
            f"{format_size(s):>9s}" for s in panel.sizes
        )
        lines.append(header)
        for block, series in panel.cache_series.items():
            cells = "".join(
                f"{value / 1024:>9.0f}" if value >= 0 else f"{'-':>9s}"
                for value in series
            )
            lines.append(f"    {f'{block}B blocks':<18s}{cells}")
        for label, series in (
            ("MTC (WA)", panel.mtc_write_allocate),
            ("MTC (WV)", panel.mtc_write_validate),
        ):
            cells = "".join(f"{value / 1024:>9.0f}" for value in series)
            lines.append(f"    {label:<18s}{cells}")
    return "\n".join(lines)
