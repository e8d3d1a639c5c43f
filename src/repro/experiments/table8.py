"""Table 8: traffic inefficiencies for 32-byte-block direct-mapped caches.

For each SPEC92 benchmark and cache size, measures G = (cache traffic) /
(MTC traffic) where the MTC is the paper's minimal-traffic cache: fully
associative, one-word blocks, Belady MIN replacement with bypass, and a
write-validate write policy (Section 5.2).

The paper's headline: G is between ~20 and ~100 for the irregular codes
(Compress, Eqntott, Espresso, Su2cor) and between ~2 and ~10 for the
streaming scientific codes (Dnasa2, Swm, Tomcatv) — "a significant
opportunity to increase effective pin bandwidth, between one and two
orders of magnitude".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.traffic import measure_inefficiency
from repro.experiments.runner import ScaledAxis, SweepResult, evaluate_grid
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.workloads.base import DEFAULT_SCALE, SyntheticWorkload
from repro.workloads.registry import all_workloads

#: Paper values for Table 8 (traffic inefficiencies); None marks "<<<".
PAPER_TABLE8: dict[str, list[float | None]] = {
    # 1KB   2KB   4KB   8KB   16KB  32KB  64KB  128KB 256KB 512KB 1MB   2MB
    "Compress": [25.3, 18.4, 18.7, 19.5, 21.9, 25.5, 29.2, 30.7, 32.5, None, None, None],
    "Dnasa2":   [6.2, 6.6, 6.2, 4.7, 4.1, 4.6, 7.0, 10.0, None, None, None, None],
    "Eqntott":  [56.3, 38.7, 34.5, 35.8, 49.7, 94.4, 100.5, 94.1, 72.7, 47.7, 28.6, None],
    "Espresso": [18.2, 18.8, 26.3, 40.4, 82.2, 28.9, None, None, None, None, None, None],
    "Su2cor":   [14.1, 14.5, 15.1, 16.4, 17.2, 21.9, 20.1, 25.7, 40.3, 28.7, 35.8, None],
    "Swm":      [22.7, 23.4, 17.2, 7.9, 2.8, 2.7, 2.8, 3.0, 3.5, 5.4, 124.1, 74.8],
    "Tomcatv":  [6.4, 6.6, 6.2, 3.9, 2.3, 2.0, 2.0, 2.0, 2.1, 2.4, 1.6, 3.7],
}


@dataclass(slots=True)
class Table8Result:
    sweep: SweepResult
    #: Parallel grid of raw MTC traffic in bytes (reused by Figure 4).
    mtc_traffic: SweepResult
    cache_traffic: SweepResult
    #: True when the MTC denominators are sampled-engine *estimates*
    #: (see repro.mem.sampled); render() flags the table accordingly.
    estimated: bool = False


@dataclass(frozen=True, slots=True)
class InefficiencyMeasure:
    """Table 8's row measure: ``[G, cache, MTC]`` at every simulated size.

    The triple is a JSON-stable list so one simulated grid can flow
    through the result cache and still back all three of
    :class:`Table8Result`'s views. A frozen dataclass, so it pickles to
    pool workers and its fields key the row in the result cache; each
    call generates the benchmark's trace once and drops it on return.
    """

    seed: int
    max_refs: int | None

    def __call__(
        self, workload: SyntheticWorkload, simulated_sizes: list[int]
    ) -> list[list[float]]:
        """One benchmark's whole row: a one-pass direct-mapped family for
        the numerators plus one shared MTC pass-1 across all sizes.

        ``--engine scalar`` runs each size through the reference loops
        instead; the differential suite pins both engines, so cached
        grids never depend on which path ran.
        """
        from repro.mem import engines

        trace = workload.generate(seed=self.seed, max_refs=self.max_refs)
        selection = engines.resolve_engine()
        if selection == "scalar":
            compared = [
                measure_inefficiency(trace, size) for size in simulated_sizes
            ]
            return [
                [
                    each.g,
                    each.cache_stats.total_traffic_bytes,
                    each.mtc_stats.total_traffic_bytes,
                ]
                for each in compared
            ]
        sizes = list(simulated_sizes)
        family = engines.direct_mapped_family(trace, sizes, block_bytes=32)
        # The sampled MTC prepares its own (much smaller) sub-trace
        # pass 1, so the shared full-trace pass would be wasted work.
        sampling = None
        if selection in ("sampled", "auto"):
            from repro.mem import sampled

            sampling = sampled.sampling_for(selection, len(trace))
        prepared = engines.prepare_mtc(trace) if sampling is None else None
        row: list[list[float]] = []
        for size in sizes:
            cache_traffic = family[size].total_traffic_bytes
            mtc = MinimalTrafficCache(MTCConfig(size_bytes=size))
            mtc_traffic = mtc.simulate(
                trace, prepared=prepared
            ).total_traffic_bytes
            row.append([cache_traffic / mtc_traffic, cache_traffic, mtc_traffic])
        return row


def run(
    *,
    scale: float = DEFAULT_SCALE,
    max_refs: int | None = None,
    seed: int = 0,
    workloads: list[SyntheticWorkload] | None = None,
) -> Table8Result:
    """Regenerate Table 8 at the given footprint scale."""
    axis = ScaledAxis(scale=scale)
    if workloads is None:
        workloads = all_workloads("SPEC92", scale=scale)
    measure = InefficiencyMeasure(seed=seed, max_refs=max_refs)

    # The paper's Table 8 shows Swm at 1 MB and 2 MB even though the
    # cache exceeds the data set ("caches with associativities less than
    # four require 4 MB to contain the data set"): full-row exception.
    # One evaluated grid of (G, cache, MTC) triples backs all three
    # SweepResult views — each cell simulates exactly once.
    sizes, grid = evaluate_grid(
        "Table 8: traffic inefficiencies",
        workloads,
        axis,
        measure,
        full_rows={"Swm"},
    )

    def view(
        title: str, index: int, *, full_rows: frozenset[str] = frozenset()
    ) -> SweepResult:
        rows: list[list[float | None]] = []
        for workload, raw in zip(workloads, grid):
            row: list[float | None] = []
            for paper_size, triple in zip(sizes, raw):
                keep = triple is not None and (
                    workload.name in full_rows
                    or not axis.is_too_big(paper_size, workload)
                )
                row.append(float(triple[index]) if keep else None)
            rows.append(row)
        return SweepResult(
            title=title,
            row_names=[w.name for w in workloads],
            column_sizes=list(sizes),
            cells=rows,
            scale=axis.scale,
        )

    # The traffic views keep the strict "<<<" masking (no Swm exception),
    # matching the paper's figures that reuse them.
    sweep = view(
        "Table 8: traffic inefficiencies", 0, full_rows=frozenset({"Swm"})
    )
    cache_traffic = view("cache traffic (bytes)", 1)
    mtc_traffic = view("MTC traffic (bytes)", 2)

    from repro.exec.keys import sampling_key

    return Table8Result(
        sweep=sweep,
        mtc_traffic=mtc_traffic,
        cache_traffic=cache_traffic,
        estimated=sampling_key() is not None,
    )


def render(result: Table8Result) -> str:
    from repro.experiments.report import render_sweep

    rendered = render_sweep(result.sweep, decimals=1)
    if result.estimated:
        rendered += (
            "\n\nNote: MTC denominators are sampled-engine estimates "
            "(see docs/performance.md for the error-bound contract)."
        )
    return rendered
