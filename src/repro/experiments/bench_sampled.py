"""Benchmark: sampled MTC estimates vs the exact engine, speed and error.

Runs every SPEC92 benchmark through a ladder of MTC sizes twice — the
exact miss-jumping engine with one shared pass-1 product versus the
sampled tier (:mod:`repro.mem.sampled`) — and reports, per benchmark,
the wall-clock speedup plus the worst observed traffic-ratio error
against the worst half-width the envelopes promised. Every error column
is an *estimate* property: the sampled engine trades exactness for
speed, and this bench is the standing measurement of that trade.

This is the ``repro profile bench_sampled`` target; the aggregate
speedup is the profile's ``bench.sampled.speedup`` gauge and the worst
error/envelope pair are ``bench.sampled.max_error``/
``bench.sampled.max_half_width``.

The hard guarantee (measured error inside the reported envelope) is
asserted by the differential suite in ``tests/test_mem_sampled.py``;
the bench only *reports*, so a profiling run never aborts on an unlucky
seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.mem import engines
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.mem.sampled import SamplingConfig, use_sampling
from repro.util import format_table, fraction
from repro.obs import OBS
from repro.workloads.base import DEFAULT_SCALE, SyntheticWorkload
from repro.workloads.registry import all_workloads

#: References per benchmark when the caller does not pick a budget.
DEFAULT_BENCH_REFS = 100_000

#: Sampling rate for the bench ladder. Coarser than the production
#: default (0.01) so the tiny profiling budgets still sample enough
#: references for stable timings.
BENCH_RATE = 0.05

#: MTC sizes swept per benchmark — large enough that the sampled tier's
#: miniature-capacity floor (64 blocks) never forces the rate up.
BENCH_SIZES = (65536, 1 << 20)


@dataclass(slots=True)
class BenchRow:
    """One benchmark's ladder under the exact and sampled engines."""

    workload: str
    references: int
    exact_seconds: float
    sampled_seconds: float
    #: Worst |sampled - exact| traffic ratio across the ladder.
    max_error: float
    #: Worst half-width the envelopes promised across the ladder.
    max_half_width: float
    #: True when every ladder size's error sat inside its envelope.
    within_envelope: bool

    @property
    def speedup(self) -> float:
        return fraction(self.exact_seconds, self.sampled_seconds)


@dataclass(slots=True)
class BenchResult:
    sizes: tuple[int, ...]
    rate: float
    rows: list[BenchRow]

    @property
    def overall_speedup(self) -> float:
        exact = sum(row.exact_seconds for row in self.rows)
        sampled = sum(row.sampled_seconds for row in self.rows)
        return fraction(exact, sampled)

    @property
    def max_error(self) -> float:
        return max((row.max_error for row in self.rows), default=0.0)

    @property
    def max_half_width(self) -> float:
        return max((row.max_half_width for row in self.rows), default=0.0)

    @property
    def all_within_envelope(self) -> bool:
        return all(row.within_envelope for row in self.rows)


def run(
    *,
    scale: float = DEFAULT_SCALE,
    max_refs: int | None = None,
    seed: int = 0,
    workloads: list[SyntheticWorkload] | None = None,
) -> BenchResult:
    """Time exact vs sampled MTC and measure the estimation error."""
    refs = max_refs if max_refs is not None else DEFAULT_BENCH_REFS
    if workloads is None:
        workloads = all_workloads("SPEC92", scale=scale)
    sampling = SamplingConfig(BENCH_RATE, seed=seed)
    rows: list[BenchRow] = []
    for workload in workloads:
        trace = workload.generate(seed=seed, max_refs=refs)

        start = time.perf_counter()
        prepared = engines.prepare_mtc(trace)
        exact = [
            MinimalTrafficCache(MTCConfig(size_bytes=size))
            .simulate(trace, engine="vector", prepared=prepared)
            for size in BENCH_SIZES
        ]
        exact_seconds = time.perf_counter() - start

        start = time.perf_counter()
        with use_sampling(sampling):
            estimates = [
                MinimalTrafficCache(MTCConfig(size_bytes=size))
                .simulate(trace, engine="sampled")
                for size in BENCH_SIZES
            ]
        sampled_seconds = time.perf_counter() - start

        errors = []
        widths = []
        within = True
        for truth, guess in zip(exact, estimates):
            envelope = guess.estimate
            error = abs(truth.traffic_ratio - envelope.traffic_ratio)
            errors.append(error)
            widths.append(envelope.traffic_ratio_half_width)
            if error > envelope.traffic_ratio_half_width:
                within = False
        rows.append(
            BenchRow(
                workload=workload.name,
                references=len(trace),
                exact_seconds=exact_seconds,
                sampled_seconds=sampled_seconds,
                max_error=max(errors),
                max_half_width=max(widths),
                within_envelope=within,
            )
        )
        if OBS.enabled:
            OBS.observe("bench.sampled.exact", exact_seconds)
            OBS.observe("bench.sampled.sampled", sampled_seconds)
    result = BenchResult(sizes=BENCH_SIZES, rate=sampling.effective_rate, rows=rows)
    if OBS.enabled:
        OBS.gauge("bench.sampled.speedup", result.overall_speedup)
        OBS.gauge("bench.sampled.max_error", result.max_error)
        OBS.gauge("bench.sampled.max_half_width", result.max_half_width)
    return result


def render(result: BenchResult) -> str:
    rows = [
        [
            row.workload,
            f"{row.references:,}",
            f"{row.speedup:.1f}x",
            f"{row.max_error:.4f}",
            f"{row.max_half_width:.4f}",
            "yes" if row.within_envelope else "NO",
        ]
        for row in result.rows
    ]
    table = format_table(
        [
            "workload",
            "refs/size",
            "speedup",
            "max |err| (est)",
            "envelope ± (est)",
            "within",
        ],
        rows,
    )
    ladder = ", ".join(str(size) for size in result.sizes)
    verdict = (
        "all errors within reported envelopes"
        if result.all_within_envelope
        else "ENVELOPE VIOLATION — see 'within' column"
    )
    return (
        f"sampled-engine benchmark over sizes [{ladder}] bytes "
        f"at rate {result.rate:g}\n"
        f"{table}\n"
        f"overall speedup: {result.overall_speedup:.1f}x; {verdict}\n"
        f"(error columns are sampled estimates; "
        f"see docs/performance.md for the contract)"
    )
