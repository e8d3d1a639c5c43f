"""Shared experiment machinery: the scaled cache-size axis and sweeps.

The paper sweeps caches from 1 KB to 2 MB against SPEC92 data sets of
0.04-3.67 MB. This library scales benchmark footprints down by a power of
two (see DESIGN.md §5) and shifts the cache axis by the same factor, so
every cache-size/working-set crossover lands in the same table column as
the paper. :class:`ScaledAxis` owns that bookkeeping: experiments and
reports always *label* rows with the paper's sizes while *simulating* the
scaled ones.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, is_dataclass
from collections.abc import Callable, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.obs import OBS, TRACER
from repro.util import format_size, powers_of_two, require_power_of_two
from repro.workloads.base import DEFAULT_SCALE, SyntheticWorkload

#: The paper's Table 7/8 cache-size columns.
PAPER_CACHE_SIZES = tuple(powers_of_two(1024, 2 * 1024 * 1024))

#: Marker the paper prints when the cache exceeds the benchmark data set.
TOO_BIG = "<<<"


@dataclass(frozen=True, slots=True)
class ScaledAxis:
    """Maps between paper-scale cache sizes and simulated sizes."""

    scale: float = DEFAULT_SCALE
    paper_sizes: tuple[int, ...] = PAPER_CACHE_SIZES

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.scale > 1:
            raise ConfigurationError(f"scale must be in (0, 1], got {self.scale}")
        inverse = round(1.0 / self.scale)
        require_power_of_two(inverse, "1/scale")

    def simulated_size(self, paper_size: int) -> int:
        """The cache size actually simulated for a paper-scale column."""
        scaled = int(paper_size * self.scale)
        if scaled < 64:
            raise ConfigurationError(
                f"paper size {format_size(paper_size)} scales below the "
                f"64B minimum at scale {self.scale:g}"
            )
        return scaled

    def label(self, paper_size: int) -> str:
        """Column label, always in the paper's units."""
        return format_size(paper_size)

    def is_too_big(self, paper_size: int, workload: SyntheticWorkload) -> bool:
        """The paper's "<<<" condition: cache larger than the data set.

        Both quantities are compared at simulated scale; because they are
        scaled by the same factor this matches the paper's paper-scale
        comparison.
        """
        return self.simulated_size(paper_size) > workload.dataset_bytes()


@dataclass(slots=True)
class SweepResult:
    """A (benchmark x cache size) grid of measured values."""

    title: str
    row_names: list[str]
    column_sizes: list[int]  #: paper-scale sizes
    #: cells[row][col] is a float or None for the paper's "<<<" cells.
    cells: list[list[float | None]]
    scale: float = DEFAULT_SCALE

    def row(self, name: str) -> list[float | None]:
        try:
            index = self.row_names.index(name)
        except ValueError as exc:
            raise ConfigurationError(f"no row named {name!r}") from exc
        return self.cells[index]

    def cell(self, name: str, paper_size: int) -> float | None:
        try:
            column = self.column_sizes.index(paper_size)
        except ValueError as exc:
            raise ConfigurationError(
                f"no column for size {format_size(paper_size)}"
            ) from exc
        return self.row(name)[column]

    def defined_cells(self, name: str) -> list[tuple[int, float]]:
        """(paper size, value) pairs for all non-"<<<" cells of a row."""
        return [
            (size, value)
            for size, value in zip(self.column_sizes, self.row(name))
            if value is not None
        ]


def _require_unique_row_names(
    workloads: Sequence[SyntheticWorkload],
) -> list[str]:
    """Reject duplicate workload names before they can corrupt a grid.

    ``SweepResult.row()``/``cell()`` look rows up by name, so a duplicate
    would silently shadow every later row with the first one's data.
    """
    names = [w.name for w in workloads]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ConfigurationError(
            "duplicate workload row names in sweep: "
            + ", ".join(duplicates)
            + " (row()/cell() lookups would return only the first row)"
        )
    return names


#: One planned grid cell: (column index, simulated size).
_CellPlan = tuple[int, int]

#: A sweep measure: called once per row as ``measure(workload,
#: simulated_sizes)``, it returns one value per size, in order.
RowMeasure = Callable[[SyntheticWorkload, list[int]], Sequence[object]]


def _plan_rows(
    workloads: Sequence[SyntheticWorkload],
    axis: ScaledAxis,
    size_list: Sequence[int],
    full: set[str] | frozenset[str],
) -> list[list[_CellPlan]]:
    """The defined (non-"<<<") cells of every row, decided in the parent
    process so serial, parallel, and cached runs agree exactly."""
    plans: list[list[_CellPlan]] = []
    for workload in workloads:
        plan: list[_CellPlan] = []
        for column, paper_size in enumerate(size_list):
            if workload.name not in full and axis.is_too_big(
                paper_size, workload
            ):
                continue
            plan.append((column, axis.simulated_size(paper_size)))
        plans.append(plan)
    return plans


def _measure_row(
    measure: RowMeasure,
    workload: SyntheticWorkload,
    simulated_sizes: list[int],
) -> dict[str, object]:
    """Top-level (hence picklable) row task: one workload, all its sizes.

    Returns the row's values and the seconds the measure took (a cached
    row keeps the seconds of the run that computed it).
    """
    start = time.perf_counter()
    if TRACER.enabled:
        with TRACER.span(
            "sweep.row", workload=workload.name, sizes=len(simulated_sizes)
        ):
            values = list(measure(workload, simulated_sizes))
    else:
        values = list(measure(workload, simulated_sizes))
    if len(values) != len(simulated_sizes):
        raise ConfigurationError(
            f"sweep measure returned {len(values)} values for "
            f"{len(simulated_sizes)} sizes ({workload.name})"
        )
    return {"values": values, "seconds": time.perf_counter() - start}


def _run_rows(
    title: str,
    measure: RowMeasure,
    workloads: Sequence[SyntheticWorkload],
    row_sizes: Sequence[list[int]],
    cache,
) -> list[dict[str, object]]:
    """The rows as :func:`repro.exec.pool.run_tasks` tasks, keyed for
    *cache* when it is not None."""
    # Imported here, so a serial, uncached run never loads the pool.
    from repro.exec.context import EXEC
    from repro.exec.keys import code_epoch, sampling_key, workload_key
    from repro.exec.pool import Task, run_tasks

    if cache is not None:
        kind = type(measure)
        shared = {
            "kind": "sweep-row",
            "title": title,
            "epoch": code_epoch(),
            "measure": {
                "class": f"{kind.__module__}.{kind.__qualname__}",
                "fields": asdict(measure),
            },
        }
        # Sampled runs are estimates keyed by (rate, seed, strata);
        # exact keys carry no sampling entry.
        sampling = sampling_key()
        if sampling is not None:
            shared["sampling"] = sampling
    tasks = []
    for workload, sizes in zip(workloads, row_sizes):
        key = None
        if cache is not None:
            key = {**shared, "workload": workload_key(workload), "sizes": sizes}
        tasks.append(
            Task(
                fn=_measure_row,
                args=(measure, workload, sizes),
                key=key,
                label=f"{title}:{workload.name}",
            )
        )
    return run_tasks(tasks, jobs=EXEC.jobs, cache=cache, retry=EXEC.retry)


def evaluate_grid(
    title: str,
    workloads: Sequence[SyntheticWorkload],
    axis: ScaledAxis,
    measure: RowMeasure,
    *,
    sizes: Iterable[int] | None = None,
    full_rows: set[str] | frozenset[str] | None = None,
) -> tuple[list[int], list[list[object | None]]]:
    """Evaluate *measure* over the (workload x cache size) grid.

    *measure* is called once per row that has a defined cell, as
    ``measure(workload, simulated_sizes)``, and returns one value per
    size, in order: the one-pass engines (:mod:`repro.mem.engines`)
    compute a whole row from one pass over its trace. Returns
    ``(size_list, rows)`` where undefined ("<<<") cells are ``None``.
    Values may be any JSON-stable object (floats, or lists of numbers
    for multi-component measurements such as Table 8's).

    Execution honours the process-wide :data:`repro.exec.EXEC` context:
    with ``jobs > 1`` rows fan out across worker processes (results are
    merged in row order, so grids are identical to serial runs). When a
    result cache is configured and *measure* is a dataclass, previously
    computed rows are reused from disk; a row's key is the measure's
    class and fields plus the title, code epoch, workload, sizes and
    sampling parameters. Any other callable runs uncached. With the
    default context (serial, uncached) every row runs in this process.
    """
    size_list = list(sizes) if sizes is not None else list(axis.paper_sizes)
    _require_unique_row_names(workloads)
    plans = _plan_rows(workloads, axis, size_list, full_rows or set())
    # A row with no defined cell is never measured.
    measured = [index for index, plan in enumerate(plans) if plan]
    row_sizes = [[simulated for _, simulated in plans[i]] for i in measured]

    from repro.exec.context import EXEC

    cache = EXEC.cache if is_dataclass(measure) else None
    if EXEC.jobs == 1 and cache is None:
        outcomes = [
            _measure_row(measure, workloads[index], simulated_sizes)
            for index, simulated_sizes in zip(measured, row_sizes)
        ]
    else:
        outcomes = _run_rows(
            title,
            measure,
            [workloads[index] for index in measured],
            row_sizes,
            cache,
        )

    observed = OBS.enabled
    rows: list[list[object | None]] = [[None] * len(size_list) for _ in plans]
    for index, outcome in zip(measured, outcomes):
        for (column, _), value in zip(plans[index], outcome["values"]):
            rows[index][column] = value
        if observed:
            OBS.count("sweep.cells", len(plans[index]))
            OBS.observe("sweep.row", outcome["seconds"])
    return size_list, rows


def sweep_grid(
    title: str,
    workloads: Sequence[SyntheticWorkload],
    axis: ScaledAxis,
    measure: RowMeasure,
    *,
    sizes: Iterable[int] | None = None,
    full_rows: set[str] | frozenset[str] | None = None,
) -> SweepResult:
    """Evaluate *measure* over the grid as a :class:`SweepResult`.

    Cells where the cache exceeds the (scaled) data set are recorded as
    ``None`` — the paper's "<<<" — and are not measured. Workloads named
    in *full_rows* are measured at every size regardless (the paper
    itself makes this exception for Swm in Table 8). See
    :func:`evaluate_grid` for the measure protocol and for parallel and
    cached execution.
    """
    size_list, rows = evaluate_grid(
        title, workloads, axis, measure, sizes=sizes, full_rows=full_rows
    )
    return SweepResult(
        title=title,
        row_names=[w.name for w in workloads],
        column_sizes=size_list,
        cells=rows,
        scale=axis.scale,
    )
