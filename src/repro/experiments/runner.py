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
from dataclasses import dataclass, field
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


#: One planned grid cell: (column index, paper-scale size, simulated size).
_CellPlan = tuple[int, int, int]


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
            plan.append((column, paper_size, axis.simulated_size(paper_size)))
        plans.append(plan)
    return plans


def _row_values(
    measure: Callable[[SyntheticWorkload, int], object],
    workload: SyntheticWorkload,
    simulated_sizes: Sequence[int],
) -> list[object]:
    """One row through a measure's whole-row path, shape-checked."""
    values = list(measure.measure_row(workload, simulated_sizes))
    if len(values) != len(simulated_sizes):
        raise ConfigurationError(
            f"measure_row returned {len(values)} values for "
            f"{len(simulated_sizes)} sizes ({workload.name})"
        )
    return values


def _measure_row(
    measure: Callable[[SyntheticWorkload, int], object],
    workload: SyntheticWorkload,
    simulated_sizes: Sequence[int],
) -> dict[str, list]:
    """Top-level (hence picklable) row task: one workload, all its cells.

    Measures exposing ``measure_row(workload, simulated_sizes)`` (the
    one-pass multi-size engines of table7/table8) evaluate the whole row
    in one call; only row-level timing exists then, reported as
    ``row_seconds`` with per-cell ``seconds`` of ``None``.
    """
    if hasattr(measure, "measure_row"):
        start = time.perf_counter()
        if TRACER.enabled:
            with TRACER.span(
                "sweep.row",
                workload=workload.name,
                sizes=len(simulated_sizes),
            ):
                values = _row_values(measure, workload, simulated_sizes)
        else:
            values = _row_values(measure, workload, simulated_sizes)
        elapsed = time.perf_counter() - start
        return {
            "values": values,
            "seconds": [None] * len(values),
            "row_seconds": elapsed,
        }
    values: list[object] = []
    seconds: list[float] = []
    for simulated in simulated_sizes:
        start = time.perf_counter()
        if TRACER.enabled:
            with TRACER.span(
                "sweep.cell", workload=workload.name, simulated_size=simulated
            ) as span:
                values.append(measure(workload, simulated))
                span.attrs["value"] = values[-1]
        else:
            values.append(measure(workload, simulated))
        seconds.append(time.perf_counter() - start)
    return {"values": values, "seconds": seconds, "row_seconds": None}


def _evaluate_serial(
    workloads: Sequence[SyntheticWorkload],
    size_list: Sequence[int],
    plans: Sequence[Sequence[_CellPlan]],
    measure: Callable[[SyntheticWorkload, int], object],
) -> list[list[object | None]]:
    """The classic in-process path (jobs=1, no cache): zero new moving
    parts, identical instrumentation to the pre-exec-layer runner."""
    observed = OBS.enabled
    row_capable = hasattr(measure, "measure_row")
    rows: list[list[object | None]] = []
    for workload, plan in zip(workloads, plans):
        row: list[object | None] = [None] * len(size_list)
        if row_capable and plan:
            simulated_sizes = [simulated for _, _, simulated in plan]
            start = time.perf_counter()
            if TRACER.enabled:
                with TRACER.span(
                    "sweep.row",
                    workload=workload.name,
                    sizes=len(simulated_sizes),
                ):
                    values = _row_values(measure, workload, simulated_sizes)
            else:
                values = _row_values(measure, workload, simulated_sizes)
            elapsed = time.perf_counter() - start
            for (column, _, _), value in zip(plan, values):
                row[column] = value
            if observed:
                OBS.count("sweep.cells", len(values))
                OBS.observe("sweep.row", elapsed)
            rows.append(row)
            continue
        for column, _, simulated in plan:
            if not (observed or TRACER.enabled):
                row[column] = measure(workload, simulated)
                continue
            start = time.perf_counter()
            if TRACER.enabled:
                with TRACER.span(
                    "sweep.cell",
                    workload=workload.name,
                    simulated_size=simulated,
                ) as span:
                    value = measure(workload, simulated)
                    span.attrs["value"] = value
            else:
                value = measure(workload, simulated)
            row[column] = value
            if observed:
                OBS.observe("sweep.measure", time.perf_counter() - start)
                OBS.count("sweep.cells")
        rows.append(row)
    return rows


def evaluate_grid(
    title: str,
    workloads: Sequence[SyntheticWorkload],
    axis: ScaledAxis,
    measure: Callable[[SyntheticWorkload, int], object],
    *,
    sizes: Iterable[int] | None = None,
    full_rows: set[str] | frozenset[str] | None = None,
    cache_key: dict | None = None,
) -> tuple[list[int], list[list[object | None]]]:
    """Evaluate *measure(workload, simulated_size)* over the full grid.

    Returns ``(size_list, rows)`` where undefined ("<<<") cells are
    ``None``. Values may be any JSON-stable object (floats, or lists of
    numbers for multi-component measurements such as Table 8's).

    Execution honours the process-wide :data:`repro.exec.EXEC` context:
    with ``jobs > 1`` rows fan out across worker processes (results are
    merged in row order, so grids are identical to serial runs), and
    when a result cache is configured *and* the caller supplies
    *cache_key* — material pinning everything the measurement depends on
    beyond (workload, size): seed, reference budget, simulator config —
    previously computed rows are reused from disk. With the default
    context (serial, uncached) this is exactly the classic runner.

    A measure may additionally expose ``measure_row(workload,
    simulated_sizes) -> list`` to evaluate a whole row at once — the
    one-pass multi-size engines (:mod:`repro.mem.engines`) compute every
    size of a row from a single pass over the trace. Row measures are
    bit-identical to per-cell measurement, so grids (and cache keys) do
    not depend on which path ran; only the timing telemetry differs
    (``sweep.row`` instead of per-cell ``sweep.measure``).
    """
    size_list = list(sizes) if sizes is not None else list(axis.paper_sizes)
    full = full_rows or set()
    _require_unique_row_names(workloads)
    plans = _plan_rows(workloads, axis, size_list, full)

    from repro.exec.context import EXEC

    cache = EXEC.cache if cache_key is not None else None
    if EXEC.jobs == 1 and cache is None:
        return size_list, _evaluate_serial(
            workloads, size_list, plans, measure
        )
    # Imported past the serial return, so a serial, uncached run never
    # loads the process pool.
    from repro.exec.keys import code_epoch, sampling_key, workload_key
    from repro.exec.pool import Task, run_tasks

    tasks = []
    for workload, plan in zip(workloads, plans):
        simulated_sizes = [simulated for _, _, simulated in plan]
        key = None
        if cache is not None:
            key = {
                "kind": "sweep-row",
                "title": title,
                "epoch": code_epoch(),
                "workload": workload_key(workload),
                "sizes": simulated_sizes,
                "measure": cache_key,
            }
            # Sampled runs are estimates keyed by (rate, seed, strata);
            # exact keys stay byte-identical to historical entries.
            sampling = sampling_key()
            if sampling is not None:
                key["sampling"] = sampling
        tasks.append(
            Task(
                fn=_measure_row,
                args=(measure, workload, simulated_sizes),
                key=key,
                label=f"{title}:{workload.name}",
            )
        )
    outcomes = run_tasks(tasks, jobs=EXEC.jobs, cache=cache, retry=EXEC.retry)

    observed = OBS.enabled
    rows: list[list[object | None]] = []
    for workload, plan, outcome in zip(workloads, plans, outcomes):
        row: list[object | None] = [None] * len(size_list)
        for (column, _, _), value, seconds in zip(
            plan, outcome["values"], outcome["seconds"]
        ):
            if observed:
                if seconds is not None:
                    OBS.observe("sweep.measure", seconds)
                OBS.count("sweep.cells")
            row[column] = value
        if observed and outcome.get("row_seconds") is not None:
            OBS.observe("sweep.row", outcome["row_seconds"])
        rows.append(row)
    return size_list, rows


def sweep_grid(
    title: str,
    workloads: Sequence[SyntheticWorkload],
    axis: ScaledAxis,
    measure: Callable[[SyntheticWorkload, int], float],
    *,
    sizes: Iterable[int] | None = None,
    full_rows: set[str] | frozenset[str] | None = None,
    cache_key: dict | None = None,
) -> SweepResult:
    """Evaluate *measure(workload, simulated_size)* over the full grid.

    Cells where the cache exceeds the (scaled) data set are recorded as
    ``None`` — the paper's "<<<" — and the measurement is skipped.
    Workloads named in *full_rows* are measured at every size regardless
    (the paper itself makes this exception for Swm in Table 8). See
    :func:`evaluate_grid` for parallel/cached execution semantics.
    """
    size_list, rows = evaluate_grid(
        title,
        workloads,
        axis,
        measure,
        sizes=sizes,
        full_rows=full_rows,
        cache_key=cache_key,
    )
    return SweepResult(
        title=title,
        row_names=[w.name for w in workloads],
        column_sizes=size_list,
        cells=rows,
        scale=axis.scale,
    )
