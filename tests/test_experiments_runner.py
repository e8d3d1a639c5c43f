"""Tests for the experiment machinery (scaled axis, sweeps, reports)."""

import json
import weakref
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.exec.context import execution
from repro.experiments import table7, table8
from repro.experiments.report import render_series, render_sweep
from repro.experiments.runner import (
    PAPER_CACHE_SIZES,
    ScaledAxis,
    SweepResult,
    sweep_grid,
)
from repro.experiments.table7 import RatioMeasure
from repro.mem.engines import use_engine
from repro.trace.model import MemTrace
from repro.workloads import get_workload
from repro.workloads.base import SyntheticWorkload


class TestScaledAxis:
    def test_paper_columns(self):
        assert PAPER_CACHE_SIZES[0] == 1024
        assert PAPER_CACHE_SIZES[-1] == 2 * 1024 * 1024
        assert len(PAPER_CACHE_SIZES) == 12

    def test_simulated_size(self):
        axis = ScaledAxis(scale=0.25)
        assert axis.simulated_size(1024) == 256
        assert axis.simulated_size(2 * 1024 * 1024) == 512 * 1024

    def test_scale_must_be_inverse_power_of_two(self):
        with pytest.raises(ConfigurationError):
            ScaledAxis(scale=0.3)

    def test_scale_one_allowed(self):
        assert ScaledAxis(scale=1.0).simulated_size(1024) == 1024

    def test_too_small_simulated_size_rejected(self):
        axis = ScaledAxis(scale=1 / 32)
        with pytest.raises(ConfigurationError):
            axis.simulated_size(1024)

    def test_labels_use_paper_scale(self):
        axis = ScaledAxis(scale=0.25)
        assert axis.label(64 * 1024) == "64KB"

    def test_too_big_matches_scaled_dataset(self):
        axis = ScaledAxis(scale=0.25)
        espresso = get_workload("Espresso", scale=0.25)
        assert not axis.is_too_big(32 * 1024, espresso)
        assert axis.is_too_big(256 * 1024, espresso)


class TestSweepGrid:
    def _grid(self, **kwargs):
        axis = ScaledAxis(scale=0.25)
        workloads = [get_workload("Espresso", scale=0.25)]
        return sweep_grid(
            "test",
            workloads,
            axis,
            lambda w, sizes: [float(size) for size in sizes],
            **kwargs,
        )

    def test_cells_report_simulated_sizes(self):
        grid = self._grid(sizes=[1024, 2048])
        assert grid.cell("Espresso", 1024) == 256.0

    def test_too_big_cells_are_none(self):
        grid = self._grid()
        assert grid.cell("Espresso", 2 * 1024 * 1024) is None

    def test_full_rows_override(self):
        grid = self._grid(full_rows={"Espresso"})
        assert grid.cell("Espresso", 2 * 1024 * 1024) is not None

    def test_defined_cells_skips_none(self):
        grid = self._grid()
        defined = grid.defined_cells("Espresso")
        assert all(value is not None for _, value in defined)
        assert len(defined) < len(grid.column_sizes)

    def test_unknown_row_rejected(self):
        grid = self._grid()
        with pytest.raises(ConfigurationError):
            grid.row("Gcc")

    def test_unknown_column_rejected(self):
        grid = self._grid(sizes=[1024])
        with pytest.raises(ConfigurationError):
            grid.cell("Espresso", 4096)

    def test_duplicate_row_names_rejected(self):
        # Duplicate names used to be accepted silently; row() would then
        # return only the first row's cells, hiding the second workload.
        axis = ScaledAxis(scale=0.25)
        workloads = [
            get_workload("Espresso", scale=0.25),
            get_workload("Espresso", scale=0.25),
        ]
        with pytest.raises(ConfigurationError, match="duplicate"):
            sweep_grid(
                "test",
                workloads,
                axis,
                lambda w, sizes: [1.0] * len(sizes),
                sizes=[1024],
            )


@dataclass(frozen=True)
class LoggedMeasure:
    """A picklable row measure: each value is its size, and each call
    appends ``[workload, sizes]`` to the file at *log*."""

    log: str

    def __call__(self, workload, simulated_sizes):
        with open(self.log, "a") as handle:
            handle.write(json.dumps([workload.name, simulated_sizes]) + "\n")
        return [float(size) for size in simulated_sizes]


#: At scale 1/4 Espresso's data set is below both sizes (an empty row),
#: Compress's below the larger one, and Tomcatv's above both.
ROWS = ("Espresso", "Compress", "Tomcatv")
SIZES = [64 * 1024, 1024 * 1024]


def small_grid(measure, sizes=SIZES):
    return sweep_grid(
        "test",
        [get_workload(name, scale=0.25) for name in ROWS],
        ScaledAxis(scale=0.25),
        measure,
        sizes=sizes,
    )


def logged_calls(log) -> list:
    return [json.loads(line) for line in log.read_text().splitlines()]


class TestRowMeasure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_called_once_per_row_with_its_sizes(self, tmp_path, jobs):
        log = tmp_path / "calls.jsonl"
        with execution(jobs=jobs):
            grid = small_grid(LoggedMeasure(str(log)))
        # The empty Espresso row is never measured.
        assert sorted(logged_calls(log)) == [
            ["Compress", [16384]],
            ["Tomcatv", [16384, 262144]],
        ]
        assert grid.row("Espresso") == [None, None]
        assert grid.row("Compress") == [16384, None]
        assert grid.row("Tomcatv") == [16384, 262144]

    def test_a_row_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ConfigurationError, match="1 values for 2 sizes"):
            small_grid(lambda workload, sizes: [0.0])

    @pytest.mark.parametrize("module", [table7, table8])
    def test_each_trace_is_generated_once_and_freed_with_its_row(
        self, monkeypatch, module
    ):
        class Tracked(MemTrace):
            """A trace a weak reference can watch."""

        generate = SyntheticWorkload.generate
        generated: list[tuple[str, weakref.ref]] = []

        def tracked_generate(workload, **kwargs):
            # Every earlier row has returned, so its trace must be gone.
            assert [ref() for _, ref in generated] == [None] * len(generated)
            trace = generate(workload, **kwargs)
            tracked = Tracked(trace.addresses, trace.is_write, trace.name)
            generated.append((workload.name, weakref.ref(tracked)))
            return tracked

        monkeypatch.setattr(SyntheticWorkload, "generate", tracked_generate)
        for engine in ("auto", "scalar"):
            generated.clear()
            with execution(jobs=1), use_engine(engine):
                module.run(max_refs=2000)
            names = [name for name, _ in generated]
            assert sorted(names) == sorted(table7.PAPER_TABLE7)


class TestRowCache:
    def test_a_repeated_sweep_hits_every_row(self, tmp_path):
        log = tmp_path / "calls.jsonl"
        with execution(cache_dir=tmp_path / "cache") as context:
            cold = small_grid(LoggedMeasure(str(log)))
            warm = small_grid(LoggedMeasure(str(log)))
            counts = (context.cache.hits, context.cache.misses)
        assert counts == (2, 2)
        assert warm.cells == cold.cells
        assert len(logged_calls(log)) == 2  # the warm sweep measured nothing

    def test_a_measure_differing_in_one_field_misses_every_row(
        self, tmp_path
    ):
        narrow = RatioMeasure(seed=0, max_refs=2000)
        wide = RatioMeasure(seed=0, max_refs=2000, block_bytes=64)
        with execution(cache_dir=tmp_path / "cache") as context:
            narrow_grid = small_grid(narrow, sizes=[1024, 4096])
            first = (context.cache.hits, context.cache.misses)
            wide_grid = small_grid(wide, sizes=[1024, 4096])
            second = (context.cache.hits, context.cache.misses)
        assert first == (0, 3)
        assert second == (0, 6)
        assert wide_grid.cells != narrow_grid.cells

    def test_a_lambda_measure_writes_no_entry(self, tmp_path):
        with execution(cache_dir=tmp_path / "cache") as context:
            grid = small_grid(
                lambda workload, sizes: [float(size) for size in sizes]
            )
            counts = (
                context.cache.hits,
                context.cache.misses,
                context.cache.stores,
                context.cache.stats().entries,
            )
        assert counts == (0, 0, 0, 0)
        assert grid.row("Tomcatv") == [16384.0, 262144.0]


class TestRendering:
    def test_render_sweep_marks_too_big(self):
        result = SweepResult(
            title="t",
            row_names=["X"],
            column_sizes=[1024, 2048],
            cells=[[1.5, None]],
            scale=0.25,
        )
        text = render_sweep(result)
        assert "<<<" in text
        assert "1.50" in text
        assert "1KB" in text and "2KB" in text

    def test_render_series(self):
        text = render_series("title", "year", {"s": [(1990, 1.0)]})
        assert "title" in text and "1990:1" in text
