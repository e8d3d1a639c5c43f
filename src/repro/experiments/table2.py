"""Table 2: application growth rates, checked empirically.

The analytic models (:mod:`repro.core.growth`) give the asymptotic forms;
this experiment validates the key scaling claims against *measured*
traffic from the actual trace generators and the MTC:

* TMM: quadrupling on-chip memory roughly halves traffic (sqrt(k) gain);
* Sort/FFT: the same quadrupling buys only a ~log factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.growth import MODELS, GrowthModel
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.trace.model import MemTrace
from repro.trace.synth import (
    fft_butterflies,
    merge_sort_passes,
    stencil_sweeps,
    tiled_matrix_multiply,
    to_trace,
)


@dataclass(frozen=True, slots=True)
class Table2Row:
    algorithm: str
    memory: str
    computation: str
    traffic: str
    gain: str
    #: Analytic C/D improvement for a 4x memory increase.
    analytic_gain_4x: float
    #: Measured MTC-traffic ratio D(S) / D(4S) from the trace generators
    #: (None for models without a generator-backed check).
    measured_gain_4x: float | None


@dataclass(slots=True)
class Table2Result:
    rows: list[Table2Row]


def _measured_traffic(trace: MemTrace, size_bytes: int) -> int:
    mtc = MinimalTrafficCache(MTCConfig(size_bytes=size_bytes))
    return mtc.simulate(trace).total_traffic_bytes


def _generator_trace(name: str, n: int) -> MemTrace | None:
    if name == "TMM":
        stream = tiled_matrix_multiply(0, 4 * n * n * 4, 8 * n * n * 4, n, max(4, n // 8))
    elif name == "Stencil":
        stream = stencil_sweeps(0, n, iterations=8)
    elif name == "FFT":
        stream = fft_butterflies(0, n * n // 2)
    elif name == "Sort":
        stream = merge_sort_passes(0, n * n // 2)
    else:
        return None
    return to_trace(stream, name=name)


def run(*, n: int = 64, small_cache: int = 2048, analytic_n: int = 4096) -> Table2Result:
    """Build Table 2 with both analytic and measured gain columns.

    *n* sizes the generator-backed traces (a matrix side for TMM/Stencil,
    ``n^2/2`` points for FFT/Sort); *small_cache* is S, compared against
    4S. The analytic column uses a larger *analytic_n* so asymptotics
    dominate.
    """
    rows = []
    for model in MODELS:
        analytic = model.improvement(analytic_n, small_cache, 4.0)
        trace = _generator_trace(model.name, n)
        measured: float | None = None
        if trace is not None:
            d_small = _measured_traffic(trace, small_cache)
            d_large = _measured_traffic(trace, 4 * small_cache)
            if d_large > 0:
                measured = d_small / d_large
        rows.append(
            Table2Row(
                algorithm=model.name,
                memory=model.memory_exponent,
                computation=model.computation_formula,
                traffic=model.traffic_formula,
                gain=model.gain_formula,
                analytic_gain_4x=analytic,
                measured_gain_4x=measured,
            )
        )
    return Table2Result(rows=rows)


def render(result: Table2Result) -> str:
    from repro.util import format_table

    headers = [
        "Algorithm",
        "Memory",
        "Comp. (C)",
        "Traffic (D)",
        "C/D",
        "analytic 4x gain",
        "measured 4x gain",
    ]
    body = [
        [
            row.algorithm,
            row.memory,
            row.computation,
            row.traffic,
            row.gain,
            f"{row.analytic_gain_4x:.2f}",
            f"{row.measured_gain_4x:.2f}" if row.measured_gain_4x else "-",
        ]
        for row in result.rows
    ]
    return "Table 2: application growth rates\n" + format_table(headers, body)
