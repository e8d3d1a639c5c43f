"""Machine = core + memory system; runs the three-decomposition protocol.

For one experiment configuration and one instruction trace, the machine
runs the identical trace three times — perfect memory, infinite-width
paths, full system — and produces the paper's (T_P, T_I, T) triple as an
:class:`~repro.core.decomposition.ExecutionDecomposition`. A branch's
outcome never depends on timing, so the three runs share one decode of
the trace and one predictor pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.decomposition import ExecutionDecomposition, decompose
from repro.cpu.configs import ExperimentConfig
from repro.cpu.inorder import CoreResult, InOrderCore
from repro.cpu.isa import DecodedTrace, InstructionTrace
from repro.cpu.itrace import instruction_trace_for_workload
from repro.cpu.ooo import OutOfOrderCore
from repro.mem.timing import (
    MemoryMode,
    TimingMemory,
    TimingMemoryParams,
    TimingMemoryStats,
)
from repro.obs import OBS
from repro.workloads.base import DEFAULT_SCALE, SyntheticWorkload


@dataclass(frozen=True, slots=True)
class MachineResult:
    """One experiment's decomposition plus per-mode details."""

    decomposition: ExecutionDecomposition
    perfect: CoreResult
    infinite: CoreResult
    full: CoreResult
    full_memory_stats: TimingMemoryStats


class Machine:
    """One of the paper's experiments A-F, ready to run traces.

    Every mode runs *config*'s processor over *memory_params*, by default
    the experiment's own memory system at *scale*.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        scale: float = DEFAULT_SCALE,
        memory_params: TimingMemoryParams | None = None,
    ) -> None:
        self.config = config
        self.scale = scale
        if memory_params is None:
            memory_params = config.timing_memory_params(scale)
        self.memory_params = memory_params

    def _run_mode(
        self, decoded: DecodedTrace, mode: MemoryMode
    ) -> tuple[CoreResult, TimingMemoryStats]:
        memory = TimingMemory(self.memory_params, mode)
        processor = self.config.processor
        if processor.out_of_order:
            core = OutOfOrderCore(
                memory,
                ruu_size=processor.ruu_slots,
                lsq_size=processor.lsq_entries,
                issue_width=processor.issue_width,
                mem_ports=processor.mem_ports,
            )
        else:
            core = InOrderCore(
                memory,
                issue_width=processor.issue_width,
                mem_ports=processor.mem_ports,
            )
        if not OBS.enabled:
            return core.run(decoded), memory.stats
        start = time.perf_counter()
        result = core.run(decoded)
        OBS.observe(f"machine.mode.{mode.value}", time.perf_counter() - start)
        return result, memory.stats

    def run(self, trace: InstructionTrace) -> MachineResult:
        """Run the three-simulation decomposition protocol on *trace*."""
        decoded = trace.decode(self.config.processor.branch_table_entries)
        perfect, _ = self._run_mode(decoded, MemoryMode.PERFECT)
        infinite, _ = self._run_mode(decoded, MemoryMode.INFINITE)
        full, full_stats = self._run_mode(decoded, MemoryMode.FULL)
        label = f"{trace.name}/{self.config.name}"
        return MachineResult(
            decomposition=decompose(
                perfect.cycles,
                infinite.cycles,
                full.cycles,
                instructions=len(trace),
                label=label,
            ),
            perfect=perfect,
            infinite=infinite,
            full=full,
            full_memory_stats=full_stats,
        )


def decompose_experiment(
    workload: SyntheticWorkload,
    config: ExperimentConfig,
    *,
    seed: int = 0,
    max_refs: int | None = None,
    scale: float | None = None,
) -> MachineResult:
    """Build the workload's instruction trace and run one experiment."""
    trace = instruction_trace_for_workload(
        workload, seed=seed, max_refs=max_refs
    )
    machine = Machine(config, scale=scale if scale is not None else workload.scale)
    return machine.run(trace)
