"""Single-chip multiprocessor timing: cores sharing one pin interface.

Section 2.2 of the paper: "The emergence of single-chip multiprocessors
would substantially increase the number of data loaded per cycle ... The
primary barrier to the implementation of single-chip multiprocessors will
not be transistor availability but off-chip memory bandwidth. If one
processor loses performance due to limited pin bandwidth, then multiple
processors on a chip will lose far more performance for the same reason."

:class:`ChipMultiprocessor` runs K copies of a workload (disjoint address
spaces — independent processes) on K out-of-order cores that each own an
L1 but share the L2, the L1/L2 bus, and the memory bus. Cores are stepped
round-robin one instruction at a time so their timestamp streams stay
roughly aligned, and the shared buses' earliest-free cursors provide the
cross-core queueing. The result reports per-core slowdown versus a core
running alone — the paper's "lose far more performance" made measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.branch import TwoLevelPredictor
from repro.cpu.configs import ExperimentConfig, experiment
from repro.cpu.inorder import MISPREDICT_PENALTY
from repro.cpu.isa import OP_LATENCY, REGISTER_SLOTS, InstructionTrace, OpClass
from repro.cpu.itrace import instruction_trace_for_workload
from repro.errors import ConfigurationError
from repro.mem.timing import MemoryMode, TimingMemory
from repro.obs import OBS
from repro.workloads.base import DEFAULT_SCALE, SyntheticWorkload

#: Address-space separation between cores' copies of the workload.
CORE_ADDRESS_STRIDE = 1 << 32


class _SharedL2Memory(TimingMemory):
    """A TimingMemory whose L1 is per-core but L2/buses are shared.

    Each core owns per-set L1 state like the shared instance's (whose own
    L1 is unused). Every L1 miss and every dirty L1 victim goes through
    the shared L2, MSHRs and buses by the same fill and write-back path
    as a one-core TimingMemory.
    """

    def core_l1(self) -> list[dict[int, bool]]:
        """Fresh, empty L1 state for one core."""
        return [{} for _ in range(self._l1_sets)]

    def core_access(
        self, l1: list[dict[int, bool]], time: int, address: int, is_write: bool
    ) -> int:
        """One core's data access through its own L1 *l1*; returns the
        completion cycle."""
        self.stats.accesses += 1
        block = address // self._block_bytes
        lines = l1[block % self._l1_sets]
        dirty = lines.pop(block, None)
        if dirty is not None:
            lines[block] = dirty or is_write
            return time + self._hit_cycles
        self.stats.l1_misses += 1
        self._now = time
        fill_time = self._fill(lines, self._allocate_mshr(time), block, is_write)
        if is_write:
            return time + self._hit_cycles
        return max(time + self._hit_cycles, fill_time)


@dataclass(frozen=True, slots=True)
class CoreOutcome:
    core: int
    cycles: int
    instructions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass(slots=True)
class CMPResult:
    """Scaling outcome for one core count."""

    cores: list[CoreOutcome]
    solo_cycles: int

    @property
    def core_count(self) -> int:
        return len(self.cores)

    @property
    def worst_cycles(self) -> int:
        return max(outcome.cycles for outcome in self.cores)

    @property
    def per_core_slowdown(self) -> float:
        """How much slower each core runs than it would alone."""
        return self.worst_cycles / self.solo_cycles

    @property
    def throughput_speedup(self) -> float:
        """Aggregate work rate relative to a single core: K cores finish
        K workloads in worst_cycles vs K * solo_cycles sequentially."""
        return self.core_count * self.solo_cycles / self.worst_cycles


class ChipMultiprocessor:
    """K out-of-order cores over one shared memory system."""

    def __init__(
        self,
        config: ExperimentConfig,
        core_count: int,
        *,
        scale: float = DEFAULT_SCALE,
    ) -> None:
        if core_count <= 0:
            raise ConfigurationError("need at least one core")
        self.config = config
        self.core_count = core_count
        self.scale = scale

    def run(self, trace: InstructionTrace) -> CMPResult:
        solo = self._run_cores(trace, 1)[0]
        outcomes = self._run_cores(trace, self.core_count)
        return CMPResult(cores=outcomes, solo_cycles=solo.cycles)

    # -- internals -------------------------------------------------------------------

    def _run_cores(
        self, trace: InstructionTrace, core_count: int
    ) -> list[CoreOutcome]:
        """Round-robin timestamp simulation of *core_count* cores."""
        config = self.config
        params = config.timing_memory_params(self.scale)
        shared = _SharedL2Memory(params, MemoryMode.FULL)
        processor = config.processor

        # Every core runs the same trace with a fresh predictor of the
        # same size, so one predictor pass serves them all.
        decoded = trace.decode(TwoLevelPredictor(processor.branch_table_entries))
        latency = OP_LATENCY
        load_op = OpClass.LOAD.value
        store_op = OpClass.STORE.value
        branch_op = OpClass.BRANCH.value
        width = processor.issue_width
        ruu = processor.ruu_slots

        # Per-core scheduling state (simplified in-order-ish OoO: issue
        # limited by deps, window pacing via the retire recurrence). The
        # retire history starts with zeros, as the out-of-order core's.
        state = []
        for core in range(core_count):
            state.append(
                {
                    "reg": [0] * REGISTER_SLOTS,
                    "retire": [0] * max(ruu, width),
                    "fetch_avail": 0,
                    "fetch_cycle": 0,
                    "fetched": 0,
                    "l1": shared.core_l1(),
                    "offset": core * CORE_ADDRESS_STRIDE,
                }
            )

        for op, dest, source1, source2, address, mispredicted in zip(
            decoded.opclass,
            decoded.dest,
            decoded.src1,
            decoded.src2,
            decoded.address,
            decoded.mispredicted,
        ):
            for core_state in state:
                if core_state["fetch_cycle"] < core_state["fetch_avail"]:
                    core_state["fetch_cycle"] = core_state["fetch_avail"]
                    core_state["fetched"] = 0
                if core_state["fetched"] >= width:
                    core_state["fetch_cycle"] += 1
                    core_state["fetched"] = 0
                core_state["fetched"] += 1

                retires = core_state["retire"]
                ready = retires[-ruu]
                if core_state["fetch_cycle"] > ready:
                    ready = core_state["fetch_cycle"]
                reg = core_state["reg"]
                if reg[source1] > ready:
                    ready = reg[source1]
                if reg[source2] > ready:
                    ready = reg[source2]

                if op < load_op:
                    completion = ready + latency[op]
                elif op != branch_op:
                    completion = shared.core_access(
                        core_state["l1"],
                        ready,
                        address + core_state["offset"],
                        op == store_op,
                    )
                else:
                    completion = ready + 1
                reg[dest] = completion

                retire = completion
                if retires[-1] > retire:
                    retire = retires[-1]
                paced = retires[-width] + 1
                if paced > retire:
                    retire = paced
                retires.append(retire)

                if mispredicted:
                    redirect = completion + MISPREDICT_PENALTY
                    if redirect > core_state["fetch_avail"]:
                        core_state["fetch_avail"] = redirect

        n = len(decoded.opclass)
        outcomes = [
            CoreOutcome(
                core=core,
                cycles=max(1, core_state["retire"][-1]),
                instructions=n,
            )
            for core, core_state in enumerate(state)
        ]
        if OBS.enabled:
            OBS.count("cmp.runs")
            OBS.count("cmp.core_instructions", n * core_count)
        return outcomes


def cmp_scaling(
    workload: SyntheticWorkload,
    *,
    core_counts: tuple[int, ...] = (1, 2, 4),
    experiment_name: str = "F",
    max_refs: int | None = 6_000,
    seed: int = 0,
) -> list[CMPResult]:
    """Per-core slowdown and throughput for growing core counts."""
    trace = instruction_trace_for_workload(
        workload, seed=seed, max_refs=max_refs
    )
    config = experiment(experiment_name, workload.suite)
    results = []
    for count in core_counts:
        cmp_machine = ChipMultiprocessor(
            config, count, scale=workload.scale
        )
        results.append(cmp_machine.run(trace))
    return results
