"""Four-wide in-order superscalar timing core (experiments A-C).

A scoreboarded in-order pipeline: up to four instructions issue per cycle,
two of them memory operations (the paper's two load/store units);
instructions stall at issue on unavailable sources (stall-at-use for load
values) and never pass one another. Branches resolve one cycle after
issue; a misprediction squashes fetch until resolution plus a fixed
redirect penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import OP_LATENCY, REGISTER_SLOTS, DecodedTrace, OpClass
from repro.errors import ConfigurationError
from repro.mem.timing import TimingMemory
from repro.obs import OBS

#: Cycles from branch resolution to useful fetch after a misprediction.
MISPREDICT_PENALTY = 3


@dataclass(frozen=True, slots=True)
class CoreResult:
    """Outcome of one timing run."""

    cycles: int
    instructions: int
    branch_mispredictions: int
    branches: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class InOrderCore:
    """Timestamp-based in-order superscalar model."""

    def __init__(
        self,
        memory: TimingMemory,
        *,
        issue_width: int = 4,
        mem_ports: int = 2,
    ) -> None:
        if issue_width <= 0 or mem_ports <= 0:
            raise ConfigurationError("issue width and memory ports must be positive")
        self.memory = memory
        self.issue_width = issue_width
        self.mem_ports = mem_ports

    def run(self, decoded: DecodedTrace) -> CoreResult:
        """Time one run of *decoded* (:meth:`InstructionTrace.decode`)."""
        access = self.memory.access
        issue_width = self.issue_width
        mem_ports = self.mem_ports
        latency = OP_LATENCY
        load_op = OpClass.LOAD.value
        store_op = OpClass.STORE.value
        branch_op = OpClass.BRANCH.value

        reg_ready = [0] * REGISTER_SLOTS
        fetch_available = 0     # earliest fetch cycle for the next instr
        cycle = 0               # current issue cycle
        slots_used = 0
        mem_slots_used = 0
        last_completion = 0
        operand_stall_cycles = 0

        # A full cycle moves issue on by exactly one: both slot counts are
        # then 0, below any width, so one `if` per class is the whole
        # slot advance.
        for op, dest, source1, source2, address, mispredicted in zip(
            decoded.opclass,
            decoded.dest,
            decoded.src1,
            decoded.src2,
            decoded.address,
            decoded.mispredicted,
        ):
            earliest = fetch_available
            ready = reg_ready[source1]
            if ready > earliest:
                earliest = ready
            ready = reg_ready[source2]
            if ready > earliest:
                earliest = ready

            # In-order issue: never before the current issue cycle.
            if earliest > cycle:
                operand_stall_cycles += earliest - cycle
                cycle = earliest
                slots_used = 0
                mem_slots_used = 0

            if op < load_op:
                if slots_used >= issue_width:
                    cycle += 1
                    slots_used = 0
                    mem_slots_used = 0
                slots_used += 1
                completion = cycle + latency[op]
            elif op != branch_op:
                if slots_used >= issue_width or mem_slots_used >= mem_ports:
                    cycle += 1
                    slots_used = 0
                    mem_slots_used = 0
                slots_used += 1
                mem_slots_used += 1
                completion = access(cycle, address, op == store_op)
            else:
                if slots_used >= issue_width:
                    cycle += 1
                    slots_used = 0
                    mem_slots_used = 0
                slots_used += 1
                completion = cycle + 1
                if mispredicted:
                    # Fetch (and so issue) resumes after resolution plus
                    # the redirect penalty.
                    fetch_available = completion + MISPREDICT_PENALTY
                    cycle = fetch_available
                    slots_used = 0
                    mem_slots_used = 0

            reg_ready[dest] = completion
            if completion > last_completion:
                last_completion = completion

        result = CoreResult(
            cycles=max(1, last_completion),
            instructions=len(decoded.opclass),
            branch_mispredictions=decoded.mispredictions,
            branches=decoded.branches,
        )
        if OBS.enabled:
            OBS.count("core.runs")
            OBS.count("core.instructions", result.instructions)
            OBS.count("core.cycles", result.cycles)
            OBS.count("core.branches", result.branches)
            OBS.count("core.mispredictions", result.branch_mispredictions)
            OBS.count("core.operand_stall_cycles", operand_stall_cycles)
        return result
