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

from repro.cpu.branch import TwoLevelPredictor
from repro.cpu.isa import NO_REG, NUM_REGS, OP_LATENCY, InstructionTrace, OpClass
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
        predictor: TwoLevelPredictor,
        *,
        issue_width: int = 4,
        mem_ports: int = 2,
    ) -> None:
        if issue_width <= 0 or mem_ports <= 0:
            raise ConfigurationError("issue width and memory ports must be positive")
        self.memory = memory
        self.predictor = predictor
        self.issue_width = issue_width
        self.mem_ports = mem_ports

    def run(self, trace: InstructionTrace) -> CoreResult:
        memory = self.memory
        predictor = self.predictor
        issue_width = self.issue_width
        mem_ports = self.mem_ports

        opclasses = trace.opclass.tolist()
        dests = trace.dest.tolist()
        src1s = trace.src1.tolist()
        src2s = trace.src2.tolist()
        addresses = trace.address.tolist()
        takens = trace.taken.tolist()
        pcs = trace.pc.tolist()

        reg_ready = [0] * NUM_REGS
        fetch_available = 0     # earliest fetch cycle for the next instr
        cycle = 0               # current issue cycle
        slots_used = 0
        mem_slots_used = 0
        last_completion = 0
        mispredictions = 0
        branches = 0
        operand_stall_cycles = 0

        load_op = int(OpClass.LOAD)
        store_op = int(OpClass.STORE)
        branch_op = int(OpClass.BRANCH)

        for index in range(len(opclasses)):
            op = opclasses[index]
            earliest = fetch_available
            source = src1s[index]
            if source != NO_REG and reg_ready[source] > earliest:
                earliest = reg_ready[source]
            source = src2s[index]
            if source != NO_REG and reg_ready[source] > earliest:
                earliest = reg_ready[source]

            # In-order issue: never before the current issue cycle.
            if earliest > cycle:
                operand_stall_cycles += earliest - cycle
                cycle = earliest
                slots_used = 0
                mem_slots_used = 0
            is_mem = op == load_op or op == store_op
            while (
                slots_used >= issue_width
                or (is_mem and mem_slots_used >= mem_ports)
            ):
                cycle += 1
                slots_used = 0
                mem_slots_used = 0
            issue = cycle
            slots_used += 1
            if is_mem:
                mem_slots_used += 1

            # Completion time.
            if is_mem:
                completion = memory.access(issue, addresses[index], op == store_op)
            elif op == branch_op:
                completion = issue + 1
            else:
                completion = issue + OP_LATENCY[op]

            dest = dests[index]
            if dest != NO_REG:
                reg_ready[dest] = completion
            if completion > last_completion:
                last_completion = completion

            if op == branch_op:
                branches += 1
                if not predictor.update(pcs[index], takens[index]):
                    mispredictions += 1
                    fetch_available = completion + MISPREDICT_PENALTY
                    cycle = max(cycle, fetch_available)
                    slots_used = 0
                    mem_slots_used = 0

        result = CoreResult(
            cycles=max(1, last_completion),
            instructions=len(opclasses),
            branch_mispredictions=mispredictions,
            branches=branches,
        )
        if OBS.enabled:
            OBS.count("core.runs")
            OBS.count("core.instructions", result.instructions)
            OBS.count("core.cycles", result.cycles)
            OBS.count("core.branches", branches)
            OBS.count("core.mispredictions", mispredictions)
            OBS.count("core.operand_stall_cycles", operand_stall_cycles)
        return result
