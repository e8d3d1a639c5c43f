"""RUU-based out-of-order timing core with speculative loads (D-F).

Models the Register Update Unit organisation [41]: a unified window of
``ruu_size`` instructions, four-wide fetch and retirement, out-of-order
issue as operands become ready, a load/store queue bounding in-flight
memory operations, and speculative execution past predicted branches
(loads issue before earlier branches resolve). A misprediction redirects
fetch at branch resolution plus a fixed penalty.

The model is timestamp-based: each instruction's dispatch, issue, and
completion cycles are computed in program order (greedy schedule), with
per-cycle issue-slot and memory-port occupancy enforced through compact
occupancy maps. Retirement uses the recurrence
``retire[i] = max(complete[i], retire[i-1], retire[i-width] + 1)``.
"""

from __future__ import annotations

from collections import defaultdict

from repro.cpu.branch import TwoLevelPredictor
from repro.cpu.inorder import MISPREDICT_PENALTY, CoreResult
from repro.cpu.isa import NO_REG, NUM_REGS, OP_LATENCY, InstructionTrace, OpClass
from repro.errors import ConfigurationError
from repro.mem.timing import TimingMemory
from repro.obs import OBS


class OutOfOrderCore:
    """Timestamp-based RUU out-of-order model."""

    def __init__(
        self,
        memory: TimingMemory,
        predictor: TwoLevelPredictor,
        *,
        ruu_size: int = 16,
        lsq_size: int = 8,
        issue_width: int = 4,
        mem_ports: int = 2,
        fetch_width: int = 4,
        wrong_path_loads: int = 2,
    ) -> None:
        if min(ruu_size, lsq_size, issue_width, mem_ports, fetch_width) <= 0:
            raise ConfigurationError("all core dimensions must be positive")
        if wrong_path_loads < 0:
            raise ConfigurationError("wrong_path_loads cannot be negative")
        self.memory = memory
        self.predictor = predictor
        self.ruu_size = ruu_size
        self.lsq_size = lsq_size
        self.issue_width = issue_width
        self.mem_ports = mem_ports
        self.fetch_width = fetch_width
        #: Speculative loads issued down the wrong path per misprediction
        #: before the redirect: they return no useful data but move blocks
        #: and occupy buses/MSHRs — Table 1's "speculative loads increase
        #: memory traffic whenever the speculation is incorrect".
        self.wrong_path_loads = wrong_path_loads

    def run(self, trace: InstructionTrace) -> CoreResult:
        memory = self.memory
        predictor = self.predictor
        ruu_size = self.ruu_size
        lsq_size = self.lsq_size
        issue_width = self.issue_width
        mem_ports = self.mem_ports
        fetch_width = self.fetch_width

        opclasses = trace.opclass.tolist()
        dests = trace.dest.tolist()
        src1s = trace.src1.tolist()
        src2s = trace.src2.tolist()
        addresses = trace.address.tolist()
        takens = trace.taken.tolist()
        pcs = trace.pc.tolist()
        n = len(opclasses)

        reg_ready = [0] * NUM_REGS
        retire_times: list[int] = [0] * n
        mem_retire_times: list[int] = []  # retire time of each memory op

        issue_slots: dict[int, int] = defaultdict(int)
        mem_slots: dict[int, int] = defaultdict(int)

        fetch_available = 0
        fetch_cycle = 0
        fetched_this_cycle = 0
        last_completion = 0
        mispredictions = 0
        branches = 0
        mem_op_count = 0
        last_address = 0
        slot_wait_cycles = 0

        load_op = int(OpClass.LOAD)
        store_op = int(OpClass.STORE)
        branch_op = int(OpClass.BRANCH)

        for index in range(n):
            # ---- fetch: width-limited, redirected on mispredicts ----
            if fetch_cycle < fetch_available:
                fetch_cycle = fetch_available
                fetched_this_cycle = 0
            if fetched_this_cycle >= fetch_width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            fetch_time = fetch_cycle
            fetched_this_cycle += 1

            # ---- dispatch: wait for an RUU slot (i-ruu_size retired) ----
            dispatch = fetch_time
            if index >= ruu_size:
                window_free = retire_times[index - ruu_size]
                if window_free > dispatch:
                    dispatch = window_free

            op = opclasses[index]
            is_mem = op == load_op or op == store_op
            if is_mem and mem_op_count >= lsq_size:
                lsq_free = mem_retire_times[mem_op_count - lsq_size]
                if lsq_free > dispatch:
                    dispatch = lsq_free

            # ---- issue: operands + slot availability ----
            ready = dispatch
            source = src1s[index]
            if source != NO_REG and reg_ready[source] > ready:
                ready = reg_ready[source]
            source = src2s[index]
            if source != NO_REG and reg_ready[source] > ready:
                ready = reg_ready[source]

            issue = ready
            while issue_slots[issue] >= issue_width or (
                is_mem and mem_slots[issue] >= mem_ports
            ):
                issue += 1
            slot_wait_cycles += issue - ready
            issue_slots[issue] += 1
            if is_mem:
                mem_slots[issue] += 1

            # ---- execute ----
            if is_mem:
                completion = memory.access(issue, addresses[index], op == store_op)
                last_address = addresses[index]
            elif op == branch_op:
                completion = issue + 1
            else:
                completion = issue + OP_LATENCY[op]

            dest = dests[index]
            if dest != NO_REG:
                reg_ready[dest] = completion

            # ---- retire: in order, width-limited ----
            retire = completion
            if index and retire_times[index - 1] > retire:
                retire = retire_times[index - 1]
            if index >= fetch_width:
                paced = retire_times[index - fetch_width] + 1
                if paced > retire:
                    retire = paced
            retire_times[index] = retire
            if is_mem:
                mem_retire_times.append(retire)
                mem_op_count += 1
            if retire > last_completion:
                last_completion = retire

            # ---- branches: speculate past predictions, redirect on miss ----
            if op == branch_op:
                branches += 1
                if not predictor.update(pcs[index], takens[index]):
                    mispredictions += 1
                    redirect = completion + MISPREDICT_PENALTY
                    if redirect > fetch_available:
                        fetch_available = redirect
                    # Wrong-path loads issued before the branch resolved:
                    # fabricate plausible nearby addresses (the wrong path
                    # usually touches the same structures).
                    if self.wrong_path_loads and last_address:
                        for k in range(1, self.wrong_path_loads + 1):
                            memory.access(
                                issue, last_address + 64 * k, False
                            )

            # Keep the occupancy maps bounded: drop cycles already passed
            # by the in-order retire frontier (nothing issues before it
            # minus the window span again).
            if len(issue_slots) > 65536:
                horizon = retire_times[max(0, index - ruu_size)] - 1
                for table in (issue_slots, mem_slots):
                    stale = [c for c in table if c < horizon]
                    for c in stale:
                        del table[c]

        result = CoreResult(
            cycles=max(1, last_completion),
            instructions=n,
            branch_mispredictions=mispredictions,
            branches=branches,
        )
        if OBS.enabled:
            OBS.count("core.runs")
            OBS.count("core.instructions", n)
            OBS.count("core.cycles", result.cycles)
            OBS.count("core.branches", branches)
            OBS.count("core.mispredictions", mispredictions)
            OBS.count("core.issue_slot_wait_cycles", slot_wait_cycles)
        return result
