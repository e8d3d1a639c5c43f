"""RUU-based out-of-order timing core with speculative loads (D-F).

Models the Register Update Unit organisation [41]: a unified window of
``ruu_size`` instructions, four-wide fetch and retirement, out-of-order
issue as operands become ready, a load/store queue bounding in-flight
memory operations, and speculative execution past predicted branches
(loads issue before earlier branches resolve). A misprediction redirects
fetch at branch resolution plus a fixed penalty.

The model is timestamp-based: each instruction's dispatch, issue, and
completion cycles are computed in program order (greedy schedule), with
per-cycle issue-slot and memory-port occupancy enforced through byte
arrays indexed by cycle. Retirement uses the recurrence
``retire[i] = max(complete[i], retire[i-1], retire[i-width] + 1)``.
"""

from __future__ import annotations

from repro.cpu.inorder import MISPREDICT_PENALTY, CoreResult
from repro.cpu.isa import OP_LATENCY, REGISTER_SLOTS, DecodedTrace, OpClass
from repro.errors import ConfigurationError
from repro.mem.timing import TimingMemory
from repro.obs import OBS


class OutOfOrderCore:
    """Timestamp-based RUU out-of-order model."""

    def __init__(
        self,
        memory: TimingMemory,
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
        if issue_width > 255:
            # A cycle's issue count is kept in one byte.
            raise ConfigurationError("issue width cannot exceed 255")
        self.memory = memory
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

    def run(self, decoded: DecodedTrace) -> CoreResult:
        """Time one run of *decoded* (:meth:`InstructionTrace.decode`)."""
        access = self.memory.access
        ruu_size = self.ruu_size
        lsq_size = self.lsq_size
        issue_width = self.issue_width
        mem_ports = self.mem_ports
        fetch_width = self.fetch_width
        # Offsets of the loads a misprediction issues down the wrong path.
        wrong_path = range(64, 64 * self.wrong_path_loads + 1, 64)
        latency = OP_LATENCY
        load_op = OpClass.LOAD.value
        store_op = OpClass.STORE.value
        branch_op = OpClass.BRANCH.value

        reg_ready = [0] * REGISTER_SLOTS
        # Retire times in program order, of every instruction and of each
        # memory op, behind enough zeros that ``retired[-ruu_size]``,
        # ``retired[-fetch_width]`` and ``mem_retired[-lsq_size]`` always
        # exist. A zero never binds: every completion is at least 1.
        retired = [0] * max(ruu_size, fetch_width)
        mem_retired = [0] * lsq_size
        retire = 0
        # Issue-slot and memory-port use per cycle, grown on demand. Only
        # the ruu_size - 1 instructions before one can have issued at or
        # after its ready cycle, so it issues fewer than ruu_size cycles
        # later: the arrays reach ruu_size cycles past every ready time.
        issue_slots = bytearray(_OCCUPANCY_START)
        mem_slots = bytearray(_OCCUPANCY_START)
        occupancy_limit = _OCCUPANCY_START - ruu_size

        fetch_available = 0
        fetch_cycle = 0
        fetched_this_cycle = 0
        last_address = 0
        slot_wait_cycles = 0

        for op, dest, source1, source2, address, mispredicted in zip(
            decoded.opclass,
            decoded.dest,
            decoded.src1,
            decoded.src2,
            decoded.address,
            decoded.mispredicted,
        ):
            # ---- fetch: width-limited, redirected on mispredicts ----
            if fetch_cycle < fetch_available:
                fetch_cycle = fetch_available
                fetched_this_cycle = 0
            if fetched_this_cycle >= fetch_width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            fetched_this_cycle += 1

            # ---- dispatch: wait for an RUU slot (i-ruu_size retired) ----
            ready = retired[-ruu_size]
            if fetch_cycle > ready:
                ready = fetch_cycle

            # ---- issue: operands + slot availability ----
            value = reg_ready[source1]
            if value > ready:
                ready = value
            value = reg_ready[source2]
            if value > ready:
                ready = value
            if ready >= occupancy_limit:
                _extend(issue_slots, mem_slots, ready + ruu_size)
                occupancy_limit = len(issue_slots) - ruu_size

            issue = ready
            if op < load_op:
                is_mem = False
                while issue_slots[issue] >= issue_width:
                    issue += 1
                completion = issue + latency[op]
            elif op != branch_op:
                is_mem = True
                # The LSQ entry of the memory op lsq_size back must be free.
                value = mem_retired[-lsq_size]
                if value > ready:
                    ready = issue = value
                    if ready >= occupancy_limit:
                        _extend(issue_slots, mem_slots, ready + ruu_size)
                        occupancy_limit = len(issue_slots) - ruu_size
                while issue_slots[issue] >= issue_width or (
                    mem_slots[issue] >= mem_ports
                ):
                    issue += 1
                mem_slots[issue] += 1
                completion = access(issue, address, op == store_op)
                last_address = address
            else:
                is_mem = False
                while issue_slots[issue] >= issue_width:
                    issue += 1
                completion = issue + 1
                # Speculate past predictions; a miss redirects fetch, and
                # the loads issued down the wrong path before the branch
                # resolved touch nearby addresses (the wrong path usually
                # touches the same structures).
                if mispredicted:
                    redirect = completion + MISPREDICT_PENALTY
                    if redirect > fetch_available:
                        fetch_available = redirect
                    if last_address:
                        for offset in wrong_path:
                            access(issue, last_address + offset, False)
            issue_slots[issue] += 1
            slot_wait_cycles += issue - ready
            reg_ready[dest] = completion

            # ---- retire: in order, width-limited ----
            if completion > retire:
                retire = completion
            value = retired[-fetch_width] + 1
            if value > retire:
                retire = value
            retired.append(retire)
            if is_mem:
                mem_retired.append(retire)

        n = len(decoded.opclass)
        result = CoreResult(
            cycles=max(1, retire),
            instructions=n,
            branch_mispredictions=decoded.mispredictions,
            branches=decoded.branches,
        )
        if OBS.enabled:
            OBS.count("core.runs")
            OBS.count("core.instructions", n)
            OBS.count("core.cycles", result.cycles)
            OBS.count("core.branches", result.branches)
            OBS.count("core.mispredictions", result.branch_mispredictions)
            OBS.count("core.issue_slot_wait_cycles", slot_wait_cycles)
        return result


#: Cycles the occupancy arrays cover when a run starts.
_OCCUPANCY_START = 1 << 12


def _extend(issue_slots: bytearray, mem_slots: bytearray, cycle: int) -> None:
    """Extend both occupancy arrays past *cycle*, at least doubling them."""
    size = len(issue_slots)
    extra = bytes(max(size, cycle + 1 - size))
    issue_slots += extra
    mem_slots += extra
