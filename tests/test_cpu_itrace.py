"""Tests for instruction-trace synthesis and the ISA containers."""

import numpy as np
import pytest

from repro.cpu.branch import TwoLevelPredictor
from repro.cpu.isa import (
    ABSENT_DEST,
    ABSENT_SOURCE,
    NO_REG,
    InstructionTrace,
    OpClass,
)
from repro.cpu.itrace import (
    PROFILES,
    WorkloadProfile,
    build_instruction_trace,
    instruction_trace_for_workload,
    profile_for,
)
from repro.errors import TraceError, WorkloadError
from repro.workloads import get_workload

from conftest import make_trace


class TestWorkloadProfile:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(ops_per_ref=-1)
        with pytest.raises(WorkloadError):
            WorkloadProfile(fp_fraction=1.5)
        with pytest.raises(WorkloadError):
            WorkloadProfile(dependency_window=0)
        with pytest.raises(WorkloadError):
            WorkloadProfile(branch_every=1)

    def test_every_benchmark_has_a_profile(self):
        from repro.workloads import workload_names

        for name in workload_names():
            assert name in PROFILES

    def test_unknown_name_gets_default(self):
        assert profile_for("NotABenchmark") == WorkloadProfile()

    def test_fp_codes_have_wider_windows_than_int_codes(self):
        assert PROFILES["Swm"].dependency_window > PROFILES["Compress"].dependency_window
        assert PROFILES["Swm"].fp_fraction > 0.5
        assert PROFILES["Li"].fp_fraction == 0.0


class TestInstructionTraceContainer:
    def test_length_validation(self):
        with pytest.raises(TraceError):
            InstructionTrace(
                opclass=np.zeros(3, dtype=np.int8),
                dest=np.zeros(2, dtype=np.int16),
                src1=np.zeros(3, dtype=np.int16),
                src2=np.zeros(3, dtype=np.int16),
                address=np.zeros(3, dtype=np.int64),
                taken=np.zeros(3, dtype=bool),
                pc=np.zeros(3, dtype=np.int64),
            )

    def test_head(self):
        memtrace = make_trace([0, 4, 8, 12] * 10)
        itrace = build_instruction_trace(memtrace)
        shorter = itrace.head(10)
        assert len(shorter) == 10
        with pytest.raises(TraceError):
            itrace.head(0)

    def test_decode_moves_absent_operands_to_spare_slots(self):
        itrace = instruction_trace_for_workload(
            get_workload("Compress"), max_refs=500
        )
        decoded = itrace.decode(1024)
        for column, decoded_column, spare in (
            (itrace.dest, decoded.dest, ABSENT_DEST),
            (itrace.src1, decoded.src1, ABSENT_SOURCE),
            (itrace.src2, decoded.src2, ABSENT_SOURCE),
        ):
            expected = np.where(column == NO_REG, spare, column)
            assert decoded_column == expected.tolist()
        assert decoded.opclass == itrace.opclass.tolist()
        assert decoded.address == itrace.address.tolist()
        # No source reads the sink, and nothing writes the always-ready slot.
        assert ABSENT_DEST not in decoded.src1 + decoded.src2
        assert ABSENT_SOURCE not in decoded.dest

    def test_decode_flags_each_mispredicted_branch(self):
        itrace = instruction_trace_for_workload(
            get_workload("Compress"), max_refs=500
        )
        decoded = itrace.decode(1024)
        reference = TwoLevelPredictor(1024)
        expected = [
            int(
                op == OpClass.BRANCH
                and not reference.update(pc, taken)
            )
            for op, pc, taken in zip(
                itrace.opclass.tolist(),
                itrace.pc.tolist(),
                itrace.taken.tolist(),
            )
        ]
        assert list(decoded.mispredicted) == expected
        assert decoded.branches == int(itrace.is_branch.sum()) > 0
        assert decoded.mispredictions == sum(expected) > 0

    @pytest.mark.parametrize(
        "field, value", [("dest", 64), ("src1", -2), ("opclass", 8)]
    )
    def test_decode_rejects_values_outside_the_isa(self, field, value):
        columns = dict(
            opclass=np.zeros(2, dtype=np.int8),
            dest=np.zeros(2, dtype=np.int16),
            src1=np.full(2, NO_REG, dtype=np.int16),
            src2=np.full(2, NO_REG, dtype=np.int16),
            address=np.zeros(2, dtype=np.int64),
            taken=np.zeros(2, dtype=bool),
            pc=np.zeros(2, dtype=np.int64),
        )
        columns[field][1] = value
        with pytest.raises(TraceError, match=field):
            InstructionTrace(**columns).decode(64)


class TestBuildInstructionTrace:
    def test_memory_references_preserved_in_order(self):
        memtrace = make_trace([0, 400, 800], [False, True, False])
        itrace = build_instruction_trace(memtrace)
        mem_mask = itrace.is_mem
        assert itrace.address[mem_mask].tolist() == [0, 400, 800]
        stores = itrace.opclass[mem_mask] == OpClass.STORE
        assert stores.tolist() == [False, True, False]

    def test_ops_per_ref_controls_mix(self):
        memtrace = make_trace(list(range(0, 8000, 4)))
        light = build_instruction_trace(
            memtrace, WorkloadProfile(ops_per_ref=1.0)
        )
        heavy = build_instruction_trace(
            memtrace, WorkloadProfile(ops_per_ref=3.0)
        )
        assert len(heavy) > len(light)
        mem_fraction = light.memory_reference_count / len(light)
        assert 0.35 < mem_fraction < 0.55

    def test_branch_density(self):
        memtrace = make_trace(list(range(0, 8000, 4)))
        itrace = build_instruction_trace(
            memtrace, WorkloadProfile(branch_every=6)
        )
        branch_fraction = itrace.is_branch.mean()
        assert 0.1 < branch_fraction < 0.2  # ~1/7 of the final stream

    def test_fp_fraction_respected(self):
        memtrace = make_trace(list(range(0, 8000, 4)))
        itrace = build_instruction_trace(
            memtrace, WorkloadProfile(fp_fraction=1.0)
        )
        compute = ~(itrace.is_mem | itrace.is_branch)
        fp_classes = (OpClass.FP_ALU, OpClass.FP_MUL, OpClass.FP_DIV)
        fp = np.isin(itrace.opclass[compute], fp_classes)
        assert fp.all()

    def test_stores_and_branches_have_no_dest(self):
        memtrace = make_trace([0, 4, 8] * 100, [True] * 300)
        itrace = build_instruction_trace(memtrace)
        no_dest = (itrace.opclass == OpClass.STORE) | itrace.is_branch
        assert (itrace.dest[no_dest] == NO_REG).all()

    def test_sources_reference_recent_producers(self):
        memtrace = make_trace(list(range(0, 4000, 4)))
        profile = WorkloadProfile(dependency_window=4)
        itrace = build_instruction_trace(memtrace, profile)
        # src registers must come from the last 4 producers: check that
        # every consumer's src1 equals the dest of a recent producer.
        dests = itrace.dest
        src1 = itrace.src1
        produces = dests != NO_REG
        recent: list[int] = []
        for i in range(len(itrace)):
            if src1[i] != NO_REG and recent:
                assert src1[i] in recent[-4:]
            if produces[i]:
                recent.append(int(dests[i]))

    def test_deterministic_for_seed(self):
        memtrace = make_trace([0, 4, 8] * 50)
        a = build_instruction_trace(memtrace, seed=5)
        b = build_instruction_trace(memtrace, seed=5)
        assert np.array_equal(a.opclass, b.opclass)
        assert np.array_equal(a.taken, b.taken)

    def test_empty_memtrace_rejected(self):
        from repro.trace.model import MemTrace

        with pytest.raises(WorkloadError):
            build_instruction_trace(MemTrace([], []))


class TestWorkloadIntegration:
    def test_instruction_trace_for_workload(self):
        workload = get_workload("Li")
        itrace = instruction_trace_for_workload(workload, max_refs=2000)
        assert itrace.name == "Li"
        assert itrace.memory_reference_count == 2000
        assert len(itrace) > 2000
