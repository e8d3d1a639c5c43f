"""Tests for the in-order and out-of-order timing cores."""

import pytest

from repro.cpu.configs import experiment
from repro.cpu.inorder import InOrderCore
from repro.cpu.itrace import WorkloadProfile, build_instruction_trace
from repro.cpu.ooo import OutOfOrderCore
from repro.errors import ConfigurationError
from repro.mem.cache import CacheConfig
from repro.mem.timing import BusSpec, MemoryMode, TimingMemory, TimingMemoryParams

from conftest import make_trace


def memory(mode=MemoryMode.PERFECT, **overrides) -> TimingMemory:
    base = dict(
        l1_config=CacheConfig(size_bytes=512, block_bytes=32, name="L1"),
        l2_config=CacheConfig(
            size_bytes=4096, block_bytes=64, associativity=4, name="L2"
        ),
        l1_l2_bus=BusSpec(16, 3),
        l2_mem_bus=BusSpec(8, 3),
        mshr_count=8,
    )
    base.update(overrides)
    return TimingMemory(TimingMemoryParams(**base), mode)


def trace(n_refs=500, **profile_kwargs):
    profile = WorkloadProfile(**profile_kwargs)
    memtrace = make_trace([(i * 4) % 4096 for i in range(n_refs)])
    return build_instruction_trace(memtrace, profile, seed=0)


class Decoding:
    """*core* with a ``run`` that takes an InstructionTrace and decodes it
    under a fresh 1024-entry predictor."""

    def __init__(self, core):
        self.core = core

    def run(self, instruction_trace):
        return self.core.run(instruction_trace.decode(1024))


def in_order(mode=MemoryMode.PERFECT, **kwargs):
    return Decoding(InOrderCore(memory(mode), **kwargs))


def out_of_order(mode=MemoryMode.PERFECT, **kwargs):
    kwargs.setdefault("ruu_size", 16)
    kwargs.setdefault("lsq_size", 8)
    return Decoding(OutOfOrderCore(memory(mode), **kwargs))


class TestInOrderCore:
    def test_ipc_bounded_by_width(self):
        result = in_order(issue_width=4).run(trace())
        assert 0 < result.ipc <= 4.0

    def test_narrow_issue_is_slower(self):
        t = trace(dependency_window=16)
        wide = in_order(issue_width=4).run(t)
        narrow = in_order(issue_width=1).run(t)
        assert narrow.cycles > wide.cycles
        assert narrow.ipc <= 1.0

    def test_serial_dependencies_cap_ipc(self):
        serial = in_order().run(trace(dependency_window=1))
        parallel = in_order().run(trace(dependency_window=24))
        assert serial.cycles > parallel.cycles

    def test_memory_port_limit(self):
        t = trace(ops_per_ref=0.2, dependency_window=24)  # mem-dominated
        two_ports = in_order(mem_ports=2).run(t)
        one_port = in_order(mem_ports=1).run(t)
        assert one_port.cycles > two_ports.cycles

    def test_branch_stats_recorded(self):
        result = in_order().run(trace())
        assert result.branches > 0
        assert 0 <= result.branch_mispredictions <= result.branches

    def test_full_memory_slower_than_perfect(self):
        t = trace()
        perfect = in_order(MemoryMode.PERFECT).run(t)
        full = in_order(MemoryMode.FULL).run(t)
        assert full.cycles > perfect.cycles

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            in_order(issue_width=0)


class TestOutOfOrderCore:
    def test_beats_in_order_on_miss_heavy_code(self):
        # Large footprint loads with plenty of ILP: OoO overlaps misses.
        memtrace = make_trace([(i * 64) % (1 << 18) for i in range(800)])
        t = build_instruction_trace(
            memtrace, WorkloadProfile(dependency_window=24), seed=0
        )
        io = in_order(MemoryMode.FULL).run(t)
        ooo = out_of_order(MemoryMode.FULL, ruu_size=64, lsq_size=32).run(t)
        assert ooo.cycles < io.cycles

    def test_bigger_window_helps(self):
        memtrace = make_trace([(i * 64) % (1 << 18) for i in range(800)])
        t = build_instruction_trace(
            memtrace, WorkloadProfile(dependency_window=24), seed=0
        )
        small = out_of_order(MemoryMode.FULL, ruu_size=8, lsq_size=4).run(t)
        large = out_of_order(MemoryMode.FULL, ruu_size=64, lsq_size=32).run(t)
        assert large.cycles <= small.cycles

    def test_lsq_limits_memory_parallelism(self):
        memtrace = make_trace([(i * 64) % (1 << 18) for i in range(800)])
        t = build_instruction_trace(
            memtrace, WorkloadProfile(dependency_window=24), seed=0
        )
        tiny_lsq = out_of_order(MemoryMode.FULL, ruu_size=64, lsq_size=1).run(t)
        big_lsq = out_of_order(MemoryMode.FULL, ruu_size=64, lsq_size=32).run(t)
        assert big_lsq.cycles <= tiny_lsq.cycles

    def test_ipc_bounded_by_width(self):
        result = out_of_order(ruu_size=64, lsq_size=32).run(trace())
        assert 0 < result.ipc <= 4.0

    def test_retirement_is_monotone_and_final(self):
        result = out_of_order().run(trace(n_refs=100))
        assert result.cycles >= len(trace(n_refs=100)) // 4

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            out_of_order(ruu_size=0)


class TestDecompositionOrdering:
    """T_P <= T_I <= T must hold for both cores on every mode."""

    @pytest.mark.parametrize("core_factory", [in_order, out_of_order])
    def test_mode_ordering(self, core_factory):
        t = trace(n_refs=400)
        cycles = {}
        for mode in MemoryMode:
            cycles[mode] = core_factory(mode).run(t).cycles
        assert cycles[MemoryMode.PERFECT] <= cycles[MemoryMode.INFINITE]
        assert cycles[MemoryMode.INFINITE] <= cycles[MemoryMode.FULL]


class TestExperimentConfigs:
    def test_all_experiments_defined(self):
        for name in "ABCDEF":
            for suite in ("SPEC92", "SPEC95"):
                config = experiment(name, suite)
                assert config.name == name
                assert config.suite == suite

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment("Z")

    def test_in_order_vs_out_of_order_split(self):
        for name in "ABC":
            assert not experiment(name).processor.out_of_order
        for name in "DEF":
            assert experiment(name).processor.out_of_order

    def test_b_has_larger_blocks(self):
        assert experiment("B").memory.l1_block == 64
        assert experiment("A").memory.l1_block == 32

    def test_lockup_free_from_c_onwards(self):
        assert not experiment("A").memory.lockup_free
        assert not experiment("B").memory.lockup_free
        for name in "CDEF":
            assert experiment(name).memory.lockup_free

    def test_prefetch_only_e_f(self):
        assert not experiment("D").memory.tagged_prefetch
        assert experiment("E").memory.tagged_prefetch
        assert experiment("F").memory.tagged_prefetch

    def test_f_is_most_aggressive(self):
        base = experiment("D")
        aggressive = experiment("F")
        assert aggressive.processor.ruu_slots > base.processor.ruu_slots
        assert aggressive.processor.lsq_entries > base.processor.lsq_entries
        assert (
            aggressive.processor.branch_table_entries
            > base.processor.branch_table_entries
        )

    def test_spec95_memory_more_aggressive(self):
        spec92 = experiment("A", "SPEC92")
        spec95 = experiment("A", "SPEC95")
        assert spec95.memory.l2_bytes == 2 * spec92.memory.l2_bytes
        assert spec95.memory.bus_ratio == 4
        assert spec92.memory.bus_ratio == 3

    def test_timing_params_scale(self):
        params_full = experiment("A").timing_memory_params(scale=1.0)
        params_quarter = experiment("A").timing_memory_params(scale=0.25)
        assert params_full.l1_config.size_bytes == 128 * 1024
        assert params_quarter.l1_config.size_bytes == 32 * 1024
        # latencies don't scale with footprint
        assert (
            params_full.memory_access_cycles
            == params_quarter.memory_access_cycles
            == 27
        )
