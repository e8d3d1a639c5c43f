"""Tests for the single-chip multiprocessor timing model."""

import pytest

from repro.cpu.configs import experiment
from repro.cpu.itrace import instruction_trace_for_workload
from repro.cpu.multicore import (
    ChipMultiprocessor,
    _SharedL2Memory,
    cmp_scaling,
)
from repro.errors import ConfigurationError
from repro.mem.timing import MemoryMode
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def swm_trace():
    return instruction_trace_for_workload(get_workload("Swm"), max_refs=3000)


class TestChipMultiprocessor:
    def test_needs_positive_cores(self):
        with pytest.raises(ConfigurationError):
            ChipMultiprocessor(experiment("F"), 0)

    def test_single_core_has_no_slowdown(self, swm_trace):
        result = ChipMultiprocessor(experiment("F"), 1).run(swm_trace)
        assert result.per_core_slowdown == pytest.approx(1.0)
        assert result.throughput_speedup == pytest.approx(1.0)

    def test_sharing_slows_each_core(self, swm_trace):
        result = ChipMultiprocessor(experiment("F"), 4).run(swm_trace)
        assert result.per_core_slowdown > 1.1

    def test_all_cores_do_the_same_work(self, swm_trace):
        result = ChipMultiprocessor(experiment("F"), 2).run(swm_trace)
        assert all(
            outcome.instructions == len(swm_trace) for outcome in result.cores
        )

    def test_slowdown_grows_with_cores(self, swm_trace):
        config = experiment("F")
        two = ChipMultiprocessor(config, 2).run(swm_trace)
        four = ChipMultiprocessor(config, 4).run(swm_trace)
        assert four.per_core_slowdown >= two.per_core_slowdown


class TestSharedL2Memory:
    def test_dirty_l1_victim_is_written_back_to_the_shared_l2(self):
        params = experiment("F").timing_memory_params()
        shared = _SharedL2Memory(params, MemoryMode.FULL)
        l1 = shared.core_l1()
        block_bytes = params.l1_config.block_bytes
        shared.core_access(l1, 0, 0, True)  # store miss: block 0 dirty
        # The same direct-mapped L1 set: evicts dirty block 0.
        shared.core_access(l1, 1000, params.l1_config.size_bytes, False)
        # Two fills and one write-back cross the shared L1/L2 bus ...
        assert shared.stats.l1_l2_traffic_bytes == 3 * block_bytes
        assert shared._l1_l2.busy_cycles == 3 * (
            params.l1_l2_bus.occupancy_cycles(block_bytes)
        )
        # ... and the write-back leaves L2 line 0 dirty.
        assert shared._l2[0][0] is True


class TestCmpScaling:
    def test_papers_section_22_claim(self):
        """'Multiple processors on a chip will lose far more performance
        for the same reason': throughput scales far below linearly on a
        bandwidth-hungry workload."""
        results = cmp_scaling(
            get_workload("Swm"), core_counts=(1, 4), max_refs=3000
        )
        four_cores = results[-1]
        assert four_cores.throughput_speedup < 3.0

    def test_core_counts_respected(self):
        results = cmp_scaling(
            get_workload("Li"), core_counts=(1, 2), max_refs=2000
        )
        assert [r.core_count for r in results] == [1, 2]

    def test_cache_fitting_workload_scales_better(self):
        """Espresso (cache-resident) suffers less from sharing than the
        streaming Swm — the bottleneck is specifically the pins."""
        swm = cmp_scaling(get_workload("Swm"), core_counts=(4,), max_refs=3000)
        espresso = cmp_scaling(
            get_workload("Espresso"), core_counts=(4,), max_refs=3000
        )
        assert (
            espresso[0].throughput_speedup > swm[0].throughput_speedup
        )
