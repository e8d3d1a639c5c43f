"""Tests for the Machine wrapper and the decomposition protocol."""

import dataclasses
import hashlib

import pytest

from repro.cpu.branch import TwoLevelPredictor
from repro.cpu.configs import EXPERIMENT_NAMES, experiment
from repro.cpu.inorder import InOrderCore
from repro.cpu.itrace import instruction_trace_for_workload
from repro.cpu.machine import Machine, decompose_experiment
from repro.cpu.ooo import OutOfOrderCore
from repro.experiments.figure5 import unified_memory_params
from repro.mem.timing import MemoryMode, TimingMemory
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def li_trace():
    return instruction_trace_for_workload(get_workload("Li"), max_refs=4000)


class TestMachine:
    def test_three_runs_ordered(self, li_trace):
        result = Machine(experiment("A")).run(li_trace)
        d = result.decomposition
        assert d.cycles_perfect <= d.cycles_infinite <= d.cycles_full
        assert abs(d.f_p + d.f_l + d.f_b - 1.0) < 1e-9

    def test_instruction_count_recorded(self, li_trace):
        result = Machine(experiment("A")).run(li_trace)
        assert result.decomposition.instructions == len(li_trace)

    def test_full_memory_stats_populated(self, li_trace):
        result = Machine(experiment("A")).run(li_trace)
        assert result.full_memory_stats.accesses == li_trace.memory_reference_count

    @pytest.mark.parametrize("name", "AF")
    def test_one_predictor_pass_serves_all_three_modes(
        self, li_trace, monkeypatch, name
    ):
        trained = []
        train = TwoLevelPredictor.train

        def counted(predictor, pcs, takens):
            trained.append(predictor)
            return train(predictor, pcs, takens)

        monkeypatch.setattr(TwoLevelPredictor, "train", counted)
        Machine(experiment(name)).run(li_trace)
        assert len(trained) == 1

    def test_label_contains_benchmark_and_experiment(self, li_trace):
        result = Machine(experiment("C")).run(li_trace)
        assert "Li" in result.decomposition.label
        assert "C" in result.decomposition.label


class TestPaperBehaviours:
    """The qualitative Section 3 findings, as assertions."""

    def test_out_of_order_speeds_up(self):
        workload = get_workload("Swm")
        a = decompose_experiment(workload, experiment("A"), max_refs=8000)
        d = decompose_experiment(workload, experiment("D"), max_refs=8000)
        assert d.decomposition.cycles_full < a.decomposition.cycles_full

    def test_latency_tolerance_grows_bandwidth_share(self):
        """The paper's thesis: f_B grows from experiment A to F."""
        workload = get_workload("Swm")
        a = decompose_experiment(workload, experiment("A"), max_refs=8000)
        f = decompose_experiment(workload, experiment("F"), max_refs=8000)
        assert f.decomposition.f_b > a.decomposition.f_b
        assert f.decomposition.f_l < a.decomposition.f_l

    def test_experiment_a_is_latency_dominated(self):
        """In experiment A, f_L > f_B (paper Table 6, all but Applu)."""
        workload = get_workload("Tomcatv")
        a = decompose_experiment(workload, experiment("A"), max_refs=8000)
        assert a.decomposition.f_l > a.decomposition.f_b

    def test_prefetch_reduces_latency_stalls(self):
        workload = get_workload("Swm")
        d = decompose_experiment(workload, experiment("D"), max_refs=8000)
        e = decompose_experiment(workload, experiment("E"), max_refs=8000)
        assert e.decomposition.f_l <= d.decomposition.f_l + 0.02

    def test_lockup_free_caches_are_no_slower(self):
        """Blocking (A, one MSHR) vs lockup-free (C, eight MSHRs) caches
        on Su2cor: the extra MSHRs never cost more than 5%."""
        workload = get_workload("Su2cor")
        a = decompose_experiment(workload, experiment("A"), max_refs=10_000)
        c = decompose_experiment(workload, experiment("C"), max_refs=10_000)
        assert (
            c.decomposition.cycles_full
            <= a.decomposition.cycles_full * 1.05
        )

    def test_out_of_order_issue_raises_ipc(self):
        """In-order (C) vs out-of-order (D) issue on Tomcatv."""
        workload = get_workload("Tomcatv")
        c = decompose_experiment(workload, experiment("C"), max_refs=10_000)
        d = decompose_experiment(workload, experiment("D"), max_refs=10_000)
        assert d.full.ipc > c.full.ipc

    def test_prefetch_increases_memory_traffic(self):
        workload = get_workload("Swm")
        d = decompose_experiment(workload, experiment("D"), max_refs=8000)
        e = decompose_experiment(workload, experiment("E"), max_refs=8000)
        assert (
            e.full_memory_stats.l1_l2_traffic_bytes
            >= d.full_memory_stats.l1_l2_traffic_bytes
        )

    def test_cache_bound_benchmark_has_small_stalls(self):
        """Espresso fits in cache: memory stalls should be minor."""
        workload = get_workload("Espresso")
        a = decompose_experiment(workload, experiment("A"), max_refs=8000)
        assert a.decomposition.f_p > 0.7


class TestBlockSizeAndSpeculation:
    def test_larger_blocks_shift_stalls_to_bandwidth(self):
        """Section 3.2: experiment B's larger blocks reduce latency stalls
        while raising bandwidth stalls (the dominant pattern; the paper
        sees the same direction for Su2cor and mixed ones elsewhere)."""
        for name in ("Su2cor", "Swm", "Tomcatv"):
            workload = get_workload(name)
            a = decompose_experiment(workload, experiment("A"), max_refs=8000)
            b = decompose_experiment(workload, experiment("B"), max_refs=8000)
            assert b.decomposition.f_l < a.decomposition.f_l, name
            assert b.decomposition.f_b > a.decomposition.f_b, name

    def test_wrong_path_loads_add_traffic(self):
        """Table 1: speculative loads increase traffic when wrong."""
        from repro.cpu.branch import TwoLevelPredictor
        from repro.cpu.itrace import WorkloadProfile, build_instruction_trace
        from repro.cpu.ooo import OutOfOrderCore
        from repro.mem.timing import MemoryMode, TimingMemory

        workload = get_workload("Compress")  # mispredict-heavy
        memtrace = workload.generate(seed=0, max_refs=5000)
        itrace = build_instruction_trace(
            memtrace, WorkloadProfile(loop_branch_fraction=0.2), seed=0
        )
        config = experiment("D")

        def traffic(wrong_path):
            memory = TimingMemory(
                config.timing_memory_params(0.25), MemoryMode.FULL
            )
            core = OutOfOrderCore(
                memory,
                ruu_size=32,
                lsq_size=16,
                wrong_path_loads=wrong_path,
            )
            core.run(itrace.decode(TwoLevelPredictor(1024)))
            return memory.stats.l1_l2_traffic_bytes

        assert traffic(4) > traffic(0)

    def test_wrong_path_loads_validated(self):
        from repro.cpu.ooo import OutOfOrderCore
        from repro.mem.timing import MemoryMode, TimingMemory

        config = experiment("D")
        memory = TimingMemory(config.timing_memory_params(0.25), MemoryMode.FULL)
        with pytest.raises(Exception):
            OutOfOrderCore(memory, wrong_path_loads=-1)

    def test_issue_width_fits_a_byte(self):
        from repro.errors import ConfigurationError

        memory = TimingMemory(
            experiment("D").timing_memory_params(0.25), MemoryMode.FULL
        )
        OutOfOrderCore(memory, issue_width=255)
        with pytest.raises(ConfigurationError):
            OutOfOrderCore(memory, issue_width=256)


def _mode_runs(config, trace, params, modes=tuple(MemoryMode)):
    """``(CoreResult, TimingMemoryStats)`` of *config*'s core over *trace*
    with memory *params*, one run per mode in *modes*."""
    processor = config.processor
    decoded = trace.decode(TwoLevelPredictor(processor.branch_table_entries))
    runs = []
    for mode in modes:
        memory = TimingMemory(params, mode)
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
        runs.append((core.run(decoded), memory.stats))
    return runs


def _timing_digest(runs) -> str:
    digest = hashlib.sha256()
    for result, stats in runs:
        fields = dataclasses.astuple(result) + dataclasses.astuple(stats)
        digest.update(repr(fields).encode())
    return digest.hexdigest()


#: Reference budget and trace seed of :data:`TIMING_DIGESTS`.
TIMING_REFS = 1_500
TIMING_SEED = 3

#: SHA-256 over every ``CoreResult`` and ``TimingMemoryStats`` field of
#: the full, infinite and perfect runs at the default scale, one column
#: per experiment A-F and a last one for experiment F on Figure 5's
#: on-chip DRAM system. Any change to a timing core or the timing memory
#: that moves one cycle, miss, prefetch or byte of traffic fails here.
TIMING_DIGESTS = {
    "Applu": (
        "356370dbb7a7bc1aa120f0353c5c1e32fe30550eb41d3c7d90629abb53883121",
        "6173adbb4189cc49524faac3cb14daf0005638b1ec1dff6729cddfa3db17fdda",
        "192790974e1f0ade3dd7af9b42b2985e8c395b870a6470de9523f8fe36033cc3",
        "5d174beaf9bb307d2760ae08803ef2de3dd7884c2929e7812d255dc160f1376d",
        "8b2a6fa4147ce66fb1a57da6c66c257cb7e8676e09f035c33de5e4ca9e83b856",
        "faa7dd1d637e8f0b1400913c07b8e11ec18d238617ee1326afb571613c110ab9",
        "d3bbb59c46ebbfc0b473b5e21ff251a63cce6f978cc07330f57180a147a0766e",
    ),
    "Compress": (
        "f0ee0704b76b5ffae6d49a96444633ccc545d6fb8f0a80b0faef89583a26def3",
        "49d12cf9c75cc46ee348cd18fd0813860f2d877f85b013b3d7c9ec0b88ae1520",
        "ec4e15d13cc175e1ed55ea97884781a8df4a832e60ea22357219612e7e2f5202",
        "bf4a1118f72c73f5623103fc5befc818d3603069bc9d49b90a700cc0cc50a653",
        "a3d824abe80a680274df1bd564ef55867031149cfa8fee72b17afc7b76b281ad",
        "0e06f1a42c70da5ebe5b87a75d576d1803879b50eacfb799b7dc88549b00029a",
        "75d76993941b99928cf4f1c0a7c170c755b69747f5363abe84d956cde3d396ba",
    ),
    "Swm": (
        "64a8d13bb96915ac4cee34e37ec2026d85638998ff92f9f3ef86650d3faa392d",
        "cff87cfa870defab0b2371612cec88896306ece450b893f71cbc64c48d8e53ca",
        "bcead3e1380d06db44eec46c25c31cb95283a737dd6e5ae55940eac0857b904e",
        "995c90d99bec7d94e9cd3ea95e11f1b2656dc31b4bf4cd4682b8a06aa80ffedb",
        "187b7cfc247ba34e3a785ea935c0c2114fcb57548e4db48d952307ae00ba2d19",
        "7a985e28f138983cfabf7c1c4f871c02f143e58ba653485f7b769304e20e045c",
        "197c3d50a7df2ade05a1e6d17d907e937935616b91f7d2029006a51d49b526ba",
    ),
    "Vortex": (
        "f99c99f73cc2ee3006c65ccb2ccfe869fca8113b96239cd929743df24023983f",
        "7bb5e418c1901d766dbf41615c11a97baa08c072080db0adaacf3f69c04ee608",
        "52c945beaa74a269f18b114860a43e456f723e9e2cffdb395eafa599c886e9fd",
        "3597b1f5fca530676cc29a9ef2a53c951c318f29bc5d5ae5347a2b1e070fa105",
        "34f3678f0a9b7a599ae8eff8403fb1d4ef3ad153e6044306f745489d3b66ce6c",
        "07b327860a9d592c736b0d118d6494cc813aebcbae497fb11a5660245fa79a9e",
        "72c7aedb693cc35aa238d9559457072343f4ad05379ecdb23c89cf951c992454",
    ),
}


class TestTimingDigests:
    @pytest.mark.parametrize("name", sorted(TIMING_DIGESTS))
    def test_timing_outputs_pinned(self, name):
        workload = get_workload(name)
        trace = instruction_trace_for_workload(
            workload, seed=TIMING_SEED, max_refs=TIMING_REFS
        )
        columns = []
        for experiment_name in EXPERIMENT_NAMES:
            config = experiment(experiment_name, workload.suite)
            params = config.timing_memory_params(workload.scale)
            columns.append((config, params))
        config = experiment("F", workload.suite)
        columns.append((config, unified_memory_params(config, workload.scale)))
        digests = tuple(
            _timing_digest(_mode_runs(config, trace, params))
            for config, params in columns
        )
        assert digests == TIMING_DIGESTS[name]

    def test_both_suites_are_pinned(self):
        suites = [get_workload(name).suite for name in TIMING_DIGESTS]
        assert sorted(suites) == ["SPEC92"] * 2 + ["SPEC95"] * 2


#: Reference budget of :data:`LONG_RUN_DIGESTS` (trace seed 0).
LONG_RUN_REFS = 20_000

#: SHA-256 over every ``CoreResult`` and ``TimingMemoryStats`` field of
#: experiment F's full, infinite and perfect runs at LONG_RUN_REFS. The
#: full runs span 147,662 (Applu) and 71,385 (Compress) cycles: past
#: 65,536, so the out-of-order core's per-cycle issue occupancy covers
#: more cycles than any 1,500-reference digest reaches.
LONG_RUN_DIGESTS = {
    "Applu": "6ef30671e7353579f78e509edd1ee2ec234fe6589ba60ba1176e34b118c35214",
    "Compress": "c26e8ce236fc9b40980d75e598fa5ec877218fe96e463a1ae91f585e9ff61d9f",
}


class TestLongRunDigests:
    @pytest.mark.parametrize("name", sorted(LONG_RUN_DIGESTS))
    def test_experiment_f_long_run_pinned(self, name):
        workload = get_workload(name)
        trace = instruction_trace_for_workload(
            workload, seed=0, max_refs=LONG_RUN_REFS
        )
        config = experiment("F", workload.suite)
        runs = _mode_runs(
            config, trace, config.timing_memory_params(workload.scale)
        )
        full, _ = runs[0]
        assert full.cycles > 65_536
        assert _timing_digest(runs) == LONG_RUN_DIGESTS[name]

    def test_both_suites_are_pinned(self):
        suites = [get_workload(name).suite for name in LONG_RUN_DIGESTS]
        assert sorted(suites) == ["SPEC92", "SPEC95"]


#: Cores at the edges of their dimensions: a window smaller than the
#: fetch width, a one-entry LSQ, one issue slot and one memory port.
EDGE_CORES = {
    "ooo-ruu2-fetch4": lambda memory: OutOfOrderCore(
        memory,
        ruu_size=2,
        lsq_size=1,
        issue_width=1,
        mem_ports=1,
        fetch_width=4,
        wrong_path_loads=0,
    ),
    "ooo-ruu1-fetch8": lambda memory: OutOfOrderCore(
        memory,
        ruu_size=1,
        lsq_size=3,
        issue_width=2,
        mem_ports=1,
        fetch_width=8,
        wrong_path_loads=0,
    ),
    "inorder-width1": lambda memory: InOrderCore(
        memory, issue_width=1, mem_ports=1
    ),
    "inorder-width3-port1": lambda memory: InOrderCore(
        memory, issue_width=3, mem_ports=1
    ),
}

#: SHA-256 over every ``CoreResult`` and ``TimingMemoryStats`` field of
#: one edge core's three mode runs on Applu and Compress (TIMING_REFS,
#: TIMING_SEED), with experiment A's and then experiment F's memory.
EDGE_DIGESTS = {
    "inorder-width1": "7980eccd3a96bb9ef67fd98d9318c53885ed46ce00ed0d0046048d1275357807",
    "inorder-width3-port1": "e181974e9318a8226ce482b7184677433c25319f8c86336e714fee8d6ef2c1d6",
    "ooo-ruu1-fetch8": "fa0f65f8917df47a0f0e97b72574c4271173e79f6a71e66a268acf44608ba219",
    "ooo-ruu2-fetch4": "ed54ebf6a883a1dd2dfe61a7377bd657b002aac77350d3e6e59dbd6bf8d67d43",
}


class TestEdgeConfigurationDigests:
    @pytest.mark.parametrize("name", sorted(EDGE_CORES))
    def test_edge_core_pinned(self, name):
        build = EDGE_CORES[name]
        runs = []
        for workload_name in ("Applu", "Compress"):
            workload = get_workload(workload_name)
            trace = instruction_trace_for_workload(
                workload, seed=TIMING_SEED, max_refs=TIMING_REFS
            )
            for experiment_name in "AF":
                config = experiment(experiment_name, workload.suite)
                params = config.timing_memory_params(workload.scale)
                decoded = trace.decode(
                    TwoLevelPredictor(config.processor.branch_table_entries)
                )
                for mode in MemoryMode:
                    memory = TimingMemory(params, mode)
                    result = build(memory).run(decoded)
                    runs.append((result, memory.stats))
        assert _timing_digest(runs) == EDGE_DIGESTS[name]


#: Stats that say what moved rather than when it moved.
FUNCTIONAL_FIELDS = (
    "accesses",
    "l1_misses",
    "l2_misses",
    "l1_l2_traffic_bytes",
    "l2_mem_traffic_bytes",
)
PREFETCH_FIELDS = ("prefetches_issued", "prefetches_dropped")
#: One workload per suite, each of which drops prefetches at E and F.
INVARIANT_WORKLOADS = ("Compress", "Applu")


@pytest.fixture(scope="module")
def invariant_traces():
    return {
        name: instruction_trace_for_workload(
            get_workload(name), seed=0, max_refs=3_000
        )
        for name in INVARIANT_WORKLOADS
    }


def _infinite_and_full(trace, experiment_name, **memory_overrides):
    """TimingMemoryStats of the infinite and the full run over *trace*."""
    workload = get_workload(trace.name)
    config = experiment(experiment_name, workload.suite)
    config = dataclasses.replace(
        config, memory=dataclasses.replace(config.memory, **memory_overrides)
    )
    runs = _mode_runs(
        config,
        trace,
        config.timing_memory_params(workload.scale),
        (MemoryMode.INFINITE, MemoryMode.FULL),
    )
    return [stats for _, stats in runs]


def _fields(stats, names):
    return tuple(getattr(stats, name) for name in names)


class TestModeInvariant:
    """What T_I's infinite-width run shares with the full run's T."""

    @pytest.mark.parametrize("name", INVARIANT_WORKLOADS)
    @pytest.mark.parametrize("experiment_name", "ABCD")
    def test_without_prefetch_both_runs_see_one_miss_stream(
        self, invariant_traces, name, experiment_name
    ):
        infinite, full = _infinite_and_full(
            invariant_traces[name], experiment_name
        )
        assert _fields(infinite, FUNCTIONAL_FIELDS) == _fields(
            full, FUNCTIONAL_FIELDS
        )

    @pytest.mark.parametrize("name", INVARIANT_WORKLOADS)
    @pytest.mark.parametrize("experiment_name", "EF")
    def test_prefetch_lost_to_bandwidth_changes_the_miss_stream(
        self, invariant_traces, name, experiment_name
    ):
        # A prefetch that finds no free MSHR is dropped, and the finite
        # buses hold MSHRs longer: the full run drops more.
        infinite, full = _infinite_and_full(
            invariant_traces[name], experiment_name
        )
        assert _fields(infinite, FUNCTIONAL_FIELDS) != _fields(
            full, FUNCTIONAL_FIELDS
        )
        assert full.prefetches_dropped > infinite.prefetches_dropped

    @pytest.mark.parametrize("name", INVARIANT_WORKLOADS)
    @pytest.mark.parametrize("experiment_name", "EF")
    def test_unbounded_mshrs_restore_one_miss_stream(
        self, invariant_traces, name, experiment_name
    ):
        infinite, full = _infinite_and_full(
            invariant_traces[name],
            experiment_name,
            mshr_count_lockup_free=1 << 30,
        )
        fields = FUNCTIONAL_FIELDS + PREFETCH_FIELDS
        assert _fields(infinite, fields) == _fields(full, fields)
        assert full.prefetches_issued > 0
