"""Figure 5: the unified processor/DRAM system, evaluated.

The paper closes with a prediction: "off-chip communication [will become]
so expensive that all of the system memory resides on the processor chip
(or module)", sketching a die with SRAM cache banks distributed among
on-chip DRAM banks (Figure 5). This experiment quantifies the claim with
the timing model: the same aggressive processor (experiment F) runs

* **conventional** — the paper's Table 4 memory system: off-chip L2 and
  DRAM behind narrow, slow-clocked buses (pin crossings), and
* **unified**     — on-chip DRAM: the same DRAM access latency, but the
  interconnect is an on-die bus (cache-line wide, full clock rate, no
  pin crossing) and there is no separate L2 — the DRAM banks are the
  second level.

The decomposition shows where the win comes from: the bandwidth-stall
fraction collapses while raw DRAM latency remains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decomposition import ExecutionDecomposition
from repro.cpu.configs import ExperimentConfig, experiment
from repro.cpu.itrace import instruction_trace_for_workload
from repro.cpu.machine import Machine
from repro.mem.cache import CacheConfig
from repro.mem.timing import BusSpec, TimingMemoryParams
from repro.workloads.base import DEFAULT_SCALE
from repro.workloads.registry import get_workload


@dataclass(frozen=True, slots=True)
class Figure5Row:
    benchmark: str
    conventional: ExecutionDecomposition
    unified: ExecutionDecomposition

    @property
    def speedup(self) -> float:
        return self.conventional.cycles_full / self.unified.cycles_full


@dataclass(slots=True)
class Figure5Result:
    rows: list[Figure5Row]


def unified_memory_params(
    config: ExperimentConfig, scale: float = DEFAULT_SCALE
) -> TimingMemoryParams:
    """The on-chip-DRAM variant of an experiment's memory system.

    The DRAM core latency is unchanged (it is intrinsic, not a bandwidth
    artifact); what changes is the path: a cache-line-wide on-die bus at
    the processor clock with no address-multiplexing overhead, and the
    DRAM banks reachable directly behind the L1 (no discrete L2 chip).
    """
    base = config.timing_memory_params(scale)
    on_chip_dram = CacheConfig(
        size_bytes=1 << 26,  # effectively all of memory, on die
        block_bytes=base.l2_config.block_bytes,
        associativity=base.l2_config.associativity,
        name="on-chip DRAM",
    )
    wide_on_die = BusSpec(
        width_bytes=base.l1_config.block_bytes,
        proc_cycles_per_beat=1,
        overhead_beats=0,
    )
    return TimingMemoryParams(
        l1_config=base.l1_config,
        l2_config=on_chip_dram,
        l1_l2_bus=wide_on_die,
        l2_mem_bus=wide_on_die,
        l1_hit_cycles=base.l1_hit_cycles,
        # The DRAM bank answers directly: one access at memory latency.
        l2_access_cycles=base.memory_access_cycles,
        memory_access_cycles=base.memory_access_cycles,
        mshr_count=base.mshr_count,
        tagged_prefetch=base.tagged_prefetch,
    )


def run(
    *,
    benchmarks: tuple[str, ...] = ("Swm", "Tomcatv", "Compress"),
    scale: float = DEFAULT_SCALE,
    max_refs: int | None = 10_000,
    seed: int = 0,
) -> Figure5Result:
    """Compare conventional vs unified systems under experiment F."""
    config = experiment("F", "SPEC92")
    rows = []
    for name in benchmarks:
        workload = get_workload(name, scale=scale)
        itrace = instruction_trace_for_workload(
            workload, seed=seed, max_refs=max_refs
        )
        conventional = Machine(config, scale=scale).run(itrace).decomposition
        unified = Machine(
            config,
            scale=scale,
            memory_params=unified_memory_params(config, scale),
        ).run(itrace).decomposition
        rows.append(
            Figure5Row(
                benchmark=name, conventional=conventional, unified=unified
            )
        )
    return Figure5Result(rows=rows)


def render(result: Figure5Result) -> str:
    from repro.util import format_table

    headers = [
        "Benchmark",
        "conv f_L",
        "conv f_B",
        "unified f_L",
        "unified f_B",
        "speedup",
    ]
    body = [
        [
            row.benchmark,
            f"{row.conventional.f_l:.2f}",
            f"{row.conventional.f_b:.2f}",
            f"{row.unified.f_l:.2f}",
            f"{row.unified.f_b:.2f}",
            f"{row.speedup:.2f}x",
        ]
        for row in result.rows
    ]
    return (
        "Figure 5: conventional vs unified processor/DRAM (experiment F)\n"
        + format_table(headers, body)
    )
