"""Single-chip multiprocessors against a fixed pin budget.

The paper's §2.2 argument made measurable: "If one processor loses
performance due to limited pin bandwidth, then multiple processors on a
chip will lose far more performance for the same reason."
:func:`chip_multiprocessor_demand` scales per-core demand bandwidth
against a fixed pin budget.

The §2.1 multithreading argument (threads switching on one shared cache
add misses and traffic) is measured by the scenario mixer:
:func:`repro.scenario.mixer.interleave_weighted` interleaves the threads
onto disjoint address windows and
:func:`repro.scenario.mixer.attribute_traffic` compares the shared
cache's traffic with each thread's solo run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class ChipMultiprocessorPoint:
    """Demand vs supply for one core count."""

    cores: int
    demand_mb_per_s: float
    pin_supply_mb_per_s: float

    @property
    def utilization(self) -> float:
        return self.demand_mb_per_s / self.pin_supply_mb_per_s

    @property
    def bandwidth_bound(self) -> bool:
        return self.demand_mb_per_s > self.pin_supply_mb_per_s


def chip_multiprocessor_demand(
    per_core_traffic_bytes: int,
    per_core_cycles: int,
    clock_mhz: float,
    pin_bandwidth_mb_per_s: float,
    *,
    max_cores: int = 16,
    sharing_penalty: float = 1.15,
) -> list[ChipMultiprocessorPoint]:
    """§2.2's scaling argument, quantified.

    Each additional core adds its full demand bandwidth (plus a shared-
    cache interference penalty per doubling) against a fixed pin budget.
    The returned curve shows where the chip becomes pin-bound.
    """
    if min(per_core_traffic_bytes, per_core_cycles) <= 0:
        raise ConfigurationError("traffic and cycles must be positive")
    if clock_mhz <= 0 or pin_bandwidth_mb_per_s <= 0:
        raise ConfigurationError("clock and pin bandwidth must be positive")
    seconds = per_core_cycles / (clock_mhz * 1e6)
    base_demand = per_core_traffic_bytes / seconds / 1e6  # MB/s
    points = []
    cores = 1
    while cores <= max_cores:
        interference = sharing_penalty ** max(0, cores.bit_length() - 1)
        points.append(
            ChipMultiprocessorPoint(
                cores=cores,
                demand_mb_per_s=base_demand * cores * interference,
                pin_supply_mb_per_s=pin_bandwidth_mb_per_s,
            )
        )
        cores *= 2
    return points
