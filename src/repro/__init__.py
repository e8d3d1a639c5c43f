"""repro — a reproduction of Burger, Goodman & Kägi, *Memory Bandwidth
Limitations of Future Microprocessors* (ISCA 1996).

The library provides four layers:

* :mod:`repro.trace` / :mod:`repro.workloads` — memory-trace containers and
  synthetic SPEC92/SPEC95 benchmark models;
* :mod:`repro.mem` — trace-driven cache simulators (the DineroIII stand-in),
  the Belady-MIN minimal-traffic cache, and the timing-side memory system
  (buses, MSHRs, prefetch);
* :mod:`repro.cpu` — in-order and RUU out-of-order timing cores and the
  experiment configurations of the paper's Tables 4-5;
* :mod:`repro.core` — the paper's metrics: execution-time decomposition
  (f_P, f_L, f_B), traffic ratio, traffic inefficiency, effective pin
  bandwidth, physical pin trends, and I/O-complexity growth models.

:mod:`repro.experiments` regenerates every table and figure of the paper's
evaluation; see DESIGN.md for the per-experiment index.
:mod:`repro.obs` is the cross-cutting instrumentation layer — metrics
registry, span tracing, and the experiment profiler behind
``python -m repro profile`` (see docs/observability.md).

Quickstart::

    from repro import Cache, CacheConfig, MinimalTrafficCache, MTCConfig
    from repro.workloads import get_workload

    trace = get_workload("Compress").generate(seed=1)
    cache = Cache(CacheConfig(size_bytes=16 * 1024, block_bytes=32))
    stats = cache.simulate(trace)
    print(stats.traffic_ratio)   # the paper's R
    mtc = MinimalTrafficCache(MTCConfig(size_bytes=16 * 1024))
    print(stats.total_traffic_bytes / mtc.simulate(trace).total_traffic_bytes)  # G
"""

from repro.core.decomposition import ExecutionDecomposition, decompose
from repro.core.traffic import (
    effective_pin_bandwidth,
    measure_inefficiency,
    optimal_effective_pin_bandwidth,
    traffic_inefficiency,
    traffic_ratio,
)
from repro.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
    WorkloadError,
)
from repro.mem.cache import (
    AllocatePolicy,
    Cache,
    CacheConfig,
    CacheStats,
    WritePolicy,
)
from repro.mem.hierarchy import HierarchyResult, TraceHierarchy
from repro.mem.mtc import MinimalTrafficCache, MTCConfig, minimal_traffic_bytes
from repro.obs import OBS, Instrumentation, MetricsRegistry
from repro.trace.model import MemRecord, MemTrace, WORD_BYTES
from repro.workloads import all_workloads, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "TraceError",
    "WorkloadError",
    # traces and workloads
    "MemRecord",
    "MemTrace",
    "WORD_BYTES",
    "all_workloads",
    "get_workload",
    "workload_names",
    # caches
    "Cache",
    "CacheConfig",
    "CacheStats",
    "WritePolicy",
    "AllocatePolicy",
    "TraceHierarchy",
    "HierarchyResult",
    "MinimalTrafficCache",
    "MTCConfig",
    "minimal_traffic_bytes",
    # observability
    "OBS",
    "Instrumentation",
    "MetricsRegistry",
    # metrics
    "ExecutionDecomposition",
    "decompose",
    "traffic_ratio",
    "traffic_inefficiency",
    "measure_inefficiency",
    "effective_pin_bandwidth",
    "optimal_effective_pin_bandwidth",
]
