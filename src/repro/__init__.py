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

Importing ``repro`` loads none of these layers: each name in ``__all__``
imports its module on first use, so a command loads only what it runs.

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

from repro.util import lazy_exports

__version__ = "1.0.0"

#: The public API: each module with the names ``repro`` re-exports from
#: it. Importing ``repro`` loads none of them; a name's module loads on
#: first use (PEP 562).
_EXPORTS = {
    "repro.errors": (
        "ReproError",
        "ConfigurationError",
        "SimulationError",
        "TraceError",
        "WorkloadError",
    ),
    # traces and workloads
    "repro.trace.model": ("MemRecord", "MemTrace", "WORD_BYTES"),
    "repro.workloads.registry": (
        "all_workloads",
        "get_workload",
        "workload_names",
    ),
    # caches
    "repro.mem.cache": (
        "Cache",
        "CacheConfig",
        "CacheStats",
        "WritePolicy",
        "AllocatePolicy",
    ),
    "repro.mem.hierarchy": ("TraceHierarchy", "HierarchyResult"),
    "repro.mem.mtc": (
        "MinimalTrafficCache",
        "MTCConfig",
        "minimal_traffic_bytes",
    ),
    # observability
    "repro.obs": ("OBS", "Instrumentation", "MetricsRegistry"),
    # metrics
    "repro.core.decomposition": ("ExecutionDecomposition", "decompose"),
    "repro.core.traffic": (
        "traffic_ratio",
        "traffic_inefficiency",
        "measure_inefficiency",
        "effective_pin_bandwidth",
        "optimal_effective_pin_bandwidth",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["__version__", *(n for names in _EXPORTS.values() for n in names)]
