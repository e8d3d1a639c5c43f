"""Memory-hierarchy substrate.

Trace-driven functional cache models (:mod:`repro.mem.cache`,
:mod:`repro.mem.mtc`) reproduce the paper's DineroIII and minimal-traffic-
cache measurements; :mod:`repro.mem.engines` holds their vectorized
simulation kernels plus the process-wide engine selection
(``auto``/``scalar``/``vector``/``sampled``); :mod:`repro.mem.sampled`
is the sampled tier — spatial reference sampling with error envelopes
for paper-scale traces; the timing-side memory system (:mod:`repro.mem.timing`
— buses, MSHRs, prefetch) serves the execution-time decomposition
experiments. Extension mechanisms from the paper's Sections 5.3/6 live in
:mod:`repro.mem.bypass` (Tyson-style selective caching),
:mod:`repro.mem.flexible` (the paper's proposed software-controlled
transfer sizes),
:mod:`repro.mem.sector` (Hill-Smith subblock caches),
:mod:`repro.mem.writeaware` (write-aware minimal replacement),
:mod:`repro.mem.prefetch` (tagged/stride/stream-buffer schemes),
:mod:`repro.mem.compression` (address-bus compression), and
:mod:`repro.mem.interference` (chip-multiprocessor bandwidth pressure).
"""

from repro.mem.cache import Cache, CacheConfig, CacheStats, WritePolicy, AllocatePolicy
from repro.mem.engines import (
    ENGINE_CHOICES,
    current_engine,
    direct_mapped_family,
    fully_associative_lru_family,
    prepare_mtc,
    resolve_engine,
    set_engine,
    use_engine,
)
from repro.mem.hierarchy import HierarchyResult, TraceHierarchy
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.mem.sampled import (
    SamplingConfig,
    SamplingEnvelope,
    configure_sampling,
    current_sampling,
    use_sampling,
)
from repro.mem.bypass import BypassCache, BypassCacheConfig, bypass_benefit
from repro.mem.compression import (
    BaseRegisterCache,
    BaseRegisterCacheConfig,
    evaluate_address_compression,
)
from repro.mem.flexible import (
    FlexibleCache,
    FlexibleCacheConfig,
    RegionPolicy,
    flexible_gain,
    tune_regions,
)
from repro.mem.interference import chip_multiprocessor_demand
from repro.mem.policies import (
    FIFOPolicy,
    LRUPolicy,
    MINPolicy,
    RandomPolicy,
    make_policy,
)
from repro.mem.prefetch import (
    StreamBufferPrefetcher,
    StridePrefetcher,
    TaggedPrefetcher,
    evaluate_prefetcher,
)
from repro.mem.sector import SectorCache, SectorCacheConfig, hill_smith_tradeoff
from repro.mem.smart import (
    OffloadReport,
    offload_candidates,
    offload_saving,
    traffic_by_region,
)
from repro.mem.victim import VictimCache, VictimCacheConfig, victim_benefit
from repro.mem.writeaware import WriteAwareConfig, WriteAwareMTC, write_aware_gap

__all__ = [
    "Cache",
    "WritePolicy",
    "AllocatePolicy",
    "CacheConfig",
    "CacheStats",
    "ENGINE_CHOICES",
    "current_engine",
    "set_engine",
    "use_engine",
    "resolve_engine",
    "direct_mapped_family",
    "fully_associative_lru_family",
    "prepare_mtc",
    "SamplingConfig",
    "SamplingEnvelope",
    "configure_sampling",
    "current_sampling",
    "use_sampling",
    "TraceHierarchy",
    "HierarchyResult",
    "MinimalTrafficCache",
    "MTCConfig",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "MINPolicy",
    "make_policy",
    "BypassCache",
    "BypassCacheConfig",
    "bypass_benefit",
    "FlexibleCache",
    "FlexibleCacheConfig",
    "RegionPolicy",
    "flexible_gain",
    "tune_regions",
    "BaseRegisterCache",
    "BaseRegisterCacheConfig",
    "evaluate_address_compression",
    "chip_multiprocessor_demand",
    "TaggedPrefetcher",
    "StridePrefetcher",
    "StreamBufferPrefetcher",
    "evaluate_prefetcher",
    "SectorCache",
    "SectorCacheConfig",
    "hill_smith_tradeoff",
    "OffloadReport",
    "offload_candidates",
    "offload_saving",
    "traffic_by_region",
    "VictimCache",
    "VictimCacheConfig",
    "victim_benefit",
    "WriteAwareMTC",
    "WriteAwareConfig",
    "write_aware_gap",
]
