"""Spatial-sampling simulation engine with error envelopes.

The exact engines cap out near 10^6-10^7 references/second, which keeps
the paper's original 10^8-10^9-reference traces out of reach — the MTC
grid behind Table 8 in particular, whose sequential Belady MIN decisions
resist vectorization. This module implements the classic fix, SHARDS-
style *spatial sampling* (Waldspurger et al.): hash each block address,
keep a reference iff its block's hash falls under a threshold set by the
sampling rate R, and simulate a *miniature* cache of capacity round(C*R)
over the sampled sub-trace. Because both the reference stream and the
capacity shrink by the same factor, the miniature run's stack behaviour
mirrors the full one, and scaling its counts by 1/R yields estimates of
the exact stats.

Two estimators are provided, matching the repo's two exact substrates:

* :func:`simulate_cache_sampled` — fully-associative LRU (write-back,
  write-allocate), through the extended Mattson machinery of
  :func:`repro.trace.mrc.traffic_curve` applied to the sampled
  sub-trace.
* :func:`simulate_mtc_sampled` — the minimal-traffic cache (Belady MIN
  + bypass, write-validate), by running the exact
  :func:`repro.mem.engines.simulate_mtc_fast` kernel on the sampled
  sub-trace at the scaled capacity (MIN is fully associative, so
  miniature simulation applies to it just as it does to LRU).

Every estimate carries a :class:`SamplingEnvelope` (attached as
``CacheStats.estimate``): the point estimate plus a confidence
half-width for the traffic ratio and miss rate. The half-width comes
from a K-stratum **jackknife**: a second, independent slice of the same
block hash splits the sampled blocks into K strata; each
leave-one-stratum-out replicate is re-simulated at capacity
round(C*R*(K-1)/K) and rescaled, and the jackknife standard error
``sqrt((K-1)/K * sum((theta_k - mean)^2))`` is widened by a small
relative guard that covers miniature-capacity rounding bias. The
differential suite (``tests/test_mem_sampled.py``) asserts the measured
|sampled - exact| error stays inside this envelope on every workload.

Sampling is a process-wide configuration like the engine choice, kept in
:mod:`repro.mem.sampling` and re-exported here:
:func:`configure_sampling` / :func:`use_sampling`, the
``REPRO_SAMPLE_RATE`` / ``REPRO_SAMPLE_SEED`` environment variables, or
the CLI's ``--sample-rate`` / ``--sample-seed`` flags. Under
``--engine sampled`` an unconfigured process falls back to
:data:`DEFAULT_SAMPLE_RATE`; under ``auto`` sampling is only ever picked
when a rate was configured explicitly *and* the trace is at least
:data:`AUTO_SAMPLED_MIN_REFS` references (estimates never silently
replace exact numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.mem.cache import (
    AllocatePolicy,
    CacheConfig,
    CacheStats,
    WritePolicy,
)
from repro.mem.engines import mtc_fast_supported, simulate_mtc_fast
from repro.mem.sampling import (  # noqa: F401 (re-exported)
    _SAMPLE_MODULUS,
    DEFAULT_STRATA,
    SamplingConfig,
    _env_sampling,
    _env_seed,
    configure_sampling,
    current_sampling,
    use_sampling,
)
from repro.obs import OBS
from repro.trace.model import MemTrace, WORD_BYTES

__all__ = [
    "DEFAULT_SAMPLE_RATE",
    "DEFAULT_STRATA",
    "AUTO_SAMPLED_MIN_REFS",
    "SamplingConfig",
    "SamplingEnvelope",
    "configure_sampling",
    "current_sampling",
    "default_sampling",
    "use_sampling",
    "sampling_for",
    "sample_mask",
    "cache_sampled_reason",
    "mtc_sampled_reason",
    "simulate_cache_sampled",
    "simulate_mtc_sampled",
]

#: Rate used by ``--engine sampled`` when no rate was configured.
DEFAULT_SAMPLE_RATE = 0.01

#: ``auto`` never samples below this many references: at small scale the
#: exact engines are already fast and estimates would be pure downside.
AUTO_SAMPLED_MIN_REFS = 5_000_000

#: Normal ~99% two-sided quantile for the jackknife CI.
_Z = 2.576

#: Relative guard added to every half-width: covers miniature-capacity
#: rounding (round(C*R) quantization) and the residual bias a variance
#: estimate cannot see. Validated empirically by the differential suite.
_RELATIVE_GUARD = 0.04

#: Absolute floors so degenerate (near-zero) estimates keep a usable CI.
_TRAFFIC_RATIO_FLOOR = 5e-3
_MISS_RATE_FLOOR = 5e-4

#: Minimum miniature-cache size in blocks. Below this the estimate is
#: dominated by capacity-quantization bias (a 51-block MIN cache does
#: not behave like a scaled 1024-block one), so each estimate raises its
#: per-run rate until ``round(C*R) >= _MIN_SCALED_BLOCKS``; at rate 1.0
#: the "sample" is the whole trace and the result is exact (zero-width
#: envelope). Small caches therefore cost more than ``R*n`` work — the
#: price of estimates that stay inside their envelopes.
_MIN_SCALED_BLOCKS = 64


def default_sampling(seed: int | None = None) -> SamplingConfig:
    """The sampling of the sampled engine when no rate is configured: the
    default rate, seeded by *seed*, else by ``$REPRO_SAMPLE_SEED`` (0
    when unset)."""
    if seed is None:
        seed = _env_seed()
    return SamplingConfig(DEFAULT_SAMPLE_RATE, seed=seed)


def sampling_for(selection: str, references: int) -> SamplingConfig | None:
    """The sampling to apply under engine *selection*, or None for exact.

    ``sampled`` always samples (falling back to the default rate);
    ``auto`` samples only when a rate was explicitly configured *and*
    the trace is large enough that exact simulation is the bottleneck.
    """
    configured = current_sampling()
    if selection == "sampled":
        return configured or default_sampling()
    if selection == "auto" and configured is not None:
        if references >= AUTO_SAMPLED_MIN_REFS:
            return configured
    return None


# --------------------------------------------------------------------------
# Block hashing and mask construction
# --------------------------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15


def _block_hash(blocks: np.ndarray, seed: int) -> np.ndarray:
    """SplitMix64 finalizer over block ids, perturbed by *seed*.

    Low bits feed the inclusion threshold, high bits the stratum split —
    one hash pass serves both and the two slices are independent.
    """
    x = blocks.astype(np.uint64)
    x = x * np.uint64(_GOLDEN) + np.uint64((seed * _GOLDEN + 1) & (2**64 - 1))
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def sample_mask(
    trace: MemTrace, block_bytes: int, config: SamplingConfig
) -> np.ndarray:
    """Boolean inclusion mask over *trace* at *block_bytes* granularity."""
    hashes = _block_hash(trace.addresses // block_bytes, config.seed)
    return (hashes & np.uint64(_SAMPLE_MODULUS - 1)) < np.uint64(
        config.threshold
    )


# --------------------------------------------------------------------------
# Error envelope
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SamplingEnvelope:
    """Point estimates and confidence half-widths of one sampled run.

    The contract (validated by the differential suite): with ~99%
    confidence, the exact run's traffic ratio lies within
    ``traffic_ratio ± traffic_ratio_half_width`` and its miss rate
    within ``miss_rate ± miss_rate_half_width``. Half-widths come from a
    leave-one-stratum-out jackknife plus a small relative bias guard.
    """

    rate: float              #: effective (quantized) sampling rate
    seed: int
    strata: int
    sampled_refs: int
    total_refs: int
    traffic_ratio: float
    traffic_ratio_half_width: float
    miss_rate: float
    miss_rate_half_width: float

    def describe(self) -> str:
        return (
            f"sampled estimate: rate {self.rate:g}, seed {self.seed}, "
            f"{self.sampled_refs:,}/{self.total_refs:,} refs, "
            f"{self.strata}-stratum jackknife (~99% CI)"
        )


# --------------------------------------------------------------------------
# Core estimator
# --------------------------------------------------------------------------


def _scaled_capacity(capacity_blocks: int, rate: float) -> int:
    return max(1, round(capacity_blocks * rate))


def _subtrace(trace: MemTrace, keep: np.ndarray, label: str) -> MemTrace:
    sub = MemTrace.__new__(MemTrace)
    addresses = trace.addresses[keep]
    is_write = trace.is_write[keep]
    addresses.setflags(write=False)
    is_write.setflags(write=False)
    # Addresses come pre-aligned from the parent trace, so the private
    # constructor path skips MemTrace's re-validation copy.
    sub._addresses = addresses
    sub._is_write = is_write
    sub.name = label
    return sub


def _estimate(
    trace: MemTrace,
    block_bytes: int,
    capacity_blocks: int,
    sampling: SamplingConfig,
    simulate,
) -> CacheStats:
    """Sampled estimate of ``simulate(full trace, capacity_blocks)``.

    *simulate(subtrace, capacity) -> CacheStats* must be an exact
    miniature run of the target cache at the given (block) capacity.
    """
    n = len(trace)
    if n == 0:
        return CacheStats()
    if round(capacity_blocks * sampling.rate) < _MIN_SCALED_BLOCKS:
        # Capacity floor: keep the miniature cache out of the
        # quantization-bias regime by raising this run's rate.
        floored = min(1.0, _MIN_SCALED_BLOCKS / capacity_blocks)
        sampling = SamplingConfig(
            floored, seed=sampling.seed, strata=sampling.strata
        )
    rate = sampling.effective_rate
    hashes = _block_hash(trace.addresses // block_bytes, sampling.seed)
    keep = (hashes & np.uint64(_SAMPLE_MODULUS - 1)) < np.uint64(
        sampling.threshold
    )
    sampled = int(np.count_nonzero(keep))
    if sampled == 0:
        raise SimulationError(
            f"spatial sample at rate {sampling.rate:g} selected 0 of "
            f"{n:,} references; raise the rate or change the seed"
        )
    label = f"{trace.name}~sampled" if trace.name else "~sampled"
    sub = _subtrace(trace, keep, label)
    strata = (hashes[keep] >> np.uint64(32)) % np.uint64(sampling.strata)

    point = simulate(sub, _scaled_capacity(capacity_blocks, rate))
    request_bytes = n * WORD_BYTES
    ratio_point = point.total_traffic_bytes / rate / request_bytes

    # Misses and traffic are *block-additive*: each sampled block
    # contributes its own misses/bytes, so dividing by R is unbiased and
    # low-variance. Hits are dense per-reference counts whose sampled
    # fraction wanders far from R on skewed traces — never scale them;
    # derive hits as (exact totals − scaled misses) instead.
    reads = trace.read_count
    writes = trace.write_count

    def scaled(value: int) -> int:
        return round(value / rate)

    read_misses = min(reads, scaled(point.reads - point.read_hits))
    write_misses = min(writes, scaled(point.writes - point.write_hits))
    miss_point = (read_misses + write_misses) / n

    # Leave-one-stratum-out jackknife. Strata come from an independent
    # slice of the block hash, so each replicate is itself an unbiased
    # spatial sample at rate R*(K-1)/K. At rate 1.0 (capacity floor hit
    # the ceiling) the "sample" is the whole trace: the point run is
    # exact and the envelope collapses to zero width.
    k = sampling.strata
    ratio_reps = []
    miss_reps = []
    if rate < 1.0:
        for leave_out in range(k):
            rep_keep = strata != leave_out
            rep_rate = rate * (k - 1) / k
            rep = simulate(
                _subtrace(sub, rep_keep, label),
                _scaled_capacity(capacity_blocks, rep_rate),
            )
            ratio_reps.append(
                rep.total_traffic_bytes / rep_rate / request_bytes
            )
            miss_reps.append(min(1.0, rep.misses / rep_rate / n))

    def half_width(reps: list[float], center: float, floor: float) -> float:
        if not reps:
            return 0.0
        mean = sum(reps) / k
        variance = sum((value - mean) ** 2 for value in reps)
        se = math.sqrt((k - 1) / k * variance)
        return _Z * se + _RELATIVE_GUARD * abs(center) + floor

    envelope = SamplingEnvelope(
        rate=rate,
        seed=sampling.seed,
        strata=k,
        sampled_refs=sampled,
        total_refs=n,
        traffic_ratio=ratio_point,
        traffic_ratio_half_width=half_width(
            ratio_reps, ratio_point, _TRAFFIC_RATIO_FLOOR
        ),
        miss_rate=miss_point,
        miss_rate_half_width=half_width(
            miss_reps, miss_point, _MISS_RATE_FLOOR
        ),
    )

    # Scale the miniature counts back to full-trace magnitudes. Access
    # totals are known exactly; the hit counts are derived from the
    # scaled miss estimates so stats.miss_rate equals the envelope's
    # miss-rate estimate by construction.
    stats = CacheStats(
        accesses=n,
        reads=reads,
        writes=writes,
        read_hits=reads - read_misses,
        write_hits=writes - write_misses,
        fetch_bytes=scaled(point.fetch_bytes),
        writeback_bytes=scaled(point.writeback_bytes),
        writethrough_bytes=scaled(point.writethrough_bytes),
        flush_writeback_bytes=scaled(point.flush_writeback_bytes),
        estimate=envelope,
    )
    if OBS.enabled:
        OBS.count("sampled.estimates")
        OBS.count("sampled.refs", sampled)
    return stats


# --------------------------------------------------------------------------
# Public engine entry points
# --------------------------------------------------------------------------


def cache_sampled_reason(config: CacheConfig, listener=None) -> str | None:
    """Why *config* cannot use the sampled cache engine (None = it can).

    Miniature simulation needs the capacity to be scalable by R, which
    holds for fully-associative stacks (LRU, and MIN via the MTC) but
    not for set-indexed caches, where shrinking the capacity changes the
    set mapping rather than the per-set competition.
    """
    if listener is not None:
        return "traffic listeners require the per-access scalar loop"
    if not config.is_fully_associative:
        return (
            "spatial sampling estimates fully-associative caches only "
            f"(got {config.num_sets} sets)"
        )
    if config.replacement != "lru":
        return (
            f"{config.replacement!r} replacement has no sampled Mattson "
            "machinery (LRU only)"
        )
    if config.write_policy is not WritePolicy.WRITEBACK:
        return "the sampled traffic curve covers write-back caches only"
    if config.allocate is not AllocatePolicy.WRITE_ALLOCATE:
        return (
            "the sampled traffic curve covers write-allocate caches only"
        )
    return None


def mtc_sampled_reason(config) -> str | None:
    """Why *config* cannot use the sampled MTC engine (None = it can)."""
    return mtc_fast_supported(config)


def simulate_cache_sampled(
    config: CacheConfig,
    trace: MemTrace,
    *,
    flush: bool = True,
    sampling: SamplingConfig | None = None,
) -> CacheStats:
    """Sampled fully-associative LRU estimate with an error envelope.

    Runs the extended Mattson pass (:func:`repro.trace.mrc.traffic_curve`)
    over the spatially-sampled sub-trace and reads the stats at the
    R-scaled capacity; all counts are rescaled by 1/R and the returned
    stats carry a :class:`SamplingEnvelope` in ``estimate``.
    """
    from repro.trace.mrc import traffic_curve

    reason = cache_sampled_reason(config)
    if reason is not None:
        raise ConfigurationError(
            f"no sampled engine for {config.describe()}: {reason}"
        )
    if sampling is None:
        sampling = current_sampling() or default_sampling()

    def miniature(sub: MemTrace, capacity: int) -> CacheStats:
        curve = traffic_curve(sub, block_bytes=config.block_bytes)
        return curve.stats_at(capacity, flush=flush)

    return _estimate(
        trace, config.block_bytes, config.num_blocks, sampling, miniature
    )


@dataclass(frozen=True, slots=True)
class _ScaledMTC:
    """Duck-typed MTC configuration at a non-power-of-two capacity.

    ``MTCConfig`` insists on power-of-two sizes; the R-scaled miniature
    capacity is almost never one, so the miniature runs hand the fast
    kernel this shim instead (it only reads the fields below).
    """

    capacity_blocks: int
    block_bytes: int
    allocate: AllocatePolicy
    bypass: bool

    @property
    def words_per_block(self) -> int:
        return self.block_bytes // WORD_BYTES

    def describe(self) -> str:
        return f"MTC~sampled {self.capacity_blocks} blocks"


def simulate_mtc_sampled(
    config,
    trace: MemTrace,
    *,
    flush: bool = True,
    sampling: SamplingConfig | None = None,
) -> CacheStats:
    """Sampled minimal-traffic-cache estimate with an error envelope.

    MIN is fully associative, so miniature simulation applies: the exact
    :func:`~repro.mem.engines.simulate_mtc_fast` kernel runs over the
    sampled sub-trace at capacity round(C*R), and the counts scale back
    by 1/R. *config* is an :class:`~repro.mem.mtc.MTCConfig`.
    """
    reason = mtc_sampled_reason(config)
    if reason is not None:
        raise ConfigurationError(
            f"no sampled engine for {config.describe()}: {reason}"
        )
    if sampling is None:
        sampling = current_sampling() or default_sampling()

    def miniature(sub: MemTrace, capacity: int) -> CacheStats:
        shim = _ScaledMTC(
            capacity_blocks=capacity,
            block_bytes=config.block_bytes,
            allocate=config.allocate,
            bypass=config.bypass,
        )
        return simulate_mtc_fast(shim, sub, flush=flush)

    return _estimate(
        trace,
        config.block_bytes,
        config.capacity_blocks,
        sampling,
        miniature,
    )
