"""Differential suite for the sampled simulation engine.

The sampled tier's contract is statistical, not bit-exact: every
estimate ships an error envelope, and the *measured* error against the
exact engines must sit inside it. These tests pin that contract across
every registered workload (both suites), plus the exactness, keying,
selection, and refusal properties that let ``--engine sampled`` coexist
with the exact tiers without ever corrupting an exact result.

All seeds are fixed, so the statistical assertions are deterministic:
if they pass once they pass always. The coverage margins were chosen
empirically with room to spare — a failure here means the estimator or
its envelopes regressed, not bad luck.
"""

import io

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.exec import sampling_key, stable_hash
from repro.mem import engines, sampled
from repro.mem.cache import Cache, CacheConfig, CacheStats
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.mem.sampled import SamplingConfig, sample_mask, use_sampling
from repro.trace.model import MemTrace
from repro.workloads.registry import all_workloads

#: Differential-run budget: small enough to keep the suite fast, large
#: enough that a rate-0.1 sample is a real sample.
DIFF_REFS = 40_000
DIFF_RATE = 0.1

#: Large enough that the 64-block capacity floor never raises the rate
#: (64KB MTC = 16K word blocks; 64KB FA-LRU at 32B = 2K blocks).
MTC_SIZE = 65_536
LRU_SIZE = 65_536


def fa_config(size: int = LRU_SIZE, block: int = 32) -> CacheConfig:
    return CacheConfig(
        size_bytes=size, block_bytes=block, associativity=size // block
    )


def make_trace(n: int, seed: int, words: int = 512) -> MemTrace:
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, words, size=n) * 4
    return MemTrace(addrs, rng.random(n) < 0.3, name=f"t{seed}")


# --------------------------------------------------------------------------
# The envelope contract, across every registered workload
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "workload",
    all_workloads(),
    ids=lambda w: f"{w.suite}-{w.name}",
)
def test_mtc_error_within_envelope_all_workloads(workload):
    trace = workload.generate(seed=0, max_refs=DIFF_REFS)
    exact = MinimalTrafficCache(MTCConfig(size_bytes=MTC_SIZE)).simulate(trace)
    with use_sampling(SamplingConfig(DIFF_RATE, seed=0)):
        est = MinimalTrafficCache(MTCConfig(size_bytes=MTC_SIZE)).simulate(
            trace, engine="sampled"
        )
    envelope = est.estimate
    assert envelope is not None
    assert (
        abs(exact.traffic_ratio - envelope.traffic_ratio)
        <= envelope.traffic_ratio_half_width
    )
    assert (
        abs(exact.miss_rate - envelope.miss_rate)
        <= envelope.miss_rate_half_width
    )
    # The scaled stats and the envelope agree by construction.
    assert est.miss_rate == pytest.approx(envelope.miss_rate)
    assert est.traffic_ratio == pytest.approx(envelope.traffic_ratio, rel=0.01)


@pytest.mark.parametrize(
    "workload",
    all_workloads("SPEC92"),
    ids=lambda w: w.name,
)
def test_lru_error_within_envelope(workload):
    trace = workload.generate(seed=0, max_refs=DIFF_REFS)
    config = fa_config()
    exact = Cache(config).simulate(trace)
    with use_sampling(SamplingConfig(DIFF_RATE, seed=0)):
        est = Cache(config).simulate(trace, engine="sampled")
    envelope = est.estimate
    assert envelope is not None
    assert (
        abs(exact.traffic_ratio - envelope.traffic_ratio)
        <= envelope.traffic_ratio_half_width
    )
    assert (
        abs(exact.miss_rate - envelope.miss_rate)
        <= envelope.miss_rate_half_width
    )


def test_access_totals_stay_exact():
    trace = make_trace(5000, seed=2)
    with use_sampling(SamplingConfig(0.2, seed=0)):
        est = MinimalTrafficCache(MTCConfig(size_bytes=MTC_SIZE)).simulate(
            trace, engine="sampled"
        )
    assert est.accesses == len(trace)
    assert est.reads == trace.read_count
    assert est.writes == trace.write_count
    assert 0 <= est.read_hits <= est.reads
    assert 0 <= est.write_hits <= est.writes


# --------------------------------------------------------------------------
# Exactness and determinism
# --------------------------------------------------------------------------


def test_rate_one_is_exact_with_zero_width_envelope():
    trace = make_trace(8000, seed=5)
    exact = MinimalTrafficCache(MTCConfig(size_bytes=MTC_SIZE)).simulate(trace)
    with use_sampling(SamplingConfig(1.0, seed=9)):
        est = MinimalTrafficCache(MTCConfig(size_bytes=MTC_SIZE)).simulate(
            trace, engine="sampled"
        )
    envelope = est.estimate
    assert envelope.rate == 1.0
    assert envelope.traffic_ratio_half_width == 0.0
    assert envelope.miss_rate_half_width == 0.0
    assert est.total_traffic_bytes == exact.total_traffic_bytes
    assert est.misses == exact.misses


def test_capacity_floor_raises_rate_and_caps_at_exact():
    trace = make_trace(8000, seed=5)
    # 4KB MTC = 1024 word blocks: floor 64/1024 beats a 0.01 request.
    with use_sampling(SamplingConfig(0.01, seed=0)):
        est = MinimalTrafficCache(MTCConfig(size_bytes=4096)).simulate(
            trace, engine="sampled"
        )
    assert est.estimate.rate == pytest.approx(64 / 1024, rel=1e-3)
    # 256B MTC = 64 word blocks: the floor hits 1.0, i.e. an exact run.
    exact = MinimalTrafficCache(MTCConfig(size_bytes=256)).simulate(trace)
    with use_sampling(SamplingConfig(0.01, seed=0)):
        tiny = MinimalTrafficCache(MTCConfig(size_bytes=256)).simulate(
            trace, engine="sampled"
        )
    assert tiny.estimate.rate == 1.0
    assert tiny.estimate.traffic_ratio_half_width == 0.0
    assert tiny.total_traffic_bytes == exact.total_traffic_bytes


def test_same_seed_is_deterministic_and_seeds_differ():
    trace = make_trace(20_000, seed=1, words=4096)
    def run(seed):
        with use_sampling(SamplingConfig(DIFF_RATE, seed=seed)):
            return MinimalTrafficCache(
                MTCConfig(size_bytes=MTC_SIZE)
            ).simulate(trace, engine="sampled")

    first, again, other = run(0), run(0), run(7)
    assert first.total_traffic_bytes == again.total_traffic_bytes
    assert first.estimate.traffic_ratio == again.estimate.traffic_ratio
    assert first.estimate.sampled_refs == again.estimate.sampled_refs
    assert first.estimate.sampled_refs != other.estimate.sampled_refs


def test_empty_sample_is_a_loud_error():
    # One lonely block whose hash misses a threshold-of-one sample.
    rate = 1 / (1 << 24)
    for block in range(64):
        addrs = np.full(100, block * 4, dtype=np.int64)
        trace = MemTrace(addrs, np.zeros(100, dtype=bool))
        config = SamplingConfig(rate, seed=0)
        if not sample_mask(trace, 4, config).any():
            break
    else:  # pragma: no cover - 64 misses in a row is astronomically unlikely
        pytest.fail("could not construct an empty sample")
    with use_sampling(config):
        with pytest.raises(SimulationError, match="selected 0 of"):
            # Large capacity so the floor cannot push the rate to 1.
            MinimalTrafficCache(MTCConfig(size_bytes=1 << 22)).simulate(
                trace, engine="sampled"
            )


# --------------------------------------------------------------------------
# Engine selection and refusals
# --------------------------------------------------------------------------


def test_sampled_engine_requires_supported_config():
    trace = make_trace(1000, seed=3)
    set_assoc = CacheConfig(size_bytes=4096, block_bytes=32, associativity=2)
    with use_sampling(SamplingConfig(0.5, seed=0)):
        with pytest.raises(ConfigurationError, match="no sampled engine"):
            Cache(set_assoc).simulate(trace, engine="sampled")
        with pytest.raises(ConfigurationError, match="no sampled engine"):
            # Multi-word MTC blocks are exact-engine territory.
            MinimalTrafficCache(
                MTCConfig(size_bytes=4096, block_bytes=32)
            ).simulate(trace, engine="sampled")


def test_auto_never_samples_without_a_configured_rate():
    assert sampled.sampling_for("auto", 10**12) is None
    assert sampled.sampling_for("sampled", 100) is not None


def test_auto_samples_only_huge_traces(monkeypatch):
    monkeypatch.setattr(sampled, "AUTO_SAMPLED_MIN_REFS", 10_000)
    config = SamplingConfig(0.25, seed=0)
    with use_sampling(config):
        assert sampled.sampling_for("auto", 9_999) is None
        assert sampled.sampling_for("auto", 10_000) == config


def test_auto_with_rate_dispatches_sampled(monkeypatch):
    monkeypatch.setattr(sampled, "AUTO_SAMPLED_MIN_REFS", 1_000)
    trace = make_trace(5000, seed=4)
    with engines.use_engine("auto"), use_sampling(SamplingConfig(0.2, seed=0)):
        est = MinimalTrafficCache(MTCConfig(size_bytes=MTC_SIZE)).simulate(
            trace
        )
    assert est.estimate is not None


def test_auto_falls_back_to_exact_for_unsupported_configs(monkeypatch):
    monkeypatch.setattr(sampled, "AUTO_SAMPLED_MIN_REFS", 1_000)
    trace = make_trace(5000, seed=4)
    config = CacheConfig(size_bytes=4096, block_bytes=32, associativity=2)
    with engines.use_engine("auto"), use_sampling(SamplingConfig(0.2, seed=0)):
        stats = Cache(config).simulate(trace)
    assert stats.estimate is None
    assert stats == Cache(config).simulate(trace)


def test_env_vars_seed_the_initial_sampling(monkeypatch):
    # The module global is read from the environment on first use
    # (mirroring $REPRO_ENGINE); _env_sampling is that reader.
    monkeypatch.setenv("REPRO_SAMPLE_RATE", "0.125")
    monkeypatch.setenv("REPRO_SAMPLE_SEED", "11")
    config = sampled._env_sampling()
    assert config is not None
    assert config.rate == 0.125
    assert config.seed == 11
    monkeypatch.delenv("REPRO_SAMPLE_RATE")
    assert sampled._env_sampling() is None


def test_merge_drops_the_envelope():
    trace = make_trace(4000, seed=6)
    with use_sampling(SamplingConfig(0.25, seed=0)):
        est = MinimalTrafficCache(MTCConfig(size_bytes=MTC_SIZE)).simulate(
            trace, engine="sampled"
        )
    assert est.estimate is not None
    merged = est.merge(CacheStats())
    assert merged.estimate is None


def test_sampling_config_validation():
    with pytest.raises(ConfigurationError):
        SamplingConfig(0.0)
    with pytest.raises(ConfigurationError):
        SamplingConfig(1.5)
    with pytest.raises(ConfigurationError):
        SamplingConfig(float("nan"))
    with pytest.raises(ConfigurationError):
        SamplingConfig(0.5, strata=1)


# --------------------------------------------------------------------------
# Cache-key separation
# --------------------------------------------------------------------------


def test_sampling_key_is_none_for_exact_engines():
    for engine in ("scalar", "vector"):
        with engines.use_engine(engine):
            assert sampling_key() is None
    with engines.use_engine("auto"):
        assert sampling_key() is None  # no rate configured


def test_sampling_key_separates_rates_seeds_and_exact():
    with engines.use_engine("sampled"):
        default = sampling_key()
        assert default is not None
        with use_sampling(SamplingConfig(0.05, seed=1)):
            a = sampling_key()
        with use_sampling(SamplingConfig(0.05, seed=2)):
            b = sampling_key()
        with use_sampling(SamplingConfig(0.1, seed=1)):
            c = sampling_key()
    keys = {stable_hash(material) for material in (default, a, b, c)}
    assert len(keys) == 4  # rate, seed, and default all key apart


def test_the_environment_seed_keys_the_default_sample(monkeypatch):
    monkeypatch.delenv("REPRO_SAMPLE_RATE", raising=False)
    monkeypatch.setenv("REPRO_SAMPLE_SEED", "5")
    with engines.use_engine("sampled"):
        assert sampling_key()["seed"] == 5
        assert sampled.sampling_for("sampled", 100).seed == 5
    # A seed alone configures no rate: ``auto`` stays exact.
    with engines.use_engine("auto"):
        assert sampling_key() is None
    assert sampled.sampling_for("auto", 10**12) is None


def test_sampling_key_under_auto_requires_a_rate():
    with engines.use_engine("auto"):
        with use_sampling(SamplingConfig(0.05, seed=1)):
            assert sampling_key() is not None
        assert sampling_key() is None


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------


def run_cli(*argv: str) -> str:
    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


def test_cli_simulate_sampled_prints_estimates():
    out = run_cli(
        "simulate", "espresso", "--size", "64KB", "--assoc", "2048",
        "--max-refs", "20000", "--engine", "sampled",
        "--sample-rate", "0.2", "--sample-seed", "3",
    )
    assert "± " in out
    assert "(estimate)" in out
    assert "sampled estimate: rate 0.2" in out


def test_cli_simulate_exact_has_no_estimate_markers():
    out = run_cli(
        "simulate", "espresso", "--size", "64KB", "--assoc", "2048",
        "--max-refs", "20000",
    )
    assert "estimate" not in out


def test_cli_rejects_bad_sample_rates():
    from repro.cli import build_parser

    for bad in ("0", "-0.5", "1.5", "nan", "cheap"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "espresso", "--sample-rate", bad]
            )


def test_cli_bench_sampled_runs():
    out = run_cli(
        "experiment", "bench_sampled", "--max-refs", "4000", "--no-cache"
    )
    assert "within" in out
    assert "overall speedup" in out


def test_table8_flags_sampled_estimates():
    from repro.experiments import table8

    exact = table8.run(max_refs=3000, workloads=all_workloads("SPEC92")[:1])
    assert exact.estimated is False
    assert "estimates" not in table8.render(exact)
    with engines.use_engine("sampled"), use_sampling(
        SamplingConfig(0.5, seed=0)
    ):
        est = table8.run(max_refs=3000, workloads=all_workloads("SPEC92")[:1])
    assert est.estimated is True
    assert "estimates" in table8.render(est)
