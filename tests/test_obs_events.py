"""Tests for the Instrumentation facade and seeded determinism."""

import pytest

from repro.mem.cache import Cache, CacheConfig
from repro.obs import (
    OBS,
    Instrumentation,
    MetricsRegistry,
    instrumented,
)
from repro.workloads import get_workload


class TestInstrumentationFacade:
    def test_disabled_by_default_and_noop(self):
        inst = Instrumentation()
        assert inst.enabled is False
        inst.count("n")  # no-op, nothing registered
        assert inst.registry.counter_values() == {}

    def test_enabled_counts(self):
        inst = Instrumentation(enabled=True)
        inst.count("n", 2)
        inst.count("n")
        assert inst.registry.counter_values() == {"n": 3}

    def test_global_facade_starts_disabled(self):
        assert OBS.enabled is False

    def test_instrumented_restores_previous_state(self):
        before = (OBS.registry, OBS.enabled)
        with instrumented() as active:
            assert active is OBS
            assert OBS.enabled is True
        assert (OBS.registry, OBS.enabled) == before

    def test_nested_block_restores_the_outer_registry(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with instrumented(registry=outer):
            OBS.count("outer.before")
            with instrumented(registry=inner):
                OBS.count("inner")
            OBS.count("outer.after")  # the outer registry is back
        assert outer.counter_values() == {"outer.before": 1, "outer.after": 1}
        assert inner.counter_values() == {"inner": 1}

    def test_state_restored_even_when_the_block_raises(self):
        before = OBS.registry
        with pytest.raises(RuntimeError):
            with instrumented():
                raise RuntimeError("boom")
        assert OBS.registry is before
        assert OBS.enabled is False


class TestSimulatorIntegration:
    """The hooks actually fire: counters and timers from a real run."""

    def _trace(self, seed=3, refs=4000):
        return get_workload("Espresso").generate(seed=seed, max_refs=refs)

    def _config(self):
        return CacheConfig(size_bytes=2048, block_bytes=32, associativity=2)

    def test_cache_simulate_records_counters(self):
        trace = self._trace()
        with instrumented():
            stats = Cache(self._config()).simulate(trace, engine="scalar")
            counters = OBS.registry.counter_values()
        assert counters["cache.simulations"] == 1
        assert counters["cache.accesses"] == stats.accesses
        assert counters["cache.misses"] == stats.misses
        assert counters["cache.fetch_bytes"] == stats.fetch_bytes

    def test_backwards_clock_step_is_clamped(self, monkeypatch):
        """A wall clock stepping back mid-run must not crash the run:
        the duration is clamped at zero, not rejected as negative."""
        import types

        import repro.mem.cache as cache_module

        stamps = iter(range(1000, 0, -1))
        stepping = types.SimpleNamespace(time=lambda: next(stamps))
        monkeypatch.setattr(cache_module, "time", stepping)
        with instrumented():
            stats = Cache(self._config()).simulate(self._trace())
            timers = OBS.registry.snapshot()["timers"]
        assert stats.accesses > 0
        (name,) = [name for name in timers if name.startswith("sim.cache.")]
        assert timers[name]["count"] == 1
        assert timers[name]["total_s"] == 0.0

    def test_machine_run_records_mode_timers(self):
        """perfbench reads T_P/T_I/T wall time off these snapshot keys."""
        from repro.cpu.configs import experiment
        from repro.cpu.itrace import instruction_trace_for_workload
        from repro.cpu.machine import Machine

        workload = get_workload("Li")
        trace = instruction_trace_for_workload(workload, seed=0, max_refs=2000)
        with instrumented():
            Machine(experiment("A", "SPEC92"), scale=workload.scale).run(trace)
            timers = OBS.registry.snapshot()["timers"]
        for mode in ("perfect", "infinite", "full"):
            assert timers[f"machine.mode.{mode}"]["count"] == 1
        assert timers["machine.mode.full"]["total_s"] > 0

    def test_disabled_run_touches_nothing(self):
        registry_before = OBS.registry
        stats = Cache(self._config()).simulate(self._trace())
        assert stats.accesses > 0
        assert OBS.registry is registry_before
        assert OBS.registry.counter_values() == {}

    def test_seeded_runs_are_deterministic(self):
        """Two identically-seeded runs: identical counters."""

        def one_run():
            with instrumented():
                Cache(self._config()).simulate(self._trace(), engine="scalar")
                return OBS.registry.counter_values()

        first_counters = one_run()
        assert first_counters == one_run()
        assert first_counters["cache.misses"]  # the comparison is not vacuous

    def test_decompose_run_is_deterministic(self):
        """Timing-layer counters (buses, MSHRs, cores) reproduce exactly."""
        from repro.cpu.configs import experiment
        from repro.cpu.machine import decompose_experiment

        workload = get_workload("Li")

        def one_run():
            with instrumented():
                decompose_experiment(
                    workload, experiment("A", "SPEC92"), seed=0, max_refs=2000
                )
                return OBS.registry.counter_values()

        first_counters = one_run()
        assert first_counters == one_run()
        assert first_counters["core.runs"] == 3  # T_P, T_I and T
        assert first_counters["core.cycles"] > 0
