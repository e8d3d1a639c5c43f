"""Tests for event sinks, the Instrumentation facade, and determinism."""

import io
import json

import pytest

from repro.mem.cache import Cache, CacheConfig
from repro.obs import (
    OBS,
    Instrumentation,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    MultiSink,
    NullSink,
    StderrSink,
    instrumented,
)
from repro.workloads import get_workload


class TestSinks:
    def test_null_sink_is_disabled(self):
        sink = NullSink()
        assert sink.enabled is False
        sink.emit({"kind": "x"})  # swallowed, no error

    def test_memory_sink_collects_and_filters(self):
        sink = MemorySink()
        sink.emit({"kind": "a", "seq": 1})
        sink.emit({"kind": "b", "seq": 2})
        assert len(sink.events) == 2
        assert sink.of_kind("a") == [{"kind": "a", "seq": 1}]

    def test_jsonl_sink_writes_sorted_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        sink.emit({"kind": "cache.evict", "seq": 1, "block": 7})
        sink.close()
        line = path.read_text().strip()
        assert line == '{"block": 7, "kind": "cache.evict", "seq": 1}'
        assert json.loads(line)["block"] == 7

    def test_jsonl_sink_on_stream_does_not_close_it(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit({"kind": "x", "seq": 1})
        sink.close()
        assert not stream.closed
        assert stream.getvalue().endswith("\n")

    def test_stderr_sink_formats_key_values(self):
        stream = io.StringIO()
        sink = StderrSink(stream)
        sink.emit({"kind": "core.run", "seq": 3, "cycles": 10})
        text = stream.getvalue()
        assert "core.run" in text
        assert "cycles=10" in text
        assert text.startswith("[repro]")

    def test_multi_sink_fans_out(self):
        first, second = MemorySink(), MemorySink()
        multi = MultiSink([first, second])
        multi.emit({"kind": "x", "seq": 1})
        assert first.events == second.events == [{"kind": "x", "seq": 1}]


class TestInstrumentationFacade:
    def test_disabled_by_default_and_noop(self):
        inst = Instrumentation()
        assert inst.enabled is False
        inst.count("n")  # no-op, nothing registered
        inst.emit("kind", a=1)
        assert inst.registry.counter_values() == {}

    def test_enabled_counts_and_emits(self):
        sink = MemorySink()
        inst = Instrumentation(sink=sink, enabled=True)
        inst.count("n", 2)
        inst.emit("kind.a", value=5)
        inst.emit("kind.b")
        assert inst.registry.counter_values() == {"n": 2}
        assert [e["seq"] for e in sink.events] == [1, 2]
        assert sink.events[0] == {"seq": 1, "kind": "kind.a", "value": 5}

    def test_emit_skips_event_construction_for_null_sink(self):
        inst = Instrumentation(enabled=True)  # NullSink
        inst.emit("kind", a=1)
        assert inst._seq == 0  # sequence untouched: nothing was built

    def test_global_facade_starts_disabled(self):
        assert OBS.enabled is False
        assert isinstance(OBS.sink, NullSink)

    def test_instrumented_restores_previous_state(self):
        before = (OBS.registry, OBS.sink, OBS.enabled)
        with instrumented(sink=MemorySink()) as active:
            assert active is OBS
            assert OBS.enabled is True
        assert (OBS.registry, OBS.sink, OBS.enabled) == before

    def test_nested_block_leaves_outer_sink_writable(self, tmp_path):
        path = tmp_path / "events.jsonl"
        inner = MemorySink()
        with instrumented(sink=JsonlSink(str(path))):
            OBS.emit("outer.before")
            with instrumented(sink=inner):
                OBS.emit("inner")
            OBS.emit("outer.after")  # the outer file is still open
        lines = path.read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["outer.before", "outer.after"]
        assert [event["kind"] for event in inner.events] == ["inner"]

    def test_given_sink_closed_even_when_the_block_raises(self):
        class ClosableSink(MemorySink):
            closed = False

            def close(self):
                self.closed = True

        sink = ClosableSink()
        with pytest.raises(RuntimeError):
            with instrumented(sink=sink):
                raise RuntimeError("boom")
        assert sink.closed
        assert OBS.enabled is False


class TestSimulatorIntegration:
    """The hooks actually fire: counters and events from a real run."""

    def _trace(self, seed=3, refs=4000):
        return get_workload("Espresso").generate(seed=seed, max_refs=refs)

    def _config(self):
        # Two-way; runs that check per-eviction events ask for the
        # per-access path (engine="scalar"), the only one that emits them.
        return CacheConfig(size_bytes=2048, block_bytes=32, associativity=2)

    def test_cache_simulate_records_counters_and_events(self):
        trace = self._trace()
        sink = MemorySink()
        with instrumented(sink=sink):
            stats = Cache(self._config()).simulate(trace, engine="scalar")
            counters = OBS.registry.counter_values()
        assert counters["cache.simulations"] == 1
        assert counters["cache.accesses"] == stats.accesses
        assert counters["cache.misses"] == stats.misses
        runs = sink.of_kind("cache.simulate")
        assert len(runs) == 1
        assert runs[0]["traffic_bytes"] == stats.total_traffic_bytes
        assert sink.of_kind("cache.evict")  # evictions happened and traced

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
        """Two identically-seeded runs: identical counters AND events."""

        def one_run():
            sink = MemorySink()
            with instrumented(sink=sink):
                Cache(self._config()).simulate(self._trace(), engine="scalar")
                counters = OBS.registry.counter_values()
            return counters, sink.events

        first_counters, first_events = one_run()
        second_counters, second_events = one_run()
        assert first_counters == second_counters
        assert first_events == second_events
        assert first_events  # the comparison is not vacuous

    def test_decompose_run_is_deterministic(self):
        """Timing-layer events (buses, MSHRs, cores) reproduce exactly."""
        from repro.cpu.configs import experiment
        from repro.cpu.machine import decompose_experiment

        workload = get_workload("Li")

        def one_run():
            sink = MemorySink()
            with instrumented(sink=sink):
                decompose_experiment(
                    workload, experiment("A", "SPEC92"), seed=0, max_refs=2000
                )
                counters = OBS.registry.counter_values()
            return counters, sink.events

        first_counters, first_events = one_run()
        second_counters, second_events = one_run()
        assert first_counters == second_counters
        assert first_events == second_events
        kinds = {event["kind"] for event in first_events}
        assert "core.run" in kinds
        assert "machine.result" in kinds
