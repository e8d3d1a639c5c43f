"""Tests for the metrics registry (counters, gauges, timers, snapshots)."""

import threading
import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.obs import OBS, instrumented
from repro.obs.hist import Histogram
from repro.obs.registry import Counter, Gauge, MetricsRegistry


def timer_of(*samples: float) -> Histogram:
    timer = MetricsRegistry().timer("t")
    for seconds in samples:
        timer.observe(seconds)
    return timer


class TestPercentile:
    """The timer's percentile estimate (interpolated within a bucket)."""

    def test_median_of_even_count(self):
        assert timer_of(1.0, 2.0, 3.0, 4.0).snapshot()["p50_s"] == 2.0

    def test_p0_is_min_p100_is_max(self):
        timer = timer_of(5.0, 1.0, 3.0)
        assert timer.quantile(0) == 1.0
        assert timer.quantile(100) == 5.0

    def test_single_sample(self):
        snapshot = timer_of(7.0).snapshot()
        assert snapshot["p50_s"] == snapshot["p99_s"] == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            timer_of().quantile(50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ConfigurationError):
            timer_of(1.0).quantile(101)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestGauge:
    def test_last_value_wins(self):
        gauge = Gauge("occupancy")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestTimer:
    def test_observe_and_summary(self):
        timer = timer_of(0.1, 0.2, 0.3, 0.4)
        summary = timer.snapshot()
        # count and total are exact; the percentiles are estimates that
        # never leave the observed range.
        assert summary["count"] == 4
        assert summary["total_s"] == pytest.approx(1.0)
        assert summary["mean_s"] == pytest.approx(0.25)
        assert summary["min_s"] == pytest.approx(0.1)
        assert summary["max_s"] == pytest.approx(0.4)
        assert 0.1 <= summary["p50_s"] <= summary["p95_s"] <= 0.4
        assert summary["p95_s"] <= summary["p99_s"] <= 0.4

    def test_empty_summary(self):
        assert timer_of().snapshot() == {"count": 0, "total_s": 0.0}

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            timer_of(-0.1)

    def test_memory_stays_bounded(self):
        """A long-lived server observes forever: 10^5 samples must not
        cost memory per sample (a sample-keeping timer grew 3.2 MB)."""
        with instrumented():
            OBS.observe("serve.batch.time", 0.001)  # create the timer
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for index in range(100_000):
                    OBS.observe("serve.batch.time", index * 1e-6)
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert OBS.registry.timer("serve.batch.time").count == 100_001
        assert grown < 64 * 1024


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.timer("t") is registry.timer("t")
        assert registry.gauge("g") is registry.gauge("g")

    def test_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.timer("x")

    def test_snapshot_structure_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("g").set(4.0)
        registry.timer("t").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"] == {"a": 1, "b": 2}
        assert snapshot["gauges"] == {"g": 4.0}
        assert snapshot["timers"]["t"]["count"] == 1

    def test_counter_values_is_just_the_counters(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(3)
        registry.gauge("g").set(1.0)
        assert registry.counter_values() == {"n": 3}

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.timer("t").observe(0.5)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "timers": {},
        }

    def test_histogram_kind_shares_the_namespace(self):
        # A timer is a bounded histogram; its name excludes other kinds.
        registry = MetricsRegistry()
        assert isinstance(registry.timer("h"), Histogram)
        with pytest.raises(ConfigurationError):
            registry.counter("h")
        with pytest.raises(ConfigurationError):
            registry.gauge("h")

    def test_histogram_snapshot_appears(self):
        registry = MetricsRegistry()
        registry.timer("lat").observe(0.003)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "timers"}
        assert snap["timers"]["lat"]["count"] == 1
        assert snap["timers"]["lat"]["min_s"] == pytest.approx(0.003)


class TestExposition:
    def test_groups_and_sorted_names(self):
        registry = MetricsRegistry()
        registry.counter("b.second").inc(2)
        registry.counter("a.first").inc(1)
        registry.gauge("g").set(1.5)
        registry.timer("serve.batch.time").observe(0.5)
        text = registry.exposition()
        lines = text.splitlines()
        assert lines[0] == "# counters"
        assert lines[1] == "a.first 1"
        assert lines[2] == "b.second 2"
        assert [line for line in lines if line.startswith("#")] == [
            "# counters",
            "# gauges",
            "# timers",
        ]
        # count leads each timer block; stats follow alphabetically.
        # perfbench and CI read serve.batch.time.count off /metrics.
        timer_lines = lines[lines.index("# timers") + 1:]
        assert [line.split()[0] for line in timer_lines] == [
            "serve.batch.time.count",
            "serve.batch.time.max_s",
            "serve.batch.time.mean_s",
            "serve.batch.time.min_s",
            "serve.batch.time.p50_s",
            "serve.batch.time.p95_s",
            "serve.batch.time.p99_s",
            "serve.batch.time.total_s",
        ]
        assert timer_lines[0] == "serve.batch.time.count 1"

    def test_deterministic_output_for_same_state(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z").inc(3)
            registry.counter("a").inc(1)
            registry.gauge("m").set(2.0)
            return registry.exposition()

        assert build() == build()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().exposition() == ""

    def test_name_escaping_keeps_lines_parseable(self):
        registry = MetricsRegistry()
        registry.counter("weird name").inc(2)
        registry.counter("back\\slash").inc(3)
        registry.counter("new\nline").inc(4)
        text = registry.exposition()
        lines = text.splitlines()
        # One header plus one line per counter: newlines never leak.
        assert len(lines) == 4
        parsed = {}
        for line in lines[1:]:
            name, _, value = line.rpartition(" ")
            parsed[name] = int(value)
        assert parsed == {
            "weird\\_name": 2,
            "back\\\\slash": 3,
            "new\\nline": 4,
        }

    def test_float_values_keep_full_precision(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(0.1 + 0.2)
        assert f"g {(0.1 + 0.2)!r}" in registry.exposition()

    def test_scrape_during_concurrent_updates(self):
        """A /metrics render racing counter and timer updates must
        neither crash nor produce malformed lines."""
        registry = MetricsRegistry()
        errors: list[BaseException] = []

        def writer(index: int) -> None:
            try:
                for _ in range(2000):
                    registry.counter(f"c.{index}").inc()
                    registry.timer(f"h.{index}").observe(0.001)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(index,), daemon=True)
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        scrapes = 0
        while scrapes < 20 or (
            any(thread.is_alive() for thread in threads) and scrapes < 500
        ):
            scrapes += 1
            for line in registry.exposition().splitlines():
                if line.startswith("#"):
                    continue
                name, _, value = line.rpartition(" ")
                assert name and value
                float(value)  # every value parses as a number
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

    def test_concurrent_counter_increments_lose_nothing(self):
        registry = MetricsRegistry()

        def bump() -> None:
            for _ in range(10_000):
                registry.counter("n").inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n").value == 40_000

    def test_racing_creation_yields_one_instance(self):
        registry = MetricsRegistry()
        instances = []
        barrier = threading.Barrier(8)

        def create() -> None:
            barrier.wait()
            instances.append(registry.counter("shared"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(map(id, instances))) == 1
