"""Tests for the experiment profiling harness and its JSON profile."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    RunProfile,
    StageTiming,
    profile_experiment,
    render_profile,
    write_profile,
)


def _sample_profile():
    return RunProfile(
        experiment="table2",
        max_refs=5000,
        wall_seconds=2.0,
        stages=[
            StageTiming("import", 0.1),
            StageTiming("run", 1.8),
            StageTiming("render", 0.1),
        ],
        counters={"mtc.accesses": 9000, "cache.accesses": 1000},
        timers={"sweep.measure": {"count": 3, "total_s": 1.5}},
    )


class TestRunProfile:
    def test_references_sums_cache_engines(self):
        assert _sample_profile().references == 10_000

    def test_refs_per_second_uses_run_stage(self):
        profile = _sample_profile()
        assert profile.run_seconds == 1.8
        assert profile.refs_per_second == pytest.approx(10_000 / 1.8)

    def test_to_dict_schema(self):
        data = _sample_profile().to_dict()
        assert data["schema"] == PROFILE_SCHEMA
        assert data["experiment"] == "table2"
        assert data["references"] == 10_000
        assert [s["name"] for s in data["stages"]] == [
            "import", "run", "render",
        ]
        assert "python" in data
        json.dumps(data)  # fully serialisable


class TestProfileExperiment:
    def test_profiles_a_real_experiment(self):
        profile, rendered = profile_experiment("figure1")
        assert profile.experiment == "figure1"
        assert [stage.name for stage in profile.stages] == [
            "import", "run", "render",
        ]
        assert profile.wall_seconds > 0
        assert "Pin growth" in rendered

    def test_profile_captures_simulation_counters(self):
        profile, _ = profile_experiment("table2", max_refs=5000)
        assert profile.counters.get("mtc.simulations", 0) > 0
        assert profile.references > 0
        assert profile.refs_per_second > 0

    def test_restores_global_state(self):
        before = (OBS.enabled, OBS.registry)
        profile_experiment("figure1")
        assert OBS.enabled == before[0]
        assert OBS.registry is before[1]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_experiment("table99")


class TestRenderAndWrite:
    def test_render_contains_stages_and_throughput(self):
        text = render_profile(_sample_profile())
        assert "profile: table2" in text
        assert "import" in text and "run" in text and "render" in text
        assert "refs/sec" in text
        assert "top counters:" in text
        assert "mtc.accesses" in text

    def test_write_profile_round_trips(self, tmp_path):
        path = tmp_path / "profile.json"
        with open(path, "w", encoding="utf-8") as handle:
            write_profile(_sample_profile(), handle)
        data = json.loads(path.read_text())
        assert data["schema"] == PROFILE_SCHEMA
        assert data["counters"]["mtc.accesses"] == 9000
