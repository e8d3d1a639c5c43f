"""Tests for the serve wire protocol: normalisation and ids."""

import pytest

from repro.errors import ProtocolError
from repro.serve.protocol import (
    SIMULATE_DEFAULTS,
    job_id,
    job_material,
    normalize_request,
    normalize_simulate,
    normalize_sweep,
)


class TestNormalizeSimulate:
    def test_defaults_fill_in(self):
        request = normalize_simulate({"workload": "Espresso"})
        assert request == {
            "kind": "simulate",
            "workload": "Espresso",
            "size": 16384,
            "block": 32,
            "assoc": 1,
            "mtc": False,
            "max_refs": 200_000,
            "seed": 0,
        }

    def test_size_spellings_canonicalise(self):
        a = normalize_simulate({"workload": "Espresso", "size": "4KB"})
        b = normalize_simulate({"workload": "Espresso", "size": 4096})
        assert a == b
        assert a["size"] == 4096

    def test_defaults_pinned_to_the_cli_parser(self):
        # The coalescer treats "omitted" and "explicit default" as the
        # same request; that only holds while these defaults match the
        # `repro simulate` parser's.
        from repro.cli import build_parser

        args = build_parser().parse_args(["simulate", "Espresso"])
        assert SIMULATE_DEFAULTS == {
            "size": args.size,
            "block": args.block,
            "assoc": args.assoc,
            "mtc": args.mtc,
            "max_refs": args.max_refs,
            "seed": args.seed,
        }

    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError, match="nosuch"):
            normalize_simulate({"workload": "nosuch"})

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ProtocolError, match="cache_size"):
            normalize_simulate({"workload": "Espresso", "cache_size": 1})

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            normalize_simulate(["Espresso"])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("block", 0),
            ("block", "32"),
            ("assoc", -1),
            ("max_refs", 0),
            ("mtc", 1),
            ("seed", "0"),
            ("size", "zero bytes"),
            ("size", -4096),
        ],
    )
    def test_bad_field_values_name_the_field(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            normalize_simulate({"workload": "Espresso", field: value})

    @pytest.mark.parametrize(
        "shape,field",
        [
            ({"size": "1KB", "assoc": 64}, "assoc"),
            ({"size": "1KB", "assoc": 3}, "assoc"),
            ({"size": "3KB"}, "size"),
            ({"size": "16B", "block": 32}, "block"),
            ({"block": 2}, "block"),
        ],
    )
    def test_impossible_cache_shapes_name_the_field(self, shape, field):
        # Refused at admission: no job id, no scheduler slot, no trace.
        with pytest.raises(ProtocolError, match=f"field '{field}'"):
            normalize_simulate({"workload": "Espresso", **shape})


class TestNormalizeSweep:
    def test_minimal(self):
        request = normalize_sweep({"experiment": "table7"})
        assert request == {
            "kind": "sweep",
            "experiment": "table7",
            "max_refs": None,
            "engine": None,
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ProtocolError, match="table99"):
            normalize_sweep({"experiment": "table99"})

    def test_bad_engine_rejected(self):
        with pytest.raises(ProtocolError, match="engine"):
            normalize_sweep({"experiment": "table7", "engine": "gpu"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="decompose"):
            normalize_request("decompose", {})


class TestJobIds:
    def test_same_request_same_id(self):
        a = normalize_simulate({"workload": "Espresso", "size": "16KB"})
        b = normalize_simulate({"workload": "Espresso"})
        assert job_id(job_material(a)) == job_id(job_material(b))

    def test_different_requests_differ(self):
        a = normalize_simulate({"workload": "Espresso"})
        b = normalize_simulate({"workload": "Espresso", "seed": 1})
        assert job_id(job_material(a)) != job_id(job_material(b))

    def test_id_shape(self):
        material = job_material(normalize_simulate({"workload": "Espresso"}))
        identifier = job_id(material)
        assert len(identifier) == 16
        assert all(c in "0123456789abcdef" for c in identifier)


class TestExposition:
    def test_groups_and_sorting(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(3)
        registry.counter("exec.tasks").inc(1)
        registry.gauge("serve.queue.depth").set(2)
        registry.timer("serve.batch.time").observe(0.5)
        text = registry.exposition()
        lines = text.splitlines()
        assert lines[0] == "# counters"
        assert lines[1] == "exec.tasks 1"
        assert lines[2] == "serve.requests 3"
        assert "# gauges" in lines
        assert "serve.queue.depth 2" in lines
        assert lines[lines.index("# timers") + 1] == "serve.batch.time.count 1"
        # Every non-comment line is "<name> <value>" — parseable by rpartition.
        for line in lines:
            if line.startswith("#"):
                continue
            name, sep, value = line.rpartition(" ")
            assert sep and name
            float(value)

    def test_empty_registry_is_empty_text(self):
        from repro.obs.registry import MetricsRegistry

        assert MetricsRegistry().exposition() == ""


class TestCacheStatsJson:
    def test_to_json_fields(self, tmp_path):
        from repro.exec import ResultCache

        cache = ResultCache(tmp_path / "c")
        cache.put({"k": 1}, {"v": 2})
        stats = cache.stats().to_json()
        assert set(stats) == {"root", "entries", "total_bytes", "quarantined"}
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["quarantined"] == 0


class TestNormalizeScenario:
    SPEC = {
        "name": "mixy",
        "refs": 5000,
        "seed": 4,
        "tenants": [
            {"pattern": {"kind": "zipfian"}, "footprint": "64KB"},
            {"pattern": {"kind": "uniform"}, "footprint": "64KB"},
        ],
    }

    def test_scenario_normalises_to_canonical_spec(self):
        request = normalize_simulate({"scenario": dict(self.SPEC)})
        assert request["kind"] == "simulate"
        assert "workload" not in request
        assert request["seed"] == 4  # the spec's seed, not the default
        from repro.scenario import ScenarioSpec

        assert request["scenario"] == ScenarioSpec.from_dict(
            self.SPEC
        ).canonical()

    def test_equivalent_spellings_coalesce(self):
        from repro.scenario import ScenarioSpec

        a = normalize_simulate({"scenario": dict(self.SPEC)})
        b = normalize_simulate(
            {"scenario": ScenarioSpec.from_dict(self.SPEC).canonical()}
        )
        assert job_id(job_material(a)) == job_id(job_material(b))

    def test_distinct_from_named_workload_jobs(self):
        named = normalize_simulate({"workload": "Espresso"})
        scenario = normalize_simulate({"scenario": dict(self.SPEC)})
        assert job_id(job_material(named)) != job_id(job_material(scenario))

    def test_explicit_seed_rejected(self):
        with pytest.raises(ProtocolError, match="carries its own seed"):
            normalize_simulate({"scenario": dict(self.SPEC), "seed": 4})

    def test_workload_and_scenario_rejected(self):
        with pytest.raises(ProtocolError, match="not both"):
            normalize_simulate(
                {"scenario": dict(self.SPEC), "workload": "Espresso"}
            )

    def test_invalid_spec_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="scenario"):
            normalize_simulate({"scenario": {"pattern": {"kind": "bogus"}}})
