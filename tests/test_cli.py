"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import EXPERIMENT_MODULES, build_parser, main, positive_int


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_every_experiment_module_registered(self):
        assert set(EXPERIMENT_MODULES) == {
            "figure1", "figure2", "figure3", "figure4", "figure5",
            "table2", "table3", "table6", "table7", "table8", "table9",
            "epin", "bench_cache", "bench_mtc", "bench_sampled",
            "bench_sweep", "scenarios",
        }

    def test_positive_int_accepts_positive(self):
        assert positive_int("5000") == 5000

    def test_positive_int_rejects_zero_and_negative(self):
        import argparse

        for text in ("0", "-1", "-5000"):
            with pytest.raises(argparse.ArgumentTypeError, match="positive"):
                positive_int(text)

    def test_positive_int_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="integer"):
            positive_int("lots")

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "table9", "--max-refs", "0"],
            ["simulate", "Espresso", "--max-refs", "-1"],
            ["decompose", "Li", "--max-refs", "0"],
            ["stats", "Li", "--max-refs", "-3"],
            ["profile", "table2", "--max-refs", "0"],
        ],
    )
    def test_nonpositive_max_refs_rejected_everywhere(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestCommands:
    def test_list(self):
        text = run_cli("list")
        assert "table7" in text
        assert "Compress" in text and "Vortex" in text

    def test_simulate(self):
        text = run_cli(
            "simulate", "Espresso", "--size", "4KB", "--max-refs", "20000"
        )
        assert "traffic ratio" in text
        assert "Espresso" in text

    def test_simulate_with_mtc(self):
        text = run_cli(
            "simulate", "Espresso", "--size", "4KB", "--max-refs", "20000",
            "--mtc",
        )
        assert "inefficiency G" in text

    def test_simulate_unknown_workload_fails_cleanly(self, capsys):
        out = io.StringIO()
        code = main(["simulate", "gcc"], out=out)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_decompose(self):
        text = run_cli(
            "decompose", "Li", "--experiment", "A", "--max-refs", "3000"
        )
        assert "f_P=" in text and "f_B=" in text
        assert "T_P=" in text

    def test_stats(self):
        text = run_cli("stats", "Li", "--max-refs", "20000")
        assert "footprint" in text
        assert "reuse fraction" in text

    def test_experiment_figure1(self):
        text = run_cli("experiment", "figure1")
        assert "Pin growth" in text

    def test_experiment_with_max_refs(self):
        text = run_cli("experiment", "table9", "--max-refs", "20000")
        assert "blocksize" in text

    def test_type_error_inside_run_is_not_retried_at_full_length(
        self, monkeypatch
    ):
        from repro.experiments import table7

        calls = []

        def broken_run(*, max_refs=None):
            calls.append(max_refs)
            if max_refs is not None:
                raise TypeError("a bug inside run")
            return "full-length result"

        monkeypatch.setattr(table7, "run", broken_run)
        monkeypatch.setattr(table7, "render", lambda result: result)
        with pytest.raises(TypeError, match="a bug inside run"):
            main(
                ["experiment", "table7", "--max-refs", "2000", "--no-cache"],
                out=io.StringIO(),
            )
        assert calls == [2000]


class TestObservabilityFlags:
    def test_unwritable_profile_output_is_a_clean_error(
        self, capsys, monkeypatch
    ):
        # The path is opened before the run: the experiment never starts.
        import repro.obs.profiler as profiler

        def never(*args, **kwargs):
            raise AssertionError("profile ran despite a bad --output")

        monkeypatch.setattr(profiler, "profile_experiment", never)
        out = io.StringIO()
        code = main(
            ["profile", "table2", "--max-refs", "1000",
             "--output", "/nonexistent-dir/profile.json"],
            out=out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: cannot open --output path" in err
        assert "Traceback" not in err
        assert out.getvalue() == ""

    def test_obs_disabled_after_command(self):
        from repro.obs import OBS

        registry = OBS.registry
        run_cli("profile", "table2", "--max-refs", "5000")  # instruments
        assert OBS.enabled is False
        assert OBS.registry is registry

    def test_default_run_never_enables_observability(self):
        from repro.obs import OBS

        run_cli("stats", "Li", "--max-refs", "20000")
        assert OBS.enabled is False
        assert OBS.registry.counter_values() == {}


class TestSpanTracingFlags:
    SIMULATE = ("simulate", "Espresso", "--size", "4KB", "--max-refs", "5000")

    def test_traced_output_byte_identical_and_tracer_restored(self, tmp_path):
        from repro.obs import TRACER

        plain = run_cli(*self.SIMULATE)
        traced = run_cli(
            *self.SIMULATE, "--trace-spans", str(tmp_path / "s.jsonl")
        )
        assert traced == plain
        assert TRACER.enabled is False

    def test_trace_spans_writes_one_rooted_tree(self, tmp_path):
        from repro.obs.spans import build_trees, read_spans

        log = tmp_path / "s.jsonl"
        run_cli(*self.SIMULATE, "--trace-spans", str(log))
        roots = build_trees(read_spans(str(log)))
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "cli.simulate"
        assert root.attr("command") == "simulate"
        names = set()

        def walk(node):
            names.add(node.name)
            for child in node.children:
                walk(child)

        walk(root)
        assert "sim.cache" in names  # the engine stage chained on

    def test_spans_command_renders_the_log(self, tmp_path):
        log = tmp_path / "s.jsonl"
        run_cli(*self.SIMULATE, "--trace-spans", str(log))
        text = run_cli("spans", str(log))
        assert "trace " in text
        assert "cli.simulate" in text
        assert "total=" in text and "self=" in text
        critical = run_cli("spans", str(log), "--critical-path")
        assert "critical path of trace" in critical

    def test_spans_command_rejects_missing_log(self, tmp_path, capsys):
        code = main(["spans", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_trace_spans_path_rejected(self, tmp_path, capsys):
        code = main(
            ["stats", "Li", "--max-refs", "5000",
             "--trace-spans", str(tmp_path / "no" / "dir" / "s.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_seeded_span_attributes_are_deterministic(self, tmp_path):
        """Span attributes are deterministic: two seeded runs give the
        same span names and attributes once the ids, clocks and pids are
        dropped."""
        from repro.obs.spans import read_spans

        volatile = {"trace", "span", "parent", "start", "end", "pid"}

        def one_run(name):
            log = tmp_path / name
            run_cli(
                "experiment", "table8", "--max-refs", "5000", "--no-cache",
                "--trace-spans", str(log),
            )
            return [
                {key: value for key, value in record.items()
                 if key not in volatile}
                for record in read_spans(str(log))
            ]

        first = one_run("first.jsonl")
        assert first == one_run("second.jsonl")
        mtc = [r["attrs"] for r in first if r["name"] == "sim.mtc"]
        assert mtc and all("traffic_bytes" in attrs for attrs in mtc)


class TestProfileCommand:
    def test_profile_prints_and_writes_json(self, tmp_path):
        path = tmp_path / "profile.json"
        text = run_cli(
            "profile", "table2", "--max-refs", "5000", "--output", str(path)
        )
        assert "profile: table2" in text
        assert "refs/sec" in text
        assert "Table 2" in text  # the experiment's own output still shows
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.profile/v3"
        assert data["experiment"] == "table2"
        assert data["references"] > 0
        # Per-stage registry timers mean "timers" is never empty; v3
        # timers are bounded snapshots and "histograms" is gone.
        run = data["timers"]["profile.stage.run"]
        assert run["count"] == 1
        assert run["min_s"] <= run["p99_s"] <= run["max_s"]
        assert "histograms" not in data

    def test_profile_writes_no_file_unless_asked(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = run_cli("profile", "table2", "--max-refs", "5000")
        assert "profile: table2" in text
        assert "wrote" not in text
        assert list(tmp_path.iterdir()) == []


class TestResilienceFlags:
    def test_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "experiment", "table7",
                "--retries", "5",
                "--task-timeout", "2.5",
                "--inject-fault", "worker.kill@Swm",
            ]
        )
        assert args.retries == 5
        assert args.task_timeout == 2.5
        assert args.inject_fault == "worker.kill@Swm"

    def test_profile_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            ["profile", "table2", "--retries", "2"]
        )
        assert args.retries == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "table7", "--jobs", "0"],
            ["experiment", "table7", "--jobs", "-2"],
            ["experiment", "table7", "--jobs", "many"],
            ["experiment", "table7", "--retries", "0"],
            ["experiment", "table7", "--task-timeout", "0"],
            ["experiment", "table7", "--task-timeout", "soon"],
        ],
    )
    def test_bad_resilience_values_rejected_at_parse(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        err = capsys.readouterr().err
        assert "positive" in err or "expected a" in err

    def test_bad_fault_spec_is_a_clean_error(self, capsys):
        out = io.StringIO()
        code = main(
            ["experiment", "figure1", "--inject-fault", "task.explode"],
            out=out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown fault point" in err

    def test_injected_interrupt_exits_130_and_resumes(self, tmp_path, capsys):
        clean = run_cli(
            "experiment", "table7", "--max-refs", "2000", "--no-cache"
        )
        capsys.readouterr()
        cache_dir = str(tmp_path / "cc")
        out = io.StringIO()
        code = main(
            [
                "experiment", "table7", "--max-refs", "2000",
                "--cache-dir", cache_dir,
                "--inject-fault", "task.interrupt@Swm",
            ],
            out=out,
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert (tmp_path / "cc" / "INTERRUPTED.json").exists()

        resumed = run_cli(
            "experiment", "table7", "--max-refs", "2000",
            "--cache-dir", cache_dir,
        )
        err = capsys.readouterr().err
        assert "resuming" in err
        assert resumed == clean
        assert not (tmp_path / "cc" / "INTERRUPTED.json").exists()

    def test_faults_disarmed_after_command(self, tmp_path, capsys):
        from repro.exec.faults import FAULTS

        main(
            [
                "experiment", "figure1",
                "--inject-fault", "task.raise@nothing-matches",
            ],
            out=io.StringIO(),
        )
        capsys.readouterr()
        assert not FAULTS.active

    def test_fault_scope_directory_removed_after_command(
        self, tmp_path, monkeypatch, capsys
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        codes = [
            main(
                [
                    "experiment", "table2", "--max-refs", "2000",
                    "--no-cache", "--inject-fault", spec,
                ],
                out=io.StringIO(),
            )
            for spec in ("bogus!!", "worker.kill@Nothing")
        ]
        capsys.readouterr()
        assert codes == [1, 0]
        assert not list(tmp_path.glob("repro-faults-*"))

    def test_quarantine_surfaces_in_cache_stats(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cc")
        run_cli(
            "experiment", "table7", "--max-refs", "2000",
            "--cache-dir", cache_dir,
            "--inject-fault", "cache.corrupt",
        )
        capsys.readouterr()
        warm = run_cli(
            "experiment", "table7", "--max-refs", "2000",
            "--cache-dir", cache_dir,
        )
        err = capsys.readouterr().err
        assert "1 quarantined" in err
        clean = run_cli(
            "experiment", "table7", "--max-refs", "2000", "--no-cache"
        )
        assert warm == clean
        text = run_cli("cache", "stats", "--cache-dir", cache_dir)
        assert "1 quarantined" in text
        stats = json.loads(
            run_cli("cache", "stats", "--cache-dir", cache_dir, "--json")
        )
        assert stats["quarantined"] == 1


class TestSamplingFlags:
    def test_a_seed_alone_keeps_auto_exact(self, tmp_path, capsys):
        argv = (
            "experiment", "table7", "--max-refs", "2000",
            "--cache-dir", str(tmp_path / "cc"),
        )
        exact = run_cli(*argv)
        assert "cache: 0 hits, 7 misses" in capsys.readouterr().err
        seeded = run_cli(*argv, "--sample-seed", "3")
        assert "cache: 7 hits, 0 misses" in capsys.readouterr().err
        assert seeded == exact

    def test_a_seed_alone_seeds_the_sampled_engine(self):
        out = run_cli(
            "simulate", "espresso", "--size", "64KB", "--assoc", "2048",
            "--max-refs", "20000", "--engine", "sampled",
            "--sample-seed", "3",
        )
        assert "sampled estimate: rate " in out
        assert ", seed 3, " in out

    @pytest.mark.parametrize(
        "flags", [(), ("--sample-rate", "0.2")], ids=["default-rate", "rate"]
    )
    def test_the_environment_seeds_the_sampled_engine(self, monkeypatch, flags):
        monkeypatch.delenv("REPRO_SAMPLE_RATE", raising=False)
        monkeypatch.setenv("REPRO_SAMPLE_SEED", "5")
        out = run_cli(
            "simulate", "espresso", "--size", "64KB", "--assoc", "2048",
            "--max-refs", "20000", "--engine", "sampled", *flags,
        )
        assert ", seed 5, " in out


class TestCacheStatsJson:
    def test_json_and_human_modes_agree(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cc")
        run_cli(
            "experiment", "table7", "--max-refs", "2000",
            "--cache-dir", cache_dir,
        )
        capsys.readouterr()
        human = run_cli("cache", "stats", "--cache-dir", cache_dir)
        stats = json.loads(
            run_cli("cache", "stats", "--cache-dir", cache_dir, "--json")
        )
        assert set(stats) == {"root", "entries", "total_bytes", "quarantined"}
        assert stats["root"] == cache_dir
        assert stats["entries"] > 0
        assert stats["quarantined"] == 0
        assert f"{stats['entries']} entries" in human
        assert f"{stats['total_bytes']:,} bytes" in human

    def test_empty_cache_json(self, tmp_path):
        cache_dir = str(tmp_path / "empty")
        stats = json.loads(
            run_cli("cache", "stats", "--cache-dir", cache_dir, "--json")
        )
        assert stats == {
            "root": cache_dir,
            "entries": 0,
            "total_bytes": 0,
            "quarantined": 0,
        }


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8765)
        assert (args.queue_depth, args.max_inflight, args.jobs) == (64, 4, 1)
        assert not args.no_cache
        assert args.workers == 1
        assert args.hot_tier_bytes is None
        assert args.job_history == 256

    def test_port_range_validated(self, capsys):
        for bad in ("-1", "65536", "http", "80.0"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--port", bad])
        err = capsys.readouterr().err
        assert "[0, 65535]" in err

    def test_port_zero_means_ephemeral(self):
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0

    def test_host_must_be_a_name(self, capsys):
        for bad in ("", "two words"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--host", bad])
        assert "hostname" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--queue-depth", "--max-inflight"])
    def test_capacities_must_be_positive(self, flag, capsys):
        for bad in ("0", "-4", "many"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", flag, bad])
        assert "positive" in capsys.readouterr().err or True

    def test_submit_requires_a_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_submit_simulate_mirrors_simulate_flags(self):
        args = build_parser().parse_args(
            ["submit", "simulate", "Espresso", "--size", "4KB", "--mtc"]
        )
        assert args.request_kind == "simulate"
        assert args.workload == "Espresso"
        assert args.size == "4KB" and args.mtc
        assert args.server is None and args.timeout == 300.0

    def test_submit_sweep_validates_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "sweep", "table99"])

    def test_submit_timeout_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "sweep", "table7", "--timeout", "0"]
            )


class TestScenarioCommands:
    SPEC = {
        "name": "clitest",
        "refs": 4000,
        "seed": 2,
        "tenants": [
            {"name": "a", "pattern": {"kind": "zipfian"},
             "footprint": "64KB"},
            {"name": "b", "pattern": {"kind": "sequential"},
             "footprint": "64KB"},
        ],
    }

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_scenario_list(self):
        text = run_cli("scenario", "list")
        assert "zipfian" in text and "bursty" in text
        assert "spec defaults" in text

    def test_scenario_list_json(self):
        payload = json.loads(run_cli("scenario", "list", "--json"))
        assert payload["schema"] == "repro.scenario-list/v1"
        assert [p["kind"] for p in payload["patterns"]] == [
            "uniform", "zipfian", "hotspot", "bursty", "sequential",
            "phased",
        ]

    def test_list_json_covers_everything(self):
        payload = json.loads(run_cli("list", "--json"))
        assert payload["schema"] == "repro.list/v1"
        assert {w["name"] for w in payload["workloads"]} >= {
            "Compress", "Vortex",
        }
        assert {e["name"] for e in payload["experiments"]} >= {
            "table7", "scenarios",
        }
        assert any(p["kind"] == "zipfian" for p in payload["patterns"])

    def test_scenario_run(self, spec_path):
        text = run_cli("scenario", "run", spec_path, "--size", "16KB")
        assert "scenario: clitest" in text
        assert "miss rate" in text and "traffic ratio" in text

    def test_scenario_mix_reports_per_tenant_attribution(self, spec_path):
        text = run_cli("scenario", "mix", spec_path)
        assert "tenant" in text
        assert " a " in text and " b " in text
        assert "interference:" in text

    def test_simulate_accepts_spec_file_and_inline_equivalently(
        self, spec_path
    ):
        from repro.scenario import ScenarioSpec

        by_file = run_cli("simulate", f"@{spec_path}", "--size", "16KB")
        inline = ScenarioSpec.from_dict(self.SPEC).to_argument()
        by_inline = run_cli("simulate", inline, "--size", "16KB")
        assert by_file == by_inline
        assert "clitest" in by_file

    def test_scenario_seed_comes_from_the_spec(self, spec_path):
        # --seed exists on `simulate` for named workloads; a scenario's
        # spec seed wins so the content address stays authoritative.
        a = run_cli("simulate", f"@{spec_path}", "--seed", "9")
        b = run_cli("simulate", f"@{spec_path}")
        assert a == b

    def test_invalid_spec_file_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pattern": {"kind": "bogus"}}')
        code = main(["simulate", str(bad)], out=io.StringIO())
        assert code != 0

    def test_submit_simulate_scenario_flag(self, spec_path):
        args = build_parser().parse_args(
            ["submit", "simulate", "--scenario", spec_path]
        )
        assert args.workload is None
        assert args.scenario == spec_path
        assert args.seed is None

    def test_submit_simulate_workload_xor_scenario(self, spec_path):
        for argv in (
            ["submit", "simulate"],
            ["submit", "simulate", "Espresso", "--scenario", spec_path],
        ):
            code = main(argv, out=io.StringIO())
            assert code != 0

    def test_decompose_accepts_scenario_on_spec92_machines(self, spec_path):
        text = run_cli(
            "decompose", f"@{spec_path}", "--experiment", "F",
            "--max-refs", "2000",
        )
        assert "clitest (SPEC92)" in text
        assert "f_B=" in text

    def test_stats_accepts_scenario(self, spec_path):
        text = run_cli("stats", f"@{spec_path}", "--max-refs", "2000")
        assert "clitest" in text
