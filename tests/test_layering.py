"""The import layering, checked in fresh interpreters.

A command loads the interpreter, numpy and the modules it runs, and
nothing else (docs/architecture.md, "Layering"):

* a package ``__init__`` imports none of its submodules;
* ``trace``, ``workloads``, ``mem``, ``cpu`` and ``core`` import nothing
  from ``exec``, ``serve`` or ``scenario``;
* a serial, uncached run never loads the process pool, and a named
  workload never loads the scenario engine;
* the serve tree imports its compute path before it forks.

Every case runs in a new ``sys.executable`` with ``PYTHONPATH=src``,
because the test process itself has long since imported everything.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules only a parallel run or the server may load.
POOL_AND_SERVER = (
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
)


def run_python(code: str, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        capture_output=True,
        text=True,
        timeout=300,
    )


def loaded_after(code: str, **env: str) -> set[str]:
    """The ``sys.modules`` names of a fresh interpreter that ran *code*."""
    result = run_python(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))",
        **env,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def loaded_packages(modules: set[str], names) -> list[str]:
    """Which of *names* (a module or a package prefix) *modules* holds."""
    return [
        name
        for name in names
        if any(m == name or m.startswith(name + ".") for m in modules)
    ]


def test_cli_import_loads_no_simulator_or_pool():
    modules = loaded_after("import repro.cli")
    assert loaded_packages(
        modules,
        ("numpy", *POOL_AND_SERVER, "repro.mem", "repro.exec",
         "repro.serve", "repro.scenario"),
    ) == []


def test_cache_model_does_not_import_the_execution_layer():
    modules = loaded_after("import repro.mem.cache\nimport repro.cli")
    assert "repro.mem.cache" in modules
    assert loaded_packages(
        modules,
        (*POOL_AND_SERVER, "repro.exec", "repro.serve", "repro.scenario"),
    ) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "table7", "--max-refs", "2000", "--no-cache"],
        ["simulate", "Espresso", "--size", "4KB", "--max-refs", "2000"],
    ],
    ids=["serial-experiment", "named-simulate"],
)
def test_serial_commands_never_load_the_pool(argv):
    modules = loaded_after(
        "import io\nfrom repro import cli\n"
        f"assert cli.main({argv!r}, out=io.StringIO()) == 0"
    )
    assert loaded_packages(
        modules,
        (*POOL_AND_SERVER, "repro.exec.pool", "repro.exec.cache",
         "repro.exec.tiered", "repro.serve", "repro.scenario"),
    ) == []


def test_an_exact_run_never_loads_the_sampled_engine():
    """Under ``auto`` with no sampling rate set, a run reads the sampling
    parameters and imports no sampled engine."""
    argv = ["simulate", "Espresso", "--size", "4KB", "--assoc", "2",
            "--mtc", "--max-refs", "20000"]
    modules = loaded_after(
        "import io\nfrom repro import cli\n"
        f"assert cli.main({argv!r}, out=io.StringIO()) == 0",
        REPRO_ENGINE="auto",
        REPRO_SAMPLE_RATE="",
    )
    assert "repro.mem.sampling" in modules
    assert "repro.mem.sampled" not in modules


def test_serve_tree_imports_its_compute_path_before_forking():
    modules = loaded_after("import repro.serve.server")
    for name in (
        "numpy",
        "repro.mem.cache",
        "repro.mem.mtc",
        "repro.mem.engines",
        "repro.workloads.registry",
        "repro.scenario",
    ):
        assert name in modules, name


#: Submodules a package ``__init__`` may load: the lazy-export helper
#: and what it imports, plus the metrics and span modules behind every
#: hot path's ``OBS``/``TRACER`` check.
ALLOWED_BY_INIT = {"repro", "repro.util", "repro.errors"}
OBS_MODULES = {"repro.obs.hist", "repro.obs.registry", "repro.obs.spans"}


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        *(
            f"repro.{info.name}"
            for info in pkgutil.iter_modules([str(SRC / "repro")])
            if info.ispkg
        ),
    ],
)
def test_package_init_imports_no_submodule(package):
    modules = loaded_after(f"import {package}")
    extra = {
        m for m in modules if m == "repro" or m.startswith("repro.")
    } - ALLOWED_BY_INIT - {package}
    if package == "repro.obs":
        extra -= OBS_MODULES
    assert extra == set()


CORE_PACKAGES = ("trace", "workloads", "mem", "cpu", "core")


def test_core_packages_import_no_exec_serve_or_scenario():
    modules = [
        f"repro.{package}.{info.name}"
        for package in CORE_PACKAGES
        for info in pkgutil.iter_modules([str(SRC / "repro" / package)])
    ]
    loaded = loaded_after("\n".join(f"import {m}" for m in modules))
    assert set(modules) <= loaded
    assert loaded_packages(
        loaded, ("repro.exec", "repro.serve", "repro.scenario")
    ) == []


class TestEngineEnvironment:
    """A bad ``$REPRO_ENGINE`` fails the runs that resolve an engine,
    with a one-line error, and nothing else."""

    def run_cli(self, *argv: str) -> subprocess.CompletedProcess:
        return run_python(
            "import sys\nfrom repro.cli import main\n"
            f"sys.exit(main({list(argv)!r}))",
            REPRO_ENGINE="bogus",
        )

    @pytest.mark.parametrize("argv", [["--help"], ["list"]])
    def test_commands_that_simulate_nothing_succeed(self, argv):
        result = self.run_cli(*argv)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr

    def test_simulate_fails_with_one_line(self):
        result = self.run_cli(
            "simulate", "Espresso", "--size", "4KB", "--max-refs", "2000"
        )
        assert result.returncode == 1
        assert result.stderr == (
            "error: unknown engine 'bogus'; "
            "choose from auto|scalar|vector|sampled\n"
        )
        assert result.stdout == ""


class TestSamplingEnvironment:
    """``$REPRO_SAMPLE_RATE``/``$REPRO_SAMPLE_SEED`` are read when a run
    first resolves sampling: a bad value fails that run with a one-line
    error, and nothing else."""

    SIMULATE = ("simulate", "Espresso", "--size", "4KB", "--max-refs", "2000")

    def run_cli(self, *argv: str, **env: str) -> subprocess.CompletedProcess:
        return run_python(
            "import sys\nfrom repro.cli import main\n"
            f"sys.exit(main({list(argv)!r}))",
            **env,
        )

    def test_list_succeeds_under_a_bad_rate(self):
        result = self.run_cli("list", REPRO_SAMPLE_RATE="bogus")
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr

    def test_a_bad_seed_fails_simulate_with_one_line(self):
        result = self.run_cli(
            *self.SIMULATE, REPRO_SAMPLE_RATE="0.1", REPRO_SAMPLE_SEED="x"
        )
        assert result.returncode == 1
        assert result.stderr == (
            "error: REPRO_SAMPLE_SEED is not an integer: 'x'\n"
        )

    def test_a_scalar_run_never_reads_sampling(self):
        result = self.run_cli(
            *self.SIMULATE, "--engine", "scalar",
            REPRO_SAMPLE_RATE="0.1", REPRO_SAMPLE_SEED="x",
        )
        assert result.returncode == 0, result.stderr
