"""Repository-root pytest configuration: the ``--jobs`` option.

``--jobs N``
    Run experiment sweeps on a process pool of N workers. The default 1
    keeps the serial path — the suite's results are identical either
    way (that equality is itself under test in
    ``tests/test_exec_parallel.py``).

The option configures the process-wide :data:`repro.exec.EXEC` facade
once per session; without it the facade keeps its serial, uncached
default. The result cache stays off, so tests always exercise real
simulation, and ``tests/conftest.py`` fails any test that leaves the
facade changed.
"""

from __future__ import annotations


def pytest_addoption(parser):
    group = parser.getgroup("repro execution layer")
    group.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for experiment sweeps (default: 1, serial)",
    )


def pytest_configure(config):
    jobs = config.getoption("--jobs")
    if jobs == 1:
        return
    import pytest

    from repro.errors import ConfigurationError
    from repro.exec import configure_exec

    try:
        configure_exec(jobs=jobs, cache_dir=None)
    except ConfigurationError as exc:
        raise pytest.UsageError(str(exc)) from exc


def pytest_unconfigure(config):
    if config.getoption("--jobs") == 1:
        return
    from repro.exec import configure_exec

    configure_exec(jobs=1, cache_dir=None)
