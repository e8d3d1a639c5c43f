"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.model import MemTrace


@pytest.fixture(autouse=True)
def exec_context_restored():
    """Fail any test that leaves the process-wide execution context changed.

    :data:`repro.exec.context.EXEC` outlives the test that sets it: a
    ``configure_exec`` that is never undone runs every later test of the
    session with that worker count, result cache and retry policy. Tests
    reconfigure it through :func:`repro.exec.context.execution`, which
    restores it on exit.
    """
    from repro.exec.context import EXEC

    found = (EXEC.jobs, EXEC.cache, EXEC.retry)
    yield
    left = (EXEC.jobs, EXEC.cache, EXEC.retry)
    if left != found:
        pytest.fail(
            f"the test changed EXEC (jobs, cache, retry) from {found} "
            f"to {left}; use repro.exec.context.execution(...)",
            pytrace=False,
        )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_trace(rng: np.random.Generator) -> MemTrace:
    """A 20k-reference mixed trace over a 16 KB footprint."""
    addresses = rng.integers(0, 4096, size=20_000) * 4
    writes = rng.random(20_000) < 0.3
    return MemTrace(addresses, writes, name="small")


@pytest.fixture
def streaming_trace() -> MemTrace:
    """Three sequential passes over 2048 words (8 KB)."""
    one_pass = np.arange(2048, dtype=np.int64) * 4
    addresses = np.tile(one_pass, 3)
    writes = np.zeros(addresses.size, dtype=bool)
    writes[7::8] = True
    return MemTrace(addresses, writes, name="streaming")


def make_trace(addresses, writes=None, name="t") -> MemTrace:
    """Helper used across test modules."""
    addresses = np.asarray(addresses, dtype=np.int64)
    if writes is None:
        writes = np.zeros(addresses.size, dtype=bool)
    return MemTrace(addresses, np.asarray(writes, dtype=bool), name=name)
