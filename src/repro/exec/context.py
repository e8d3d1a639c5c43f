"""The process-wide execution context: worker count and result cache.

Mirrors the :data:`repro.obs.OBS` pattern: library code (``sweep_grid``
and friends) consults one module-global :data:`EXEC` rather than
threading jobs/cache parameters through every ``run()`` signature. The
default is serial with no cache — behaviour is byte-identical to a build
without the execution layer until an entry point opts in via
:func:`configure_exec` (CLI flags, pytest options, the regenerate
script) or the :func:`execution` context manager (tests).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ConfigurationError
from repro.exec.resilience import DEFAULT_RETRY, RetryPolicy

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ExecContext",
    "EXEC",
    "configure_exec",
    "execution",
    "default_cache_dir",
]

DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The cache root honoured by every entry point: env override or cwd."""
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


class ExecContext:
    """How grid/experiment work is executed: workers, cache, retry policy.

    ``jobs == 1`` means in-process serial execution; ``cache is None``
    means every cell is recomputed. Both defaults preserve the pre-layer
    behaviour exactly. *retry* (a
    :class:`~repro.exec.resilience.RetryPolicy`) governs per-task
    retries, backoff, and timeouts; its default only changes behaviour
    when a task *fails*, so healthy runs are untouched.
    """

    __slots__ = ("jobs", "cache", "retry")

    def __init__(
        self, jobs: int = 1, cache=None, retry: RetryPolicy = DEFAULT_RETRY
    ) -> None:
        self.jobs = jobs
        self.cache = cache
        self.retry = retry

    def __repr__(self) -> str:
        cache = getattr(self.cache, "root", None)
        return (
            f"<ExecContext jobs={self.jobs} cache={cache} "
            f"retry={self.retry.attempts}x>"
        )


#: The process-wide context consulted by sweep/experiment runners.
EXEC = ExecContext()


def _validated_jobs(jobs: int) -> int:
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigurationError(
            f"jobs must be a positive integer, got {jobs!r}"
        )
    return jobs


def configure_exec(
    *,
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    retry: RetryPolicy | None = None,
) -> ExecContext:
    """Set the process-wide execution context.

    *cache_dir* of ``None`` disables the result cache; pass
    :func:`default_cache_dir` (or any path) to enable it. The cache is
    the plain disk store: a CLI or regenerate run looks each key up at
    most once, so an in-memory tier in front of it could only miss.
    *retry* of ``None`` keeps the default policy (bounded retries, no
    timeout).
    """
    EXEC.jobs = _validated_jobs(jobs)
    if cache_dir is None:
        EXEC.cache = None
    else:
        from repro.exec.cache import ResultCache

        EXEC.cache = ResultCache(cache_dir)
    EXEC.retry = retry if retry is not None else DEFAULT_RETRY
    return EXEC


@contextmanager
def execution(
    *,
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    retry: RetryPolicy | None = None,
) -> Iterator[ExecContext]:
    """Temporarily reconfigure :data:`EXEC`, restoring the prior state."""
    prev = (EXEC.jobs, EXEC.cache, EXEC.retry)
    try:
        yield configure_exec(jobs=jobs, cache_dir=cache_dir, retry=retry)
    finally:
        EXEC.jobs, EXEC.cache, EXEC.retry = prev
