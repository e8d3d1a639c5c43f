"""End-to-end recovery tests: retries, crashes, timeouts, checkpoint/resume.

The contract under test is the one docs/robustness.md promises: a run
that survives a failure produces *byte-identical* results to a run that
never saw the failure. Faults come from the injection harness
(:mod:`repro.exec.faults`) so every scenario is deterministic.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import (
    ConfigurationError,
    FaultInjected,
    RunInterrupted,
    TaskError,
    TaskTimeout,
)
from repro.exec import (
    ResultCache,
    RetryPolicy,
    Task,
    clear_checkpoint,
    read_checkpoint,
    run_tasks,
    write_checkpoint,
)
from repro.exec.faults import injected_faults
from repro.exec.resilience import CHECKPOINT_NAME
from repro.obs import OBS, instrumented


def square(value: int) -> int:
    """Module-level (hence picklable) work function."""
    return value * value


def sleep_for(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def raise_config_error() -> None:
    raise ConfigurationError("deliberately misconfigured")


def make_tasks(count: int = 6, *, keyed: bool = False) -> list[Task]:
    return [
        Task(
            fn=square,
            args=(n,),
            key={"kind": "resilience-square", "n": n} if keyed else None,
            label=f"t{n}",
        )
        for n in range(count)
    ]


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.attempts == 3
        assert policy.timeout is None

    @pytest.mark.parametrize("attempts", [0, -1, True, 1.5, "3"])
    def test_bad_attempts_rejected(self, attempts):
        with pytest.raises(ConfigurationError, match="positive integer"):
            RetryPolicy(attempts=attempts)

    def test_negative_delays_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            RetryPolicy(base_delay=-0.1)

    @pytest.mark.parametrize("timeout", [0, -2.5])
    def test_nonpositive_timeout_rejected(self, timeout):
        with pytest.raises(ConfigurationError, match="timeout"):
            RetryPolicy(timeout=timeout)

    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff("t1", 2) == policy.backoff("t1", 2)
        assert policy.backoff("t1", 2) != policy.backoff("t2", 2)

    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4)
        for attempt in range(1, 8):
            delay = policy.backoff("x", attempt)
            raw = min(0.4, 0.1 * 2 ** (attempt - 1))
            assert raw * 0.5 <= delay < raw

    def test_jitter_seed_changes_the_schedule(self):
        a = RetryPolicy(jitter_seed=0).backoff("x", 1)
        b = RetryPolicy(jitter_seed=1).backoff("x", 1)
        assert a != b

    def test_retryability_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(FaultInjected("injected"))
        assert policy.retryable(ValueError("flaky"))
        assert not policy.retryable(ConfigurationError("deterministic"))
        assert not policy.retryable(KeyboardInterrupt())


class TestCheckpointMarker:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        write_checkpoint(cache, completed=3, total=12)
        marker = read_checkpoint(cache)
        assert marker["completed"] == 3
        assert marker["total"] == 12
        clear_checkpoint(cache)
        assert read_checkpoint(cache) is None

    def test_garbage_marker_reads_as_absent(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.root.mkdir(parents=True)
        (cache.root / CHECKPOINT_NAME).write_text("{not json")
        assert read_checkpoint(cache) is None

    def test_foreign_schema_reads_as_absent(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.root.mkdir(parents=True)
        (cache.root / CHECKPOINT_NAME).write_text(
            json.dumps({"schema": "other/v9"})
        )
        assert read_checkpoint(cache) is None

    def test_clear_on_missing_marker_is_quiet(self, tmp_path):
        clear_checkpoint(ResultCache(tmp_path / "c"))


class TestSerialRetries:
    def test_transient_failure_retries_and_recovers(self, tmp_path):
        policy = RetryPolicy(base_delay=0.0)
        with injected_faults(
            "task.raise@flaky*2", scope_dir=tmp_path / "scope"
        ):
            with instrumented():
                got = run_tasks(
                    [Task(fn=square, args=(3,), label="flaky")], retry=policy
                )
                counters = OBS.registry.snapshot()["counters"]
        assert got == [9]
        assert counters["exec.retry"] == 2

    def test_budget_exhaustion_raises_task_error(self, tmp_path):
        policy = RetryPolicy(attempts=3, base_delay=0.0)
        with injected_faults(
            "task.raise@flaky*9", scope_dir=tmp_path / "scope"
        ):
            with pytest.raises(TaskError, match="after 3 attempts"):
                run_tasks(
                    [Task(fn=square, args=(3,), label="flaky")], retry=policy
                )

    def test_deterministic_errors_fail_fast(self):
        with instrumented():
            with pytest.raises(ConfigurationError, match="misconfigured"):
                run_tasks([Task(fn=raise_config_error)])
            counters = OBS.registry.snapshot()["counters"]
        assert "exec.retry" not in counters


class TestPoolRecovery:
    def test_pool_survives_worker_kill(self, tmp_path):
        tasks = make_tasks(6)
        expected = run_tasks(tasks)
        with injected_faults(
            "worker.kill@t3", scope_dir=tmp_path / "scope"
        ):
            with instrumented():
                got = run_tasks(
                    tasks, jobs=2, retry=RetryPolicy(base_delay=0.0)
                )
                counters = OBS.registry.snapshot()["counters"]
        assert got == expected
        assert counters["exec.worker.crash"] >= 1

    def test_pool_broken_during_submission_recovers(self, monkeypatch):
        """A worker that dies while tasks are still being submitted makes
        ``submit`` raise: the crash branch must take it from there."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.exec import pool

        class BreaksOnSecondSubmit(pool.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.submits = 0

            def submit(self, *args, **kwargs):
                self.submits += 1
                if self.submits == 2:
                    raise BrokenProcessPool("a worker died mid-submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(pool, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        with instrumented():
            got = run_tasks(
                make_tasks(4), jobs=2, retry=RetryPolicy(base_delay=0.0)
            )
            counters = OBS.registry.snapshot()["counters"]
        assert got == [0, 1, 4, 9]
        # Each of three pools breaks at its second submission; the third
        # crash escalates the last task to the serial path.
        assert counters["exec.worker.crash"] == 3

    def test_persistent_kills_escalate_to_serial(self, tmp_path):
        """With more kill budget than pool attempts, every pool round
        dies — the run must still finish via the parent-side serial
        path, where worker.kill is inert."""
        tasks = make_tasks(4)
        expected = run_tasks(tasks)
        with injected_faults(
            "worker.kill*8", scope_dir=tmp_path / "scope"
        ):
            got = run_tasks(
                tasks, jobs=2, retry=RetryPolicy(attempts=2, base_delay=0.0)
            )
        assert got == expected

    def test_pool_retries_injected_task_failure(self, tmp_path):
        tasks = make_tasks(4)
        with injected_faults(
            "task.raise@t1", scope_dir=tmp_path / "scope"
        ):
            got = run_tasks(
                tasks, jobs=2, retry=RetryPolicy(base_delay=0.0)
            )
        assert got == [0, 1, 4, 9]

    def test_timeout_exhaustion_raises_task_timeout(self):
        tasks = [
            Task(fn=sleep_for, args=(30.0,), label="hang"),
            Task(fn=square, args=(2,), label="quick"),
        ]
        policy = RetryPolicy(attempts=2, timeout=0.25, base_delay=0.01)
        with instrumented():
            started = time.monotonic()
            with pytest.raises(TaskTimeout, match="hang"):
                run_tasks(tasks, jobs=2, retry=policy)
            elapsed = time.monotonic() - started
            counters = OBS.registry.snapshot()["counters"]
        assert counters["exec.timeout"] == 2
        # The hung worker was terminated, not waited out.
        assert elapsed < 20


class TestInterruptAndResume:
    def test_serial_interrupt_checkpoints_and_reports(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        with injected_faults(
            "task.interrupt@t4", scope_dir=tmp_path / "scope"
        ):
            with pytest.raises(RunInterrupted) as info:
                run_tasks(make_tasks(keyed=True), cache=cache)
        assert info.value.completed == 4
        assert info.value.total == 6
        assert "re-run" in str(info.value)
        marker = read_checkpoint(cache)
        assert marker["completed"] == 4

    def test_resume_is_byte_identical_and_counted(self, tmp_path):
        expected = run_tasks(make_tasks())
        cache = ResultCache(tmp_path / "c")
        with injected_faults(
            "task.interrupt@t4", scope_dir=tmp_path / "scope"
        ):
            with pytest.raises(RunInterrupted):
                run_tasks(make_tasks(keyed=True), cache=cache)
        resumed_cache = ResultCache(tmp_path / "c")
        with instrumented():
            got = run_tasks(make_tasks(keyed=True), cache=resumed_cache)
            counters = OBS.registry.snapshot()["counters"]
        assert got == expected
        assert counters["exec.resume.reused"] == 4
        # The completed resume retires the marker.
        assert read_checkpoint(resumed_cache) is None

    def test_pool_interrupt_then_resume(self, tmp_path):
        expected = run_tasks(make_tasks())
        cache = ResultCache(tmp_path / "c")
        with injected_faults(
            "task.interrupt@t4", scope_dir=tmp_path / "scope"
        ):
            with pytest.raises(RunInterrupted):
                run_tasks(make_tasks(keyed=True), jobs=2, cache=cache)
        got = run_tasks(
            make_tasks(keyed=True), jobs=2, cache=ResultCache(tmp_path / "c")
        )
        assert got == expected

    def test_interrupt_without_cache_mentions_starting_over(self, tmp_path):
        with injected_faults(
            "task.interrupt@t2", scope_dir=tmp_path / "scope"
        ):
            with pytest.raises(RunInterrupted, match="starts over"):
                run_tasks(make_tasks())
