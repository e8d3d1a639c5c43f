"""Tests for admission control, the job table, and scheduler recovery."""

import asyncio
import time

import pytest

from repro.errors import AdmissionRejected, ConfigurationError, TaskError
from repro.obs import OBS, instrumented
from repro.serve.admission import AdmissionQueue
from repro.serve.jobs import (
    CANCELLED,
    DEFAULT_JOB_HISTORY,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobTable,
)
from repro.serve.scheduler import MAX_REQUEUES, Scheduler


def record(identifier: str, state: str = QUEUED) -> JobRecord:
    return JobRecord(
        id=identifier,
        request={"kind": "simulate", "workload": identifier},
        material={"request": identifier},
        state=state,
    )


class TestAdmissionQueue:
    def test_bounded_fifo(self):
        queue = AdmissionQueue(2)
        queue.offer(record("a"))
        queue.offer(record("b"))
        assert queue.full
        with pytest.raises(AdmissionRejected):
            queue.offer(record("c"))
        assert [r.id for r in queue.drain(5)] == ["a", "b"]
        assert len(queue) == 0

    def test_rejection_carries_retry_after(self):
        queue = AdmissionQueue(1)
        queue.offer(record("a"))
        with pytest.raises(AdmissionRejected) as excinfo:
            queue.offer(record("b"))
        assert 1.0 <= excinfo.value.retry_after <= 60.0

    def test_retry_after_scales_with_depth_and_service_time(self):
        queue = AdmissionQueue(100)
        for index in range(10):
            queue.offer(record(str(index)))
        # Fold in a consistently slow service time: 10 deep * ~2s each.
        for _ in range(50):
            queue.observe_service_time(2.0)
        assert queue.retry_after() > 10
        assert queue.retry_after() <= 60.0

    def test_retry_after_clamped_to_floor(self):
        queue = AdmissionQueue(4)
        for _ in range(50):
            queue.observe_service_time(0.001)
        assert queue.retry_after() == 1.0

    def test_instant_completions_still_pull_the_ewma_down(self):
        # Regression: zero-duration samples (result-cache hits) used to
        # be dropped, leaving the EWMA stuck at stale slow values and
        # Retry-After pinned at the ceiling after a burst of hits.
        slow = AdmissionQueue(100)
        fast = AdmissionQueue(100)
        for queue in (slow, fast):
            for _ in range(50):
                queue.observe_service_time(2.0)
        for _ in range(50):
            fast.observe_service_time(0.0)
        for index in range(20):
            slow.offer(record(f"s{index}"))
            fast.offer(record(f"f{index}"))
        assert fast.retry_after() == 1.0
        assert slow.retry_after() > fast.retry_after()

    def test_negative_and_nonfinite_samples_never_corrupt_the_ewma(self):
        queue = AdmissionQueue(4)
        queue.observe_service_time(-5.0)      # clock skew: clamps, not drops
        queue.observe_service_time(float("nan"))
        queue.observe_service_time(float("inf"))
        for _ in range(50):
            queue.observe_service_time(0.5)
        estimate = queue._service_time
        assert estimate == pytest.approx(0.5, rel=0.01)

    def test_requeue_ignores_capacity_and_preserves_order(self):
        queue = AdmissionQueue(1)
        queue.offer(record("c"))
        queue.requeue([record("a"), record("b")])
        assert len(queue) == 3  # transiently above capacity, by design
        assert [r.id for r in queue.drain_all()] == ["a", "b", "c"]

    def test_bad_depth_rejected(self):
        for depth in (0, -1, True, "8"):
            with pytest.raises(ConfigurationError):
                AdmissionQueue(depth)


class TestJobTable:
    def test_new_record_admitted(self):
        table = JobTable()
        admitted, coalesced = table.resolve(record("a"))
        assert not coalesced
        assert table.get("a") is admitted

    @pytest.mark.parametrize("state", [QUEUED, RUNNING, DONE])
    def test_live_states_coalesce(self, state):
        table = JobTable()
        first, _ = table.resolve(record("a", state=state))
        second, coalesced = table.resolve(record("a"))
        assert coalesced
        assert second is first
        assert first.coalesced == 1

    @pytest.mark.parametrize("state", [FAILED, CANCELLED])
    def test_dead_states_are_replaced_not_coalesced(self, state):
        table = JobTable()
        first, _ = table.resolve(record("a", state=state))
        fresh = record("a")
        admitted, coalesced = table.resolve(fresh)
        assert not coalesced
        assert admitted is fresh
        assert table.get("a") is fresh

    def test_discard_undoes_a_shed_admission(self):
        table = JobTable()
        shed, _ = table.resolve(record("a"))
        table.discard(shed)
        assert table.get("a") is None
        fresh, coalesced = table.resolve(record("a"))
        assert not coalesced  # does not coalesce onto the shed record

    def test_discard_leaves_a_replacement_alone(self):
        table = JobTable()
        old, _ = table.resolve(record("a", state=FAILED))
        fresh, _ = table.resolve(record("a"))
        table.discard(old)  # stale reference: the fresh record stays
        assert table.get("a") is fresh

    def test_counts_by_state(self):
        table = JobTable()
        table.resolve(record("a", state=DONE))
        table.resolve(record("b", state=DONE))
        table.resolve(record("c"))
        assert table.counts() == {"done": 2, "queued": 1}


class TestJobTableHistory:
    def _settle(self, table, name):
        job, _ = table.resolve(record(name, state=DONE))
        table.mark_terminal(job)
        return job

    def test_terminal_records_evict_lru_beyond_history(self):
        table = JobTable(history=2)
        self._settle(table, "a")
        self._settle(table, "b")
        assert table.evicted == 0
        # Touch a so b becomes the LRU terminal record.
        assert table.get("a") is not None
        self._settle(table, "c")
        assert table.get("b") is None
        assert table.get("a") is not None
        assert table.get("c") is not None
        assert table.evicted == 1

    def test_live_records_are_never_evicted(self):
        table = JobTable(history=1)
        for name in ("q1", "q2", "q3"):
            table.resolve(record(name))  # queued, not terminal
        self._settle(table, "a")
        self._settle(table, "b")  # evicts a, the only other terminal
        assert table.get("a") is None
        for name in ("q1", "q2", "q3"):
            assert table.get(name) is not None
        assert table.evicted == 1

    def test_coalescing_onto_a_terminal_record_refreshes_recency(self):
        table = JobTable(history=2)
        self._settle(table, "a")
        self._settle(table, "b")
        # A repeat submission of a coalesces and makes it most-recent...
        _, coalesced = table.resolve(record("a", state=DONE))
        assert coalesced
        self._settle(table, "c")
        # ...so b, not a, was the victim.
        assert table.get("a") is not None
        assert table.get("b") is None

    def test_default_history_bounds_the_table(self):
        table = JobTable()
        for index in range(DEFAULT_JOB_HISTORY + 50):
            self._settle(table, f"job-{index}")
        assert table.evicted == 50
        assert table.counts() == {"done": DEFAULT_JOB_HISTORY}
        assert table.get("job-49") is None
        assert table.get("job-50") is not None

    def test_mark_terminal_ignores_unindexed_records(self):
        table = JobTable(history=1)
        stray = record("stray", state=DONE)  # never resolved into the table
        table.mark_terminal(stray)
        assert table.get("stray") is None
        assert table.evicted == 0


def run_scheduler_once(queue, table, **kwargs):
    """Run a scheduler until every admitted job settles, then stop it."""

    async def main():
        scheduler = Scheduler(queue, table, **kwargs)
        task = asyncio.get_running_loop().create_task(scheduler.run())
        scheduler.notify()
        while any(
            r.state in (QUEUED, RUNNING) for r in table.records.values()
        ):
            await asyncio.sleep(0.005)
        scheduler.stop()
        await task
        return scheduler

    return asyncio.run(main())


class TestSchedulerRecovery:
    def test_batch_results_recorded(self, monkeypatch):
        monkeypatch.setattr(
            "repro.serve.jobs.execute_request",
            lambda request: {"output": request["workload"]},
        )
        queue = AdmissionQueue(4)
        table = JobTable()
        for name in ("a", "b"):
            job = record(name)
            table.resolve(job)
            queue.offer(job)
        run_scheduler_once(queue, table, max_inflight=4, jobs=1)
        assert table.get("a").state == DONE
        assert table.get("a").result == {"output": "a"}
        assert table.get("b").state == DONE

    def test_poisoned_job_fails_alone(self, monkeypatch):
        def sometimes(request):
            if request["workload"] == "bad":
                raise ValueError("poisoned request")
            return {"output": request["workload"]}

        monkeypatch.setattr("repro.serve.jobs.execute_request", sometimes)
        queue = AdmissionQueue(4)
        table = JobTable()
        for name in ("good", "bad", "also-good"):
            job = record(name)
            table.resolve(job)
            queue.offer(job)
        run_scheduler_once(queue, table, max_inflight=4, jobs=1)
        assert table.get("bad").state == FAILED
        assert "poisoned" in table.get("bad").error["message"]
        # Survivors were requeued and completed on the next batch.
        assert table.get("good").state == DONE
        assert table.get("also-good").state == DONE

    def test_requeue_budget_bounds_repeated_trouble(self, monkeypatch):
        attempts = []

        def always_interrupted(request):
            from repro.errors import RunInterrupted

            attempts.append(request["workload"])
            raise RunInterrupted("injected interrupt")

        monkeypatch.setattr(
            "repro.serve.jobs.execute_request", always_interrupted
        )
        queue = AdmissionQueue(4)
        table = JobTable()
        job = record("stuck")
        table.resolve(job)
        queue.offer(job)
        run_scheduler_once(queue, table, max_inflight=1, jobs=1)
        assert table.get("stuck").state == FAILED
        # First run + MAX_REQUEUES re-admissions, then failed outright.
        assert len(attempts) == MAX_REQUEUES + 1

    def test_clock_step_back_clamps_queue_wait(self, monkeypatch):
        """A wall clock stepping back between admission and batch start
        must not fail the batch (and strand the job in ``running``)."""
        monkeypatch.setattr(
            "repro.serve.jobs.execute_request",
            lambda request: {"output": request["workload"]},
        )
        queue = AdmissionQueue(4)
        table = JobTable()
        job = record("early")
        job.admitted_at = time.time() + 1.0
        table.resolve(job)
        queue.offer(job)

        async def main():
            scheduler = Scheduler(queue, table, max_inflight=1, jobs=1)
            await scheduler._run_batch(queue.drain(1))

        with instrumented():
            asyncio.run(main())
            waits = OBS.registry.snapshot()["timers"]["serve.queue.wait"]
        assert job.state == DONE
        assert job.queue_wait_s == 0.0
        assert waits["count"] == 1

    def test_shutdown_cancels_unstarted_jobs(self):
        async def main():
            queue = AdmissionQueue(4)
            table = JobTable()
            job = record("waiting")
            table.resolve(job)
            queue.offer(job)
            scheduler = Scheduler(queue, table, max_inflight=1, jobs=1)
            scheduler.stop()  # stop before the job is ever drained
            await scheduler.run()
            return table, scheduler

        table, scheduler = asyncio.run(main())
        assert table.get("waiting").state == CANCELLED
        assert scheduler.cancelled == 1
        assert "shut down" in table.get("waiting").error["message"]
