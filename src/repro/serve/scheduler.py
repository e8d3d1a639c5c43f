"""The scheduler: drains admitted jobs into the execution layer in batches.

One asyncio task owns the loop: wait until work is queued, drain up to
``max_inflight`` jobs, and hand the batch to
:func:`repro.exec.pool.run_tasks` on its one worker thread (so the event
loop keeps serving HTTP while simulations run). ``run_tasks`` brings
everything the execution layer already guarantees — process-pool fan-out
across ``jobs`` workers, content-addressed result caching, the PR-4
retry ladder, worker-crash recovery — so the serve layer adds no second
execution engine, only the queueing in front of one.

Failure containment: ``run_tasks`` raises on a task that exhausted its
retry budget, identifying it by label. The scheduler marks *that* job
failed and requeues the rest of the batch — any of them that already
completed land as instant cache hits on the re-run, so one poisoned
request cannot take healthy neighbours down with it. An interrupted
batch (:class:`~repro.errors.RunInterrupted`, e.g. an injected
``task.interrupt`` fault) requeues the whole batch: completed results
were checkpointed to the exec cache by the runner, exactly the PR-4
resume semantics.

Shutdown: :meth:`Scheduler.stop` lets the *current* batch drain to
completion (its results reach clients and the cache journal), then
cancels jobs still waiting in the admission queue — they never started,
so cancelling loses nothing a resubmission cannot recover.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import RunInterrupted, TaskError
from repro.exec import pool
from repro.obs import OBS, TRACER
from repro.serve import jobs as jobs_module
from repro.serve.admission import AdmissionQueue
from repro.serve.jobs import CANCELLED, DONE, FAILED, RUNNING, JobRecord, JobTable

__all__ = ["Scheduler"]

#: Label prefix that ties an exec-layer task back to its job record.
TASK_LABEL_PREFIX = "serve:"

#: How often one job may be requeued after batch-level trouble before it
#: is failed outright (guards against a job that interrupts every batch).
MAX_REQUEUES = 3


class Scheduler:
    """Owns the drain loop between the admission queue and ``run_tasks``."""

    def __init__(
        self,
        queue: AdmissionQueue,
        table: JobTable,
        *,
        max_inflight: int,
        jobs: int,
        cache=None,
        retry=None,
    ) -> None:
        self.queue = queue
        self.table = table
        self.max_inflight = max_inflight
        self.jobs = jobs
        self.cache = cache
        self.retry = retry
        self.inflight = 0
        self.drained_batches = 0
        #: Jobs cancelled unstarted at shutdown (the banner reports this).
        self.cancelled = 0
        #: Serialises terminal-state transitions against /metrics and
        #: /healthz snapshots. Individual obs counters are thread-safe,
        #: but a completion updates several (state counts, done counter,
        #: service timer) that a scrape reads as one view — holding
        #: this lock across both sides keeps the exposition untorn.
        self.state_lock = threading.Lock()
        self._wakeup = asyncio.Event()
        self._stopping = False
        self._requeues: dict[str, int] = {}
        #: Batches run one at a time, so on one thread. The loop's default
        #: executor adds a thread whenever a batch is handed over before
        #: the previous batch's thread reports idle, and each thread keeps
        #: its own malloc arena of freed buffers: in 45 s serve-cold runs,
        #: shards whose jobs ran on three threads peaked at 63-64 MB,
        #: those on two at 56-61 MB, and on this one thread at 53 MB.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-batch"
        )

    # -- control (called from the server) ----------------------------------------

    def notify(self) -> None:
        """Wake the loop: a job was admitted."""
        self._wakeup.set()

    def stop(self) -> None:
        """Begin draining: finish the running batch, cancel the queue."""
        self._stopping = True
        self._wakeup.set()

    def _gauges(self) -> None:
        if OBS.enabled:
            OBS.gauge("serve.queue.depth", len(self.queue))
            OBS.gauge("serve.inflight", self.inflight)

    # -- the loop -----------------------------------------------------------------

    async def run(self) -> int:
        """Serve batches until stopped; returns jobs drained in-flight
        after the stop request (the number the shutdown banner reports)."""
        try:
            return await self._serve()
        finally:
            self._executor.shutdown(wait=False)

    async def _serve(self) -> int:
        drained_after_stop = 0
        while True:
            while not self._stopping and len(self.queue) == 0:
                self._wakeup.clear()
                await self._wakeup.wait()
            if self._stopping:
                break
            batch = self.queue.drain(self.max_inflight)
            await self._run_batch(batch)
            if self._stopping:
                # stop() arrived mid-batch: those jobs were drained to
                # completion; anything still queued is cancelled below.
                drained_after_stop += len(batch)
        for record in self.queue.drain_all():
            with self.state_lock:
                record.state = CANCELLED
                record.error = {
                    "type": "ServiceUnavailable",
                    "message": "server shut down before the job started",
                }
                record.finished_at = time.time()
                self._close_trace(record)
                self.table.mark_terminal(record)
                self.cancelled += 1
                if OBS.enabled:
                    OBS.count("serve.jobs.cancelled")
        self._gauges()
        return drained_after_stop

    async def _run_batch(self, batch: list[JobRecord]) -> None:
        batch_start = time.time()
        for record in batch:
            record.state = RUNNING
            record.started_at = batch_start
            if record.admitted_at is not None:
                record.queue_wait_s = max(0.0, batch_start - record.admitted_at)
                if OBS.enabled:
                    OBS.observe("serve.queue.wait", record.queue_wait_s)
                if TRACER.enabled and record.trace_ctx is not None:
                    # Retroactive: the wait was only known once the batch
                    # picked the job up, but the span's interval is real.
                    TRACER.emit_span(
                        "serve.queue",
                        record.admitted_at,
                        batch_start,
                        ctx=record.trace_ctx,
                        depth=len(batch),
                    )
        self.inflight = len(batch)
        self._gauges()

        tasks = [
            pool.Task(
                fn=jobs_module.execute_request,
                args=(record.request,),
                key=record.material if self.cache is not None else None,
                label=f"{TASK_LABEL_PREFIX}{record.id}",
                trace=record.trace_ctx,
            )
            for record in batch
        ]
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        try:
            values = await loop.run_in_executor(
                self._executor,
                functools.partial(
                    pool.run_tasks,
                    tasks,
                    jobs=self.jobs,
                    cache=self.cache,
                    retry=self.retry,
                ),
            )
        except (TaskError, RunInterrupted) as exc:
            self._recover_batch(batch, exc)
        except Exception as exc:  # a scheduler bug must not kill the loop
            for record in batch:
                self._fail(record, exc)
        else:
            seconds = time.perf_counter() - start
            self._complete_batch(batch, values, seconds)
        finally:
            self.inflight = 0
            self._gauges()

    def _complete_batch(
        self, batch: list[JobRecord], values: list, seconds: float
    ) -> None:
        """Finalise a successful batch (sync, under the state lock).

        One critical section covers every record transition *and* the
        matching counter/timer updates, so a concurrent ``/metrics``
        or ``/healthz`` scrape (which snapshots under the same lock) can
        never observe e.g. ``serve.jobs.done`` ahead of the service
        timer's count.
        """
        per_job = seconds / max(1, len(batch))
        finished = time.time()
        with self.state_lock:
            for record, value in zip(batch, values):
                record.result = value
                record.state = DONE
                record.service_seconds = per_job
                record.finished_at = finished
                self.queue.observe_service_time(per_job)
                self._requeues.pop(record.id, None)
                self._close_trace(record, end=finished)
                self.table.mark_terminal(record)
                if OBS.enabled:
                    OBS.count("serve.jobs.done")
                    OBS.observe("serve.job.service", per_job)
            self.drained_batches += 1
            if OBS.enabled:
                OBS.observe("serve.batch.time", seconds)

    # -- failure containment -------------------------------------------------------

    @staticmethod
    def _close_trace(record: JobRecord, end: float | None = None) -> None:
        """Write the job's ``serve.request`` root span, exactly once."""
        span = record.trace_span
        if span is not None:
            record.trace_span = None
            span.attrs["state"] = record.state
            TRACER.finish(span, end)

    def _fail(self, record: JobRecord, exc: BaseException) -> None:
        cause = exc.__cause__ if exc.__cause__ is not None else exc
        with self.state_lock:
            record.state = FAILED
            record.error = {"type": type(cause).__name__, "message": str(exc)}
            record.finished_at = time.time()
            self._requeues.pop(record.id, None)
            self._close_trace(record)
            self.table.mark_terminal(record)
            if OBS.enabled:
                OBS.count("serve.jobs.failed")

    def _recover_batch(self, batch: list[JobRecord], exc: Exception) -> None:
        """Fail the culprit (if identifiable), requeue the survivors."""
        failed_id = None
        label = getattr(exc, "label", "")
        if isinstance(exc, TaskError) and label.startswith(TASK_LABEL_PREFIX):
            failed_id = label[len(TASK_LABEL_PREFIX):]
        survivors: list[JobRecord] = []
        for record in batch:
            if record.id == failed_id:
                self._fail(record, exc)
                continue
            attempts = self._requeues.get(record.id, 0) + 1
            if attempts > MAX_REQUEUES:
                self._fail(record, exc)
                continue
            self._requeues[record.id] = attempts
            record.state = jobs_module.QUEUED
            survivors.append(record)
            if OBS.enabled:
                OBS.count("serve.jobs.requeued")
        self.queue.requeue(survivors)
        if survivors:
            self._wakeup.set()
