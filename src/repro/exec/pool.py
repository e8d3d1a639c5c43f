"""Deterministic, fault-tolerant process-pool task runner.

:func:`run_tasks` is the execution layer's engine: it takes an ordered
list of :class:`Task` items and returns their values *in task order*,
regardless of how many workers computed them, which came from the cache,
or how many attempts each needed. That ordering guarantee is what makes
parallel sweep grids and EXPERIMENTS.md regeneration byte-identical to
serial runs — fault recovery included, because recomputed values flow
through the same JSON normalisation as first-try values.

Execution strategy, per call:

1. Tasks carrying a cache key are looked up first; hits skip execution
   (and count as ``exec.resume.reused`` when a checkpoint marker says the
   previous run was interrupted).
2. Remaining tasks run on a ``ProcessPoolExecutor`` (``fork`` start
   method) when ``jobs > 1``, more than one task is pending, and every
   pending task pickles. Otherwise they run serially in-process.
3. Computed values are written back to the cache *as they complete* — the
   content-addressed cache doubles as the crash journal — and normalised
   through a JSON round-trip before being returned.

Failure handling (see docs/robustness.md for the full ladder):

* A task that raises retries with bounded attempts and deterministic
  seeded exponential backoff (:class:`repro.exec.resilience.RetryPolicy`);
  deliberate library errors fail fast, everything else retries. A task
  that exhausts its pool budget is escalated to the serial path with a
  fresh budget before the run fails with :class:`~repro.errors.TaskError`.
* A dead worker (``BrokenProcessPool``, whether it surfaces while tasks
  are being submitted or while results are awaited) triggers a pool
  rebuild; only the unfinished tasks are re-run. Persistent crashes
  escalate every unfinished task to the serial path.
* ``retry.timeout`` bounds one pool attempt's blocking wait; a timed-out
  attempt tears the pool down (the worker may be hung) and retries, and
  exhaustion raises :class:`~repro.errors.TaskTimeout` without serial
  escalation (a hung task would hang the parent).
* ``KeyboardInterrupt`` — real SIGINT or an injected ``task.interrupt``
  fault — harvests every already-finished result into the cache, writes a
  checkpoint marker, and raises :class:`~repro.errors.RunInterrupted`
  with a resume hint. Re-running the same command resumes from the cache
  and produces byte-identical output.

Fault hooks (:data:`repro.faults.FAULTS`) fire in ``_invoke`` on the
worker side and before dispatch on the parent side; all are inert unless
a plan is configured.

Observability (all via :data:`repro.obs.OBS`, no-ops when disabled):
``exec.cache.hit`` / ``exec.cache.miss`` / ``exec.cache.store``,
``exec.tasks``, ``exec.retry``, ``exec.worker.crash``, ``exec.timeout``,
``exec.resume.reused``, and ``exec.pool.fallback`` counters, an
``exec.jobs`` gauge, and a per-task ``exec.worker.time`` timer. Workers
run with a private metrics registry; their *counter* deltas are merged
into the parent as results are recorded, while worker-side timer samples
are intentionally dropped.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.errors import RunInterrupted, TaskError, TaskTimeout
from repro.exec.cache import MISS, ResultCache
from repro.exec.resilience import (
    DEFAULT_RETRY,
    RetryPolicy,
    clear_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.faults import FAULTS
from repro.obs import OBS, TRACER, MetricsRegistry

__all__ = ["Task", "run_tasks"]


@dataclass(slots=True)
class Task:
    """One unit of work: a picklable callable plus its arguments.

    *key* is the cache key material (canonical-JSON-able dict) or
    ``None`` for never-cached work; when a key is given the value must be
    JSON data. *label* is used for diagnostics and fault matching.
    *trace* is an optional serialized span context (``{"trace", "span"}``)
    naming this task's parent span; it rides to the worker process and is
    re-hydrated there so worker-side spans keep their parent links. It is
    **not** part of the cache key — identical work coalesces in the cache
    regardless of which request traced it.
    """

    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    key: dict | None = None
    label: str = ""
    trace: dict | None = None


@dataclass(slots=True)
class _RunState:
    """Mutable progress shared by the execution paths of one call."""

    results: list
    completed: int


def _worker_init() -> None:
    """Per-worker (forked child) initialisation.

    The child inherits the parent's :data:`OBS` facade, ``EXEC`` context,
    and ``FAULTS`` plan. Give it a private registry and force serial
    execution so a task that itself runs a sweep cannot spawn a nested
    pool.
    """
    from repro.exec.context import EXEC

    OBS.registry = MetricsRegistry()
    EXEC.jobs = 1


def _traced_call(fn, args, kwargs, label: str, trace: dict | None):
    """Run the task body inside an ``exec.task`` span when tracing.

    *trace* re-hydrates a parent context shipped across the process
    boundary; without one the span chains onto the ambient context (the
    in-process serial path inherits the caller's open span directly).
    """
    if not TRACER.enabled:
        return fn(*args, **kwargs)
    attrs = {"label": label} if label else {}
    if trace is not None:
        with TRACER.adopt(trace), TRACER.span("exec.task", **attrs):
            return fn(*args, **kwargs)
    with TRACER.span("exec.task", **attrs):
        return fn(*args, **kwargs)


def _invoke(fn, args, kwargs, label: str = "", trace: dict | None = None):
    """Worker-side call: fault hooks, timing, counter-delta capture."""
    if FAULTS.active:
        FAULTS.fire("task.delay", label)
        FAULTS.fire("worker.kill", label)
        FAULTS.fire("task.raise", label)
    start = time.perf_counter()
    value = _traced_call(fn, args, kwargs, label, trace)
    seconds = time.perf_counter() - start
    counters = None
    if OBS.enabled:
        counters = OBS.registry.counter_values()
        OBS.registry = MetricsRegistry()  # fresh slate for the next task
    return value, seconds, counters


def _run_task_inline(task: Task):
    """Parent-process execution of one attempt, with fault hooks.

    ``worker.kill`` is inert here (the plan never kills the parent), so
    the serial path always survives the fault that broke the pool.
    """
    if FAULTS.active:
        FAULTS.fire("task.interrupt", task.label)
        FAULTS.fire("task.delay", task.label)
        FAULTS.fire("worker.kill", task.label)
        FAULTS.fire("task.raise", task.label)
    start = time.perf_counter()
    value = _traced_call(task.fn, task.args, task.kwargs, task.label, task.trace)
    return value, time.perf_counter() - start


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _all_picklable(tasks: Sequence[Task]) -> bool:
    try:
        for task in tasks:
            pickle.dumps((task.fn, task.args, task.kwargs))
    except Exception:
        return False
    return True


def _store(cache: ResultCache | None, task: Task, value, observed: bool):
    """Write a computed value back, returning its JSON-normalised form."""
    if cache is None or task.key is None:
        return value
    cache.put(task.key, value)
    if observed:
        OBS.count("exec.cache.store")
    # Return what a warm run would read back (tuples become lists, etc.)
    # so cold and warm results are structurally identical.
    return json.loads(json.dumps(value))


def _finish(
    state: _RunState, index: int, task: Task, value, cache, observed: bool
) -> None:
    """Record one computed value: cache journal first, then the slot."""
    state.results[index] = _store(cache, task, value, observed)
    state.completed += 1


def _merge_worker(counters, seconds: float, observed: bool) -> None:
    if not observed:
        return
    OBS.observe("exec.worker.time", seconds)
    OBS.count("exec.tasks")
    if counters:
        for name, amount in counters.items():
            OBS.count(name, amount)


def _task_name(task: Task) -> str:
    return task.label or getattr(task.fn, "__name__", repr(task.fn))


def _attempt_serial(
    task: Task,
    policy: RetryPolicy,
    observed: bool,
    *,
    prior_failures: int = 0,
) -> object:
    """Run one task in-process under the policy's retry budget.

    *prior_failures* counts pool-path failures already consumed, so
    errors and backoff report honest attempt totals.
    """
    failures = 0
    while True:
        try:
            value, seconds = _run_task_inline(task)
        except Exception as exc:
            if not policy.retryable(exc):
                raise
            failures += 1
            total = prior_failures + failures
            if failures >= policy.attempts:
                raise TaskError(
                    f"task {_task_name(task)!r} failed after {total} "
                    f"attempts: {exc}",
                    label=task.label,
                    attempts=total,
                ) from exc
            if observed:
                OBS.count("exec.retry")
            time.sleep(policy.backoff(task.label, total))
            continue
        if observed:
            OBS.observe("exec.worker.time", seconds)
            OBS.count("exec.tasks")
        return value


def _run_serial(
    tasks: Sequence[Task],
    pending: Sequence[int],
    state: _RunState,
    cache,
    policy: RetryPolicy,
    observed: bool,
) -> None:
    for index in pending:
        task = tasks[index]
        value = _attempt_serial(task, policy, observed)
        _finish(state, index, task, value, cache, observed)


def _harvest_done(
    tasks, futures: dict, indices, state: _RunState, cache, observed: bool
) -> set[int]:
    """Record the results of already-finished futures.

    Called on every pool-teardown path (timeout, crash, interrupt) so
    completed work survives into the cache journal; returns the indices
    whose values were recorded.
    """
    harvested: set[int] = set()
    for index in indices:
        future = futures.get(index)
        if future is None or not future.done() or future.cancelled():
            continue
        try:
            if future.exception() is not None:
                continue
        except CancelledError:
            continue
        value, seconds, counters = future.result()
        _merge_worker(counters, seconds, observed)
        _finish(state, index, tasks[index], value, cache, observed)
        harvested.add(index)
    return harvested


def _shutdown_pool(pool: ProcessPoolExecutor, *, force: bool) -> None:
    """Tear a pool down; *force* also kills workers stuck mid-task."""
    if not force:
        pool.shutdown(wait=True)
        return
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
        except Exception:
            pass


def _run_pool(
    tasks: Sequence[Task],
    pending: Sequence[int],
    state: _RunState,
    jobs: int,
    cache,
    policy: RetryPolicy,
    observed: bool,
) -> None:
    # A forked child inherits any buffered span-log output; flush first
    # so worker exits cannot replay parent bytes into a shared file
    # (children then reopen their own handles).
    TRACER.flush()
    context = multiprocessing.get_context("fork")
    remaining = list(pending)
    failures = dict.fromkeys(remaining, 0)
    escalated: list[int] = []
    crashes = 0

    while remaining:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(remaining)),
            mp_context=context,
            initializer=_worker_init,
        )
        futures: dict[int, object] = {}
        next_round: list[int] = []
        force_teardown = False
        try:
            for index in remaining:
                task = tasks[index]
                if FAULTS.active:
                    FAULTS.fire("task.interrupt", task.label)
                if failures[index]:
                    time.sleep(policy.backoff(task.label, failures[index]))
                try:
                    futures[index] = pool.submit(
                        _invoke, task.fn, task.args, task.kwargs, task.label,
                        task.trace,
                    )
                except BrokenProcessPool as exc:
                    # A worker died mid-submission. This task's failed
                    # future sends the loop below down the crash branch
                    # when it gets here; later tasks were never submitted.
                    futures[index] = Future()
                    futures[index].set_exception(exc)
                    break
            for position, index in enumerate(remaining):
                task = tasks[index]
                later = remaining[position + 1:]
                try:
                    value, seconds, counters = futures[index].result(
                        timeout=policy.timeout
                    )
                except TimeoutError as exc:
                    if futures[index].done():
                        # The *task* raised TimeoutError; treat it as an
                        # ordinary task failure, not a budget overrun.
                        disposition = _note_failure(
                            task, exc, failures, index, policy, observed
                        )
                        if disposition == "raise":
                            force_teardown = True
                            raise
                        (next_round if disposition == "retry"
                         else escalated).append(index)
                        continue
                    # Budget overrun: the worker may be hung. Harvest
                    # what finished, kill the pool, retry or give up.
                    failures[index] += 1
                    force_teardown = True
                    if observed:
                        OBS.count("exec.timeout")
                    harvested = _harvest_done(
                        tasks, futures, later, state, cache, observed
                    )
                    if failures[index] >= policy.attempts:
                        raise TaskTimeout(
                            f"task {_task_name(task)!r} exceeded its "
                            f"{policy.timeout:g}s budget on all "
                            f"{failures[index]} attempts",
                            label=task.label,
                            attempts=failures[index],
                        ) from None
                    if observed:
                        OBS.count("exec.retry")
                    next_round.append(index)
                    next_round.extend(i for i in later if i not in harvested)
                    break
                except BrokenProcessPool:
                    # A worker died (OOM kill, segfault, injected fault).
                    # Completed futures keep their results; everything
                    # else re-runs on a fresh pool — or, if crashes
                    # persist, in the parent where a kill cannot recur.
                    crashes += 1
                    force_teardown = True
                    if observed:
                        OBS.count("exec.worker.crash")
                    survivors = [index] + list(later)
                    harvested = _harvest_done(
                        tasks, futures, survivors, state, cache, observed
                    )
                    survivors = [i for i in survivors if i not in harvested]
                    if crashes >= policy.attempts:
                        escalated.extend(survivors)
                    else:
                        next_round.extend(survivors)
                    break
                except Exception as exc:
                    disposition = _note_failure(
                        task, exc, failures, index, policy, observed
                    )
                    if disposition == "raise":
                        force_teardown = True
                        raise
                    (next_round if disposition == "retry"
                     else escalated).append(index)
                    continue
                else:
                    _merge_worker(counters, seconds, observed)
                    _finish(state, index, task, value, cache, observed)
        except KeyboardInterrupt:
            _harvest_done(tasks, futures, remaining, state, cache, observed)
            force_teardown = True
            raise
        finally:
            _shutdown_pool(pool, force=force_teardown)
        remaining = next_round

    for index in escalated:
        task = tasks[index]
        value = _attempt_serial(
            task, policy, observed, prior_failures=failures[index]
        )
        _finish(state, index, task, value, cache, observed)


def _note_failure(
    task: Task,
    exc: Exception,
    failures: dict[int, int],
    index: int,
    policy: RetryPolicy,
    observed: bool,
) -> str:
    """Classify one pool-attempt failure: ``raise``/``retry``/``escalate``."""
    if not policy.retryable(exc):
        return "raise"
    failures[index] += 1
    if failures[index] >= policy.attempts:
        # Last chance: the serial path, with a fresh budget.
        return "escalate"
    if observed:
        OBS.count("exec.retry")
    return "retry"


def run_tasks(
    tasks: Sequence[Task],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    retry: RetryPolicy | None = None,
) -> list:
    """Run *tasks* and return their values in task order.

    See the module docstring for the execution strategy, the failure
    ladder, and the determinism guarantees. *retry* defaults to
    :data:`repro.exec.resilience.DEFAULT_RETRY`.
    """
    tasks = list(tasks)
    policy = retry if retry is not None else DEFAULT_RETRY
    results: list = [None] * len(tasks)
    observed = OBS.enabled
    if observed:
        OBS.gauge("exec.jobs", jobs)

    resuming = cache is not None and read_checkpoint(cache) is not None

    tracing = TRACER.enabled
    if tracing:
        # Pool workers cannot see this thread's ambient span context, so
        # stamp it onto each task that was not given an explicit parent.
        ambient = TRACER.current()
        if ambient is not None:
            for task in tasks:
                if task.trace is None:
                    task.trace = ambient

    pending: list[int] = []
    for index, task in enumerate(tasks):
        if cache is not None and task.key is not None:
            lookup_start = time.time()
            value = cache.get(task.key)
            hit = value is not MISS
            if observed:
                OBS.observe(
                    "exec.cache.lookup.time",
                    max(0.0, time.time() - lookup_start),
                )
            if tracing:
                TRACER.emit_span(
                    "exec.cache.lookup",
                    lookup_start,
                    time.time(),
                    ctx=task.trace,
                    hit=hit,
                    label=task.label or None,
                )
            if hit:
                results[index] = value
                if observed:
                    OBS.count("exec.cache.hit")
                    if resuming:
                        OBS.count("exec.resume.reused")
                continue
            if observed:
                OBS.count("exec.cache.miss")
        pending.append(index)

    state = _RunState(results=results, completed=len(tasks) - len(pending))

    use_pool = jobs > 1 and len(pending) > 1 and _fork_available()
    if use_pool and not _all_picklable([tasks[i] for i in pending]):
        use_pool = False
        if observed:
            OBS.count("exec.pool.fallback")

    try:
        if use_pool:
            _run_pool(tasks, pending, state, jobs, cache, policy, observed)
        else:
            _run_serial(tasks, pending, state, cache, policy, observed)
    except KeyboardInterrupt:
        total = len(tasks)
        if cache is not None:
            write_checkpoint(cache, completed=state.completed, total=total)
            hint = (
                "completed results are checkpointed in the result cache; "
                "re-run the same command to resume"
            )
        else:
            hint = "no result cache is configured, so a re-run starts over"
        raise RunInterrupted(
            f"run interrupted after {state.completed}/{total} tasks ({hint})",
            completed=state.completed,
            total=total,
        ) from None

    if cache is not None and pending:
        # This call made fresh progress past any checkpoint; the next
        # interruption starts a new resume cycle.
        clear_checkpoint(cache)
    return results
