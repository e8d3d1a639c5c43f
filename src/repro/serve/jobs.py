"""Job records and the worker-side request executor.

A job is one normalised request plus its lifecycle state. The state
machine is deliberately small::

    queued ──► running ──► done
                   │
                   └─────► failed        (after the exec layer's retry
    queued ──► cancelled                  ladder gave up)

``cancelled`` only happens at shutdown: jobs still waiting in the
admission queue when the server drains are not started (their results
would be unobservable), while *running* jobs are always drained to
completion so their results land in the exec cache.

:func:`execute_request` is the single function every job runs — in a
pool worker when the scheduler batches more than one job, inline
otherwise. It calls the function whose text the equivalent CLI command
prints (:func:`repro.cli.simulation_report` or
:func:`repro.cli.run_experiment`), which makes served output
byte-identical to the shell invocation *by construction* rather than by
parallel reimplementation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

# Everything execute_request runs is imported here, not on a job's first
# run: the server imports this module before it forks, so the router and
# every shard it forks or respawns start with the compute path loaded.
import repro.mem.sampled  # noqa: F401 (auto-engine check in Cache.simulate)
from repro import cli
from repro.exec.context import execution
from repro.mem.engines import use_engine
from repro.scenario.spec import ScenarioSpec
from repro.scenario.workload import ScenarioWorkload
from repro.workloads.registry import get_workload

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "DEFAULT_JOB_HISTORY",
    "JobRecord",
    "execute_request",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States from which a job will still produce (or has produced) a result;
#: a resubmission of one of these coalesces instead of re-running.
COALESCABLE_STATES = (QUEUED, RUNNING, DONE)

#: Terminal records a job table keeps by default (``--job-history``). A
#: simulate record costs about 2.3 KB, so this caps a shard near 10 MB.
DEFAULT_JOB_HISTORY = 4096


@dataclass(slots=True)
class JobRecord:
    """One job's identity, request, and lifecycle state."""

    id: str
    request: dict
    material: dict
    state: str = QUEUED
    #: The executor's envelope (output text) once ``done``.
    result: dict | None = None
    #: ``{"type": ..., "message": ...}`` once ``failed``.
    error: dict | None = None
    #: How many submissions this record absorbed beyond the first.
    coalesced: int = 0
    #: True when the result was answered from the tiered cache at
    #: admission, without queueing or running anything.
    cached: bool = False
    #: Wall-clock service time of the batch that completed the job
    #: (seconds); feeds the Retry-After estimate, never the result.
    service_seconds: float | None = None
    #: Lifecycle timestamps (epoch seconds): set at admission, at batch
    #: start, and when the job reaches a terminal state.
    admitted_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    #: Admission-to-batch-start wait (seconds), set by the scheduler.
    queue_wait_s: float | None = None
    #: Serialized span context of the job's ``serve.request`` root span
    #: (``{"trace", "span"}``), threaded into the exec tasks; only set
    #: when span tracing is enabled.
    trace_ctx: dict | None = None
    #: The open root :class:`repro.obs.spans.Span`, closed at terminal.
    trace_span: object | None = None

    def describe(self) -> dict:
        """The job as the wire representation of ``GET /v1/jobs/<id>``."""
        body: dict = {
            "job": self.id,
            "state": self.state,
            "kind": self.request["kind"],
            "request": dict(self.request),
            "coalesced": self.coalesced,
            "cached": self.cached,
        }
        if self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error
        timings: dict = {}
        if self.queue_wait_s is not None:
            timings["queue_wait_s"] = self.queue_wait_s
        if self.service_seconds is not None:
            timings["service_s"] = self.service_seconds
        if (
            self.admitted_at is not None
            and self.finished_at is not None
        ):
            timings["total_s"] = self.finished_at - self.admitted_at
        if self.trace_ctx is not None:
            timings["trace"] = self.trace_ctx.get("trace")
        if timings:
            body["timings"] = timings
        return body


@dataclass(slots=True)
class JobTable:
    """In-memory index of the jobs this server process knows about.

    Keyed by content-addressed job id, so the table *is* the coalescing
    map: an identical request resolves to an identical id, and any
    existing record in a coalescable state absorbs the submission. A
    ``failed`` or ``cancelled`` record does not coalesce — resubmitting
    is the retry path — and is replaced by the fresh record.

    *history* bounds how many **terminal** records (done / failed /
    cancelled) are retained: once exceeded, the least recently touched
    terminal record is evicted. Queued and running jobs are never
    evicted — a client must always be able to poll work in flight. With
    a result cache behind the server, eviction loses nothing: the next
    identical submission is answered from the cache; for lost *failed*
    ids, resubmitting retries, which is what the 404 advises anyway.
    """

    records: dict[str, JobRecord] = field(default_factory=dict)
    #: Max terminal records retained.
    history: int = DEFAULT_JOB_HISTORY
    #: Terminal ids in least-recently-touched-first order.
    _terminal: OrderedDict[str, None] = field(default_factory=OrderedDict)
    #: Terminal records dropped to honour the history bound.
    evicted: int = 0

    def get(self, job_id: str) -> JobRecord | None:
        record = self.records.get(job_id)
        if record is not None and job_id in self._terminal:
            self._terminal.move_to_end(job_id)
        return record

    def resolve(self, record: JobRecord) -> tuple[JobRecord, bool]:
        """Admit *record* or coalesce onto an existing equivalent.

        Returns ``(record, coalesced)`` where *record* is the one the
        caller should report (the existing record when coalescing).
        """
        existing = self.records.get(record.id)
        if existing is not None and existing.state in COALESCABLE_STATES:
            existing.coalesced += 1
            if existing.id in self._terminal:
                self._terminal.move_to_end(existing.id)
            return existing, True
        self._terminal.pop(record.id, None)  # replacing failed/cancelled
        self.records[record.id] = record
        return record, False

    def discard(self, record: JobRecord) -> None:
        """Forget *record* if it is still the one indexed under its id.

        The admission path uses this to undo a :meth:`resolve` whose
        record was then shed by the bounded queue — leaving it behind
        would let later identical submissions coalesce onto a job that
        will never run.
        """
        if self.records.get(record.id) is record:
            del self.records[record.id]
            self._terminal.pop(record.id, None)

    def mark_terminal(self, record: JobRecord) -> None:
        """Note that *record* reached a terminal state; enforce *history*.

        Idempotent; called by the scheduler (done/failed/cancelled) and
        by the admission fast path (cache-answered records are born
        terminal).
        """
        if self.records.get(record.id) is not record:
            return
        self._terminal[record.id] = None
        self._terminal.move_to_end(record.id)
        while len(self._terminal) > max(0, self.history):
            victim, _ = self._terminal.popitem(last=False)
            self.records.pop(victim, None)
            self.evicted += 1

    def counts(self) -> dict[str, int]:
        """Jobs per state (for /healthz)."""
        counts: dict[str, int] = {}
        for record in self.records.values():
            counts[record.state] = counts.get(record.state, 0) + 1
        return dict(sorted(counts.items()))


def execute_request(request: dict) -> dict:
    """Run one normalised request as its CLI command would (worker side).

    Returns the result envelope stored in the exec cache and returned to
    clients: the command's stdout. A sweep runs in its own serial exec
    context with no cell cache; the server caches the whole envelope
    under the job's content address instead. Library errors propagate as
    exceptions so the exec layer's retry taxonomy (fail fast on
    deterministic :class:`~repro.errors.ReproError`, retry the rest)
    applies unchanged.
    """
    if request["kind"] == "simulate":
        scenario = request.get("scenario")
        if scenario is not None:
            workload = ScenarioWorkload(ScenarioSpec.from_dict(scenario))
        else:
            workload = get_workload(request["workload"])
        trace = workload.generate(
            seed=request["seed"], max_refs=request["max_refs"]
        )
        output = cli.simulation_report(
            trace,
            request["size"],
            request["block"],
            request["assoc"],
            request["mtc"],
        )
    else:
        with execution(), use_engine(request["engine"]):
            output = cli.run_experiment(
                request["experiment"], request["max_refs"]
            )
    return {"schema": "repro.serve-result/v2", "output": output}
