"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError` so that callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A simulator or experiment was configured with invalid parameters.

    Examples: a cache whose size is not a multiple of its block size, a bus
    with zero width, or an experiment referencing an unknown workload.
    """


class TraceError(ReproError):
    """A memory or instruction trace is malformed or inconsistent."""


class SimulationError(ReproError):
    """A simulation reached an internally inconsistent state.

    This indicates a bug in the simulator (or deliberately injected fault in
    the failure-injection tests), never a user mistake.
    """


class WorkloadError(ReproError):
    """A synthetic workload was requested with unusable parameters."""


class ScenarioError(WorkloadError):
    """A scenario spec (:mod:`repro.scenario`) failed validation.

    Subclasses :class:`WorkloadError` because a scenario *is* a workload
    description: callers that already handle bad workload parameters
    (the CLI, the serve protocol) handle bad scenario specs the same way.
    """


class TaskError(ReproError):
    """A task failed on every attempt the retry policy allowed.

    Raised by the execution layer (:func:`repro.exec.run_tasks`) after the
    per-task retry budget — pool attempts plus the serial escalation — is
    exhausted. ``label`` names the task and ``attempts`` counts how many
    times it was tried; the final underlying exception is chained as
    ``__cause__``.
    """

    def __init__(self, message: str, *, label: str = "", attempts: int = 0):
        super().__init__(message)
        self.label = label
        self.attempts = attempts


class TaskTimeout(TaskError):
    """A task exceeded its per-attempt wall-clock budget on every attempt.

    Unlike other :class:`TaskError` failures, a repeatedly-timing-out task
    is *not* escalated to the serial path: a task presumed hung would hang
    the parent process too.
    """


class CacheCorruption(ReproError):
    """An on-disk result-cache entry failed validation.

    Detected by :meth:`repro.exec.ResultCache.get` (unparsable JSON, a
    schema mismatch, or a mangled key); the entry is quarantined under
    ``<cache root>/quarantine/`` and the lookup degrades to a miss, so
    corruption can cost recomputation but never a wrong answer.
    """


class FaultInjected(ReproError):
    """An error raised on purpose by the fault-injection harness.

    See :mod:`repro.exec.faults`. Always retryable — the harness exists to
    exercise the recovery paths.
    """


class ServeError(ReproError):
    """Base class for the simulation-service layer (:mod:`repro.serve`).

    Every subclass carries an ``http_status`` so the server can map the
    library taxonomy onto the wire without per-handler case analysis:
    client mistakes are 4xx, service conditions are 5xx.
    """

    http_status = 500


class ProtocolError(ServeError):
    """A request the service could not accept as stated (HTTP 400).

    Malformed JSON, an unknown field, a value that fails the same
    validation the CLI applies at parse time (unknown workload, size that
    does not parse, non-positive ``max_refs``). Deterministic: the same
    request is rejected identically every time, so clients must fix the
    request rather than retry it.
    """

    http_status = 400


class JobNotFound(ServeError):
    """A job id that names no known job (HTTP 404).

    Job ids are content-addressed, so an id is only ever minted by a
    ``POST``; asking for an unknown one means the client invented it or
    the server restarted (job state is in-memory; results persist in the
    exec cache and resubmission is cheap).
    """

    http_status = 404


class AdmissionRejected(ServeError):
    """The admission queue is full and the request was shed (HTTP 429).

    Carries ``retry_after`` (seconds, for the ``Retry-After`` header) —
    an estimate from queue depth times recent job service time. Load
    shedding at admission is what keeps the server's memory bounded:
    work waits in the *client*, never in an unbounded server-side list.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after

    http_status = 429


class ServiceUnavailable(ServeError):
    """The service cannot take this request right now (HTTP 503).

    Raised when the server is draining for shutdown, and by the sharded
    router when the owning shard is restarting or its circuit breaker is
    open. ``retry_after`` carries the parsed ``Retry-After`` seconds when
    the server sent one (the router derives it from the shard's restart
    backoff schedule); ``None`` means the condition is not expected to
    clear on its own — a drain, for example — so clients fail fast.
    """

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after

    http_status = 503


class ShardUnavailable(ServiceUnavailable):
    """A sharded router could not reach the shard owning a request.

    The wire envelope type for the router's 503s. Distinct from a plain
    :class:`ServiceUnavailable` drain because it is *transient by
    design*: the router's supervision is already respawning the shard,
    and the reply's ``Retry-After`` says when to come back.
    """


class RemoteJobFailed(ServeError):
    """A submitted job reached the ``failed`` state on the server.

    Raised client-side (:mod:`repro.serve.client`) when waiting on a job
    whose execution failed after the server's retry ladder; the message
    carries the server-reported error type and text.
    """


class RunInterrupted(ReproError):
    """A task run was interrupted (SIGINT or an injected interrupt).

    Completed results were already flushed to the result cache when one is
    configured; ``completed``/``total`` say how far the run got, and the
    message carries the resume hint.
    """

    def __init__(self, message: str, *, completed: int = 0, total: int = 0):
        super().__init__(message)
        self.completed = completed
        self.total = total
