"""repro.exec — the execution layer: parallel runs, caching, resilience.

The paper's evaluation is a grid of *independent* simulations —
(benchmark x cache size x configuration) cells — and highly repetitive
across runs. This package exploits both properties, and keeps long runs
alive through the failures that parallel full-trace sweeps attract:

* :mod:`repro.exec.pool` — a deterministic, fault-tolerant process-pool
  runner (:func:`run_tasks`) that fans tasks across CPU cores, merges
  results in task order, survives worker death (pool rebuild + serial
  escalation), retries failing tasks with deterministic backoff, and
  turns SIGINT into a checkpointed, resumable interruption;
* :mod:`repro.exec.cache` — a content-addressed on-disk result cache
  (:class:`ResultCache`, default ``.repro-cache/``) keyed by a stable
  hash of (workload spec, simulator config, trace seed, code epoch); it
  doubles as the crash journal, and quarantines corrupt entries;
* :mod:`repro.exec.tiered` — an in-memory hot tier
  (:class:`HotTier`, size-aware LRU over serialized entry bytes) layered
  in front of the disk cache behind one :class:`TieredCache` facade;
* :mod:`repro.exec.resilience` — the :class:`RetryPolicy` and the
  checkpoint/resume marker;
* :mod:`repro.exec.faults` — the fault-injection harness
  (``REPRO_FAULTS`` / ``--inject-fault``) that kills workers, raises in
  tasks, corrupts cache entries, and delays tasks on demand so every
  recovery path is exercised in tests rather than trusted;
* :mod:`repro.exec.keys` — the canonical hashing behind cache keys;
* :mod:`repro.exec.context` — the process-wide :data:`EXEC` context
  (jobs + cache + retry policy) that ``sweep_grid``/``evaluate_grid``
  consult, in the same spirit as :data:`repro.obs.OBS`.

Defaults are serial and uncached — identical behaviour to a build
without this layer. Entry points opt in: the CLI via ``--jobs`` /
``--no-cache`` / ``--retries`` / ``--task-timeout`` / ``--inject-fault``,
pytest via ``--jobs``, and
``scripts/regenerate_experiments.py`` via its own flags. See
docs/performance.md for the cache layout and measured numbers, and
docs/robustness.md for the failure taxonomy and recovery ladder.
"""

from __future__ import annotations

from repro.exec.cache import (
    CACHE_SCHEMA,
    MISS,
    QUARANTINE_DIR,
    CacheStats,
    ResultCache,
)
from repro.exec.context import (
    DEFAULT_CACHE_DIR,
    EXEC,
    ExecContext,
    configure_exec,
    default_cache_dir,
    execution,
)
from repro.exec.faults import (
    FAULT_POINTS,
    FAULTS,
    FaultPlan,
    FaultSpec,
    armed_faults,
    configure_faults,
    injected_faults,
    parse_fault_spec,
)
from repro.exec.keys import (
    canonical_key,
    code_epoch,
    sampling_key,
    stable_hash,
    try_canonical_key,
    workload_key,
)
from repro.exec.pool import Task, run_tasks
from repro.exec.tiered import (
    DEFAULT_HOT_BYTES,
    HotTier,
    TieredCache,
)
from repro.exec.resilience import (
    DEFAULT_RETRY,
    RetryPolicy,
    clear_checkpoint,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "CACHE_SCHEMA",
    "MISS",
    "QUARANTINE_DIR",
    "CacheStats",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "EXEC",
    "ExecContext",
    "configure_exec",
    "default_cache_dir",
    "execution",
    "FAULT_POINTS",
    "FAULTS",
    "FaultPlan",
    "FaultSpec",
    "armed_faults",
    "configure_faults",
    "injected_faults",
    "parse_fault_spec",
    "canonical_key",
    "code_epoch",
    "sampling_key",
    "stable_hash",
    "try_canonical_key",
    "workload_key",
    "Task",
    "run_tasks",
    "DEFAULT_HOT_BYTES",
    "HotTier",
    "TieredCache",
    "DEFAULT_RETRY",
    "RetryPolicy",
    "clear_checkpoint",
    "read_checkpoint",
    "write_checkpoint",
]
