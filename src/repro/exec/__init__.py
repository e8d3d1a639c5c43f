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
  recovery path is exercised in tests rather than trusted (the plan it
  arms, :data:`repro.faults.FAULTS`, is a leaf module, so the simulator
  core checks it without importing this package);
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

Importing this package loads none of these modules: each name it
re-exports imports its module on first use, so a serial, uncached run
never loads the process pool.
"""

from repro.util import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.exec.cache": (
            "CACHE_SCHEMA",
            "MISS",
            "QUARANTINE_DIR",
            "ResultCache",
        ),
        "repro.exec.context": (
            "EXEC",
            "ExecContext",
            "configure_exec",
            "default_cache_dir",
            "execution",
        ),
        "repro.exec.faults": ("armed_faults",),
        "repro.exec.keys": (
            "canonical_key",
            "code_epoch",
            "sampling_key",
            "stable_hash",
            "workload_key",
        ),
        "repro.exec.pool": ("Task", "run_tasks"),
        "repro.exec.resilience": (
            "RetryPolicy",
            "clear_checkpoint",
            "read_checkpoint",
            "write_checkpoint",
        ),
    },
)
