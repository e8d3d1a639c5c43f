"""repro.serve — simulation-as-a-service: the async batch server.

The paper's experiments become queryable jobs behind a stdlib-only
HTTP/JSON service (``repro serve`` / ``repro submit``). The layer
*composes* the existing subsystems rather than reimplementing any of
them:

* :mod:`repro.serve.protocol` — request schemas, normalisation, and
  content-addressed job ids built on the exec layer's canonical hashing;
* :mod:`repro.serve.jobs` — job records plus the single worker-side
  executor, which calls the function whose text the equivalent CLI
  command prints, so served output is byte-identical to the shell
  invocation;
* :mod:`repro.serve.admission` — the bounded admission queue: full means
  HTTP 429 + ``Retry-After``, never unbounded buffering;
* :mod:`repro.serve.scheduler` — drains batches into
  :func:`repro.exec.run_tasks` (PR-2 process pool, PR-4 retry/timeout
  and crash recovery, result cache as journal);
* :mod:`repro.serve.server` — the HTTP connection loop and drain both
  servers share (keep-alive), plus the asyncio server's routing, live
  ``/metrics`` (obs-registry text exposition) and ``/healthz``;
* :mod:`repro.serve.shard` / :mod:`repro.serve.router` — horizontal
  scale-out: ``--workers N`` forks N servers behind a consistent-hashing
  front router, so coalescing and the in-memory hot tier
  (:class:`repro.exec.tiered.TieredCache`) keep per-shard key locality;
* :mod:`repro.serve.client` — the pure-python client used by the CLI,
  the tests, and ``scripts/load_serve.py``.

Identical configs submitted by N clients cost one simulation: job ids
are content addresses, in-flight and completed duplicates coalesce in
the job table (``serve.coalesced``), repeats of finished work are
answered inline from the tiered result cache (``serve.cache.answered``),
and the disk tier extends the dedupe across server restarts. See
docs/serving.md for the endpoint reference, semantics, and the ops
runbook.
"""

from repro.util import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.serve.client": ("ServeClient",),
        "repro.serve.router": ("ShardedServer",),
        "repro.serve.server": ("ServeConfig",),
        "repro.serve.shard": ("HashRing",),
    },
)
