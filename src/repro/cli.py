"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available experiments, workloads, and scenario patterns
    (``--json`` for the machine-readable form).
``experiment NAME``
    Regenerate one of the paper's tables/figures and print it.
``simulate WORKLOAD``
    Run one workload through a cache (and optionally the MTC) and print
    the traffic metrics. WORKLOAD is a registry name, a scenario spec
    file (``spec.json`` or ``@spec.json``), or inline
    ``scenario:{...}`` JSON — see docs/scenarios.md.
``scenario list|run|mix``
    The scenario engine: ``list`` prints the pattern vocabulary and spec
    defaults, ``run`` simulates one spec through a cache (the scenario
    analogue of ``simulate``), and ``mix`` attributes a multi-tenant
    mix's misses and traffic per tenant against solo baselines.
``decompose WORKLOAD``
    Run the three-simulation execution-time decomposition on one of the
    paper's machines A-F.
``stats WORKLOAD``
    Print trace statistics (footprint, locality measures).
``profile EXPERIMENT``
    Run one experiment under the instrumentation layer and print a
    stage/throughput profile; ``--output PATH`` also writes it as
    machine-readable JSON.
``cache stats|clear``
    Inspect or empty the on-disk result cache (see docs/performance.md).
    ``stats --json`` emits the machine-readable form (entry/byte/
    quarantine counts) that ops tooling and the server's ``/healthz``
    consume.
``serve``
    Run the simulation service: an asyncio HTTP/JSON server exposing
    ``POST /v1/simulate``, ``POST /v1/sweep``, ``GET /v1/jobs/<id>``,
    ``GET /healthz``, and ``GET /metrics``. ``--queue-depth`` bounds the
    admission queue (full means HTTP 429 + Retry-After),
    ``--max-inflight`` the jobs per scheduler batch, and ``--jobs`` the
    process-pool workers each batch fans across. ``--workers N`` scales
    horizontally: N shards behind a consistent-hashing front router;
    ``--hot-tier-bytes`` budgets the in-memory tier over the disk cache
    and ``--job-history`` bounds the in-memory job table. SIGINT/SIGTERM
    drain the running batch before exiting 0. See docs/serving.md.
``submit simulate|sweep``
    Submit one request to a running server (``--server`` or
    ``$REPRO_SERVER``), wait for completion, and print the result —
    byte-identical to running the equivalent command locally.
    ``submit simulate --scenario spec.json`` submits a scenario spec
    instead of a named workload.
``spans PATH``
    Analyse a span log written by ``--trace-spans``: indented tree view
    with total/self times (default), ``--critical-path`` for the chain
    that determined end-to-end latency, ``--folded`` for flamegraph/
    speedscope input, ``--job ID``/``--trace ID`` to select one trace.

Every simulation command also accepts ``--trace-spans PATH``
(request-scoped timing spans, analysed with ``repro spans``); see
docs/observability.md.
``experiment``, ``simulate``, and ``profile`` additionally take
``--engine {auto,scalar,vector,sampled}`` to pin the simulation engine
and ``--sample-rate R``/``--sample-seed SEED`` to configure the sampled
tier's spatial sample (see docs/performance.md); the
``bench_cache``/``bench_mtc``/``bench_sweep`` experiments time the
scalar and vector engines against each other, and ``bench_sampled``
measures the sampled tier's speedup and error against exact runs.
The ``experiment`` command additionally takes the execution-layer flags
``--jobs N`` (worker processes), ``--no-cache``, and ``--cache-dir PATH``
(result caching is on by default, rooted at ``.repro-cache/``);
``profile`` takes ``--jobs N`` and reports per-worker utilization, but
never uses the result cache — a profile must measure real work.

Fault tolerance (see docs/robustness.md): ``experiment`` and ``profile``
take ``--retries N`` (per-task attempt budget), ``--task-timeout S``
(per-attempt wall clock on the pool path), and ``--inject-fault SPEC``
(the fault-injection harness; also honours ``$REPRO_FAULTS``). An
interrupted ``experiment`` run (Ctrl-C) flushes completed results to the
cache and exits 130 with a resume hint — re-running the same command
resumes from where it died. ``serve`` takes ``--inject-fault`` too: the
serve-layer points (``shard.kill``, ``shard.slow``, ``conn.drop``) crash
or stall forked shards on demand so the router's supervision, failover,
and circuit breakers can be exercised under real chaos (the plan is
armed before the fork, so shards inherit it and budgets are shared
across the tree).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
from collections.abc import Sequence

from repro.errors import ConfigurationError, ReproError, RunInterrupted
from repro.util import format_size, parse_size

#: Experiment name -> module path (all expose run()/render()).
EXPERIMENT_MODULES = {
    name: f"repro.experiments.{name}"
    for name in (
        "figure1",
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "table2",
        "table3",
        "table6",
        "table7",
        "table8",
        "table9",
        "epin",
        "scenarios",
        "bench_cache",
        "bench_mtc",
        "bench_sampled",
        "bench_sweep",
    )
}

#: Mirrors repro.mem.engines.ENGINE_CHOICES (kept literal so building the
#: parser never imports numpy; a test pins the two in sync).
ENGINE_CHOICES = ("auto", "scalar", "vector", "sampled")


def positive_int(text: str) -> int:
    """argparse type for ``--max-refs``/``--jobs``/``--retries``.

    Zero would silently simulate nothing (or spawn no workers) and
    negative values would be passed to numpy slicing with surprising
    semantics, so both are rejected up front (backed by the library's
    ConfigurationError so the message matches every other configuration
    failure).
    """
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from exc
    try:
        if value <= 0:
            raise ConfigurationError(
                f"must be a positive integer, got {value}"
            )
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def positive_float(text: str) -> float:
    """argparse type for ``--task-timeout``: a strictly positive number."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}"
        ) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {value:g}"
        )
    return value


def sample_rate(text: str) -> float:
    """argparse type for ``--sample-rate``: a float in (0, 1]."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a sampling rate, got {text!r}"
        ) from exc
    if not (0.0 < value <= 1.0):  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"sampling rate must be in (0, 1], got {text!r}"
        )
    return value


def port_number(text: str) -> int:
    """argparse type for ``--port``: 0 (ephemeral) through 65535."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a port number, got {text!r}"
        ) from exc
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be in [0, 65535] (0 requests an ephemeral port), "
            f"got {value}"
        )
    return value


def host_name(text: str) -> str:
    """argparse type for ``--host``: a non-empty, whitespace-free name."""
    value = text.strip()
    if not value or any(c.isspace() for c in value):
        raise argparse.ArgumentTypeError(
            f"expected a hostname or address, got {text!r}"
        )
    return value


#: Where ``repro submit`` sends requests unless told otherwise.
DEFAULT_SERVER = "http://127.0.0.1:8765"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Memory Bandwidth Limitations of Future "
            "Microprocessors' (ISCA 1996)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Span tracing, shared by every simulation-running command.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace-spans",
        metavar="PATH",
        default=None,
        help=(
            "write request-scoped timing spans as JSONL to PATH "
            "(analyse with `repro spans`; see docs/observability.md)"
        ),
    )

    # Engine selection shared by the simulation-heavy commands.
    engine_flags = argparse.ArgumentParser(add_help=False)
    engine_flags.add_argument(
        "--engine",
        choices=list(ENGINE_CHOICES),
        default=None,
        help=(
            "simulation engine: auto picks per call, scalar forces the "
            "reference loops, vector requires the fast kernels, sampled "
            "estimates from a spatial reference sample with error bounds "
            "(default: $REPRO_ENGINE or auto)"
        ),
    )
    engine_flags.add_argument(
        "--sample-rate",
        type=sample_rate,
        default=None,
        metavar="R",
        help=(
            "spatial sampling rate in (0, 1] for the sampled engine "
            "(default: $REPRO_SAMPLE_RATE or 0.01; under auto, a rate "
            "opts huge traces into sampling)"
        ),
    )
    engine_flags.add_argument(
        "--sample-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="hash seed for the spatial sample (default: $REPRO_SAMPLE_SEED or 0)",
    )

    # Fault-tolerance knobs shared by the sweep-running commands.
    resilience_flags = argparse.ArgumentParser(add_help=False)
    resilience_flags.add_argument(
        "--retries",
        type=positive_int,
        default=None,
        metavar="N",
        help="per-task attempt budget before escalation/failure (default: 3)",
    )
    resilience_flags.add_argument(
        "--task-timeout",
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget on the pool path (default: none)",
    )
    resilience_flags.add_argument(
        "--inject-fault",
        metavar="SPEC",
        default=None,
        help=(
            "fault-injection spec, e.g. 'worker.kill@Swm;cache.corrupt*2' "
            "or, under serve, 'shard.kill@/v1/simulate' "
            "(also honours $REPRO_FAULTS; see docs/robustness.md)"
        ),
    )

    list_parser = sub.add_parser(
        "list", help="list experiments, workloads, and scenario patterns"
    )
    list_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable listing (experiments + workloads + pattern "
            "vocabulary), one JSON object"
        ),
    )

    experiment = sub.add_parser(
        "experiment",
        parents=[obs_flags, engine_flags, resilience_flags],
        help="regenerate a table/figure",
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENT_MODULES))
    experiment.add_argument(
        "--max-refs",
        type=positive_int,
        default=None,
        help="bound the references per benchmark (speed/fidelity knob)",
    )
    experiment.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes for sweep execution (default: 1, serial)",
    )
    experiment.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run",
    )
    experiment.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="result cache root (default: .repro-cache or $REPRO_CACHE_DIR)",
    )

    simulate = sub.add_parser(
        "simulate",
        parents=[obs_flags, engine_flags],
        help="run a workload through a cache",
    )
    simulate.add_argument("workload")
    simulate.add_argument("--size", default="16KB", help="cache size (e.g. 64KB)")
    simulate.add_argument("--block", type=int, default=32, help="block bytes")
    simulate.add_argument("--assoc", type=int, default=1, help="ways")
    simulate.add_argument(
        "--mtc", action="store_true", help="also run the minimal-traffic cache"
    )
    simulate.add_argument("--max-refs", type=positive_int, default=200_000)
    simulate.add_argument("--seed", type=int, default=0)

    scenario = sub.add_parser(
        "scenario",
        help="parameterized traffic scenarios (see docs/scenarios.md)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_action", required=True)
    scenario_list = scenario_sub.add_parser(
        "list", help="pattern vocabulary, spec defaults, and an example"
    )
    scenario_list.add_argument(
        "--json",
        action="store_true",
        help="machine-readable pattern catalog and defaults",
    )
    scenario_run = scenario_sub.add_parser(
        "run",
        parents=[obs_flags, engine_flags],
        help="simulate one scenario spec through a cache",
    )
    scenario_run.add_argument(
        "spec",
        help="spec file (PATH or @PATH) or inline scenario:{...} JSON",
    )
    scenario_run.add_argument(
        "--size", default="16KB", help="cache size (e.g. 64KB)"
    )
    scenario_run.add_argument("--block", type=int, default=32, help="block bytes")
    scenario_run.add_argument("--assoc", type=int, default=1, help="ways")
    scenario_run.add_argument(
        "--mtc", action="store_true", help="also run the minimal-traffic cache"
    )
    scenario_run.add_argument("--max-refs", type=positive_int, default=200_000)
    scenario_mix = scenario_sub.add_parser(
        "mix",
        parents=[obs_flags],
        help="per-tenant miss/traffic attribution of one scenario mix",
    )
    scenario_mix.add_argument(
        "spec",
        help="spec file (PATH or @PATH) or inline scenario:{...} JSON",
    )
    scenario_mix.add_argument(
        "--size", default="16KB", help="cache size (e.g. 64KB)"
    )
    scenario_mix.add_argument("--block", type=int, default=32, help="block bytes")
    scenario_mix.add_argument("--assoc", type=int, default=1, help="ways")
    scenario_mix.add_argument("--max-refs", type=positive_int, default=200_000)

    decompose = sub.add_parser(
        "decompose",
        parents=[obs_flags],
        help="execution-time decomposition on a machine A-F",
    )
    decompose.add_argument("workload")
    decompose.add_argument(
        "--experiment", default="F", choices=list("ABCDEF"), dest="machine"
    )
    decompose.add_argument("--suite", default=None, choices=["SPEC92", "SPEC95"])
    decompose.add_argument("--max-refs", type=positive_int, default=20_000)
    decompose.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser(
        "stats", parents=[obs_flags], help="trace statistics for a workload"
    )
    stats.add_argument("workload")
    stats.add_argument("--max-refs", type=positive_int, default=200_000)
    stats.add_argument("--seed", type=int, default=0)

    profile = sub.add_parser(
        "profile",
        parents=[obs_flags, engine_flags, resilience_flags],
        help="profile one experiment run (stages, throughput, counters)",
    )
    profile.add_argument("name", choices=sorted(EXPERIMENT_MODULES))
    profile.add_argument(
        "--max-refs",
        type=positive_int,
        default=None,
        help="bound the references per benchmark (speed/fidelity knob)",
    )
    profile.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the profile as JSON to PATH (default: print only)",
    )
    profile.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes for sweep execution (default: 1, serial)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="result cache root (default: .repro-cache or $REPRO_CACHE_DIR)",
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help="machine-readable stats (entries/bytes/quarantined), one JSON object",
    )

    serve = sub.add_parser(
        "serve",
        parents=[resilience_flags],
        help="run the simulation service (HTTP/JSON; see docs/serving.md)",
    )
    serve.add_argument(
        "--host",
        type=host_name,
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=port_number,
        default=8765,
        help="port to bind; 0 picks an ephemeral port (default: 8765)",
    )
    serve.add_argument(
        "--queue-depth",
        type=positive_int,
        default=64,
        metavar="N",
        help="admission-queue capacity; full sheds with 429 (default: 64)",
    )
    serve.add_argument(
        "--max-inflight",
        type=positive_int,
        default=4,
        metavar="N",
        help="jobs drained per scheduler batch (default: 4)",
    )
    serve.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes each batch fans across (default: 1, serial)",
    )
    serve.add_argument(
        "--workers",
        type=positive_int,
        default=1,
        metavar="N",
        help=(
            "server shards: N > 1 forks N servers behind a consistent-"
            "hashing front router (default: 1, in-process)"
        ),
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (and cross-restart coalescing)",
    )
    serve.add_argument(
        "--hot-tier-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "in-memory hot-tier budget over the disk cache "
            "(default: 64 MiB; 0 disables the tier)"
        ),
    )
    serve.add_argument(
        "--job-history",
        type=positive_int,
        default=4096,
        metavar="N",
        help=(
            "retain at most N terminal job records in memory per worker "
            "(evicted results are recovered from the cache on "
            "resubmission; default: 4096)"
        ),
    )
    serve.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="result cache root (default: .repro-cache or $REPRO_CACHE_DIR)",
    )
    serve.add_argument(
        "--trace-spans",
        metavar="PATH",
        default=None,
        help=(
            "write per-request spans (serve -> queue -> pool -> engine) "
            "as JSONL to PATH; analyse with `repro spans`"
        ),
    )

    server_flags = argparse.ArgumentParser(add_help=False)
    server_flags.add_argument(
        "--server",
        metavar="URL",
        default=None,
        help=f"server base url (default: $REPRO_SERVER or {DEFAULT_SERVER})",
    )
    server_flags.add_argument(
        "--timeout",
        type=positive_float,
        default=300.0,
        metavar="SECONDS",
        help="overall submit-and-wait budget (default: 300)",
    )
    server_flags.add_argument(
        "--poll",
        type=positive_float,
        default=0.05,
        metavar="SECONDS",
        help="job-status polling interval (default: 0.05)",
    )

    submit = sub.add_parser(
        "submit", help="submit one request to a running server and wait"
    )
    submit_sub = submit.add_subparsers(dest="request_kind", required=True)

    submit_simulate = submit_sub.add_parser(
        "simulate",
        parents=[server_flags],
        help="served equivalent of `repro simulate`",
    )
    submit_simulate.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="named workload (or use --scenario for a spec file)",
    )
    submit_simulate.add_argument(
        "--scenario",
        metavar="PATH",
        default=None,
        help=(
            "submit a scenario spec file instead of a named workload "
            "(the spec carries its own seed; --seed is rejected with it)"
        ),
    )
    submit_simulate.add_argument(
        "--size", default="16KB", help="cache size (e.g. 64KB)"
    )
    submit_simulate.add_argument("--block", type=int, default=32, help="block bytes")
    submit_simulate.add_argument("--assoc", type=int, default=1, help="ways")
    submit_simulate.add_argument(
        "--mtc", action="store_true", help="also run the minimal-traffic cache"
    )
    submit_simulate.add_argument("--max-refs", type=positive_int, default=200_000)
    submit_simulate.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "trace seed for a named workload (default: 0; rejected with "
            "--scenario, whose spec carries the seed)"
        ),
    )

    submit_sweep = submit_sub.add_parser(
        "sweep",
        parents=[server_flags],
        help="served equivalent of `repro experiment`",
    )
    submit_sweep.add_argument("name", choices=sorted(EXPERIMENT_MODULES))
    submit_sweep.add_argument(
        "--max-refs",
        type=positive_int,
        default=None,
        help="bound the references per benchmark (speed/fidelity knob)",
    )
    submit_sweep.add_argument(
        "--engine",
        choices=list(ENGINE_CHOICES),
        default=None,
        help="simulation engine for the served run",
    )

    spans = sub.add_parser(
        "spans",
        help="analyse a span log written by --trace-spans "
        "(tree, critical path, folded stacks)",
    )
    spans.add_argument(
        "log",
        metavar="PATH",
        help="span JSONL log produced by --trace-spans",
    )
    select = spans.add_mutually_exclusive_group()
    select.add_argument(
        "--job",
        metavar="ID",
        default=None,
        help="select the trace of one served job (matches the "
        "serve.request root's job attribute; prefixes accepted)",
    )
    select.add_argument(
        "--trace",
        metavar="ID",
        default=None,
        help="select one trace by id",
    )
    spans.add_argument(
        "--critical-path",
        action="store_true",
        help="print only the critical path (longest chain to the last "
        "finishing leaf) instead of the full tree",
    )
    spans.add_argument(
        "--folded",
        action="store_true",
        help="emit folded stacks (`a;b;c <self-µs>`) for flamegraph.pl "
        "or speedscope instead of the tree view",
    )

    return parser


def _cmd_list(args, out) -> None:
    from repro.workloads.registry import all_workloads

    if getattr(args, "json", False):
        from repro.scenario.patterns import pattern_catalog
        from repro.scenario.spec import SCENARIO_DEFAULTS, SCENARIO_SCHEMA

        payload = {
            "schema": "repro.list/v1",
            "experiments": [
                {
                    "name": name,
                    "summary": (
                        importlib.import_module(EXPERIMENT_MODULES[name])
                        .__doc__ or ""
                    ).strip().splitlines()[0],
                }
                for name in sorted(EXPERIMENT_MODULES)
            ],
            "workloads": [
                {
                    "name": workload.name,
                    "suite": workload.suite,
                    "behaviour": workload.behaviour,
                }
                for workload in all_workloads()
            ],
            "patterns": pattern_catalog(),
            "scenario_defaults": SCENARIO_DEFAULTS,
            "scenario_schema": SCENARIO_SCHEMA,
        }
        json.dump(payload, out, sort_keys=True)
        print(file=out)
        return
    print("experiments:", file=out)
    for name in sorted(EXPERIMENT_MODULES):
        module = importlib.import_module(EXPERIMENT_MODULES[name])
        summary = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<10s} {summary}", file=out)
    print("\nworkloads:", file=out)
    for workload in all_workloads():
        print(
            f"  {workload.name:<10s} {workload.suite}  {workload.behaviour}",
            file=out,
        )
    print("\nscenario patterns (see `repro scenario list`):", file=out)
    from repro.scenario.patterns import PATTERN_KINDS

    for kind, (_, description) in PATTERN_KINDS.items():
        print(f"  {kind:<10s} {description}", file=out)


def _retry_policy(args):
    """The RetryPolicy for --retries/--task-timeout, or None for defaults."""
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "task_timeout", None)
    if retries is None and timeout is None:
        return None
    from repro.exec.resilience import RetryPolicy

    return RetryPolicy(
        attempts=retries if retries is not None else 3, timeout=timeout
    )


def run_experiment(name: str, max_refs: int | None = None) -> str:
    """Import, run and render experiment *name*: ``repro experiment``'s text.

    A served sweep returns this text too, so the two cannot differ.
    *max_refs* reaches only the experiments whose ``run`` takes it, the
    rule ``repro profile`` applies as well.
    """
    from repro.obs.profiler import run_kwargs

    module = importlib.import_module(EXPERIMENT_MODULES[name])
    result = module.run(**run_kwargs(module.run, max_refs))
    return module.render(result) + "\n"


def _cmd_experiment(args, out) -> None:
    from repro.exec.context import EXEC, default_cache_dir, execution
    from repro.exec.resilience import clear_checkpoint, read_checkpoint

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or default_cache_dir()
    with execution(
        jobs=args.jobs, cache_dir=cache_dir, retry=_retry_policy(args)
    ):
        if EXEC.cache is not None:
            marker = read_checkpoint(EXEC.cache)
            if marker is not None:
                print(
                    f"resuming: a previous run was interrupted after "
                    f"{marker.get('completed', '?')}/{marker.get('total', '?')} "
                    f"tasks; reusing its checkpointed results",
                    file=sys.stderr,
                )
        text = run_experiment(args.name, args.max_refs)
        if EXEC.cache is not None:
            corrupt = (
                f", {EXEC.cache.corrupt} quarantined"
                if EXEC.cache.corrupt
                else ""
            )
            print(
                f"cache: {EXEC.cache.hits} hits, {EXEC.cache.misses} misses"
                f"{corrupt} ({EXEC.cache.root})",
                file=sys.stderr,
            )
            clear_checkpoint(EXEC.cache)
    out.write(text)


def _names_scenario(text: str) -> bool:
    """True when a workload argument spells a scenario spec: inline
    ``scenario:{...}`` JSON, ``@spec.json`` or ``spec.json``."""
    return text.startswith(("scenario:", "@")) or text.endswith(".json")


def _resolve_workload(text: str):
    """A workload from a CLI argument: registry name, spec file, or
    inline ``scenario:{...}`` JSON (see docs/scenarios.md). Only a spec
    loads the scenario engine."""
    if _names_scenario(text):
        from repro.scenario.workload import resolve_workload

        return resolve_workload(text)
    from repro.workloads.registry import get_workload

    return get_workload(text)


def _workload_seed(workload, cli_seed: int) -> int:
    """The trace seed for one resolved workload.

    A scenario's seed lives in its spec (it is part of the content
    address), so the spec wins over the CLI flag; named workloads use
    the flag unchanged.
    """
    spec = getattr(workload, "spec", None)
    return spec.seed if spec is not None else cli_seed


def _cmd_simulate(args, out) -> None:
    workload = _resolve_workload(args.workload)
    trace = workload.generate(
        seed=_workload_seed(workload, args.seed), max_refs=args.max_refs
    )
    size = parse_size(args.size)
    out.write(simulation_report(trace, size, args.block, args.assoc, args.mtc))


def simulation_report(
    trace, size: int, block: int, assoc: int, mtc: bool
) -> str:
    """The ``repro simulate`` report for one generated trace.

    ``simulate``, ``scenario run`` and a served simulate job all print
    this text, so they can never drift. *size* is in bytes; *mtc* adds
    the minimal-traffic cache and the inefficiency G.
    """
    from repro.mem.cache import Cache, CacheConfig
    from repro.mem.mtc import MinimalTrafficCache, MTCConfig

    config = CacheConfig(
        size_bytes=size, block_bytes=block, associativity=assoc
    )
    stats = Cache(config).simulate(trace)
    envelope = stats.estimate
    lines = [
        f"workload: {trace.name} ({len(trace):,} refs)",
        f"cache:    {config.describe()}",
    ]
    if envelope is not None:
        lines += [
            f"sampled:  {envelope.describe()}",
            f"miss rate:      {stats.miss_rate:.4f} "
            f"± {envelope.miss_rate_half_width:.4f} (estimate)",
            f"total traffic:  {stats.total_traffic_bytes:,} bytes (estimate)",
            f"traffic ratio:  {stats.traffic_ratio:.3f} "
            f"± {envelope.traffic_ratio_half_width:.3f} (estimate)",
        ]
    else:
        lines += [
            f"miss rate:      {stats.miss_rate:.4f}",
            f"total traffic:  {stats.total_traffic_bytes:,} bytes",
            f"traffic ratio:  {stats.traffic_ratio:.3f}",
        ]
    if mtc:
        minimal = MinimalTrafficCache(MTCConfig(size_bytes=size))
        mtc_stats = minimal.simulate(trace)
        g = stats.total_traffic_bytes / mtc_stats.total_traffic_bytes
        mtc_envelope = mtc_stats.estimate
        tag = " (estimate)" if mtc_envelope is not None else ""
        lines.append(
            f"MTC traffic:    {mtc_stats.total_traffic_bytes:,} bytes{tag}"
        )
        if envelope is not None or mtc_envelope is not None:
            lines.append(f"inefficiency G: {g:.2f} (estimate)")
        else:
            lines.append(f"inefficiency G: {g:.2f}")
    return "\n".join(lines) + "\n"


def _require_spec(text: str):
    """The ScenarioSpec for a ``repro scenario`` SPEC argument."""
    from repro.scenario.spec import resolve_spec_argument

    return resolve_spec_argument(text if _names_scenario(text) else "@" + text)


def _print_scenario_header(spec, out) -> None:
    print(f"scenario: {spec.display_name} ({spec.scenario_id()})", file=out)
    print(
        f"tenants:  {len(spec.tenants)}  quantum {spec.quantum}  "
        f"seed {spec.seed}  refs {spec.refs:,}",
        file=out,
    )
    for tenant, refs in zip(spec.tenants, spec.tenant_refs()):
        print(
            f"  {tenant.name:<10s} {tenant.pattern['kind']:<10s} "
            f"weight {tenant.weight}  "
            f"footprint {format_size(tenant.footprint_bytes)}  "
            f"writes {tenant.write_fraction:.0%}  refs {refs:,}",
            file=out,
        )


def _cmd_scenario(args, out) -> None:
    if args.scenario_action == "list":
        _cmd_scenario_list(args, out)
    elif args.scenario_action == "run":
        _cmd_scenario_run(args, out)
    else:
        _cmd_scenario_mix(args, out)


def _cmd_scenario_list(args, out) -> None:
    from repro.scenario.patterns import pattern_catalog
    from repro.scenario.spec import SCENARIO_DEFAULTS, SCENARIO_SCHEMA

    if args.json:
        json.dump(
            {
                "schema": "repro.scenario-list/v1",
                "scenario_schema": SCENARIO_SCHEMA,
                "defaults": SCENARIO_DEFAULTS,
                "patterns": pattern_catalog(),
            },
            out,
            sort_keys=True,
        )
        print(file=out)
        return
    print("patterns:", file=out)
    for entry in pattern_catalog():
        print(f"  {entry['kind']:<10s} {entry['description']}", file=out)
    print("\nspec defaults:", file=out)
    for field, value in SCENARIO_DEFAULTS.items():
        print(f"  {field:<15s} {value}", file=out)
    print(
        "\nexample spec (run with `repro scenario run spec.json`):",
        file=out,
    )
    example = {
        "name": "checkout-mix",
        "footprint": "1MB",
        "refs": 200_000,
        "tenants": [
            {"pattern": {"kind": "zipfian", "alpha": 1.1}, "weight": 2},
            {"pattern": {"kind": "bursty"}},
        ],
    }
    print(json.dumps(example, indent=2), file=out)


def _cmd_scenario_run(args, out) -> None:
    from repro.scenario.workload import ScenarioWorkload

    spec = _require_spec(args.spec)
    _print_scenario_header(spec, out)
    trace = ScenarioWorkload(spec).generate(max_refs=args.max_refs)
    size = parse_size(args.size)
    out.write(simulation_report(trace, size, args.block, args.assoc, args.mtc))


def _cmd_scenario_mix(args, out) -> None:
    from repro.mem.cache import CacheConfig
    from repro.scenario.mixer import MixedTrace, attribute_traffic, mix
    from repro.trace.model import MemTrace

    spec = _require_spec(args.spec)
    mixed = mix(spec)
    if args.max_refs < len(mixed):
        mixed = MixedTrace(
            trace=MemTrace(
                mixed.trace.addresses[: args.max_refs],
                mixed.trace.is_write[: args.max_refs],
                name=mixed.trace.name,
            ),
            tenant_ids=mixed.tenant_ids[: args.max_refs],
            tenant_names=mixed.tenant_names,
        )
    config = CacheConfig(
        size_bytes=parse_size(args.size),
        block_bytes=args.block,
        associativity=args.assoc,
    )
    report = attribute_traffic(mixed, config)
    _print_scenario_header(spec, out)
    print(f"cache:    {config.describe()}", file=out)
    print(
        f"\n{'tenant':<10s} {'refs':>9s} {'miss rate':>10s} "
        f"{'traffic':>14s} {'share':>7s} {'expansion':>10s}",
        file=out,
    )
    total = report.total_traffic_bytes or 1
    for usage in report.tenants:
        print(
            f"{usage.name:<10s} {usage.refs:>9,} {usage.miss_rate:>10.4f} "
            f"{usage.traffic_bytes:>12,} B "
            f"{usage.traffic_bytes / total:>6.1%} "
            f"{usage.traffic_expansion:>9.2f}x",
            file=out,
        )
    print(
        f"{'total':<10s} {len(mixed):>9,} "
        f"{report.total_misses / (len(mixed) or 1):>10.4f} "
        f"{report.total_traffic_bytes:>12,} B {'100.0%':>7s} "
        f"{report.traffic_expansion:>9.2f}x",
        file=out,
    )
    print(
        f"\ninterference: sharing the cache moved "
        f"{report.traffic_expansion:.2f}x the traffic of the tenants "
        f"running alone",
        file=out,
    )


def _cmd_decompose(args, out) -> None:
    from repro.cpu.configs import experiment
    from repro.cpu.machine import decompose_experiment

    workload = _resolve_workload(args.workload)
    # A scenario belongs to no SPEC suite; decompose it on the paper's
    # SPEC92 machines (the frame experiments/scenarios.py uses).
    suite = args.suite or (
        workload.suite if workload.suite in ("SPEC92", "SPEC95") else "SPEC92"
    )
    config = experiment(args.machine, suite)
    result = decompose_experiment(
        workload,
        config,
        seed=_workload_seed(workload, args.seed),
        max_refs=args.max_refs,
    )
    d = result.decomposition
    print(f"workload:   {workload.name} ({suite})", file=out)
    print(f"experiment: {args.machine}", file=out)
    print(f"cycles:     T_P={d.cycles_perfect:,} T_I={d.cycles_infinite:,} "
          f"T={d.cycles_full:,}", file=out)
    print(f"fractions:  f_P={d.f_p:.3f} f_L={d.f_l:.3f} f_B={d.f_b:.3f}", file=out)
    print(f"IPC (full): {result.full.ipc:.2f}", file=out)


def _cmd_profile(args, out) -> None:
    from repro.obs.profiler import (
        profile_experiment,
        render_profile,
        write_profile,
    )

    # Open the destination before the run, so a bad path fails at once
    # instead of after the whole experiment.
    destination = contextlib.nullcontext()
    if args.output is not None:
        try:
            destination = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open --output path {args.output!r}: {exc}"
            ) from exc
    with destination as handle:
        profile, rendered = profile_experiment(
            args.name, max_refs=args.max_refs, jobs=args.jobs
        )
        print(rendered, file=out)
        print(file=out)
        print(render_profile(profile), file=out)
        if handle is not None:
            write_profile(profile, handle)
            print(f"\nwrote {args.output}", file=out)


def _cmd_cache(args, out) -> None:
    from repro.exec.cache import ResultCache
    from repro.exec.context import default_cache_dir

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.action == "stats":
        if getattr(args, "json", False):
            json.dump(cache.stats().to_json(), out, sort_keys=True)
            print(file=out)
        else:
            print(cache.stats().describe(), file=out)
    else:
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}", file=out)


def _cmd_serve(args) -> int:
    from repro.exec.context import default_cache_dir
    from repro.serve.router import ShardedServer
    from repro.serve.server import ServeConfig, SimulationServer

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or default_cache_dir()
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        max_inflight=args.max_inflight,
        jobs=args.jobs,
        cache_dir=cache_dir,
        retry=_retry_policy(args),
        trace_spans=args.trace_spans,
        hot_bytes=args.hot_tier_bytes,
        workers=args.workers,
        job_history=args.job_history,
    )
    if config.workers > 1:
        return ShardedServer(config).run()
    return SimulationServer(config).run()


def _cmd_submit(args, out) -> None:
    from repro.serve.client import ServeClient

    server = args.server or os.environ.get("REPRO_SERVER") or DEFAULT_SERVER
    if args.request_kind == "simulate":
        if (args.workload is None) == (args.scenario is None):
            raise ConfigurationError(
                "give exactly one of WORKLOAD or --scenario PATH"
            )
        fields = {
            "size": args.size,
            "block": args.block,
            "assoc": args.assoc,
            "mtc": args.mtc,
            "max_refs": args.max_refs,
        }
        if args.scenario is not None:
            if args.seed is not None:
                raise ConfigurationError(
                    "--seed is rejected with --scenario: the spec carries "
                    "its own seed"
                )
            spec = _require_spec(args.scenario)
            fields["scenario"] = spec.canonical()
        else:
            fields["workload"] = args.workload
            if args.seed is not None:
                fields["seed"] = args.seed
    else:
        fields = {"experiment": args.name}
        if args.max_refs is not None:
            fields["max_refs"] = args.max_refs
        if args.engine is not None:
            fields["engine"] = args.engine
    client = ServeClient(server, timeout=args.timeout)
    record = client.run(
        args.request_kind, fields, timeout=args.timeout, poll=args.poll
    )
    note = " (coalesced)" if record.get("coalesced") else ""
    print(f"job {record['job']}: done{note}", file=sys.stderr)
    out.write(record["result"]["output"])


def _cmd_spans(args, out) -> None:
    from repro.obs.spans import (
        build_trees,
        folded_stacks,
        read_spans,
        render_critical_path,
        render_tree,
        select_trace,
    )

    roots = build_trees(read_spans(args.log))
    if not roots:
        raise ConfigurationError(f"span log {args.log!r} contains no spans")
    if args.job is not None or args.trace is not None:
        roots = [select_trace(roots, trace=args.trace, job=args.job)]
    if args.folded:
        for line in folded_stacks(roots):
            print(line, file=out)
        return
    for index, root in enumerate(roots):
        if index:
            print(file=out)
        if args.critical_path:
            print(render_critical_path(root), file=out)
            continue
        print(render_tree(root), file=out)
        if args.job is not None:
            # The question behind --job is almost always "where did the
            # time go?", so the critical path rides along with the tree.
            print(file=out)
            print(render_critical_path(root), file=out)


def _cmd_stats(args, out) -> None:
    from repro.trace.stats import compute_stats

    workload = _resolve_workload(args.workload)
    trace = workload.generate(
        seed=_workload_seed(workload, args.seed), max_refs=args.max_refs
    )
    stats = compute_stats(trace)
    print(f"workload:            {trace.name}", file=out)
    print(f"references:          {stats.references:,} "
          f"({stats.write_fraction:.1%} writes)", file=out)
    print(f"footprint:           {format_size(stats.footprint_bytes)} "
          f"({stats.footprint_bytes:,} bytes)", file=out)
    print(f"sequential fraction: {stats.sequential_fraction:.3f}", file=out)
    print(f"reuse fraction:      {stats.reuse_fraction:.3f}", file=out)
    print(f"median reuse dist.:  {stats.median_reuse_distance:g} words", file=out)


def _configure_tracing(args) -> bool:
    """Enable span tracing when ``--trace-spans`` was given.

    Returns True when the tracer was armed (the caller must deactivate
    it again so the process-wide ``TRACER`` returns to its zero-overhead
    default). ``serve`` is excluded: the server configures the tracer
    for its own lifetime via :class:`~repro.serve.server.ServeConfig`.
    """
    if getattr(args, "command", None) == "serve":
        return False
    path = getattr(args, "trace_spans", None)
    if not path:
        return False
    from repro.obs import configure_tracing

    try:
        configure_tracing(path)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot open --trace-spans path {path!r}: {exc}"
        ) from exc
    return True


def _engine_context(args):
    """Context manager pinning the engine when ``--engine`` was given.

    With no flag the process default stays in charge (``$REPRO_ENGINE``
    or auto) and :mod:`repro.mem.engines` — hence numpy — is never
    imported just to parse the command line.
    """
    engine = getattr(args, "engine", None)
    if engine is None or getattr(args, "command", None) == "submit":
        # submit's --engine is a request field the *server* applies.
        return contextlib.nullcontext()
    from repro.mem.engines import use_engine

    return use_engine(engine)


def _sampling_context(args):
    """Context manager pinning the sampling parameters when flags ask.

    Mirrors :func:`_engine_context`: with neither ``--sample-rate`` nor
    ``--sample-seed`` the process default stays in charge
    (``$REPRO_SAMPLE_RATE``/``$REPRO_SAMPLE_SEED`` or unconfigured) and
    numpy is never imported just to parse the command line.
    """
    rate = getattr(args, "sample_rate", None)
    seed = getattr(args, "sample_seed", None)
    if (rate is None and seed is None) or getattr(
        args, "command", None
    ) == "submit":
        return contextlib.nullcontext()
    from repro.mem.engines import current_engine
    from repro.mem.sampled import (
        SamplingConfig,
        current_sampling,
        default_sampling,
        use_sampling,
    )

    base = current_sampling()
    if base is None:
        # A seed alone configures no rate, so it opts ``auto`` into
        # nothing; only the sampled engine, at its default rate, draws
        # a sample for it to seed.
        if rate is None and (args.engine or current_engine()) != "sampled":
            return contextlib.nullcontext()
        base = default_sampling(seed)
    return use_sampling(
        SamplingConfig(
            base.rate if rate is None else rate,
            seed=base.seed if seed is None else seed,
            strata=base.strata,
        )
    )


@contextlib.contextmanager
def _fault_injection(args):
    """Arm the fault harness for the command when ``--inject-fault`` or
    ``$REPRO_FAULTS`` asks (:func:`repro.exec.faults.armed_faults`)."""
    spec = getattr(args, "inject_fault", None) or os.environ.get(
        "REPRO_FAULTS"
    )
    if not spec:
        yield
        return
    from repro.exec.faults import armed_faults

    with armed_faults(spec):
        print(f"fault injection armed: {spec}", file=sys.stderr)
        yield


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    tracing = False
    try:
        tracing = _configure_tracing(args)
        with _fault_injection(args), _engine_context(args), _sampling_context(
            args
        ):
            if tracing:
                # One root span per invocation so local traces form a
                # single tree, mirroring serve.request on the server.
                from repro.obs import TRACER

                with TRACER.span(f"cli.{args.command}", command=args.command):
                    return _dispatch(args, out)
            return _dispatch(args, out)
    except RunInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Piping into `head`/`grep -q` closes stdout early; exit with
        # the conventional SIGPIPE status instead of a traceback. The
        # devnull dup keeps the interpreter's shutdown flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracing:
            from repro.obs import disable_tracing

            disable_tracing()


def _dispatch(args, out) -> int:
    if args.command == "list":
        _cmd_list(args, out)
    elif args.command == "experiment":
        _cmd_experiment(args, out)
    elif args.command == "simulate":
        _cmd_simulate(args, out)
    elif args.command == "scenario":
        _cmd_scenario(args, out)
    elif args.command == "decompose":
        _cmd_decompose(args, out)
    elif args.command == "stats":
        _cmd_stats(args, out)
    elif args.command == "profile":
        _cmd_profile(args, out)
    elif args.command == "cache":
        _cmd_cache(args, out)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "submit":
        _cmd_submit(args, out)
    elif args.command == "spans":
        _cmd_spans(args, out)
    return 0
