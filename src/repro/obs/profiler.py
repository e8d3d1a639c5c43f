"""Experiment profiling harness: wall-clock, throughput, per-stage timing.

Wraps one experiment module (``repro.experiments.<name>``) in the
instrumentation layer, times its import/run/render stages, and produces a
:class:`RunProfile` — printed as a human table by :func:`render_profile`
and, when ``repro profile --output PATH`` names a file, written as
machine-readable JSON by :func:`write_profile`.

Schema ``repro.profile/v3``::

    {
      "schema": "repro.profile/v3",
      "experiment": "table2",
      "max_refs": 5000,
      "engine": "auto",              # resolved engine selection
      "wall_seconds": 1.234,
      "stages": [{"name": "run", "seconds": 1.2,
                  "references": 123456,          # refs in this stage
                  "refs_per_second": 102880.0}, ...],
      "references": 123456,          # word refs simulated (cache + MTC)
      "refs_per_second": 101234.5,   # references / run-stage seconds
      "counters": {...},             # deterministic under a fixed seed
      "timers": {...},               # bounded timer snapshots, wall clock
      "gauges": {...},               # e.g. exec.jobs for parallel runs
      "python": "3.12.3"
    }

v3 over v2: every duration is one bounded timer kind, so ``timers``
holds each timer's fixed-bucket snapshot (``count``, ``total_s``,
``mean_s``, ``min_s``, ``max_s``, ``p50_s``, ``p95_s``, ``p99_s``) and
the separate ``histograms`` table is gone. ``count`` and ``total_s``
stay exact; the percentiles are estimated within a bucket. Each
profiled stage records a ``profile.stage.<name>`` timer, so ``timers``
is never empty (the v2 guarantee).

Profiled runs never use the execution layer's result cache — a profile
must measure real simulation work, not disk reads — but they do honour
``jobs`` so multi-worker throughput can be compared against the serial
baseline (the ``exec.worker.time`` timer and ``exec.jobs`` gauge feed
the worker-utilization line).
"""

from __future__ import annotations

import importlib
import inspect
import json
import platform
import time
from dataclasses import dataclass, field
from typing import TextIO

from repro.errors import ConfigurationError
from repro.obs import OBS, instrumented
from repro.util import fraction

__all__ = [
    "PROFILE_SCHEMA",
    "StageTiming",
    "RunProfile",
    "profile_experiment",
    "render_profile",
    "run_kwargs",
    "write_profile",
]

PROFILE_SCHEMA = "repro.profile/v3"

#: Counters summed into the profile's simulated-reference throughput.
_REFERENCE_COUNTERS = ("cache.accesses", "mtc.accesses")


@dataclass(frozen=True, slots=True)
class StageTiming:
    """Wall-clock seconds spent in one named stage of a run.

    *references* counts the word references simulated while the stage
    ran (cache + MTC engines combined), so per-stage throughput shows
    which stage the simulation kernels actually ran in.
    """

    name: str
    seconds: float
    references: int = 0

    @property
    def refs_per_second(self) -> float:
        return fraction(self.references, self.seconds)


@dataclass(slots=True)
class RunProfile:
    """Everything measured about one profiled experiment run."""

    experiment: str
    max_refs: int | None
    wall_seconds: float
    stages: list[StageTiming]
    counters: dict[str, int]
    timers: dict[str, dict[str, float]] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    engine: str = "auto"

    @property
    def references(self) -> int:
        """Word references simulated, summed over all cache engines."""
        return sum(self.counters.get(name, 0) for name in _REFERENCE_COUNTERS)

    @property
    def run_seconds(self) -> float:
        for stage in self.stages:
            if stage.name == "run":
                return stage.seconds
        return self.wall_seconds

    @property
    def refs_per_second(self) -> float:
        return fraction(self.references, self.run_seconds)

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": PROFILE_SCHEMA,
            "experiment": self.experiment,
            "max_refs": self.max_refs,
            "engine": self.engine,
            "wall_seconds": self.wall_seconds,
            "stages": [
                {
                    "name": stage.name,
                    "seconds": stage.seconds,
                    "references": stage.references,
                    "refs_per_second": stage.refs_per_second,
                }
                for stage in self.stages
            ],
            "references": self.references,
            "refs_per_second": self.refs_per_second,
            "counters": self.counters,
            "timers": self.timers,
            "gauges": self.gauges,
            "python": platform.python_version(),
        }


def run_kwargs(run, max_refs: int | None) -> dict[str, object]:
    """Pass ``max_refs`` only to experiments whose run() accepts it.

    ``repro profile``, ``repro experiment`` and served sweeps all use
    this rule, so an error inside ``run`` is never mistaken for a
    missing parameter.
    """
    if max_refs is None:
        return {}
    parameters = inspect.signature(run).parameters
    return {"max_refs": max_refs} if "max_refs" in parameters else {}


def profile_experiment(
    name: str,
    *,
    max_refs: int | None = None,
    jobs: int = 1,
) -> tuple[RunProfile, str]:
    """Run experiment *name* under full instrumentation.

    Returns ``(profile, rendered_table)`` where *rendered_table* is the
    experiment's normal output (so a profiled run still shows its
    results). A fresh metrics registry is installed for the duration; the
    previous :data:`~repro.obs.OBS` state is restored afterwards. *jobs* > 1
    runs the experiment's sweeps on a process pool; the result cache stays
    off so every profiled second is simulation, not disk.
    """
    from repro.exec.context import execution
    from repro.mem import engines

    module_path = f"repro.experiments.{name}"
    overall_start = time.perf_counter()
    stages: list[StageTiming] = []

    def simulated_references() -> int:
        counters = OBS.registry.snapshot()["counters"]
        return sum(counters.get(key, 0) for key in _REFERENCE_COUNTERS)

    def staged(stage_name: str, fn):
        start = time.perf_counter()
        before = simulated_references()
        result = fn()
        seconds = time.perf_counter() - start
        # The same duration also lands in a registry timer so the
        # machine-readable profile's "timers" table is never empty.
        OBS.observe(f"profile.stage.{stage_name}", seconds)
        stages.append(
            StageTiming(
                stage_name,
                seconds,
                references=simulated_references() - before,
            )
        )
        return result

    with instrumented(), execution(jobs=jobs):
        try:
            module = staged(
                "import", lambda: importlib.import_module(module_path)
            )
        except ImportError as exc:
            raise ConfigurationError(f"no experiment named {name!r}") from exc
        result = staged(
            "run", lambda: module.run(**run_kwargs(module.run, max_refs))
        )
        rendered = staged("render", lambda: module.render(result))
        snapshot = OBS.registry.snapshot()

    profile = RunProfile(
        experiment=name,
        max_refs=max_refs,
        wall_seconds=time.perf_counter() - overall_start,
        stages=stages,
        counters=snapshot["counters"],
        timers=snapshot["timers"],
        gauges=snapshot["gauges"],
        engine=engines.resolve_engine(),
    )
    return profile, rendered


def render_profile(profile: RunProfile) -> str:
    """The human-readable run profile printed by ``repro profile``."""
    from repro.util import format_table

    lines = [
        f"profile: {profile.experiment}"
        + (f" (max_refs={profile.max_refs:,})" if profile.max_refs else "")
        + f" [engine={profile.engine}]",
        "",
    ]
    rows = [
        [
            stage.name,
            f"{stage.seconds:.3f}s",
            f"{fraction(stage.seconds, profile.wall_seconds):.1%}",
            f"{stage.refs_per_second:,.0f}" if stage.references else "-",
        ]
        for stage in profile.stages
    ]
    rows.append(
        ["total", f"{profile.wall_seconds:.3f}s", "100.0%", "-"]
    )
    lines.append(format_table(["stage", "seconds", "share", "refs/s"], rows))
    lines.append("")
    lines.append(
        f"references simulated: {profile.references:,} "
        f"({profile.refs_per_second:,.0f} refs/sec)"
    )
    worker = profile.timers.get("exec.worker.time")
    jobs = int(profile.gauges.get("exec.jobs", 0))
    if worker and jobs:
        busy = worker.get("total_s", 0.0)
        budget = jobs * profile.run_seconds
        lines.append(
            f"workers: {jobs} ({busy:.3f}s busy, "
            f"{fraction(busy, budget):.1%} utilization)"
        )
    hot = sorted(
        profile.counters.items(), key=lambda item: item[1], reverse=True
    )[:8]
    if hot:
        lines.append("top counters:")
        width = max(len(name) for name, _ in hot)
        for counter_name, value in hot:
            lines.append(f"  {counter_name:<{width}s}  {value:,}")
    return "\n".join(lines)


def write_profile(profile: RunProfile, handle: TextIO) -> None:
    """Write the machine-readable profile JSON (sorted keys, indented)
    to an open text file."""
    json.dump(profile.to_dict(), handle, indent=2, sort_keys=True)
    handle.write("\n")
