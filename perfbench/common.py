"""Helpers shared by the workloads: statistics, memory, set-up timing."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: Clock ticks per second in /proc (``SC_CLK_TCK``).
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: list[float], p: float) -> float:
    """Linearly interpolated percentile (numpy's default definition)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(count: int, p: float) -> int:
    """How many of *count* samples lie above the *p*-th percentile."""
    return int(count * (100.0 - p) / 100.0)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, or 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, or 0 if it is gone.

    The kernel leaves hypervisor steal out of this figure, but busy
    neighbours on the host still slow the CPU; :mod:`speed` scales it.
    """
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields 14 and 15 of stat(5), counted after the ")" closing comm.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def fresh_import_cpu_seconds(root: Path, modules: list[str]) -> float:
    """CPU seconds a new interpreter takes to start and import *modules*:
    the process start a user pays before the program does any work."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import " + ", ".join(modules)

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    before = children_cpu()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=root)
    return children_cpu() - before


def steal_jiffies() -> int:
    """CPU time the hypervisor took from the virtual machine, summed over
    CPUs, in clock ticks (the ``steal`` column of /proc/stat; 0 where
    absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def copy_bandwidth_gbps(mib: int = 64, repeats: int = 5) -> float:
    """Host copy bandwidth (bytes read + bytes written per second, in GB/s)
    from the best of *repeats* numpy copies of a *mib*-MiB array: the
    Treibig & Hager streaming ceiling for a bandwidth-bound kernel."""
    import numpy as np

    source = np.ones(mib * 1024 * 1024 // 8)
    target = np.empty_like(source)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(target, source)
        best = min(best, time.perf_counter() - start)
    return 2 * source.nbytes / best / 1e9


@dataclass
class Metric:
    value: float
    unit: str
    #: Shown after the value: sample count, percentile, definition.
    note: str = ""


@dataclass
class Result:
    """One run's outcome; :mod:`run` prints it."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    context: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, note)

    def mismatch(self, what: str) -> None:
        self.mismatches += 1
        self.failed += 1
        self.context.append(f"MISMATCH: {what}")
