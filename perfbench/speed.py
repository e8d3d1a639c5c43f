"""Host speed probes: scale CPU times to a quiet host.

On a shared host, busy neighbours slow this machine's CPUs by up to
half, with little or no hypervisor steal to show for it. The slowdown is
uniform across the program: under cProfile, identical regen passes that
differ by 20% in CPU time differ by the same 20% in every function, from
the numpy trace generators to the interpreted timing cores. Identical
passes in one process took from 2.4 to 4.1 s of CPU, and the host's
speed changes from one second to the next.

So the benchmark times a fixed piece of pure Python, :func:`kernel`,
alongside the work, and scales each CPU time by how fast the kernel ran
meanwhile: a time *t* measured while the kernel took *k* seconds counts
as ``t * REFERENCE_S / k``. A figure scaled this way is the CPU time the
work would take on a host where the kernel takes :data:`REFERENCE_S`,
about what it takes on this host when nothing else runs. The kernel's
own CPU time is taken out of the work's first where both ran in one
process.

Two probes sample the kernel:

* :class:`CpuProbe` runs it from a ``SIGPROF`` handler on the main
  thread, every :data:`INTERVAL_S` of the process's CPU time, so the
  samples fall inside the timed work and on the same CPU;
* :class:`ThreadProbe` runs it on a thread of its own at a fixed wall
  time interval, for work done in other processes (the serve tree, a
  fresh interpreter) while this one waits.
"""

from __future__ import annotations

import signal
import statistics
import threading
import time

#: The kernel's CPU time on a quiet host (about 1.0 ms on a 2-vCPU Xeon
#: virtual machine); scaled figures read as CPU time on such a host.
REFERENCE_S = 1e-3

#: Time between kernel samples: 1 ms of probing in every 100 ms.
INTERVAL_S = 0.1

#: Time between samples while a set-up runs: a set-up lasts about half
#: a second, and many samples are needed to average the host's speed.
SETUP_INTERVAL_S = 0.02

#: Loop iterations of the kernel.
KERNEL_STEPS = 5000


def kernel(table: dict[int, int], items: list[int]) -> int:
    """A fixed amount of interpreter work: dict, list and integer ops.

    *table* (keys 0 to 63) and *items* (:data:`KERNEL_STEPS` long) belong
    to the caller, so the kernel allocates nothing but small integers.
    Run in the middle of the program, it leaves the garbage collector's
    counts and the program's large allocations as they were."""
    acc = 0
    for i in range(len(items)):
        key = i & 63
        acc += table[key] ^ (i * 2654435761 & 0xFFFF)
        table[key] = acc & 0xFFF
        items[i] = acc % 7
    return acc + sum(items)


class Probe:
    """Kernel samples so far; windows are taken with :meth:`mark`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._table = dict.fromkeys(range(64), 0)
        self._items = [0] * KERNEL_STEPS

    def sample(self) -> None:
        start = time.thread_time()
        kernel(self._table, self._items)
        took = time.thread_time() - start
        self.samples.append(took)
        self.spent += took

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def factor(self, mark: tuple[int, float] = (0, 0.0)) -> float:
        """How much faster than measured the work since *mark* would run
        on the quiet host: the mean of ``REFERENCE_S / k`` over the kernel
        times *k* sampled since then. A mean of speeds, because the
        samples are spread evenly over the time being scaled."""
        window = self.samples[mark[0]:] or self.samples[-1:]
        if not window:
            raise RuntimeError("host speed probe took no samples")
        return statistics.fmean(REFERENCE_S / took for took in window)

    def kernel_ms(self) -> float:
        """Median kernel time over the whole probe, in ms."""
        return 1000 * statistics.median(self.samples) if self.samples else 0.0


class CpuProbe(Probe):
    """Samples from ``SIGPROF`` on the main thread while the process
    computes. Use as a context manager around the timed work."""

    def __enter__(self) -> CpuProbe:
        self._previous = signal.signal(
            signal.SIGPROF, lambda signum, frame: self.sample()
        )
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self, mark: tuple[int, float], cpu: float) -> float:
        """*cpu* seconds of this process measured since *mark*, less the
        kernel's CPU time in that window, scaled to the quiet host."""
        return (cpu - (self.spent - mark[1])) * self.factor(mark)


class ThreadProbe(Probe):
    """Samples from a thread of its own while other processes compute.
    Their CPU time does not include the kernel's, so scale it by
    :meth:`factor` alone."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        super().__init__()
        self.interval = interval

    def __enter__(self) -> ThreadProbe:
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()
