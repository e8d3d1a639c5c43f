"""The process-wide fault plan: the hook every fault point checks.

:data:`FAULTS` is the one :class:`FaultPlan` a process runs with. It is
inactive until armed, and hot paths guard with ``if FAULTS.active:``, so
a run with no faults configured pays one attribute load and a branch,
the same pattern as :data:`repro.obs.OBS`.

This module imports only the standard library and :mod:`repro.errors`,
so the simulator core (``Cache.simulate_chunked``'s ``sim.chunk`` point)
can check the hook without importing the execution layer. Parsing,
arming and the fault-point reference live in :mod:`repro.exec.faults`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import FaultInjected

__all__ = ["FaultSpec", "FaultPlan", "FAULTS"]


@dataclass(slots=True)
class FaultSpec:
    """One parsed fault: where it fires, on what, how often, with what."""

    point: str
    match: str = ""
    times: int = 1
    param: float = 0.0
    #: Per-process firings left (ignored when the plan is scope-backed).
    remaining: int = 1

    def describe(self) -> str:
        text = self.point
        if self.match:
            text += f"@{self.match}"
        if self.times != 1:
            text += f"*{self.times}"
        if self.param:
            text += f"={self.param:g}"
        return text


class FaultPlan:
    """The active set of fault specs, with firing-budget bookkeeping."""

    __slots__ = ("specs", "active", "parent_pid", "scope_dir")

    def __init__(self) -> None:
        self.specs: list[FaultSpec] = []
        self.active = False
        self.parent_pid = os.getpid()
        self.scope_dir: str | None = None

    def load(
        self, specs: list[FaultSpec], *, scope_dir: str | os.PathLike | None = None
    ) -> None:
        self.specs = specs
        self.active = bool(specs)
        self.parent_pid = os.getpid()
        self.scope_dir = os.fspath(scope_dir) if scope_dir is not None else None

    def reset(self) -> None:
        self.load([])

    # -- firing ---------------------------------------------------------------

    def _claim(self, spec_id: int, spec: FaultSpec) -> bool:
        """Spend one firing of *spec*, honouring the budget scope."""
        if self.scope_dir is None:
            if spec.remaining <= 0:
                return False
            spec.remaining -= 1
            return True
        # Cross-process budget: one O_EXCL token file per allowed firing.
        os.makedirs(self.scope_dir, exist_ok=True)
        for slot in range(spec.times):
            token = os.path.join(self.scope_dir, f"fault-{spec_id}-{slot}")
            try:
                os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue
            return True
        return False

    def take(self, point: str, label: str = "") -> FaultSpec | None:
        """Claim a firing of *point* for *label*, or None when none match.

        Callers that enact the fault themselves (the cache's corruption
        points) use this directly; everything else goes through
        :meth:`fire`.
        """
        if not self.active:
            return None
        for spec_id, spec in enumerate(self.specs):
            if spec.point != point or spec.match not in label:
                continue
            if self._claim(spec_id, spec):
                return spec
        return None

    def fire(self, point: str, label: str = "") -> bool:
        """Claim and *enact* a firing of *point*; True if one fired."""
        if not self.active:
            return False
        if point in ("worker.kill", "shard.kill") and (
            os.getpid() == self.parent_pid
        ):
            # Never kill the process that armed the plan: serial
            # escalation must survive the fault that broke the pool, and
            # a single-worker server (or the router itself) must never be
            # its own chaos victim. The budget is left unspent.
            return False
        spec = self.take(point, label)
        if spec is None:
            return False
        if point in ("task.raise", "sim.chunk"):
            raise FaultInjected(
                f"injected fault {spec.describe()} fired at {label!r}"
            )
        if point in ("task.delay", "shard.slow"):
            time.sleep(spec.param)
        elif point == "worker.kill":
            os._exit(17)
        elif point == "shard.kill":
            os._exit(21)
        elif point == "task.interrupt":
            raise KeyboardInterrupt(
                f"injected fault {spec.describe()} fired at {label!r}"
            )
        return True

    def __repr__(self) -> str:
        if not self.active:
            return "<FaultPlan inactive>"
        return "<FaultPlan " + "; ".join(s.describe() for s in self.specs) + ">"


#: The process-wide plan; forked pool workers inherit it.
FAULTS = FaultPlan()
