"""Scenarios as workloads: one interface for benchmarks and scenarios.

:class:`ScenarioWorkload` wraps a :class:`~repro.scenario.spec.ScenarioSpec`
in the :class:`~repro.workloads.base.SyntheticWorkload` interface, so every
consumer of named benchmarks — ``repro simulate``, the experiment grids,
the CPU decomposition, the serve layer — runs scenarios unchanged. The
instance's :meth:`key_material` injects the canonical spec into
:func:`repro.exec.keys.workload_key`, which (together with the distinct
class path) guarantees scenario cache keys never collide with named-
workload keys.

Seeds: a scenario carries its seed *in the spec* — the content address
covers it, so the same spec always names the same trace. ``generate``
therefore defaults to the spec's seed; callers that pass one explicitly
(the experiment grids do, uniformly with named workloads) re-seed the
same scenario shape.
"""

from __future__ import annotations

import numpy as np

from repro.scenario.mixer import mix_stream
from repro.scenario.spec import ScenarioSpec, resolve_spec_argument
from repro.trace.model import MemTrace
from repro.trace.synth import Stream
from repro.workloads.base import DEFAULT_SCALE, PaperFacts, SyntheticWorkload

__all__ = ["ScenarioWorkload", "resolve_workload"]


class ScenarioWorkload(SyntheticWorkload):
    """A declarative scenario in workload clothing.

    Unlike the paper benchmarks the footprint is explicit in the spec,
    so the scale knob is pinned at 1.0 — scenario columns never shrink
    with the reproduction scale.
    """

    suite = "SCENARIO"

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(scale=1.0)
        self.spec = spec
        self.name = spec.display_name
        self.paper = PaperFacts(
            refs_millions=spec.refs / 1e6,
            dataset_mb=spec.total_footprint_bytes() / (1024 * 1024),
            input_description=f"scenario {spec.scenario_id()}",
        )
        kinds = ",".join(spec.pattern_kinds())
        self.behaviour = (
            f"{len(spec.tenants)}-tenant scenario ({kinds}), "
            f"quantum {spec.quantum}"
        )

    def _build(self, rng: np.random.Generator) -> Stream:
        return mix_stream(self.spec, rng)

    def generate(
        self, *, seed: int | None = None, max_refs: int | None = None
    ) -> MemTrace:
        if seed is None:
            seed = self.spec.seed
        return super().generate(seed=seed, max_refs=max_refs)

    def dataset_bytes(self) -> int:
        # Exact, not via the float MB round-trip of the base class.
        return self.spec.total_footprint_bytes()

    def key_material(self) -> dict:
        """Extra exec-cache key material (see :func:`workload_key`)."""
        from repro.scenario.spec import SCENARIO_SCHEMA

        return {"schema": SCENARIO_SCHEMA, "scenario": self.spec.canonical()}

    def __repr__(self) -> str:
        return f"<ScenarioWorkload {self.name} ({self.spec.scenario_id()})>"


def resolve_workload(
    text: str, scale: float = DEFAULT_SCALE
) -> SyntheticWorkload:
    """A workload from a CLI argument: scenario reference or registry name.

    ``scenario:{...}``, ``@spec.json``, and ``spec.json`` build a
    :class:`ScenarioWorkload`; anything else is looked up in the named
    registry at *scale* (scenarios ignore the scale — their footprint is
    explicit).
    """
    spec = resolve_spec_argument(text)
    if spec is not None:
        return ScenarioWorkload(spec)
    from repro.workloads.registry import get_workload

    return get_workload(text, scale=scale)
