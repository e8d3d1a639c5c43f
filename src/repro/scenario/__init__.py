"""Scenario engine: parameterized patterns + multi-tenant trace mixing.

The paper measures 14 fixed SPEC traces; this package opens the question
its Section 6 could not ask — does the pin-bandwidth wall move under
datacenter-style traffic? It provides:

* :mod:`repro.scenario.patterns` — the :class:`TracePattern` protocol and
  the composable pattern library (uniform / zipfian / hotspot / bursty /
  sequential / phased),
* :mod:`repro.scenario.spec` — declarative, validated
  :class:`ScenarioSpec` dicts with a canonical content address,
* :mod:`repro.scenario.mixer` — deterministic weighted N-tenant
  interleaving with exact per-tenant traffic attribution,
* :mod:`repro.scenario.workload` — :class:`ScenarioWorkload`, the
  adapter that lets every existing consumer (CLI, experiments, serving)
  run scenarios through the named-workload interface.

See docs/scenarios.md for the spec schema and worked examples, and
``repro scenario list|run|mix`` for the CLI surface.
"""

from repro.util import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.scenario.mixer": ("attribute_traffic", "mix"),
        "repro.scenario.patterns": (
            "build_pattern",
            "canonical_pattern",
            "pattern_catalog",
            "pattern_names",
        ),
        "repro.scenario.spec": ("SCENARIO_DEFAULTS", "ScenarioSpec"),
        "repro.scenario.workload": ("ScenarioWorkload", "resolve_workload"),
    },
)
