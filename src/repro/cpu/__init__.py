"""Processor substrate: trace-driven timing models.

Stands in for the SimpleScalar-based simulators of the paper's Section 3:
a four-wide in-order superscalar core and an RUU-based out-of-order core
with speculative loads, both driving a multi-level memory system with
finite buses, MSHRs, and optional tagged prefetching. The three simulation
modes (perfect memory / infinite-width buses / full system) produce the
``T_P``/``T_I``/``T`` cycle counts of the execution-time decomposition.
"""

from repro.util import lazy_exports

__getattr__ = lazy_exports(__name__, {"repro.cpu.configs": ("experiment",)})
