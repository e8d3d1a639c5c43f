"""The paper's primary contribution: metrics for bandwidth-limited systems.

* :mod:`repro.core.decomposition` — execution-time split into processing,
  latency-stall, and bandwidth-stall fractions (Section 2).
* :mod:`repro.core.traffic` — traffic ratio, traffic inefficiency,
  effective and optimal effective pin bandwidth (Sections 4-5).
* :mod:`repro.core.pins` — physical trend dataset and extrapolations
  (Figure 1, Section 4.3).
* :mod:`repro.core.growth` — I/O-complexity growth models (Table 2).
* :mod:`repro.core.qualitative` — the Table 1 trend matrix.
"""
