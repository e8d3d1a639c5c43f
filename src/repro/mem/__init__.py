"""Memory-hierarchy substrate.

Trace-driven functional cache models (:mod:`repro.mem.cache`,
:mod:`repro.mem.mtc`) reproduce the paper's DineroIII and minimal-traffic-
cache measurements; :mod:`repro.mem.engines` holds their vectorized
simulation kernels plus the process-wide engine selection
(``auto``/``scalar``/``vector``/``sampled``); :mod:`repro.mem.sampled`
is the sampled tier — spatial reference sampling with error envelopes
for paper-scale traces; the timing-side memory system (:mod:`repro.mem.timing`
— buses, MSHRs, prefetch) serves the execution-time decomposition
experiments. Extension mechanisms from the paper's Sections 5.3/6 live in
:mod:`repro.mem.bypass` (Tyson-style selective caching),
:mod:`repro.mem.flexible` (the paper's proposed software-controlled
transfer sizes),
:mod:`repro.mem.sector` (Hill-Smith subblock caches),
:mod:`repro.mem.writeaware` (write-aware minimal replacement),
:mod:`repro.mem.prefetch` (tagged/stride/stream-buffer schemes),
:mod:`repro.mem.compression` (address-bus compression), and
:mod:`repro.mem.interference` (chip-multiprocessor bandwidth pressure).
"""
