"""Experiment harnesses: one module per paper table/figure.

Each module exposes a ``run(...)`` function returning a structured result
plus a ``render(result)`` that prints the same rows/series as the paper.
The per-experiment index lives in DESIGN.md; paper-vs-measured numbers in
EXPERIMENTS.md.
"""
