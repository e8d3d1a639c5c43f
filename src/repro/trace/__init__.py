"""Memory-trace substrate: containers, QPT-style splitting, statistics.

This subpackage stands in for the Wisconsin QPT tracing tool used in the
paper. Traces are sequences of data-memory references (no instruction
fetches, matching the paper's methodology in Section 4.1).
"""
