"""Workload base class.

A :class:`SyntheticWorkload` stands in for one SPEC92/SPEC95 benchmark. It
records the paper's published metadata for the benchmark (Table 3: trace
length in millions of references, data-set size, input) and knows how to
generate a memory trace whose *locality structure* matches the paper's
description of that benchmark.

Scaling
-------
Python simulation is orders of magnitude slower than the authors' C tools,
so workloads generate at a configurable ``scale``: a scale of ``1/16``
shrinks the benchmark footprint 16x. Experiments shrink their cache-size
axes by the same factor, so cache-size/working-set crossovers land in the
same table columns as the paper. ``scale=1.0`` generates at the paper's
full footprint (slow, but supported).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.trace.model import MemTrace, WORD_BYTES
from repro.trace.synth import Stream

#: Default footprint scale for reproduction runs (see module docstring).
#: 1/4 keeps even the smallest scaled cache column (1 KB -> 256 B) at a
#: meaningful eight sets of 32-byte blocks.
DEFAULT_SCALE = 1.0 / 4.0


@dataclass(frozen=True, slots=True)
class PaperFacts:
    """Published Table 3 metadata for one benchmark."""

    refs_millions: float
    dataset_mb: float
    input_description: str


class SyntheticWorkload(ABC):
    """One benchmark model. Subclasses set the class attributes and
    implement :meth:`_build`."""

    #: Benchmark name as the paper spells it (e.g. ``"Compress"``).
    name: str = ""
    #: ``"SPEC92"`` or ``"SPEC95"``.
    suite: str = ""
    #: Published metadata from Table 3 of the paper.
    paper: PaperFacts = PaperFacts(0.0, 0.0, "")
    #: One-line description of the access behaviour being modelled.
    behaviour: str = ""

    def __init__(self, scale: float = DEFAULT_SCALE) -> None:
        # isfinite also rejects NaN, which passes every comparison check.
        if not isinstance(scale, (int, float)) or isinstance(scale, bool):
            raise WorkloadError(f"scale must be a number, got {scale!r}")
        if not math.isfinite(scale) or scale <= 0:
            raise WorkloadError(f"scale must be positive and finite, got {scale}")
        self.scale = scale

    # -- to be provided by each benchmark model ------------------------------------

    @abstractmethod
    def _build(self, rng: np.random.Generator) -> Stream:
        """Return the benchmark's reference stream at ``self.scale``.

        The stream makes every random draw when it is created and builds
        nothing else: its ``size`` is known at once, and ``take(n)`` builds
        only the first *n* references. The model composes its components
        with the :mod:`repro.trace.synth` combinators, which size their
        schedules from the components' sizes, so every component at every
        level is asked only for the prefix a run keeps.
        """

    # -- public API -----------------------------------------------------------------

    def stream(self, rng: np.random.Generator) -> Stream:
        """The :class:`repro.scenario.patterns.TracePattern` interface.

        Benchmarks and scenario patterns share this one streaming
        surface: anything holding a workload can draw its
        :class:`~repro.trace.synth.Stream` from a generator it controls.
        Deterministic for a given ``(scale, rng state)``. :meth:`generate`
        takes a prefix of it: ``generate(seed=s, max_refs=n)`` is
        ``stream(default_rng(s)).take(n)``.
        """
        return self._build(rng)

    def generate(self, *, seed: int = 0, max_refs: int | None = None) -> MemTrace:
        """Generate this benchmark's memory trace.

        The trace is deterministic for a given ``(scale, seed)`` pair. When
        *max_refs* is given the trace is truncated to that many references
        (useful to bound simulation time in tests), and only that prefix
        is built, of every component.
        """
        if max_refs is not None and max_refs <= 0:
            raise WorkloadError(f"max_refs must be positive, got {max_refs}")
        stream = self._build(np.random.default_rng(seed))
        if stream.size == 0:
            raise WorkloadError(f"workload {self.name} generated an empty trace")
        addresses, writes = stream.take(max_refs)
        return MemTrace(addresses, writes, name=self.name)

    def dataset_bytes(self) -> int:
        """Designed data-set footprint at this scale, in bytes.

        This is the scaled analogue of Table 3's data-set size column and
        is what experiments compare cache sizes against when deciding the
        paper's "<<<" (cache larger than data set) marking.
        """
        return int(self.paper.dataset_mb * 1024 * 1024 * self.scale)

    # -- helpers for subclasses -----------------------------------------------------

    def _scaled_words(self, paper_bytes: float, *, minimum: int = 64) -> int:
        """Scale a paper-sized structure (bytes) to words at this scale."""
        return max(minimum, int(paper_bytes * self.scale) // WORD_BYTES)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} scale={self.scale:g}>"
