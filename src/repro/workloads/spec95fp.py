"""SPEC95 floating-point workload models: Applu, Hydro2d, Su2cor95, Swim95.

These four grid codes feed the SPEC95 panel of the paper's Figure 3
(execution-time decomposition). Their data sets are an order of magnitude
larger than SPEC92's (8-32 MB, Table 3), which is why the paper's SPEC95
runs double the L2 and split the L1; the models reproduce the same
large-footprint streaming structure at scale.
"""

from __future__ import annotations

import math

import numpy as np

from repro.trace.synth import (
    Stream,
    interleave_streams,
    interleaved_sweep,
    stencil_sweeps,
    sweep,
)
from repro.workloads.base import PaperFacts, SyntheticWorkload


class _GridCode(SyntheticWorkload):
    """Shared machinery: stencil over a main grid + lockstep field sweeps."""

    suite = "SPEC95"
    _REFS_PER_SCALE = 3_200_000
    #: (grid fraction, per-field fraction, field count, stencil points)
    _GRID_SHARE = 0.5
    _FIELDS = 4
    _POINTS = 5

    def _build(self, rng: np.random.Generator) -> Stream:
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        dataset = self.paper.dataset_mb * 1024 * 1024
        grid_words = self._scaled_words(dataset * self._GRID_SHARE)
        side = max(16, int(math.sqrt(grid_words)))
        field_words = self._scaled_words(
            dataset * (1.0 - self._GRID_SHARE) / self._FIELDS
        )
        alignment = 1 << max(12, (field_words * 4).bit_length())
        bases = [alignment * (j + 4) for j in range(self._FIELDS)]

        stencil_refs = (side - 2) ** 2 * self._POINTS
        iterations = max(1, int(total_refs * 0.55) // max(1, stencil_refs))
        grid_phase = stencil_sweeps(
            0, side, iterations=iterations, points=self._POINTS
        )
        passes = max(1, int(total_refs * 0.45) // (field_words * self._FIELDS))
        field_phase = interleaved_sweep(
            bases, field_words, passes=passes, write_last_array=True
        )
        return interleave_streams(rng, [grid_phase, field_phase], chunk=48)


class Applu(_GridCode):
    name = "Applu"
    paper = PaperFacts(383.7, 32.38, "33x33x33 grid, 2 iter.")
    behaviour = "implicit CFD solver: huge grids, streaming SSOR sweeps"
    _FIELDS = 5
    _POINTS = 5


class Hydro2d(_GridCode):
    name = "Hydro2D"
    paper = PaperFacts(263.7, 8.71, "test data set, 1 iter.")
    behaviour = "hydrodynamical Navier-Stokes: 2-D grid sweeps"
    _FIELDS = 4
    _POINTS = 9


class Su2cor95(_GridCode):
    name = "Su2cor95"
    paper = PaperFacts(533.8, 22.53, "test data set")
    behaviour = "quantum-physics Monte Carlo over large lattices"
    _FIELDS = 6
    _POINTS = 5

    def _build(self, rng: np.random.Generator) -> Stream:
        # Keep Su2cor's signature conflict behaviour from the SPEC92 model:
        # the lattice fields collide in small direct-mapped caches. The
        # outer interleave sizes its chunks from the base stream's full
        # size and takes only the prefix of it that its rounds consume.
        base_stream = super()._build(rng)
        conflict_stride = max(256, int(64 * 1024 * self.scale))
        field_words = self._scaled_words(
            self.paper.dataset_mb * 1024 * 1024 * 0.2 / 4
        )
        spacing = ((field_words * 4) // conflict_stride + 1) * conflict_stride
        conflict = interleaved_sweep(
            [j * spacing for j in range(4)], field_words, passes=1
        )
        return interleave_streams(rng, [base_stream, conflict], chunk=64)


class Swim95(_GridCode):
    name = "Swim95"
    paper = PaperFacts(267.4, 14.46, "test data set")
    behaviour = "shallow-water model, 512x512 grids"
    _FIELDS = 4
    _POINTS = 5
