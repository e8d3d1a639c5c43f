"""Swm (SPEC92 052.swm256, shallow-water model) workload.

The paper: "Swm iterates over large arrays, with a reference pattern that
contains little locality and no small working sets"; its traffic ratio is
remarkably flat (~0.56-0.63) from 16 KB through 512 KB caches, and its
traffic inefficiency is the smallest of the irregular codes (2.7-3.5 in the
flat region) — there is simply little for a smarter cache to exploit until
the whole data set fits (G jumps to 124 at 1 MB, where the fully-
associative MTC holds everything but a direct-mapped cache still conflicts).

The model runs the shallow-water timestep: a five-point stencil over the
height field (intra-row reuse pulls the ratio below 1) interleaved with
lockstep sweeps over the velocity arrays. Array bases are deliberately
placed at multiples of a large power of two so that direct-mapped caches
keep conflicting even when a fully-associative memory of the same size
would capture the whole footprint — reproducing the 1 MB G spike.
"""

from __future__ import annotations

import math

import numpy as np

from repro.trace.synth import Stream, StreamPair, periodic
from repro.workloads.base import PaperFacts, SyntheticWorkload


class Swm(SyntheticWorkload):
    name = "Swm"
    suite = "SPEC92"
    paper = PaperFacts(
        refs_millions=50.6,
        dataset_mb=0.93,
        input_description="180x180, 50 iter.",
    )
    behaviour = "flat working set: stencil + lockstep array sweeps"

    _REFS_PER_SCALE = 3_200_000
    #: Shallow water keeps ~13 state arrays (u, v, p, old/new copies, cu,
    #: cv, z, h, psi) that the timestep loops walk in lockstep.
    _ARRAYS = 13

    def _build(self, rng: np.random.Generator) -> Stream:
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        array_words = self._scaled_words(0.93 * 1024 * 1024 / self._ARRAYS)

        # Arrays scattered across a region ~4x the data set (separate
        # Fortran COMMON blocks): base residues modulo a near-data-set-size
        # cache overlap by the birthday effect, so a direct-mapped cache
        # keeps conflicting even when its capacity exceeds the footprint —
        # the paper's G spike at 1 MB, where the fully-associative MTC
        # holds everything ("caches with associativities less than four
        # require 4 MB to contain the data set"). For caches well below
        # the footprint this placement is indistinguishable from packed
        # layout, so the flat region is unaffected.
        array_bytes = ((array_words * 4) // 32) * 32 + 32
        slot_count = 4 * self._ARRAYS
        slots = rng.permutation(slot_count)[: self._ARRAYS]
        bases = sorted(int(s) * array_bytes for s in slots)

        # Each update loop references neighbour rows as well as the current
        # element (U(i+1,j), P(i,j+1), ...); the live set is therefore a
        # few rows of every array, which is what keeps small caches missing
        # until the ~8-16 KB (paper scale) flattening point of Table 7.
        # Several arrays are read by more than one loop (CU, CV, Z, H),
        # pulling the flat-region ratio below 1 (paper: ~0.6).
        row_words = 24
        pattern = [(base, 0) for base in bases]
        pattern += [(bases[j], row_words) for j in (2, 3, 4)]
        pattern += [(bases[j], -row_words) for j in (5, 6)]
        group = len(pattern)
        refs_per_pass = array_words * group
        passes = max(2, total_refs // refs_per_pass)
        return _lockstep_with_offsets(
            pattern, array_words, passes=passes, write_last=True
        )


def _lockstep_with_offsets(
    pattern: list[tuple[int, int]],
    array_words: int,
    *,
    passes: int,
    write_last: bool,
) -> Stream:
    """Element-wise lockstep sweep where each stream has a word offset.

    For each element index i, touches ``base + (i + offset) * 4`` for every
    (base, offset) in *pattern*; offsets wrap modulo the array length.
    """
    group = len(pattern)

    def one_pass(m: int) -> np.ndarray:
        index = np.arange(-(-m // group), dtype=np.int64)  # elements m reaches
        columns = [
            base + ((index + offset) % array_words) * 4
            for base, offset in pattern
        ]
        return np.stack(columns, axis=1).reshape(-1)[:m]

    def first(n: int) -> StreamPair:
        writes = np.zeros(n, dtype=bool)
        if write_last:
            writes[group - 1 :: group] = True
        return periodic(one_pass, array_words * group, n), writes

    return Stream(array_words * group * passes, first)
