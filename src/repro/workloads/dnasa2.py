"""Dnasa2 (two kernels of SPEC92 093.nasa7) workload model.

The paper uses "two of the Dnasa7 kernels — the two-dimensional FFT and the
4-way unrolled matrix multiply" with a 0.18 MB data set (FFT,
MxM = 128x64x64). Both kernels are exactly the algorithms analysed in the
paper's Table 2 growth-rate derivations, so this workload doubles as the
empirical check on those I/O-complexity models.

The model concatenates an in-place radix-2 FFT phase with a tiled
matrix-multiply phase, sized to the scaled data set.
"""

from __future__ import annotations

import math

import numpy as np

from repro.trace.synth import (
    Stream,
    concat_streams,
    fft2d_passes,
    tiled_matrix_multiply,
)
from repro.workloads.base import PaperFacts, SyntheticWorkload


def _round_down_pow2(value: int) -> int:
    return 1 << max(0, value.bit_length() - 1)


class Dnasa2(SyntheticWorkload):
    name = "Dnasa2"
    suite = "SPEC92"
    paper = PaperFacts(
        refs_millions=181.0,
        dataset_mb=0.18,
        input_description="FFT, MxM=128x64x64",
    )
    behaviour = "radix-2 FFT butterflies + tiled matrix multiply"

    _REFS_PER_SCALE = 2_400_000

    def _build(self, rng: np.random.Generator) -> Stream:
        del rng  # fully deterministic workload
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        # Split the scaled footprint between the 2-D FFT working grid
        # (complex points, 2 words each) and three MxM matrices.
        fft_words = self._scaled_words(0.10 * 1024 * 1024, minimum=256)
        grid_points = _round_down_pow2(max(64, fft_words // 2))
        fft_cols = _round_down_pow2(max(8, int(math.sqrt(grid_points))))
        fft_rows = max(2, grid_points // fft_cols)

        matrix_words_each = self._scaled_words(0.027 * 1024 * 1024, minimum=64)
        matrix_side = _round_down_pow2(max(8, int(math.sqrt(matrix_words_each))))
        tile = max(4, matrix_side // 8)

        fft_base = 0
        grid_extent = fft_rows * (fft_cols * 2 + 1)  # padded rows
        a_base = (grid_extent + 512) * 4
        b_base = a_base + (matrix_side * matrix_side + 512) * 4
        c_base = b_base + (matrix_side * matrix_side + 512) * 4

        fft_phase = fft2d_passes(fft_base, fft_rows, fft_cols)
        mxm_phase = tiled_matrix_multiply(a_base, b_base, c_base, matrix_side, tile)
        # NASA7 invokes each kernel repeatedly (181M refs over 0.18 MB in
        # the paper); repeat the two phases to reach the reference budget.
        # The concat builds each phase once, however often it repeats.
        refs_per_round = fft_phase.size + mxm_phase.size
        rounds = max(1, total_refs // refs_per_round)
        return concat_streams([fft_phase, mxm_phase] * rounds)
