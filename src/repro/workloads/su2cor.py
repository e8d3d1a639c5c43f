"""Su2cor (SPEC92 089.su2cor) workload model.

The paper: "Su2cor iterates over several large arrays, several of which
conflict heavily in its main routine until the cache size reaches 64KB"
(Section 4.2). Its Table 7 row is the most bandwidth-hostile of the suite:
traffic ratios above 7 for 1-4 KB caches, still 1.43 at 64 KB, declining to
0.13 at 1 MB.

The model interleaves element-wise sweeps over several large arrays whose
base addresses are congruent modulo the (scaled) 64 KB conflict distance:
in any direct-mapped cache of that size or less, the arrays' i-th elements
map to the same set and thrash; in larger caches only capacity misses
remain.
"""

from __future__ import annotations

import numpy as np

from repro.trace.synth import (
    Stream,
    interleave_streams,
    interleaved_sweep,
    sweep,
)
from repro.workloads.base import PaperFacts, SyntheticWorkload


class Su2cor(SyntheticWorkload):
    name = "Su2cor"
    suite = "SPEC92"
    paper = PaperFacts(
        refs_millions=163.4,
        dataset_mb=1.53,
        input_description="in.short",
    )
    behaviour = "lockstep sweeps over arrays conflicting below 64KB"

    _REFS_PER_SCALE = 3_600_000
    #: Full conflicts persist up to this (paper-scale) cache size; partial
    #: conflicts linger one or two doublings beyond it (see below).
    _CONFLICT_BYTES = 16 * 1024
    _ARRAYS = 4

    def _build(self, rng: np.random.Generator) -> Stream:
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        conflict_stride = max(256, int(self._CONFLICT_BYTES * self.scale))
        array_words = self._scaled_words(1.53 * 1024 * 1024 * 0.55 / self._ARRAYS)

        # Bases at odd multiples of the conflict stride: in caches <= the
        # stride, element i of every array maps to the same set (full
        # thrash); at 2x the stride the arrays fall into two groups (half
        # the conflicts); at 4x they separate completely — reproducing the
        # paper's gradual decline from R=7.4 to R=0.8 across Table 7.
        multiples = (array_words * 4) // conflict_stride + 1
        if multiples % 2 == 0:
            multiples += 1
        spacing = multiples * conflict_stride
        bases = [j * spacing for j in range(self._ARRAYS)]

        refs_per_pass = array_words * self._ARRAYS
        main_passes = max(1, int(total_refs * 0.72) // refs_per_pass)
        main_loop = interleaved_sweep(
            bases, array_words, passes=main_passes, write_last_array=True
        )
        # The Monte-Carlo update loop: a smaller, heavily reused gauge
        # array — the working set that fits from ~256 KB (paper scale) on.
        hot_words = self._scaled_words(0.10 * 1024 * 1024)
        hot_base = self._ARRAYS * spacing + conflict_stride // 2
        hot_passes = max(2, int(total_refs * 0.28) // hot_words)
        hot = sweep(hot_base, hot_words, passes=hot_passes, write_every=4)
        return interleave_streams(rng, [main_loop, hot], chunk=48)
