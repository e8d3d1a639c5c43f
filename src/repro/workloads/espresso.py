"""Espresso (SPEC92 008.espresso) workload model.

Espresso minimizes boolean functions over small cube/cover structures. Its
data set is tiny (0.04 MB with the ``mlp4`` input) and intensely reused:
the paper's Table 7 shows the traffic ratio collapsing from 1.43 at 1 KB to
0.01 at 32 KB, with every larger cache marked "<<<" (bigger than the data
set).

The model makes many passes over a small cube matrix, with Zipf-hot probes
into set registers and unate-leaf structures, and a modest write fraction.
"""

from __future__ import annotations

import numpy as np

from repro.trace.synth import (
    Stream,
    StreamPair,
    interleave_streams,
    sweep,
    zipf_probes,
    zipf_words,
)
from repro.workloads.base import PaperFacts, SyntheticWorkload


class Espresso(SyntheticWorkload):
    name = "Espresso"
    suite = "SPEC92"
    paper = PaperFacts(
        refs_millions=22.3,
        dataset_mb=0.04,
        input_description="mlp4 only",
    )
    behaviour = "many passes over a tiny, heavily reused cube matrix"

    _REFS_PER_SCALE = 3_200_000

    #: One cube row: a handful of bit-vector words swept together.
    _ROW_WORDS = 32

    def _build(self, rng: np.random.Generator) -> Stream:
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        cube_words = self._scaled_words(24 * 1024, minimum=4 * self._ROW_WORDS)
        register_words = self._scaled_words(4 * 1024, minimum=64)
        rows = max(2, cube_words // self._ROW_WORDS)

        cube_base = 0
        # The register/unate structures sit at a 16 KB-aligned (paper
        # scale) offset from the cube matrix: in direct-mapped caches up
        # to that size the hot registers alias the hot cube rows — the
        # associativity factor of 73x the paper isolates for Espresso in
        # Table 9. A fully-associative MTC is immune.
        alias_stride = max(512, int(16 * 1024 * self.scale))
        register_base = ((cube_words * 4 // alias_stride) + 1) * alias_stride

        # The cover loop: pick two cube rows (Zipf-hot — a few covers are
        # compared constantly) and sweep both. Rows are small, so hit rate
        # rises quickly with cache size, collapsing R from ~1.4 at 1 KB to
        # ~0.01 once the matrix fits (paper Table 7).
        pair_steps = max(1, int(total_refs * 0.72) // (2 * self._ROW_WORDS))
        cover_rows = zipf_words(rng, rows, 2 * pair_steps, alpha=1.35)
        row_words = self._ROW_WORDS
        offsets = np.arange(row_words, dtype=np.int64)

        def cover_loop_prefix(n: int) -> StreamPair:
            chosen = cover_rows(-(-n // row_words))  # the rows n reaches
            row_addr = (
                cube_base + (chosen[:, None] * row_words + offsets[None, :]) * 4
            ).reshape(-1)[:n]
            row_writes = np.zeros(n, dtype=bool)
            row_writes[2 * row_words - 1 :: 2 * row_words] = True
            return row_addr, row_writes

        cover_loop = Stream(2 * pair_steps * row_words, cover_loop_prefix)

        full_passes = max(1, int(total_refs * 0.1) // cube_words)
        matrix_sweep = sweep(cube_base, cube_words, passes=full_passes, write_every=6)
        register_probes = zipf_probes(
            rng,
            register_base,
            register_words,
            int(total_refs * 0.18),
            alpha=1.5,
            write_fraction=0.15,
        )
        return interleave_streams(
            rng,
            [cover_loop, matrix_sweep, register_probes],
            chunk=64,
        )
