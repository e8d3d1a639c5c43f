"""Eqntott (SPEC92 023.eqntott) workload model.

Eqntott converts boolean equations to truth tables; most of its time is a
quicksort over large arrays of short "PTERM" records. The paper's
measurements show a smoothly declining traffic ratio (1.04 at 1 KB to 0.06
at 1 MB — reuse at every granularity, the signature of a recursive sort)
and the largest write-validate gap of any benchmark (31x, Table 9): it
writes large output structures that are rarely read back before eviction.

The model therefore combines:

* depth-first quicksort partition scans over the record array (reuse at
  every power-of-two granularity — the logarithmically declining R),
* Zipf-hot probes into a small parse/compare stack,
* store-only sweeps over an output truth-table region (write-validate's
  opportunity), and
* one full partition sweep (most of the data set stays cold).
"""

from __future__ import annotations

import numpy as np

from repro.trace.synth import (
    Stream,
    column_sweep,
    interleave_streams,
    quicksort_scans,
    truncate,
    zipf_probes,
)
from repro.workloads.base import PaperFacts, SyntheticWorkload


class Eqntott(SyntheticWorkload):
    name = "Eqntott"
    suite = "SPEC92"
    paper = PaperFacts(
        refs_millions=221.1,
        dataset_mb=1.63,
        input_description="int_pri_3.eqn",
    )
    behaviour = "recursive sorting of short records; never-read output writes"

    _REFS_PER_SCALE = 4_000_000

    #: PTERM records are four words; quicksort recursion bottoms out at a
    #: 16-record insertion sort.
    _RECORD_WORDS = 4

    def _build(self, rng: np.random.Generator) -> Stream:
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        record_words = self._scaled_words(1_200 * 1024)
        output_words = self._scaled_words(100 * 1024)

        record_base = 0
        output_base = (record_words + 2048) * 4

        scans = quicksort_scans(
            record_base,
            record_words,
            min_run_words=16 * self._RECORD_WORDS,
            write_every=24,
        )
        probes = truncate(scans, max(1, int(total_refs * 0.62)))

        # Truth-table output is written along *columns*: strided stores.
        # A write-allocate cache fetches and writes back a 32-byte block
        # per 4-byte store and cannot keep the spanning blocks resident; a
        # write-validate word-grain MTC pays 4 bytes once — the engine of
        # Eqntott's 31x write-validate factor in the paper's Table 9.
        output_rows = 128
        output_row_words = max(9, output_words // output_rows) | 1
        output_refs = int(total_refs * 0.05)
        output_passes = max(
            1, output_refs // (output_rows * output_row_words)
        )
        output_writes = column_sweep(
            output_base,
            output_rows,
            output_row_words,
            passes=output_passes,
            write_every=1,
        )
        stack_words = self._scaled_words(6 * 1024, minimum=64)
        stack_base = output_base + (output_words + 1024) * 4
        stack = zipf_probes(
            rng,
            stack_base,
            stack_words,
            max(1, int(total_refs * 0.04)),
            alpha=1.5,
            write_fraction=0.35,
        )
        # Single-word probes into the BDD bit tables: Zipf-hot words
        # scattered through a large region. A 32-byte-block cache wastes
        # 7/8 of every fetch and thrashes its few sets on them, while an
        # optimally-managed word-grain memory keeps exactly the hot words —
        # the main source of Eqntott's huge Table 8 inefficiency.
        bit_words = self._scaled_words(240 * 1024)
        bit_base = stack_base + (stack_words + 1024) * 4
        bits = zipf_probes(
            rng,
            bit_base,
            bit_words,
            max(1, int(total_refs * 0.27)),
            alpha=1.30,
            write_fraction=0.12,
        )
        return interleave_streams(
            rng, [probes, stack, bits, output_writes], chunk=32
        )
