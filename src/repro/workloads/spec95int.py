"""SPEC95 integer workload models: Li, Perl, Vortex.

These feed the SPEC95 panel of Figure 3. The paper's own characterization
guides each model: Li is cache-bound (0.12 MB data set — the paper lists it
with Espresso and Eqntott as "not ... non-cache-bound"); Perl and Vortex
are the two benchmarks whose latency stalls still exceed bandwidth stalls
under the most aggressive processor (experiment F), i.e. pointer-heavy
codes with large footprints but low memory-level parallelism.
"""

from __future__ import annotations

import numpy as np

from repro.trace.synth import (
    Stream,
    interleave_streams,
    pointer_chain,
    sweep,
    zipf_probes,
)
from repro.workloads.base import PaperFacts, SyntheticWorkload


class Li(SyntheticWorkload):
    name = "Li"
    suite = "SPEC95"
    paper = PaperFacts(471.3, 0.12, "test.lsp")
    behaviour = "lisp interpreter: cons-cell chasing in a tiny heap"

    _REFS_PER_SCALE = 3_200_000

    def _build(self, rng: np.random.Generator) -> Stream:
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        heap_words = self._scaled_words(0.10 * 1024 * 1024, minimum=256)
        cells = pointer_chain(
            rng,
            0,
            nodes=max(16, heap_words // 3),
            node_words=3,
            count=max(1, int(total_refs * 0.75) // 3),
            write_fraction=0.12,
            locality=0.3,
        )
        stack_words = self._scaled_words(12 * 1024, minimum=64)
        stack = zipf_probes(
            rng,
            (heap_words + 256) * 4,
            stack_words,
            int(total_refs * 0.25),
            alpha=1.3,
            write_fraction=0.4,
        )
        return interleave_streams(rng, [cells, stack], chunk=20)


class Perl(SyntheticWorkload):
    name = "Perl"
    suite = "SPEC95"
    paper = PaperFacts(1280.8, 25.70, "jumble.pl")
    behaviour = "interpreter: hot opcode tables over a huge cold heap"

    _REFS_PER_SCALE = 3_600_000

    def _build(self, rng: np.random.Generator) -> Stream:
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        heap_words = self._scaled_words(22 * 1024 * 1024)
        heap = zipf_probes(
            rng,
            0,
            heap_words,
            int(total_refs * 0.55),
            alpha=1.05,
            write_fraction=0.2,
        )
        string_words = self._scaled_words(3 * 1024 * 1024)
        string_base = (heap_words + 4096) * 4
        passes = max(1, int(total_refs * 0.45) // string_words)
        strings = sweep(string_base, string_words, passes=passes, write_every=5)
        return interleave_streams(rng, [heap, strings], chunk=28)


class Vortex(SyntheticWorkload):
    name = "Vortex"
    suite = "SPEC95"
    paper = PaperFacts(1180.3, 19.87, "test data set")
    behaviour = "object database: record sweeps + index probes"

    _REFS_PER_SCALE = 3_600_000

    def _build(self, rng: np.random.Generator) -> Stream:
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        db_words = self._scaled_words(16 * 1024 * 1024)
        index_words = self._scaled_words(3 * 1024 * 1024)
        index_base = (db_words + 4096) * 4

        records = pointer_chain(
            rng,
            0,
            nodes=max(16, db_words // 16),
            node_words=16,
            count=max(1, int(total_refs * 0.5) // 16),
            write_fraction=0.15,
            locality=0.45,
        )
        index = zipf_probes(
            rng,
            index_base,
            index_words,
            int(total_refs * 0.35),
            alpha=1.0,
            write_fraction=0.1,
        )
        log_words = self._scaled_words(0.8 * 1024 * 1024)
        log_base = index_base + (index_words + 4096) * 4
        log_passes = max(1, int(total_refs * 0.15) // log_words)
        log_writes = sweep(log_base, log_words, passes=log_passes, write_every=1)
        return interleave_streams(
            rng, [records, index, log_writes], chunk=28
        )
