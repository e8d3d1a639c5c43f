"""Compress (SPEC92 129.compress) workload model.

The paper: "Compress repeatedly accesses a hash table, so its memory
reference stream contains little spatial locality (a larger block size will
consequently waste bandwidth)" (Section 4.2), with a 0.41 MB data set over a
1,000,000-byte input file.

The model mixes three components, matching the LZW structure of compress:

* uniform random probes into the large hash/code table (no spatial
  locality; traffic ratios above 1 for small and medium caches),
* probes into a small hot region (recently-inserted codes and counters),
* sequential streaming over the input and output buffers.
"""

from __future__ import annotations

import numpy as np

from repro.trace.synth import (
    Stream,
    interleave_streams,
    sweep,
    zipf_probes,
)
from repro.workloads.base import PaperFacts, SyntheticWorkload


class Compress(SyntheticWorkload):
    name = "Compress"
    suite = "SPEC92"
    paper = PaperFacts(
        refs_millions=21.9,
        dataset_mb=0.41,
        input_description="1000000 byte file",
    )
    behaviour = "hash-table probes with little spatial locality"

    #: Reference-count budget per unit scale (tuned so the default 1/4
    #: scale produces a ~0.8M-reference trace).
    _REFS_PER_SCALE = 3_300_000

    def _build(self, rng: np.random.Generator) -> Stream:
        total_refs = max(2_000, int(self._REFS_PER_SCALE * self.scale))
        table_words = self._scaled_words(340 * 1024)
        hot_words = self._scaled_words(6 * 1024, minimum=32)
        buffer_words = self._scaled_words(30 * 1024)

        table_base = 0
        hot_base = (table_words + 256) * 4
        input_base = hot_base + (hot_words + 256) * 4
        output_base = input_base + (buffer_words + 1024) * 4

        # LZW hash probes are skewed (common prefixes recur), not uniform:
        # a mild Zipf makes hit rate grow steadily with cache size, the way
        # the paper's Table 7 row declines from 3.03 to 0.43.
        cold_probes = zipf_probes(
            rng,
            table_base,
            table_words,
            int(total_refs * 0.14),
            alpha=0.80,
            write_fraction=0.30,
        )
        hot_probes = zipf_probes(
            rng,
            hot_base,
            hot_words,
            int(total_refs * 0.22),
            alpha=1.25,
            write_fraction=0.30,
        )
        # The input and output loops process data byte by byte: the word-
        # granularity trace sees four consecutive references per word, so
        # streams cost the cache (and the MTC) a quarter of a fetch per
        # reference.
        stream_refs_each = int(total_refs * 0.32)
        input_passes = max(1, stream_refs_each // (buffer_words * 4))
        input_stream = sweep(
            input_base, buffer_words, passes=input_passes, repeats=4
        )
        output_stream = sweep(
            output_base,
            buffer_words,
            passes=input_passes,
            write_every=3,
            repeats=4,
        )
        return interleave_streams(
            rng,
            [cold_probes, hot_probes, input_stream, output_stream],
            chunk=16,
        )
