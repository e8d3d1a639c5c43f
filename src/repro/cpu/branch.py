"""Two-level adaptive branch predictor (gshare variant).

The paper's processors use "a two-level branch predictor" with an 8K-entry
table (16K for experiment F). This is the classic global-history scheme:
the global branch history register is XOR-folded with the branch PC to
index a table of two-bit saturating counters [Yeh & Patt / McFarling].

A branch's outcome depends only on the branches before it, never on
timing, so a trace's branches train a predictor in one pass
(:meth:`TwoLevelPredictor.train`) when the trace is decoded, before any
timing run, and every run of that trace reuses the outcomes.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigurationError
from repro.util import log2_int, require_power_of_two


class TwoLevelPredictor:
    """Gshare: global history XOR PC indexing a 2-bit counter table."""

    def __init__(self, table_entries: int, history_bits: int | None = None) -> None:
        require_power_of_two(table_entries, "predictor table size")
        self.table_entries = table_entries
        self.index_bits = log2_int(table_entries)
        if history_bits is None:
            history_bits = self.index_bits
        if not 0 <= history_bits <= self.index_bits:
            raise ConfigurationError(
                f"history bits {history_bits} must be in [0, {self.index_bits}]"
            )
        self.history_bits = history_bits
        self._history = 0
        self._history_mask = (1 << history_bits) - 1
        self._index_mask = table_entries - 1
        # Two-bit counters initialised weakly taken, the common convention.
        self._counters = bytearray([2] * table_entries)
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at *pc* (no state change)."""
        index = ((pc >> 2) ^ self._history) & self._index_mask
        return self._counters[index] >= 2

    def train(self, pcs: Iterable[int], takens: Iterable[bool]) -> list[bool]:
        """Predict, then train on, each branch in program order.

        *pcs* and *takens* give each branch's address and actual outcome.
        Returns one flag per branch: True where the prediction was wrong.
        """
        counters = self._counters
        history = self._history
        history_mask = self._history_mask
        index_mask = self._index_mask
        missed: list[bool] = []
        note = missed.append
        for pc, taken in zip(pcs, takens):
            index = ((pc >> 2) ^ history) & index_mask
            counter = counters[index]
            if taken:
                note(counter < 2)
                if counter < 3:
                    counters[index] = counter + 1
                history = ((history << 1) | 1) & history_mask
            else:
                note(counter >= 2)
                if counter:
                    counters[index] = counter - 1
                history = (history << 1) & history_mask
        self._history = history
        self.predictions += len(missed)
        self.mispredictions += sum(missed)
        return missed

    def update(self, pc: int, taken: bool) -> bool:
        """Predict, then train on one outcome.

        Returns True when the prediction was correct.
        """
        return not self.train((pc,), (taken,))[0]

    @property
    def misprediction_rate(self) -> float:
        return (
            self.mispredictions / self.predictions if self.predictions else 0.0
        )
