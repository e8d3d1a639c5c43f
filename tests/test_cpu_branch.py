"""Tests for the two-level (gshare) branch predictor."""

import numpy as np
import pytest

from repro.cpu.branch import TwoLevelPredictor
from repro.errors import ConfigurationError


class TestConstruction:
    def test_table_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            TwoLevelPredictor(1000)

    def test_history_bits_bounded(self):
        with pytest.raises(ConfigurationError):
            TwoLevelPredictor(64, history_bits=10)

    def test_defaults(self):
        predictor = TwoLevelPredictor(8192)
        assert predictor.index_bits == 13
        assert predictor.history_bits == 13


class TestLearning:
    def test_always_taken_branch_learned(self):
        predictor = TwoLevelPredictor(1024)
        for _ in range(50):
            predictor.update(0x1000, True)
        assert predictor.predict(0x1000) is True
        assert predictor.misprediction_rate < 0.1

    def test_always_not_taken_branch_learned(self):
        predictor = TwoLevelPredictor(1024)
        for _ in range(50):
            predictor.update(0x2000, False)
        assert predictor.predict(0x2000) is False

    def test_alternating_pattern_learned_by_history(self):
        """A strict T/N alternation is perfectly predictable with global
        history (each phase maps to a different table entry)."""
        predictor = TwoLevelPredictor(1024, history_bits=8)
        outcomes = [bool(i % 2) for i in range(400)]
        wrong = sum(
            0 if predictor.update(0x3000, taken) else 1 for taken in outcomes
        )
        # after warmup, near-perfect
        assert wrong < 40

    def test_random_branch_mispredicts_heavily(self):
        rng = np.random.default_rng(0)
        predictor = TwoLevelPredictor(1024)
        outcomes = rng.random(2000) < 0.5
        for taken in outcomes:
            predictor.update(0x4000, bool(taken))
        assert predictor.misprediction_rate > 0.3

    def test_biased_branch_mostly_predicted(self):
        rng = np.random.default_rng(0)
        predictor = TwoLevelPredictor(4096)
        outcomes = rng.random(2000) < 0.9
        for taken in outcomes:
            predictor.update(0x5000, bool(taken))
        assert predictor.misprediction_rate < 0.35


class TestCounters:
    def test_update_returns_correctness(self):
        predictor = TwoLevelPredictor(64, history_bits=0)
        # initial counters are weakly taken
        assert predictor.update(0, True) is True
        assert predictor.update(0, False) is False

    def test_saturating_behaviour(self):
        predictor = TwoLevelPredictor(64, history_bits=0)
        for _ in range(10):
            predictor.update(0, True)
        # one not-taken outcome must not flip the prediction
        predictor.update(0, False)
        assert predictor.predict(0) is True

    def test_training_in_pieces_matches_one_pass(self):
        rng = np.random.default_rng(1)
        pcs = (0x1000 + 16 * rng.integers(0, 32, size=600)).tolist()
        takens = (rng.random(600) < 0.7).tolist()
        whole = TwoLevelPredictor(256)
        flags = whole.train(pcs, takens)
        pieces = TwoLevelPredictor(256)
        assert pieces.train(pcs[:250], takens[:250]) + pieces.train(
            pcs[250:], takens[250:]
        ) == flags
        assert whole.predictions == pieces.predictions == 600
        assert whole.mispredictions == pieces.mispredictions == sum(flags)

    def test_rate_of_fresh_predictor(self):
        assert TwoLevelPredictor(64).misprediction_rate == 0.0
