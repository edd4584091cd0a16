"""Unit tests for branch predictors."""

import pytest

from repro.branch import TwoBitCounterPredictor


class TestTwoBitCounters:
    def test_initially_weakly_not_taken(self):
        predictor = TwoBitCounterPredictor(entries=16)
        assert predictor.predict(0x100) is False

    def test_learns_taken_after_one_update_from_weak_state(self):
        predictor = TwoBitCounterPredictor(entries=16)
        predictor.update(0x100, True)  # weakly-not-taken -> weakly-taken
        assert predictor.predict(0x100) is True

    def test_strongly_not_taken_needs_two_updates(self):
        predictor = TwoBitCounterPredictor(entries=16)
        predictor.update(0x100, False)  # drive to strongly-not-taken
        predictor.update(0x100, True)
        assert predictor.predict(0x100) is False
        predictor.update(0x100, True)
        assert predictor.predict(0x100) is True

    def test_hysteresis(self):
        predictor = TwoBitCounterPredictor(entries=16)
        for _ in range(4):
            predictor.update(0x100, True)
        predictor.update(0x100, False)  # one not-taken does not flip it
        assert predictor.predict(0x100) is True
        predictor.update(0x100, False)
        predictor.update(0x100, False)
        assert predictor.predict(0x100) is False

    def test_counters_saturate(self):
        predictor = TwoBitCounterPredictor(entries=16)
        for _ in range(100):
            predictor.update(0x100, False)
        predictor.update(0x100, True)
        predictor.update(0x100, True)
        assert predictor.predict(0x100) is True

    def test_aliasing_by_table_index(self):
        predictor = TwoBitCounterPredictor(entries=4)
        predictor.update(0x0, True)
        predictor.update(0x0, True)
        # pc 0x40 maps to the same entry ((0x40 >> 2) & 3 == 0).
        assert predictor.predict(0x40) is True

    def test_loop_branch_accuracy_is_high(self):
        predictor = TwoBitCounterPredictor(entries=64)
        correct = 0
        total = 0
        for _ in range(100):       # 100 loop visits, 10 iterations each
            for i in range(10):
                taken = i < 9
                if predictor.predict(0x200) == taken:
                    correct += 1
                else:
                    predictor.record_mispredict()
                predictor.update(0x200, taken)
                total += 1
        assert correct / total > 0.85
        assert predictor.accuracy > 0.85

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            TwoBitCounterPredictor(entries=12)
        with pytest.raises(ValueError):
            TwoBitCounterPredictor(entries=0)
