"""Unit tests for the reference value-predictor classes."""

import pytest

from tests.predict.reference_predictors import (
    FCMPredictor,
    HybridPredictor,
    LastValuePredictor,
    PredictorStats,
    StridePredictor,
    default_hybrid,
)


def feed(predictor, key, values):
    """Observe a sequence; return per-step predictions."""
    return [predictor.observe(key, v) for v in values]


class TestLastValue:
    def test_cold_start(self):
        p = LastValuePredictor()
        assert p.predict("k") is None

    def test_repeats(self):
        p = LastValuePredictor()
        feed(p, "k", [7, 7, 7, 7])
        assert p.stats.correct == 3  # first observation had no prediction
        assert p.stats.no_prediction == 1

    def test_keys_independent(self):
        p = LastValuePredictor()
        p.update("a", 1)
        p.update("b", 2)
        assert p.predict("a") == 1
        assert p.predict("b") == 2

    def test_reset(self):
        p = LastValuePredictor()
        p.update("a", 1)
        p.reset()
        assert p.predict("a") is None
        assert p.stats.attempts == 0


class TestStride:
    def test_perfect_stride(self):
        p = StridePredictor()
        feed(p, "k", [10, 13, 16, 19, 22])
        # 1st: no prediction; 2nd: last-value fallback misses; 3rd: the
        # stride is not committed until seen twice (two-delta), misses;
        # 4th and 5th hit.
        assert p.stats.correct == 2
        assert p.predict("k") == 25

    def test_constant_sequence(self):
        p = StridePredictor()
        feed(p, "k", [5, 5, 5, 5])
        assert p.stats.correct == 3

    def test_two_delta_survives_single_jump(self):
        p = StridePredictor()
        # Established stride of 1, one jump, then the stride resumes.
        feed(p, "k", [1, 2, 3, 4, 100, 101, 102])
        # After the jump, two-delta keeps stride 1: 100+1=101 hits.
        assert p.predict("k") == 103

    def test_one_delta_mode(self):
        p = StridePredictor(two_delta=False)
        feed(p, "k", [1, 2, 4, 8])
        # stride immediately tracks the last delta (8-4=4)
        assert p.predict("k") == 12

    def test_stride_of(self):
        p = StridePredictor()
        assert p.stride_of("k") is None
        feed(p, "k", [3, 6, 9])
        assert p.stride_of("k") == 3

    def test_float_strides(self):
        p = StridePredictor()
        feed(p, "k", [0.5, 1.0, 1.5])
        assert p.predict("k") == pytest.approx(2.0)


class TestFCM:
    def test_learns_repeating_pattern(self):
        p = FCMPredictor(order=2)
        pattern = [1, 7, 3] * 6
        feed(p, "k", pattern)
        # After one full period the context (7,3)->1, (3,1)->7, (1,7)->3.
        assert p.predict("k") is not None
        correct_tail = 0
        for v in pattern[:6]:
            if p.predict("k") == v:
                correct_tail += 1
            p.update("k", v)
        assert correct_tail == 6

    def test_stride_sequence_defeats_fcm(self):
        p = FCMPredictor(order=2)
        feed(p, "k", list(range(0, 40, 2)))
        # Every context is new, so FCM never predicts correctly.
        assert p.stats.correct == 0

    def test_needs_full_context(self):
        p = FCMPredictor(order=3)
        p.update("k", 1)
        p.update("k", 2)
        assert p.predict("k") is None

    def test_order_validation(self):
        with pytest.raises(ValueError):
            FCMPredictor(order=0)
        with pytest.raises(ValueError):
            FCMPredictor(table_bits=0)

    def test_reset(self):
        p = FCMPredictor()
        feed(p, "k", [1, 2, 1, 2, 1, 2])
        p.reset()
        assert p.predict("k") is None


class TestHybrid:
    def test_tracks_stride_on_arithmetic_sequences(self):
        p = default_hybrid()
        values = list(range(0, 60, 3))
        feed(p, "k", values)
        assert p.predict("k") == values[-1] + 3
        assert p.chosen_component("k").name == "stride"

    def test_tracks_fcm_on_repeating_sequences(self):
        p = default_hybrid()
        feed(p, "k", [4, 9, 2] * 8)
        assert p.chosen_component("k").name == "fcm"

    def test_accuracy_beats_both_on_mixed_keys(self):
        p = default_hybrid()
        stride_only = StridePredictor()
        fcm_only = FCMPredictor()
        streams = {
            "arith": [3 * i for i in range(30)],
            "cycle": [5, 1, 9] * 10,
        }
        for key, stream in streams.items():
            for v in stream:
                p.observe(key, v)
                stride_only.observe(key, v)
                fcm_only.observe(key, v)
        assert p.stats.hit_rate >= max(stride_only.stats.hit_rate, fcm_only.stats.hit_rate) - 0.1

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            HybridPredictor(components=[])

    def test_reset_clears_components(self):
        p = default_hybrid()
        feed(p, "k", [1, 2, 3])
        p.reset()
        assert p.predict("k") is None


class TestStats:
    def test_counters(self):
        stats = PredictorStats()
        assert stats.accuracy == 0.0
        assert stats.coverage == 0.0
        assert stats.hit_rate == 0.0
        stats.predictions = 8
        stats.correct = 6
        stats.no_prediction = 2
        assert stats.accuracy == pytest.approx(0.75)
        assert stats.coverage == pytest.approx(0.8)
        assert stats.hit_rate == pytest.approx(0.6)

    def test_per_key_stats(self):
        p = LastValuePredictor()
        feed(p, "a", [1, 1, 1])
        feed(p, "b", [1, 2, 3])
        assert p.key_stats("a").correct == 2
        assert p.key_stats("b").correct == 0
        assert p.key_stats("missing").attempts == 0
