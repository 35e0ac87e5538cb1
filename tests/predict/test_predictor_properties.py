"""Property-based tests of predictor invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.predict.reference_predictors import (
    FCMPredictor,
    LastValuePredictor,
    StridePredictor,
    default_hybrid,
)

_PREDICTOR_FACTORIES = [
    LastValuePredictor,
    StridePredictor,
    FCMPredictor,
    default_hybrid,
]

values = st.lists(st.integers(min_value=-(2**31), max_value=2**31), min_size=1, max_size=80)


@settings(max_examples=40, deadline=None)
@given(stream=values, which=st.integers(min_value=0, max_value=3))
def test_stats_accounting_is_consistent(stream, which):
    """predictions + no_prediction == observations, correct <= predictions."""
    predictor = _PREDICTOR_FACTORIES[which]()
    for v in stream:
        predictor.observe("k", v)
    stats = predictor.stats
    assert stats.attempts == len(stream)
    assert 0 <= stats.correct <= stats.predictions
    assert 0.0 <= stats.accuracy <= 1.0
    assert 0.0 <= stats.hit_rate <= stats.coverage <= 1.0


@settings(max_examples=40, deadline=None)
@given(stream=values)
def test_stride_is_perfect_on_arithmetic_sequences(stream):
    """On a pure arithmetic sequence, two-delta stride misses at most the
    first two elements."""
    start, delta = stream[0], (stream[-1] % 17) - 8
    seq = [start + i * delta for i in range(20)]
    predictor = StridePredictor()
    for v in seq:
        predictor.observe("k", v)
    assert predictor.stats.correct >= len(seq) - 3


@settings(max_examples=40, deadline=None)
@given(
    pattern=st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=5, unique=True),
    periods=st.integers(min_value=3, max_value=8),
)
def test_fcm_learns_any_unique_cycle(pattern, periods):
    """FCM order-2 predicts a repeating pattern perfectly once trained,
    provided contexts are unambiguous (unique elements guarantee it)."""
    predictor = FCMPredictor(order=2)
    stream = pattern * periods
    for v in stream:
        predictor.update("k", v)
    hits = 0
    for v in pattern * 2:
        if predictor.predict("k") == v:
            hits += 1
        predictor.update("k", v)
    assert hits == 2 * len(pattern)


@settings(max_examples=30, deadline=None)
@given(stream=values)
def test_keys_never_interfere(stream):
    """Training one key never changes another key's prediction."""
    predictor = default_hybrid()
    for v in [3, 6, 9, 12]:
        predictor.update("stable", v)
    expectation = predictor.predict("stable")
    for v in stream:
        predictor.update("other", v)
    assert predictor.predict("stable") == expectation


@settings(max_examples=30, deadline=None)
@given(stream=values)
def test_reset_restores_cold_state(stream):
    predictor = default_hybrid()
    for v in stream:
        predictor.observe("k", v)
    predictor.reset()
    assert predictor.predict("k") is None
    assert predictor.stats.attempts == 0
