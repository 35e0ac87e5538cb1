"""Batched profiler parity: column-wise counters vs streaming observers.

``batch_profile`` promises the identical :class:`ProfileData` the
scalar trace replay produces — same counters, same dict orders (both
are pickled into runner cache keys downstream).  ``column_stats`` is
additionally pinned against the real predictor objects it inlines.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batchsim.context import BatchContext
from repro.batchsim.profiler import batch_profile, column_stats
from repro.predict.base import _values_equal
from repro.predict.fcm import FCMPredictor
from repro.predict.stride import StridePredictor
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_suite
from tests.trace.reference_runs import observed_profile, replayed

SUITE = load_suite(scale=0.25)
TRACES = {name: capture_trace(program) for name, program in SUITE.items()}


def scalar_column_stats(values):
    """Reference: one key driven through the real predictor objects,
    exactly as ``ValueProfiler.operation_executed`` does."""
    from repro.profiling.value_profile import LoadValueStats

    stride = StridePredictor()
    fcm = FCMPredictor(order=2)
    stats = LoadValueStats()
    for value in values:
        stats.executions += 1
        p = stride.predict(0)
        if p is not None and _values_equal(p, value):
            stats.stride_correct += 1
        p = fcm.predict(0)
        if p is not None and _values_equal(p, value):
            stats.fcm_correct += 1
        stride.update(0, value)
        fcm.update(0, value)
    return stats


class TestColumnStats:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=-8, max_value=8),
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=40,
        )
    )
    def test_matches_real_predictors(self, values):
        got = column_stats(values)
        want = scalar_column_stats(values)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_strided_sequence_saturates(self):
        stats = column_stats(list(range(0, 100, 3)))
        # Two-delta stride locks on after the second delta; the first
        # two predictions cannot be scored as hits.
        assert stats.stride_correct >= stats.executions - 3
        assert stats.best_rate > 0.9

    def test_periodic_sequence_favours_fcm(self):
        stats = column_stats([1, 7, 3, 1, 7, 3] * 20)
        assert stats.fcm_rate > stats.stride_rate


def assert_profiles_identical(a, b):
    assert a.blocks == b.blocks
    assert list(a.values.loads.keys()) == list(b.values.loads.keys())
    for op_id in a.values.loads:
        assert dataclasses.asdict(a.values.loads[op_id]) == dataclasses.asdict(
            b.values.loads[op_id]
        )


@pytest.mark.parametrize("workload", sorted(SUITE))
class TestBatchProfileParity:
    def test_matches_replay_profile(self, workload):
        program = SUITE[workload]
        trace = TRACES[workload]
        scalar = observed_profile(program, replayed(trace, program))
        batched = batch_profile(program, trace, BatchContext())
        assert_profiles_identical(scalar, batched)
        assert_profiles_identical(scalar, profile_program(program, trace))

    def test_matches_replay_profile_with_alu(self, workload):
        program = SUITE[workload]
        trace = TRACES[workload]
        scalar = observed_profile(
            program, replayed(trace, program), profile_alu=True
        )
        batched = batch_profile(
            program, trace, BatchContext(), profile_alu=True
        )
        assert_profiles_identical(scalar, batched)
