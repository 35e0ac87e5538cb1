"""Every predictor column kernel equals the stateful class it replaced.

The program walks one op's whole value list per predictor kind
(:mod:`repro.predict`); the classes of ``reference_predictors`` predict,
score and train one value at a time.  Both must give the same
per-occurrence outcomes on the suite's load streams, through the
batchsim dispatch (a hybrid folds cached component columns), and on
adversarial hypothesis streams: ints and floats mixed, ``3`` against
``3.0``, NaN, and ``-1``/``-2``, whose ``hash`` is equal.
"""

from __future__ import annotations

import math
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batchsim.context import BatchContext
from repro.batchsim.outcomes import predictor_key
from repro.machine.predictor import PREDICTOR_KINDS, PredictorSpec
from repro.predict.base import _values_equal, context_slots
from repro.predict.dfcm import dfcm_column
from repro.predict.fcm import fcm_column
from repro.predict.hybrid import hybrid_column
from repro.predict.last_value import last_value_column
from repro.predict.stride import stride_column
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_suite
from tests.predict.reference_predictors import _context_hash, build_predictor

SUITE = load_suite(scale=0.25)

#: Every kind, with the (D)FCM and chooser fields away from their
#: defaults as well as at them.
SPECS = [PredictorSpec(kind="stride"), PredictorSpec(kind="last-value")] + [
    PredictorSpec(kind=kind, fcm_order=order, table_bits=bits, counter_max=cmax)
    for kind in ("fcm", "dfcm", "hybrid")
    for order in (1, 2, 3)
    for bits in (1, 2, 3, 16, 30)
    for cmax in ((1, 2, 8) if kind == "hybrid" else (8,))
]


def reference_column(spec, values):
    """``(predicted, correct)`` of the spec's class over one key."""
    predictor = build_predictor(spec)
    predicted, correct = [], []
    for value in values:
        prediction = predictor.predict("k")
        predicted.append(prediction is not None)
        correct.append(prediction is not None and _values_equal(prediction, value))
        predictor.update("k", value)
    return predicted, correct


def kernel_column(spec, values):
    """The kernel dispatch of :class:`BatchContext`, without a trace."""
    if spec.kind == "stride":
        return stride_column(values)
    if spec.kind == "last-value":
        return last_value_column(values)
    if spec.kind == "fcm":
        return fcm_column(values, spec.fcm_order, spec.table_bits)
    if spec.kind == "dfcm":
        return dfcm_column(values, spec.fcm_order, spec.table_bits)
    return hybrid_column(
        stride_column(values),
        fcm_column(values, spec.fcm_order, spec.table_bits),
        spec.counter_max,
    )


def as_bools(column):
    predicted, correct = column
    return [bool(b) for b in predicted], [bool(b) for b in correct]


def test_specs_cover_every_kind():
    assert {spec.kind for spec in SPECS} == set(PREDICTOR_KINDS)


@pytest.mark.parametrize("workload", sorted(SUITE))
def test_suite_load_streams(workload):
    """Through the batchsim dispatch, on every load stream of the
    benchmark, for every spec of :data:`SPECS`."""
    program = SUITE[workload]
    context = BatchContext()
    arrays = context.arrays(capture_trace(program), program)
    streams = [
        (block.label, op.op_id)
        for block in program.main
        if arrays.instance_count(block.label)
        for op in block.operations
        if op.is_load
    ]
    assert streams
    for spec in SPECS:
        pkey = predictor_key(spec)
        for label, op_id in streams:
            values = arrays.op_values(label, op_id).tolist()
            column = context.component(arrays, pkey, label, op_id)
            got = (column.predicted.tolist(), column.correct.tolist())
            assert got == reference_column(spec, values), (spec, label, op_id)


_NUMBERS = st.one_of(
    st.sampled_from([3, 3.0, -1, -2, 0, 0.0, -0.0, 1, 1.0, math.nan, 2**61 - 1]),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_infinity=False, width=32),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(_NUMBERS, max_size=40),
    kind=st.sampled_from(PREDICTOR_KINDS),
    order=st.integers(min_value=1, max_value=3),
    bits=st.integers(min_value=1, max_value=3),
    cmax=st.integers(min_value=1, max_value=3),
)
# A NaN stride is a fresh object each time it is computed: the context
# hash must not tell two NaNs apart.
@example(values=[3] * 11 + [math.nan, 3, 3], kind="dfcm", order=1, bits=3, cmax=1)
def test_mixed_streams(values, kind, order, bits, cmax):
    spec = PredictorSpec(kind=kind, fcm_order=order, table_bits=bits, counter_max=cmax)
    assert as_bools(kernel_column(spec, values)) == reference_column(spec, values)


def test_equal_hashes_share_a_slot():
    """``hash(-1) == hash(-2)``: the contexts (-1,) and (-2,) collide, so
    FCM predicts -2's successor from -1's, as the hashed table does."""
    values = [-1, 5, -2, 5]
    assert as_bools(fcm_column(values, 1, 16)) == reference_column(
        PredictorSpec(kind="fcm", fcm_order=1), values
    )
    assert fcm_column(values, 1, 16)[1][3] == 1


def test_every_nan_hashes_to_one_slot():
    """Python hashes a NaN by identity; the context hash must not."""
    first, second = float("nan"), float("nan")
    slots = context_slots([first, 3, second], 1, 16)
    assert slots[0] == slots[2] != slots[1]
    assert _context_hash(deque([first]), 1 << 16) == slots[0]
    assert _context_hash(deque([second]), 1 << 16) == slots[2]


def test_int_and_float_compare_as_hardware_does():
    """3 and 3.0 are one bit pattern to the check; NaN never matches."""
    assert list(last_value_column([3, 3.0, math.nan, math.nan])[1]) == [0, 1, 0, 0]


@pytest.mark.parametrize("kernel", [fcm_column, dfcm_column])
def test_table_geometry_checked(kernel):
    with pytest.raises(ValueError, match="order must be >= 1"):
        kernel([1, 2, 3], 0, 16)
    with pytest.raises(ValueError, match=r"table_bits must be in \[1, 30\]"):
        kernel([1, 2, 3], 2, 31)
