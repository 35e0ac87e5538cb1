"""Two-delta stride prediction [Eickemeyer & Vassiliadis; Gabbay & Mendelson].

Each static operation tracks its last value and a stride.  The *two-delta*
policy only commits a new stride after seeing the same delta twice in a
row, which keeps one-off jumps (e.g. a pointer rewind at the end of a
row) from destroying an established stride.  This is the "stride [3]"
profile predictor of the paper's experimental section.
"""

from __future__ import annotations

from typing import List

from repro.predict.base import Column, Value, _values_equal


def stride_column(values: List[Value]) -> Column:
    """Outcomes of two-delta stride prediction over one op's value list.

    The first occurrence gets no prediction.  With one value seen there
    is no delta yet, so the second is predicted as the first (last-value
    prediction); from then on the prediction is ``last + stride``, where
    ``stride`` is the last delta seen twice in a row (initially 0).
    """
    n = len(values)
    if not n:
        return bytearray(), bytearray()
    predicted = bytearray(b"\x01") * n
    predicted[0] = 0
    correct = bytearray(n)
    last = prediction = values[0]
    stride = candidate = 0
    i = 1
    for value in values[1:]:
        # Same type: ``==`` is what _values_equal computes.
        correct[i] = (
            prediction == value
            if type(prediction) is type(value)
            else _values_equal(prediction, value)
        )
        delta = value - last
        if delta == candidate:
            stride = delta
        candidate = delta
        last = value
        prediction = last + stride
        i += 1
    return predicted, correct
