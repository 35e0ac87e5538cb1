"""Last-value prediction [Lipasti & Shen].

Predicts that an instruction will produce the same value it produced the
previous time.  Included as the simplest member of the predictor family
and as a baseline for the ablation benchmarks; the paper itself profiles
with stride and FCM.
"""

from __future__ import annotations

from typing import List

from repro.predict.base import Column, Value, _values_equal


def last_value_column(values: List[Value]) -> Column:
    """Outcomes of predicting each value as the one before it.

    ``values`` is one op's value list in occurrence order; the first
    occurrence gets no prediction.
    """
    if not values:
        return bytearray(), bytearray()
    predicted = bytearray(b"\x01") * len(values)
    predicted[0] = 0
    # Same type: ``==`` is what _values_equal computes.
    correct = bytearray(1) + bytearray(
        prediction == value
        if type(prediction) is type(value)
        else _values_equal(prediction, value)
        for prediction, value in zip(values, values[1:])
    )
    return predicted, correct
