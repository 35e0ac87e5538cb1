"""Finite Context Method (FCM) prediction [Sazeides & Smith].

A two-level predictor: the first level keeps, per static operation, the
last *order* values produced (the context); the second level maps a hash
of that context to the value that followed it last time.  FCM captures
repeating non-arithmetic sequences (e.g. values cycling through a small
set) that stride prediction cannot.  This is the "FCM prediction [13]"
profile predictor of the paper.
"""

from __future__ import annotations

from typing import List

from repro.predict.base import Column, Value, check_table, _values_equal, context_slots


def fcm_column(values: List[Value], order: int = 2, table_bits: int = 16) -> Column:
    """Outcomes of order-``order`` FCM prediction over one op's value list.

    The first ``order`` occurrences fill the context and get no
    prediction.  After that an occurrence is predicted when its context
    (the ``order`` values before it) hashes to a slot of the
    ``2**table_bits``-entry second level that an earlier occurrence
    trained; the prediction is the value that followed that slot last.
    """
    check_table("FCM", order, table_bits)
    n = len(values)
    predicted = bytearray(n)
    correct = bytearray(n)
    if n <= order:
        return predicted, correct
    slots = context_slots(values, order, table_bits)
    table = {}
    get = table.get
    i = order
    for slot, value in zip(slots, values[order:]):
        prediction = get(slot)
        if prediction is not None:
            predicted[i] = 1
            # Same type: ``==`` is what _values_equal computes.
            correct[i] = (
                prediction == value
                if type(prediction) is type(value)
                else _values_equal(prediction, value)
            )
        table[slot] = value
        i += 1
    return predicted, correct
