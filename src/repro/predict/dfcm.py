"""Differential Finite Context Method (DFCM) prediction [Goeman et al.].

Where FCM maps a context of recent *values* to the next value, DFCM maps
a context of recent *strides* to the next stride and adds it to the last
value.  This captures patterns neither parent predictor can: repeating
*stride* sequences (e.g. a matrix walk with a row-end correction, whose
value stream is +1,+1,+1,+N,+1,+1,...), while inheriting FCM's ability
to re-learn after a re-base.

Published after the paper (1998-2001 era), DFCM is included as the
natural "next predictor up" for the ablation benchmarks.
"""

from __future__ import annotations

from typing import List

from repro.predict.base import Column, Value, check_table, _values_equal, context_slots


def dfcm_column(values: List[Value], order: int = 2, table_bits: int = 16) -> Column:
    """Outcomes of order-``order`` DFCM prediction over one op's value list.

    The strides between consecutive values play FCM's values: occurrence
    *i* is predicted once ``order`` strides precede it (``i > order``)
    and their context slot was trained, as ``values[i - 1]`` plus the
    stride that followed that slot last.
    """
    check_table("DFCM", order, table_bits)
    n = len(values)
    predicted = bytearray(n)
    correct = bytearray(n)
    if n <= order + 1:
        return predicted, correct
    strides = [value - last for last, value in zip(values, values[1:])]
    slots = context_slots(strides, order, table_bits)
    table = {}
    get = table.get
    # Occurrence i reads the context of strides[i - order - 1 : i - 1]
    # and trains its slot with strides[i - 1], the stride into it.
    i = order + 1
    for slot, last, stride in zip(slots, values[order:], strides[order:]):
        learned = get(slot)
        if learned is not None:
            predicted[i] = 1
            prediction = last + learned
            value = values[i]
            # Same type: ``==`` is what _values_equal computes.
            correct[i] = (
                prediction == value
                if type(prediction) is type(value)
                else _values_equal(prediction, value)
            )
        table[slot] = stride
        i += 1
    return predicted, correct
