"""Hybrid (tournament) value prediction.

The paper profiles each operation with both stride and FCM and uses "the
higher value out of these two prediction rates".  The run-time analogue is
a tournament predictor: both components train on every outcome, and a
per-op saturating chooser selects which component's prediction to use.

The chooser reads only whether each component predicted and whether it
was right, so the hybrid's column is a fold over its components'
columns: no value is looked at again.
"""

from __future__ import annotations

from typing import Tuple

from repro.predict.base import Column


def hybrid_column(
    first: Tuple[bytes, bytes], second: Tuple[bytes, bytes], counter_max: int = 8
) -> Column:
    """Outcomes of the tournament over two component columns.

    ``first`` and ``second`` are the components' ``(predicted, correct)``
    columns over the same op (the paper's configuration is stride, then
    FCM).  Each component has a chooser score in
    ``[-counter_max, counter_max]``, starting at 0, that every
    prediction it offers moves one step up when right and one step down
    when wrong.  An occurrence takes the prediction of the
    better-scored component that offers one; ties go to ``first``.
    """
    first_predicted, first_correct = first
    second_predicted, second_correct = second
    n = len(first_predicted)
    predicted = bytearray(n)
    correct = bytearray(n)
    a = b = 0  # chooser scores of first and second
    low = -counter_max
    i = 0
    for pa, ca, pb, cb in zip(
        first_predicted, first_correct, second_predicted, second_correct
    ):
        if pa or pb:
            predicted[i] = 1
            correct[i] = ca if pa and (a >= b or not pb) else cb
            if pa:
                if ca:
                    if a < counter_max:
                        a += 1
                elif a > low:
                    a -= 1
            if pb:
                if cb:
                    if b < counter_max:
                        b += 1
                elif b > low:
                    b -= 1
        i += 1
    return predicted, correct
