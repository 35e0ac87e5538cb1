"""Per-static-op predictor outcome columns.

The scalar simulation observer trains the hardware predictor only on the
ops a compilation predicts, and every shipped predictor (stride, FCM,
DFCM, last-value, hybrid and its confidence scores) keeps strictly
per-static-op state.  Consequence — the batching theorem this package
rests on: the per-occurrence outcome column of a static op depends only
on (a) the op's own value sequence in the trace and (b) the predictor
spec.  It is *independent* of which other ops a sweep point predicts, so
one column, computed once, is exact for every point in the batch.

Columns are computed by feeding the op's (trace-extracted) value
sequence through a **real** scalar predictor instance — predict, score,
update, exactly the observer's order — not a NumPy re-implementation,
so there is no numeric-semantics drift to audit.  NumPy enters only
downstream, where columns are packed into per-point pattern bitmasks.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from repro.predict.base import ValuePredictor, _values_equal


class OutcomeColumn:
    """Outcomes of one static op over its dynamic occurrences."""

    __slots__ = ("op_id", "correct", "predicted")

    def __init__(self, op_id: int, correct, predicted):
        self.op_id = op_id
        self.correct = correct  # (N,) bool: prediction existed and matched
        self.predicted = predicted  # (N,) bool: predictor returned a value

    @property
    def hits(self) -> int:
        return int(self.correct.sum())

    @property
    def occurrences(self) -> int:
        return int(self.correct.size)


def predictor_key(machine) -> str:
    """Canonical cache key of the machine's declared predictor."""
    spec = getattr(machine, "predictor", None)
    if spec is None:
        return "default_hybrid"
    return json.dumps(spec.canonical(), sort_keys=True)


def build_predictor(machine) -> ValuePredictor:
    spec = getattr(machine, "predictor", None)
    if spec is not None:
        return spec.build()
    from repro.predict.hybrid import default_hybrid

    return default_hybrid()


def compute_column(
    op_id: int, values, build: Callable[[], ValuePredictor]
) -> OutcomeColumn:
    """Run a fresh scalar predictor over the op's value sequence.

    A fresh instance per column is equivalent to the observer's single
    shared instance because predictor state is per static op — the
    other ops' training can never touch this op's entries.
    """
    predictor = build()
    n = len(values)
    correct = np.zeros(n, dtype=bool)
    predicted = np.zeros(n, dtype=bool)
    for i in range(n):
        value = values[i]
        prediction = predictor.predict(op_id)
        if prediction is not None:
            predicted[i] = True
            if _values_equal(prediction, value):
                correct[i] = True
        predictor.update(op_id, value)
    return OutcomeColumn(op_id, correct, predicted)
