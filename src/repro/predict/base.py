"""The column-kernel protocol shared by every value predictor.

Every predictor here keeps strictly per-static-operation state (the
analogue of the instruction address that indexes a hardware
value-prediction table), so its behaviour on one op depends only on
that op's own value sequence.  Each predictor kind is therefore one
*kernel*: a pure function from one op's values, in occurrence order, to
its outcome :data:`Column` — per occurrence, whether the predictor
offered a value and whether that value was right.  The scoring is the
two-phase protocol of the value-prediction literature [Lipasti et al.,
Sazeides & Smith]: predict from the state the earlier values left, score
the prediction against the actual value (:func:`_values_equal`), then
train on the actual value.

The profile (:mod:`repro.batchsim.profiler`) sums the stride and FCM
columns of each load to its per-load prediction rates, and the
simulation (:mod:`repro.batchsim.outcomes`) takes the machine
predictor's column of each predicted op as the hardware Value Predictor
of the paper's Figure 5.  The test suite holds every kernel to a
stateful one-value-at-a-time predictor class
(``tests/predict/reference_predictors.py``).
"""

from __future__ import annotations

import sys
from operator import ne
from typing import List, Tuple, Union

import numpy as np

Value = Union[int, float]

#: ``(predicted, correct)``, one byte per occurrence: 1 where the
#: predictor offered a value, and 1 where it offered one equal to the
#: actual value.
Column = Tuple[bytearray, bytearray]


def _values_equal(a: Value, b: Value) -> bool:
    """Exact match, as value-prediction hardware compares bit patterns."""
    if isinstance(a, float) or isinstance(b, float):
        return float(a) == float(b)
    return a == b


def check_table(kind: str, order: int, table_bits: int) -> None:
    """The (D)FCM geometry checks: ``order >= 1``, ``table_bits`` in [1, 30]."""
    if order < 1:
        raise ValueError(f"{kind} order must be >= 1")
    if table_bits < 1 or table_bits > 30:
        raise ValueError("table_bits must be in [1, 30]")


#: The context hash of every NaN.  Python hashes a NaN by its identity,
#: so two NaNs of equal bits would land in different slots; hardware
#: hashes the bit pattern, so every NaN here takes ``sys.hash_info.nan``
#: (0, the hash Python gave every NaN before 3.10).
NAN_HASH = sys.hash_info.nan


def context_slots(stream: List[Value], order: int, table_bits: int) -> List[int]:
    """Second-level table slot of every length-``order`` window of a
    stream.

    Entry *j* is the slot of the context ``stream[j:j + order]``, oldest
    first: ``h = 0; for v in context: h = (h * 1000003) ^ hash(v)``,
    then ``h % 2**table_bits``, with :data:`NAN_HASH` standing for the
    hash of a NaN.  The low ``table_bits`` bits of a product or an XOR
    depend only on the low bits of its operands, so the fold runs
    vectorised in wrapping 64-bit arithmetic and keeps exactly the bits
    of the unbounded Python one.
    """
    n = len(stream)
    hashes = np.fromiter(map(hash, stream), dtype=np.int64, count=n)
    if any(map(ne, stream, stream)):  # only a NaN differs from itself
        hashes[np.fromiter(map(ne, stream, stream), dtype=bool, count=n)] = NAN_HASH
    contexts = hashes
    for m in range(1, order):
        contexts = (contexts[:-1] * 1000003) ^ hashes[m:]
    return (contexts & ((1 << table_bits) - 1)).tolist()
