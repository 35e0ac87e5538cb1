"""Per-static-op predictor outcome columns.

The simulation trains the hardware predictor only on the ops a
compilation predicts, and every shipped predictor (stride, FCM, DFCM,
last-value, hybrid and its chooser counters) keeps strictly
per-static-op state.  Consequence — the batching theorem this package
rests on: the per-occurrence outcome column of a static op depends only
on (a) the op's own value sequence in the trace and (b) the predictor
spec.  It is *independent* of which other ops a sweep point predicts, so
one column, computed once, is exact for every point in the batch.

Columns come from the column kernels of :mod:`repro.predict`: one
pure-Python loop per (op, predictor kind) over the op's value list,
scored with the predictors' exact-match ``_values_equal`` and ``hash``
context hashing.  A hybrid column is the chooser fold over its stride
and FCM component columns, which the profile's per-load stride and FCM
counts are sums of too (:mod:`repro.batchsim.profiler`), so
:class:`~repro.batchsim.context.BatchContext` walks each (op, component)
stream once for all of them.  The parity suite
(``tests/predict/test_kernel_parity.py``) holds every kernel to a
stateful one-value-at-a-time predictor class.  NumPy enters only
downstream, where columns are packed into per-point pattern bitmasks.

A finite Value Prediction Table (``predictor.table_entries``) does not
change a column either.  The table is direct-mapped on
``hash(op_id) % table_entries``, every predicted occurrence trains the
predictor and takes its slot, and ``predict`` is pure.  So an occurrence
is served exactly when the previous predicted occurrence mapped to its
slot, in the run's value order, was of the same op; the table outcome
is the column ANDed with that mask (:func:`table_served`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.predict.base import check_table
from repro.predict.dfcm import dfcm_column
from repro.predict.fcm import fcm_column
from repro.predict.last_value import last_value_column
from repro.predict.stride import stride_column

#: Column key of the two-delta stride predictor, the hybrid's first
#: component and the profile's stride predictor.
STRIDE = ("stride",)
#: Column key of the profile's FCM predictor (order 2, 16 table bits),
#: the default hybrid's second component.
PROFILE_FCM = ("fcm", 2, 16)

#: Kernel of every kind whose column is a walk over the op's values;
#: a key's fields after the kind are the kernel's arguments.
KERNELS = {
    "stride": stride_column,
    "fcm": fcm_column,
    "dfcm": dfcm_column,
    "last-value": last_value_column,
}


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


def predictor_key(spec) -> Tuple:
    """Column key of a :class:`~repro.machine.predictor.PredictorSpec`:
    its kind plus only the fields that kind reads.

    The table capacity is left out: it only masks which occurrences the
    table serves, so every capacity shares the unbounded columns.  So
    are the fields a kind ignores, so e.g. every ``fcm_order`` shares
    the stride columns.  A hybrid key is its FCM component's fields plus
    the chooser bound: ``("hybrid", fcm_order, table_bits, counter_max)``.

    Raises ``ValueError`` on a (D)FCM geometry no table can take, before
    any column is walked.
    """
    if spec.kind in ("stride", "last-value"):
        return (spec.kind,)
    check_table(
        "DFCM" if spec.kind == "dfcm" else "FCM", spec.fcm_order, spec.table_bits
    )
    key = (spec.kind, spec.fcm_order, spec.table_bits)
    if spec.kind == "hybrid":
        key += (spec.counter_max,)
    return key


def table_served(
    op_ids: Sequence[int], positions: Sequence, entries: int
) -> Tuple[List[np.ndarray], int]:
    """Which occurrences a direct-mapped table of ``entries`` slots serves.

    ``positions[i]`` holds op ``op_ids[i]``'s occurrence positions in the
    run's value order, ascending; together they are every predicted
    occurrence of the run.  Returns one served mask per op, parallel to
    its positions, and the tag-miss count: occurrences whose slot was
    last taken by another op.  An occurrence whose slot is still empty
    is neither served nor a tag miss.
    """
    sizes = [len(p) for p in positions]
    if not sum(sizes):
        return [np.zeros(0, dtype=bool) for _ in sizes], 0
    owner = np.repeat(np.asarray(op_ids, dtype=np.int64), sizes)
    slot = np.repeat(
        np.fromiter((hash(k) % entries for k in op_ids), np.int64, len(op_ids)),
        sizes,
    )
    # Sorted by slot, then position: each slot's occurrences in run
    # order, so an occurrence's previous occupant is its left neighbour
    # when that neighbour shares its slot.  The same op always maps to
    # the same slot, so an equal neighbour is always a slot-mate.
    order = np.lexsort((np.concatenate(positions), slot))
    slot, owner = slot[order], owner[order]
    occupied = np.zeros(order.size, dtype=bool)
    occupied[1:] = slot[1:] == slot[:-1]
    same = np.zeros(order.size, dtype=bool)
    same[1:] = owner[1:] == owner[:-1]
    served = np.empty(order.size, dtype=bool)
    served[order] = same
    tag_misses = int((occupied & ~same).sum())
    return np.split(served, np.cumsum(sizes)[:-1]), tag_misses


def pack_patterns(
    correct: Sequence[np.ndarray], n: int
) -> Tuple[np.ndarray, Dict[Tuple[bool, ...], int]]:
    """Per-instance pattern codes and their histogram.

    ``correct[j]`` is prediction *j*'s outcome per instance; bit *j* of
    an instance's code is set when it was right.  The histogram maps
    each pattern that occurs, as a tuple of bools in prediction order,
    to its instance count.
    """
    k = len(correct)
    if k > 20:  # 2^k pattern space; the compiler caps far below this
        raise ValueError(f"{k} predictions in one block exceed batch limit")
    code = np.zeros(n, dtype=np.int64)
    for j, column in enumerate(correct):
        code |= column.astype(np.int64) << j
    binc = np.bincount(code, minlength=1 << k)
    counts = {
        tuple(bool((mask >> j) & 1) for j in range(k)): int(binc[mask])
        for mask in range(1 << k)
        if binc[mask]
    }
    return code, counts
