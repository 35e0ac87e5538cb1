"""Shared state of one batch of sweep points.

A :class:`BatchContext` owns everything the points of a batch can share:
decoded :class:`~repro.batchsim.arrays.TraceArrays`, per-op predictor
:class:`~repro.batchsim.outcomes.OutcomeColumn` columns (shared by every
table capacity, by the hybrid that folds its stride and FCM component
columns, and by the profile that sums them), and per-point pattern
codes and histograms on an unbounded table (many points predict the
same op set, e.g. the same threshold on machines of different widths,
and then share even the histogram).  A finite table's patterns depend on the compilation's whole
predicted-op set, so those are computed per point, never cached.  All
caches are bounded LRUs keyed by object identity.  The decode cache
holds its traces and programs strongly; the column and histogram caches
hold their decode weakly and check it on every hit, so a decode the
decode cache evicted is freed, and a later object that reuses its id
cannot read its entries.

A process-wide default context backs every batched simulation and
profile; :func:`reset_shared_state` drops it together with the
compile-product and program-digest memos — bench iterations call it so
repeats measure real work, and the test suite resets between tests for
isolation.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.batchsim.arrays import TraceArrays
from repro.batchsim.outcomes import (
    KERNELS,
    STRIDE,
    OutcomeColumn,
    pack_patterns,
)
from repro.predict.hybrid import hybrid_column
from repro.trace.format import reset_digest_memo


class _LRU:
    """Tiny LRU over an OrderedDict (values hold their key objects)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        entry = self.data.get(key)
        if entry is not None:
            self.data.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, key, value):
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.capacity:
            self.data.popitem(last=False)

    def clear(self):
        self.data.clear()


class BatchContext:
    """Caches shared by every point simulated against the same traces."""

    def __init__(
        self,
        max_traces: int = 8,
        max_columns: int = 8192,
        max_histograms: int = 8192,
    ):
        self._arrays = _LRU(max_traces)
        self._columns = _LRU(max_columns)
        self._histograms = _LRU(max_histograms)

    # -- decoded traces ----------------------------------------------------

    def arrays(self, trace, program) -> TraceArrays:
        key = (id(trace), id(program))
        entry = self._arrays.get(key)
        if entry is not None:
            arrays = entry
            # Strong refs inside TraceArrays pin trace/program, so the
            # ids in the key are stable while the entry lives.
            if arrays.trace is trace and arrays.program is program:
                return arrays
        arrays = TraceArrays(trace, program)
        self._arrays.put(key, arrays)
        return arrays

    # -- predictor outcome columns ----------------------------------------

    def component(
        self, arrays: TraceArrays, pkey: Tuple, label: str, op_id: int
    ) -> OutcomeColumn:
        """The outcome column of the predictor with column key ``pkey``
        (:func:`~repro.batchsim.outcomes.predictor_key`) on one op.

        A hybrid column folds its stride and FCM component columns,
        which live in the same cache, so the profile, a stride or FCM
        point and a hybrid point walk each op's values once per
        component.
        """
        key = (id(arrays), pkey, label, op_id)
        entry = self._columns.get(key)
        if entry is not None and entry[0]() is arrays:
            return entry[1]
        predicted, correct = self._walk(arrays, pkey, label, op_id)
        column = OutcomeColumn(
            op_id,
            np.frombuffer(correct, dtype=bool),
            np.frombuffer(predicted, dtype=bool),
        )
        self._columns.put(key, (weakref.ref(arrays), column))
        return column

    def _walk(self, arrays: TraceArrays, pkey: Tuple, label: str, op_id: int):
        """Compute one column: the kind's kernel over the op's values,
        or for a hybrid the chooser fold over its component columns."""
        kind = pkey[0]
        if kind == "hybrid":
            fcm_order, table_bits, counter_max = pkey[1:]
            first = self.component(arrays, STRIDE, label, op_id)
            second = self.component(
                arrays, ("fcm", fcm_order, table_bits), label, op_id
            )
            return hybrid_column(
                (first.predicted.tobytes(), first.correct.tobytes()),
                (second.predicted.tobytes(), second.correct.tobytes()),
                counter_max,
            )
        values = arrays.op_values(label, op_id).tolist()
        return KERNELS[kind](values, *pkey[1:])

    # -- per-point pattern codes ------------------------------------------

    def patterns(
        self,
        arrays: TraceArrays,
        pkey: Tuple,
        label: str,
        op_ids: Tuple[int, ...],
    ) -> Tuple[np.ndarray, Dict[Tuple[bool, ...], int]]:
        """Pattern codes of the label's instances and their histogram
        (:func:`~repro.batchsim.outcomes.pack_patterns`) on an unbounded
        table, for the predictor with column key ``pkey``.

        ``op_ids`` are the predicted original op ids in LdPred order —
        pattern position *j* is op ``op_ids[j]``, matching the
        compilation's ``predicted_load_ids`` convention.
        """
        key = (id(arrays), pkey, label, op_ids)
        entry = self._histograms.get(key)
        if entry is not None and entry[0]() is arrays:
            return entry[1]
        columns = [self.component(arrays, pkey, label, op_id) for op_id in op_ids]
        packed = pack_patterns(
            [column.correct for column in columns], arrays.instance_count(label)
        )
        self._histograms.put(key, (weakref.ref(arrays), packed))
        return packed

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "arrays.hits": self._arrays.hits,
            "arrays.misses": self._arrays.misses,
            "columns.hits": self._columns.hits,
            "columns.misses": self._columns.misses,
            "histograms.hits": self._histograms.hits,
            "histograms.misses": self._histograms.misses,
        }

    def reset(self) -> None:
        self._arrays.clear()
        self._columns.clear()
        self._histograms.clear()


_DEFAULT: Optional[BatchContext] = None


def default_context() -> BatchContext:
    """The process-wide shared context (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = BatchContext()
    return _DEFAULT


def reset_default_context() -> None:
    global _DEFAULT
    if _DEFAULT is not None:
        _DEFAULT.reset()
    _DEFAULT = None


def reset_shared_state() -> None:
    """Drop every process-wide fast-path cache (batch, compile and
    program-digest memos).

    Bench scenarios call this at iteration start so repeats measure the
    genuine per-sweep cost (cross-point sharing *within* the iteration
    only); the test suite calls it between tests for isolation.
    """
    reset_default_context()
    from repro.core import compile_cache

    compile_cache.reset()
    reset_digest_memo()
