"""Shared state of one batch of sweep points.

A :class:`BatchContext` owns everything the points of a batch can share:
decoded :class:`~repro.batchsim.arrays.TraceArrays`, per-op predictor
:class:`~repro.batchsim.outcomes.OutcomeColumn` columns (shared by every
table capacity), and per-point pattern codes and histograms on an
unbounded table (many points predict the same op set, e.g. the same
threshold on machines of different widths, and then share even the
histogram).  A finite table's patterns depend on the compilation's whole
predicted-op set, so those are computed per point, never cached.  All
caches are bounded LRUs keyed by object identity with strong references
held in the values, so ids cannot be reused while an entry lives.

A process-wide default context backs every batched simulation and
profile; :func:`reset_shared_state` drops it together with the
compile-product and program-digest memos — bench iterations call it so
repeats measure real work, and the test suite resets between tests for
isolation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.batchsim.arrays import TraceArrays
from repro.batchsim.outcomes import (
    OutcomeColumn,
    compute_column,
    pack_patterns,
    predictor_key,
)


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

    def column(
        self, arrays: TraceArrays, machine, label: str, op_id: int
    ) -> OutcomeColumn:
        pkey = predictor_key(machine)
        key = (id(arrays), pkey, label, op_id)
        entry = self._columns.get(key)
        if entry is not None and entry[0] is arrays:
            return entry[1]
        column = compute_column(
            op_id,
            arrays.op_values(label, op_id),
            machine.predictor.build,
        )
        self._columns.put(key, (arrays, column))
        return column

    # -- per-point pattern codes ------------------------------------------

    def patterns(
        self,
        arrays: TraceArrays,
        machine,
        label: str,
        op_ids: Tuple[int, ...],
    ) -> Tuple[np.ndarray, Dict[Tuple[bool, ...], int]]:
        """Pattern codes of the label's instances and their histogram
        (:func:`~repro.batchsim.outcomes.pack_patterns`) on an unbounded
        table.

        ``op_ids`` are the predicted original op ids in LdPred order —
        pattern position *j* is op ``op_ids[j]``, matching the
        compilation's ``predicted_load_ids`` convention.
        """
        # The key leaves the table capacity out (predictor_key).
        assert machine.predictor.table_entries is None
        pkey = predictor_key(machine)
        key = (id(arrays), pkey, label, op_ids)
        entry = self._histograms.get(key)
        if entry is not None and entry[0] is arrays:
            return entry[1]
        columns = [self.column(arrays, machine, label, op_id) for op_id in op_ids]
        packed = pack_patterns(
            [column.correct for column in columns], arrays.instance_count(label)
        )
        self._histograms.put(key, (arrays, packed))
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
    # This package does not import the trace format; if nothing else
    # did either, there is no digest memo to clear.
    import sys

    trace_format = sys.modules.get("repro.trace.format")
    if trace_format is not None:
        trace_format.reset_digest_memo()
