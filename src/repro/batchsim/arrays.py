"""Struct-of-arrays decode of a value trace.

A :class:`~repro.trace.format.ValueTrace` stores the dynamic execution
as three flat streams (block-id sequence, one value per traced static op
per block instance, per-label static op lists).  :class:`TraceArrays`
turns that into NumPy columns so the batched engine can gather, for any
traced static op, the full per-occurrence value sequence in one fancy
index — the layout every sweep point of the batch shares:

* ``block_seq`` — ``(D,)`` int64, label index of every dynamic block
  instance (``D`` = ``trace.dynamic_blocks``);
* ``starts`` — ``(D,)`` int64, offset of each instance's first traced
  value in the flat value stream (``cumsum`` of per-instance sizes);
* ``stream`` — ``(V,)`` object ndarray of traced values (values are
  arbitrary Python ints/floats; object dtype keeps exact semantics —
  correctness is decided by the *real* scalar predictor, NumPy only
  does the gathers and histogramming);
* per label: the instance index vector (``np.nonzero``) and the static
  traced-op id tuple, so op *p* of label *L* reads its occurrence
  values as ``stream[starts[instances[L]] + pos(p)]``.

Validation mirrors :func:`repro.trace.replay._replay_plan` plus the
end-of-replay cursor check, so a trace the scalar replayer would reject
is rejected here with the same exception types.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir.program import Program
from repro.trace.format import TraceMismatch, ValueTrace
from repro.trace.replay import _replay_plan


class TraceArrays:
    """One trace decoded to struct-of-arrays form (see module docstring)."""

    def __init__(self, trace: ValueTrace, program: Program):
        plan = _replay_plan(trace, program)  # validates digest/labels/sigs
        self.trace = trace
        self.program = program
        self.labels: Tuple[str, ...] = tuple(trace.labels)
        self.label_index: Dict[str, int] = {
            label: i for i, label in enumerate(self.labels)
        }
        #: per label: op ids of its traced static ops, in static order —
        #: the order the trace interleaves values per instance.
        self.traced_ids: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(op.op_id for op in traced) for _, traced in plan
        )

        sizes = np.fromiter(
            (len(ids) for ids in self.traced_ids), dtype=np.int64,
            count=len(self.traced_ids),
        )
        self.block_seq = np.asarray(trace.block_seq, dtype=np.int64)
        if self.block_seq.size:
            if self.block_seq.min() < 0 or self.block_seq.max() >= len(self.labels):
                raise TraceMismatch(
                    f"trace of {trace.program_name!r} references a block "
                    "id outside its label table"
                )
            inst_sizes = sizes[self.block_seq]
            ends = np.cumsum(inst_sizes)
            self.starts = ends - inst_sizes
            total = int(ends[-1])
        else:
            self.starts = np.zeros(0, dtype=np.int64)
            total = 0
        if total != len(trace.values):
            raise TraceMismatch(
                f"trace of {trace.program_name!r} carries {len(trace.values)} "
                f"values but its block sequence implies {total}"
            )
        self.stream = np.empty(len(trace.values), dtype=object)
        if trace.values:
            self.stream[:] = trace.values

        #: per label: indices into ``block_seq`` of that label's instances.
        self._instances = [
            np.nonzero(self.block_seq == i)[0] for i in range(len(self.labels))
        ]
        self._pos: Tuple[Dict[int, int], ...] = tuple(
            {op_id: p for p, op_id in enumerate(ids)} for ids in self.traced_ids
        )

    @property
    def dynamic_blocks(self) -> int:
        return int(self.block_seq.size)

    def instance_count(self, label: str) -> int:
        idx = self.label_index.get(label)
        return 0 if idx is None else int(self._instances[idx].size)

    def op_values(self, label: str, op_id: int):
        """Object ndarray of ``op_id``'s values, one per occurrence.

        Occurrences are ordered by dynamic instance of ``label`` — the
        order the scalar observer sees them in.
        """
        idx = self.label_index[label]
        pos = self._pos[idx].get(op_id)
        if pos is None:
            raise TraceMismatch(
                f"operation {op_id} of block {label!r} is not traced"
            )
        return self.stream[self.starts[self._instances[idx]] + pos]
