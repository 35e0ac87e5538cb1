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
  correctness is decided by the predictor column kernels on Python
  values, NumPy only does the gathers and histogramming);
* per label: the instance index vector (``np.nonzero``) and the static
  traced-op id tuple, so op *p* of label *L* reads its occurrence
  values as ``stream[starts[instances[L]] + pos(p)]`` — positions that
  are also the op's place in the run's global value order.

Decoding validates the trace against the program: a wrong digest, an
unknown label, a block whose opcodes changed since capture, a block id
outside the label table, or a value stream whose length the block
sequence does not account for all raise
:class:`~repro.trace.format.TraceMismatch`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir.program import Program
from repro.trace.format import (
    TRACED_OPCODES,
    TraceMismatch,
    ValueTrace,
    block_signature,
    program_digest,
)


def block_plan(trace: ValueTrace, program: Program):
    """Resolve trace block ids to this program's blocks and traced ops.

    Raises :class:`TraceMismatch` when the trace does not belong to a
    structurally identical program — wrong digest, unknown label, or a
    block whose opcode sequence changed since capture.
    """
    digest = program_digest(program)
    if digest != trace.program_digest:
        raise TraceMismatch(
            f"trace was captured from a different program: digest "
            f"{trace.program_digest[:12]} != {digest[:12]} "
            f"({trace.program_name!r} vs {program.name!r})"
        )
    function = program.main
    plan = []
    for label, signature in zip(trace.labels, trace.block_signatures):
        try:
            block = function.block(label)
        except KeyError as exc:
            raise TraceMismatch(
                f"trace references block {label!r} missing from "
                f"program {program.name!r}"
            ) from exc
        if block_signature(block) != signature:
            raise TraceMismatch(
                f"block {label!r} of {program.name!r} changed since the "
                "trace was captured"
            )
        traced_ops = tuple(
            op for op in block.operations if op.opcode in TRACED_OPCODES
        )
        plan.append((block, traced_ops))
    return plan


class TraceArrays:
    """One trace decoded to struct-of-arrays form (see module docstring)."""

    def __init__(self, trace: ValueTrace, program: Program):
        plan = block_plan(trace, program)
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

    def instances(self, label: str):
        """Indices into ``block_seq`` of ``label``'s dynamic instances."""
        return self._instances[self.label_index[label]]

    def op_positions(self, label: str, op_id: int):
        """Positions of ``op_id``'s occurrences in the flat value stream.

        One per dynamic instance of ``label``, ascending: the stream is
        the run's value order, so these also order the op's occurrences
        among every other traced op's.
        """
        idx = self.label_index[label]
        pos = self._pos[idx].get(op_id)
        if pos is None:
            raise TraceMismatch(
                f"operation {op_id} of block {label!r} is not traced"
            )
        return self.starts[self._instances[idx]] + pos

    def op_values(self, label: str, op_id: int):
        """Object ndarray of ``op_id``'s values, one per occurrence, in
        dynamic instance order of ``label``."""
        return self.stream[self.op_positions(label, op_id)]
