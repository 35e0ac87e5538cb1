"""Instruction-set extension of the paper (section 2.1).

Four operation *forms* extend the base VLIW ISA:

* ``LDPRED`` — loads the value predictor's prediction for a load into the
  load's destination register and sets a Synchronization-register bit.
* ``CHECK`` — the check-prediction form of the original (predicted) load:
  re-executes it on a memory unit, compares the result with the predicted
  value, clears the LdPred bit unconditionally and, on a correct
  prediction, also clears the bits of the operations speculated from it.
* ``SPECULATIVE`` — an op consuming a predicted value directly or
  transitively; it sets its own Synchronization bit and a copy of the
  decoded op is shipped to the Compensation Code Engine.
* ``NONSPEC`` — an op that must see only verified values; the VLIW
  instruction containing it stalls until the encoded wait bits clear.

Plain ops (untouched by prediction) keep the ``PLAIN`` form.

:class:`SpeculativeBlock` is the transformed block: the new operation
list, the per-operation form/bit annotations, and the rewired dependence
graph the list scheduler consumes (live transforms only; it is not
pickled).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ddg.graph import DependenceGraph
    from repro.ir.block import BasicBlock
    from repro.ir.operation import Operation


class OpForm(enum.Enum):
    """The operation forms of the extended ISA."""

    PLAIN = "plain"
    LDPRED = "ldpred"
    CHECK = "check"
    SPECULATIVE = "speculative"
    NONSPEC = "nonspec"

    __hash__ = object.__hash__  # identity, as for repro.ir.opcodes.FUClass


@dataclass(frozen=True)
class SpecOpInfo:
    """Static annotations attached to one operation of a transformed block.

    Attributes:
        form: the operation's form.
        origins: ids of the ``LDPRED`` operations this op's value derives
            from (non-empty for ``SPECULATIVE``; for ``NONSPEC`` these are
            the origins reachable through its *operands*).
        sync_bit: Synchronization-register bit set by this op (``LDPRED``
            and ``SPECULATIVE`` forms), else ``None``.
        wait_bits: bits this op's instruction must see cleared before
            issue (``NONSPEC`` form), per the paper's "most recent
            operations that compute the operands" encoding.
        verifies: for ``CHECK``: the id of the ``LDPRED`` it verifies.
    """

    form: OpForm
    origins: FrozenSet[int] = frozenset()
    sync_bit: Optional[int] = None
    wait_bits: FrozenSet[int] = frozenset()
    verifies: Optional[int] = None


@dataclass
class SpeculativeBlock:
    """A basic block after the value-speculation transformation.

    Attributes:
        label: the original block's label.
        original: the untransformed block.
        operations: transformed operation list in program order (LdPred
            ops first, then the original body with predicted loads
            replaced by their check forms).
        info: per-``op_id`` static annotations.
        graph: the rewired dependence graph used for scheduling.  Only
            scheduling reads it, so a pickled block stores ``None``: a
            block decoded from the result cache carries no graph.
        ldpred_ids: ids of the ``LDPRED`` operations, in insertion order.
        check_of: maps a ``LDPRED`` id to its ``CHECK`` op id.
        predicted_load_of: maps a ``LDPRED`` id to the *original* load's
            op id (the key under which the load was value-profiled and
            under which the run-time predictor is trained).
    """

    label: str
    original: BasicBlock
    operations: List[Operation]
    info: Dict[int, SpecOpInfo]
    graph: Optional[DependenceGraph]
    ldpred_ids: List[int]
    check_of: Dict[int, int]
    predicted_load_of: Dict[int, int]

    def __getstate__(self) -> Dict:
        # Scheduling has already consumed the graph by the time a block
        # is pickled (see BlockCompilation.__getstate__ for the precedent).
        state = self.__dict__.copy()
        state["graph"] = None
        return state

    @property
    def num_predictions(self) -> int:
        return len(self.ldpred_ids)

    @property
    def speculated_ops(self) -> List[Operation]:
        """Operations shipped to the Compensation Code Engine, program order."""
        return [
            op for op in self.operations
            if self.info[op.op_id].form is OpForm.SPECULATIVE
        ]

    @property
    def sync_bits_used(self) -> int:
        return sum(
            1 for i in self.info.values() if i.sync_bit is not None
        )

    def form(self, op_id: int) -> OpForm:
        return self.info[op_id].form

    def origins(self, op_id: int) -> FrozenSet[int]:
        return self.info[op_id].origins

    def __repr__(self) -> str:
        return (
            f"<SpeculativeBlock {self.label}: {len(self.operations)} ops, "
            f"{self.num_predictions} predictions, "
            f"{len(self.speculated_ops)} speculated>"
        )
