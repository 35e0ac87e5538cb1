"""Value profiling of operations that produce predictable results.

Each executed tracked operation feeds both a stride predictor and an FCM
predictor keyed by the static operation id; the profile records how often
each predictor would have been correct.  "The final value prediction rate
for each operation ... was chosen to be the higher value out of these two
prediction rates" — :meth:`ValueProfile.rate` implements exactly that.

Loads are always tracked (the paper predicts loads).  The paper's
formulation is general — "an operation within a VLIW instruction may have
its destination operand predicted" — so the profiler optionally tracks
long-latency ALU results too (``extra_opcodes``), which the speculation
pass can then predict when ``SpeculationConfig.predict_alu`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Dict, FrozenSet, Optional

from repro.ir.opcodes import Opcode
from repro.predict.base import _values_equal

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.block import BasicBlock
    from repro.ir.operation import Operation
    from repro.predict.base import ValuePredictor

#: Long-latency value-producing opcodes worth profiling beyond loads.
LONG_LATENCY_OPCODES: FrozenSet[Opcode] = frozenset(
    {Opcode.MUL, Opcode.DIV, Opcode.MOD, Opcode.FMUL, Opcode.FDIV, Opcode.FSQRT}
)


@dataclass
class LoadValueStats:
    """Per-static-load profiling counters."""

    executions: int = 0
    stride_correct: int = 0
    fcm_correct: int = 0

    @property
    def stride_rate(self) -> float:
        return self.stride_correct / self.executions if self.executions else 0.0

    @property
    def fcm_rate(self) -> float:
        return self.fcm_correct / self.executions if self.executions else 0.0

    @property
    def best_rate(self) -> float:
        return max(self.stride_rate, self.fcm_rate)

    @property
    def best_predictor(self) -> str:
        return "stride" if self.stride_correct >= self.fcm_correct else "fcm"


class ValueProfiler:
    """Execution observer training profile predictors on tracked ops."""

    def __init__(
        self,
        stride: Optional[ValuePredictor] = None,
        fcm: Optional[ValuePredictor] = None,
        extra_opcodes: Collection[Opcode] = (),
    ):
        from repro.predict.fcm import FCMPredictor
        from repro.predict.stride import StridePredictor

        self._stride = stride if stride is not None else StridePredictor()
        self._fcm = fcm if fcm is not None else FCMPredictor(order=2)
        self._stats: Dict[int, LoadValueStats] = {}
        self._extra = frozenset(extra_opcodes)

    def block_entered(self, block: BasicBlock) -> None:
        pass

    def operation_executed(self, op: Operation, inputs, result) -> None:
        if not (op.is_load or op.opcode in self._extra):
            return
        stats = self._stats.setdefault(op.op_id, LoadValueStats())
        stats.executions += 1
        stride_prediction = self._stride.predict(op.op_id)
        fcm_prediction = self._fcm.predict(op.op_id)
        if stride_prediction is not None and _values_equal(stride_prediction, result):
            stats.stride_correct += 1
        if fcm_prediction is not None and _values_equal(fcm_prediction, result):
            stats.fcm_correct += 1
        self._stride.update(op.op_id, result)
        self._fcm.update(op.op_id, result)

    def profile(self) -> "ValueProfile":
        return ValueProfile(dict(self._stats))


@dataclass(frozen=True)
class ValueProfile:
    """Immutable per-load predictability profile."""

    loads: Dict[int, LoadValueStats]

    def rate(self, op_id: int) -> float:
        """Best-of(stride, FCM) prediction rate, the paper's selection metric."""
        stats = self.loads.get(op_id)
        return stats.best_rate if stats is not None else 0.0

    def executions(self, op_id: int) -> int:
        stats = self.loads.get(op_id)
        return stats.executions if stats is not None else 0

    def predictable_loads(self, threshold: float) -> list[int]:
        """Static load ids whose best rate meets the threshold."""
        return sorted(
            op_id for op_id, stats in self.loads.items() if stats.best_rate >= threshold
        )

    def __len__(self) -> int:
        return len(self.loads)
