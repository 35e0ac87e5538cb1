"""Block execution-frequency profiling.

"Besides value profiles, the generated code was also profiled to
determine the frequency of execution of each block" — these counts weight
per-block schedule lengths into whole-program execution-time fractions
for Tables 2-4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.block import BasicBlock
    from repro.ir.operation import Operation


class BlockFrequencyProfiler:
    """Execution observer counting dynamic entries per block label."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def block_entered(self, block: BasicBlock) -> None:
        self.counts[block.label] = self.counts.get(block.label, 0) + 1

    def operation_executed(self, op: Operation, inputs, result) -> None:
        pass

    def profile(self) -> "BlockProfile":
        return BlockProfile(dict(self.counts))


@dataclass(frozen=True)
class BlockProfile:
    """Immutable block-frequency profile."""

    counts: Dict[str, int]

    def count(self, label: str) -> int:
        return self.counts.get(label, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def frequency(self, label: str) -> float:
        """Fraction of dynamic block entries that were this block."""
        total = self.total
        if total == 0:
            return 0.0
        return self.count(label) / total

    def hottest(self, n: int = 10) -> list[tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda kv: kv[1], reverse=True)[:n]

    def __len__(self) -> int:
        return len(self.counts)
