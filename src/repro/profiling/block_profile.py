"""Block execution-frequency profiling.

"Besides value profiles, the generated code was also profiled to
determine the frequency of execution of each block" — these counts weight
per-block schedule lengths into whole-program execution-time fractions
for Tables 2-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


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
