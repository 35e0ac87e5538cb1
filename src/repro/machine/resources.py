"""Functional-unit resources of a VLIW machine.

A machine owns a pool of functional units grouped by :class:`FUClass`.
The scheduler reserves one unit of the right class per operation per issue
cycle; the paper's key scaling experiment (Table 4) simply doubles this
pool (and the issue width) from the 4-wide to the 8-wide configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.ir.opcodes import FUClass


@dataclass(frozen=True)
class FUPool:
    """Counts of functional units per class.

    The mapping is normalised to a canonical (class-value-sorted) order
    at construction, so two pools with the same counts are identical
    objects down to their serialised bytes — rebuilt machines are
    indistinguishable from originals.
    """

    counts: Mapping[FUClass, int]

    def __post_init__(self) -> None:
        for fu, count in self.counts.items():
            if count < 0:
                raise ValueError(f"negative unit count for {fu}")
        object.__setattr__(
            self,
            "counts",
            dict(sorted(self.counts.items(), key=lambda kv: kv[0].value)),
        )

    def count(self, fu: FUClass) -> int:
        return self.counts.get(fu, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def scaled(self, factor: int) -> "FUPool":
        """A pool with every unit count multiplied by ``factor``."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return FUPool({fu: n * factor for fu, n in self.counts.items()})

    def __str__(self) -> str:
        parts = [f"{fu.value}x{n}" for fu, n in sorted(self.counts.items(), key=lambda kv: kv[0].value) if n]
        return "+".join(parts) or "(empty)"


class ReservationTable:
    """Per-cycle functional-unit reservations used during list scheduling.

    Cycle indices are dense small integers; a row is created lazily when a
    cycle is first touched.  ``issue_width`` bounds the number of
    operations started in one cycle regardless of unit availability
    (a VLIW instruction has a fixed number of slots).
    """

    def __init__(self, pool: FUPool, issue_width: int):
        if issue_width < 1:
            raise ValueError("issue width must be positive")
        self._pool = pool
        self._issue_width = issue_width
        self._limits: Dict[FUClass, int] = dict(pool.counts)
        self._used: Dict[int, Dict[FUClass, int]] = {}
        self._issued: Dict[int, int] = {}

    def can_issue(self, cycle: int, fu: FUClass) -> bool:
        if self._issued.get(cycle, 0) >= self._issue_width:
            return False
        used = self._used.get(cycle, {}).get(fu, 0)
        return used < self._limits.get(fu, 0)

    def try_issue(self, cycle: int, fu: FUClass) -> bool:
        """Reserve one ``fu`` unit in ``cycle`` if both an instruction
        slot and a unit are free; returns whether the reservation was
        made.  One dict walk instead of the ``can_issue`` + ``issue``
        pair — the list scheduler calls this once per heap pop."""
        issued = self._issued.get(cycle, 0)
        if issued >= self._issue_width:
            return False
        row = self._used.get(cycle)
        if row is None:
            row = self._used[cycle] = {}
        used = row.get(fu, 0)
        if used >= self._limits.get(fu, 0):
            return False
        row[fu] = used + 1
        self._issued[cycle] = issued + 1
        return True

    def issue(self, cycle: int, fu: FUClass) -> None:
        if not self.can_issue(cycle, fu):
            raise RuntimeError(f"no free {fu.value} unit in cycle {cycle}")
        self._used.setdefault(cycle, {}).setdefault(fu, 0)
        self._used[cycle][fu] += 1
        self._issued[cycle] = self._issued.get(cycle, 0) + 1

    def slots_used(self, cycle: int) -> int:
        return self._issued.get(cycle, 0)
