"""The Synchronization register (paper section 2.1).

A bit vector with one bit per *predicted value* of the block currently in
flight.  A bit is set when the value it guards is produced speculatively
(by ``LdPred`` or by a speculated operation) and cleared when the value is
verified correct (by the check-prediction op) or recomputed (by the
Compensation Code Engine).  VLIW instructions containing non-speculative
operations encode wait masks over these bits and stall while any masked
bit is set.

The simulator variant here tracks *times*: when each bit was set and when
it cleared, which is all the timing model needs.  Each set and each
recorded clear is appended to the run's event log.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class SyncRegisterOverflow(RuntimeError):
    """A block needs more predicted-value bits than the register has."""


class SyncBitAllocator:
    """Compile-time assignment of Synchronization-register bit indices.

    The paper pre-determines bit indices statically per block; indices can
    be reused across blocks because predictions do not cross block
    boundaries in this design.
    """

    def __init__(self, width: int = 64):
        if width < 1:
            raise ValueError("register width must be positive")
        self.width = width
        self._next = 0
        self._by_producer: Dict[int, int] = {}

    def allocate(self, producer_id: int) -> int:
        if producer_id in self._by_producer:
            return self._by_producer[producer_id]
        if self._next >= self.width:
            raise SyncRegisterOverflow(
                f"block needs more than {self.width} Synchronization bits"
            )
        bit = self._next
        self._next += 1
        self._by_producer[producer_id] = bit
        return bit

    def bit_of(self, producer_id: int) -> Optional[int]:
        return self._by_producer.get(producer_id)

    @property
    def allocated(self) -> int:
        return self._next


class SyncRegisterState:
    """Run-time bit state with set/clear timestamps (simulator side)."""

    def __init__(self, width: int = 64, log: Optional[List[tuple]] = None):
        self.width = width
        self._set_at: Dict[int, int] = {}
        self._cleared_at: Dict[int, int] = {}
        self._cleared_by: Dict[int, Optional[str]] = {}
        self._emit = (log if log is not None else []).append

    def set_bit(self, bit: int, time: int) -> None:
        self._check(bit)
        self._set_at[bit] = time
        self._cleared_at.pop(bit, None)
        self._cleared_by.pop(bit, None)
        self._emit(("sync_set", time, bit))

    def clear_bit(
        self, bit: int, time: int, source: Optional[str] = None
    ) -> None:
        """Record the bit clearing; idempotent, keeping the earliest time.

        A clear can be *decided* before the bit was even set (a check can
        complete before a slow-to-issue speculated op sets its bit); the
        effective clear time is clamped to the set time, since a bit is
        never observed set-then-clear earlier than it was set.

        ``source`` names who cleared the bit (``"check"``, ``"flush"``,
        ``"execute"``); cycle accounting reads it back via
        :meth:`clear_source` to attribute stalls on this bit.  Only the
        winning (earliest) clear's source is kept.
        """
        self._check(bit)
        if bit not in self._set_at:
            raise RuntimeError(f"clearing bit {bit} that was never set")
        time = max(time, self._set_at[bit])
        prior = self._cleared_at.get(bit)
        if prior is not None and prior <= time:
            return
        self._cleared_at[bit] = time
        self._cleared_by[bit] = source
        self._emit(("sync_clear", time, bit))

    def clear_time(self, bit: int) -> Optional[int]:
        """Time the bit cleared, or ``None`` while still pending."""
        self._check(bit)
        if bit not in self._set_at:
            return 0  # never predicted: trivially clear from the start
        return self._cleared_at.get(bit)

    def clear_source(self, bit: int) -> Optional[str]:
        """Who cleared the bit (``None`` if pending or never predicted)."""
        self._check(bit)
        return self._cleared_by.get(bit)

    def wait_until_clear(self, bits: Iterable[int]) -> Optional[int]:
        """Earliest time every bit in ``bits`` is clear (None if pending)."""
        latest = 0
        for bit in bits:
            t = self.clear_time(bit)
            if t is None:
                return None
            latest = max(latest, t)
        return latest

    def _check(self, bit: int) -> None:
        if not (0 <= bit < self.width):
            raise IndexError(f"bit {bit} outside register width {self.width}")
