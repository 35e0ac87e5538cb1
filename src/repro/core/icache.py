"""A direct-mapped instruction cache model.

The paper argues (section 1) that statically scheduled compensation code
pollutes the instruction cache: recovery blocks fetched on mispredictions
evict useful main-code lines.  The proposed architecture never fetches
compensation code through the i-cache (the Compensation Code Buffer holds
already-decoded operations), so only the baseline pays these penalties.

The model is deliberately simple — a direct-mapped cache of instruction
lines with a fixed miss penalty — because only the *relative* pollution
effect matters for the comparison.  A run's fetch stream is folded in
one pass (:func:`count_misses`; the stream itself comes from
:mod:`repro.batchsim.fetch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


@dataclass(frozen=True)
class ICacheConfig:
    """Geometry and timing of the instruction cache."""

    lines: int = 256
    ops_per_line: int = 4
    miss_penalty: int = 8

    def __post_init__(self) -> None:
        if self.lines < 1 or self.ops_per_line < 1 or self.miss_penalty < 0:
            raise ValueError("invalid i-cache configuration")

    def lines_for(self, op_count: int) -> int:
        """Cache lines occupied by a block of ``op_count`` operations."""
        return max(1, math.ceil(op_count / self.ops_per_line))


def count_misses(config: ICacheConfig, lines: np.ndarray) -> int:
    """Misses of a cold cache over a stream of line addresses.

    The cache is direct-mapped, so a fetch of a line misses exactly when
    the previous fetch that mapped to the same set (``line %
    config.lines``) was of another line, or there was none.  A stable
    sort by set puts each set's fetches next to each other in stream
    order, which reduces the whole walk to one comparison with the
    neighbour (neighbours from different sets are different lines).
    """
    if not lines.size:
        return 0
    ordered = lines[np.argsort(lines % config.lines, kind="stable")]
    return 1 + int((ordered[1:] != ordered[:-1]).sum())


class CodeLayout:
    """Assigns contiguous line ranges to static code blocks.

    Main blocks and (for the baseline) compensation blocks are laid out
    in the order they are registered, mimicking a linker laying out the
    text section followed by the recovery section.
    """

    def __init__(self, config: Optional[ICacheConfig] = None):
        self.config = config or ICacheConfig()
        self._ranges: Dict[str, tuple[int, int]] = {}
        self._next_line = 0

    def place(self, block_id: str, op_count: int) -> tuple[int, int]:
        if block_id in self._ranges:
            raise ValueError(f"block {block_id!r} already placed")
        count = self.config.lines_for(op_count)
        placed = (self._next_line, count)
        self._ranges[block_id] = placed
        self._next_line += count
        return placed

    def range_of(self, block_id: str) -> tuple[int, int]:
        try:
            return self._ranges[block_id]
        except KeyError:
            raise KeyError(f"block {block_id!r} was never placed") from None

    @property
    def total_lines(self) -> int:
        return self._next_line
