"""Functions: ordered collections of basic blocks with a CFG."""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.ir.block import BasicBlock


class Function:
    """A function is an entry block plus a control-flow graph of blocks.

    Block order is preserved (the order of insertion) because fall-through
    is not allowed: every block must end in an explicit branch or halt,
    which keeps the interpreter and the schedulers simple and mirrors the
    fully-resolved control flow Trimaran's Elcor IR presents to its
    back-end phases.
    """

    def __init__(self, name: str, entry_label: str = "entry"):
        self.name = name
        self.entry_label = entry_label
        self._blocks: Dict[str, BasicBlock] = {}
        self._order: List[str] = []

    # -- construction ----------------------------------------------------

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self._blocks:
            raise ValueError(f"duplicate block label {block.label!r}")
        self._blocks[block.label] = block
        self._order.append(block.label)
        return block

    # -- access ----------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        return self.block(self.entry_label)

    def block(self, label: str) -> BasicBlock:
        try:
            return self._blocks[label]
        except KeyError:
            raise KeyError(f"function {self.name!r} has no block {label!r}") from None

    def has_block(self, label: str) -> bool:
        return label in self._blocks

    @property
    def blocks(self) -> List[BasicBlock]:
        return [self._blocks[label] for label in self._order]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self._order)

    def max_op_id(self) -> int:
        """Highest operation id in the function (0 when it has none)."""
        return max((op.op_id for block in self for op in block), default=0)

    # -- CFG -------------------------------------------------------------

    def successors(self, label: str) -> List[BasicBlock]:
        return [self.block(t) for t in self.block(label).successor_labels()]

    def predecessors(self, label: str) -> List[BasicBlock]:
        return [
            blk for blk in self.blocks if label in blk.successor_labels()
        ]

    def reachable_labels(self) -> set[str]:
        """Labels reachable from the entry block."""
        seen: set[str] = set()
        stack = [self.entry_label]
        while stack:
            label = stack.pop()
            if label in seen or label not in self._blocks:
                continue
            seen.add(label)
            stack.extend(self.block(label).successor_labels())
        return seen

    # -- cosmetics -------------------------------------------------------

    def __str__(self) -> str:
        header = f"function {self.name} (entry={self.entry_label})"
        return "\n".join([header] + [str(b) for b in self.blocks])

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self)} blocks)>"
