"""Word-addressed data memory for the functional interpreter.

Addresses are integers; uninitialised words read as zero (the memory
image of a :class:`~repro.ir.program.Program` provides the initial
contents).  Access counts are kept so workloads can be characterised by
load/store density.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

Number = Union[int, float]


class Memory:
    """A sparse word-addressed memory.

    ``words`` is the address -> value dict itself: the interpreter reads
    and writes it inline and sets ``reads``/``writes`` once per run,
    while :meth:`load`/:meth:`store` count each access as it happens.
    """

    def __init__(self, image: Mapping[int, Number] | None = None):
        self.words: Dict[int, Number] = dict(image or {})
        self.reads = 0
        self.writes = 0

    def load(self, address: int) -> Number:
        self.reads += 1
        return self.words.get(int(address), 0)

    def store(self, address: int, value: Number) -> None:
        self.writes += 1
        self.words[int(address)] = value

    def peek(self, address: int) -> Number:
        """Read without counting (for assertions and debugging)."""
        return self.words.get(int(address), 0)

    def snapshot(self) -> Dict[int, Number]:
        return dict(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __repr__(self) -> str:
        return f"<Memory {len(self)} words, {self.reads}R/{self.writes}W>"
