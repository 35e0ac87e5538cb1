"""Programs: a set of functions plus an initial memory image.

A :class:`Program` is what the workload generators produce, the profiler
executes and the compiler (speculation pass + scheduler) transforms.  A
program in this reproduction is single-function — the paper's evaluation
is entirely block-level, so inter-procedural structure adds nothing — but
the container keeps the name/function indirection so multi-function
workloads remain possible.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Union

from repro.ir.function import Function

Number = Union[int, float]


class Program:
    """A named program: functions, a main entry and an initial memory image.

    The memory image maps integer addresses to values; the interpreter
    copies it at the start of each run so repeated profiling/simulation
    runs observe identical initial state.
    """

    def __init__(self, name: str, main: str = "main"):
        self.name = name
        self.main_name = main
        self._functions: Dict[str, Function] = {}
        self.initial_memory: Dict[int, Number] = {}
        self.initial_registers: Dict[str, Number] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self._functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self._functions[function.name] = function
        return function

    def function(self, name: Optional[str] = None) -> Function:
        key = self.main_name if name is None else name
        try:
            return self._functions[key]
        except KeyError:
            raise KeyError(f"program {self.name!r} has no function {key!r}") from None

    @property
    def main(self) -> Function:
        return self.function()

    def __iter__(self) -> Iterator[Function]:
        return iter(self._functions.values())

    def __len__(self) -> int:
        return len(self._functions)

    def max_op_id(self) -> int:
        """Highest operation id in the program (0 when it has none)."""
        return max((function.max_op_id() for function in self), default=0)

    # -- memory image helpers ---------------------------------------------

    def poke(self, address: int, value: Number) -> None:
        """Set one word of the initial memory image."""
        self.initial_memory[int(address)] = value

    def poke_array(self, base: int, values) -> None:
        """Lay out a sequence of values at consecutive word addresses."""
        for i, value in enumerate(values):
            self.initial_memory[int(base) + i] = value

    def set_register(self, name: str, value: Number) -> None:
        """Set an initial register value (simulates function arguments)."""
        self.initial_registers[name] = value

    def __repr__(self) -> str:
        return (
            f"<Program {self.name} ({len(self)} functions, "
            f"{len(self.initial_memory)} memory words)>"
        )
