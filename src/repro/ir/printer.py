"""Textual rendering of IR objects (for debugging, examples and docs)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.block import BasicBlock
    from repro.ir.function import Function
    from repro.ir.program import Program


def format_block(block: BasicBlock, indent: str = "  ") -> str:
    lines = [f"{block.label}:"]
    lines.extend(f"{indent}{op}" for op in block)
    return "\n".join(lines)


def format_function(function: Function) -> str:
    parts = [f"function {function.name} (entry={function.entry_label})"]
    parts.extend(format_block(b) for b in function)
    return "\n".join(parts)


def format_program(program: Program) -> str:
    parts = [f"program {program.name}"]
    if program.initial_registers:
        regs = ", ".join(
            f"{name}={value}" for name, value in sorted(program.initial_registers.items())
        )
        parts.append(f"  init-regs: {regs}")
    if program.initial_memory:
        parts.append(f"  memory image: {len(program.initial_memory)} words")
    parts.extend(format_function(f) for f in program)
    return "\n".join(parts)


def format_table(headers: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    """Render an ASCII table (used by the evaluation report writers)."""
    headers = [str(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    sep = "-+-".join("-" * w for w in widths)
    lines = [fmt(headers), sep]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
