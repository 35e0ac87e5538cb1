"""Textual assembly for the IR: a writer and a parser that round-trip.

The format is a small, human-writable assembly so test programs and
experiments can live as text::

    program demo
    memory 1000: 1 2 3 5 8
    reg r_arg = 7

    function main entry=start
    start:
        mov   r1, #0
        br    loop
    loop:
        add   r2, r1, #1000
        load  r3, [r2+4]
        fadd  f1, f1, f2
        store r3, [r2+8]
        add   r1, r1, #1
        cmplt r4, r1, #10
        brcond r4, loop, done
    done:
        halt

Conventions:

* operands: ``rN``/names are registers, ``#k`` immediates (ints or
  floats);
* memory operands: ``[base]`` or ``[base+offset]`` / ``[base-offset]``;
* ``load dest, [base+off]`` and ``store value, [base+off]``;
* branches name their target labels directly;
* ``;`` starts a comment; blank lines are ignored;
* the prediction forms (``ldpred``/``chkpred``) are intentionally not
  parseable — they only exist in compiler-transformed code.

Operation ids are not part of the text: the parser numbers a program's
operations 1..N in source order, as the builders do.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.opcodes import Opcode, arity, is_alu
from repro.ir.operation import Imm, Operand, Operation, Reg
from repro.ir.program import Program
from repro.ir.verifier import verify_function, verify_program


class AsmSyntaxError(ValueError):
    """A line of assembly could not be parsed."""

    def __init__(self, line_no: int, line: str, reason: str):
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}: {line.strip()!r}")


_MEM_RE = re.compile(r"^\[(?P<base>[A-Za-z_]\w*)(?:(?P<sign>[+-])(?P<off>\d+))?\]$")
_NUMBER_RE = re.compile(r"^#(?P<value>-?\d+(?:\.\d+)?)$")

#: Opcodes addressable by mnemonic in source text.
_MNEMONICS: Dict[str, Opcode] = {
    op.value: op
    for op in Opcode
    if op not in (Opcode.LDPRED, Opcode.CHKPRED)
}


# ---------------------------------------------------------------------------
# writing


def _format_operand(operand: Operand) -> str:
    if isinstance(operand, Imm):
        return f"#{operand.value}"
    return operand.name


def _format_mem(base: Operand, offset: int) -> str:
    name = _format_operand(base)
    if offset == 0:
        return f"[{name}]"
    sign = "+" if offset > 0 else "-"
    return f"[{name}{sign}{abs(offset)}]"


def format_operation_asm(op: Operation) -> str:
    """One operation in assembly syntax.

    Output for every front-end opcode parses back; the prediction forms
    (``ldpred``/``chkpred``) format readably for schedule/timeline dumps
    but are deliberately rejected by the parser.
    """
    mnemonic = op.opcode.value
    if op.opcode in (Opcode.LOAD, Opcode.CHKPRED):
        return f"{mnemonic} {op.dest.name}, {_format_mem(op.srcs[0], op.offset)}"
    if op.opcode is Opcode.STORE:
        value, base = op.srcs
        return f"{mnemonic} {_format_operand(value)}, {_format_mem(base, op.offset)}"
    if op.opcode is Opcode.BR:
        return f"{mnemonic} {op.targets[0]}"
    if op.opcode is Opcode.BRCOND:
        return f"{mnemonic} {_format_operand(op.srcs[0])}, {op.targets[0]}, {op.targets[1]}"
    if op.opcode is Opcode.HALT:
        return mnemonic
    parts = []
    if op.dest is not None:
        parts.append(op.dest.name)
    parts.extend(_format_operand(s) for s in op.srcs)
    return f"{mnemonic} {', '.join(parts)}"


def format_function_asm(function: Function) -> str:
    lines = [f"function {function.name} entry={function.entry_label}"]
    for block in function:
        lines.append(f"{block.label}:")
        for op in block:
            lines.append(f"    {format_operation_asm(op)}")
    return "\n".join(lines)


def format_program_asm(program: Program) -> str:
    lines = [f"program {program.name}"]
    # Compact consecutive addresses into one directive per run.
    addresses = sorted(program.initial_memory)
    run_start: Optional[int] = None
    run_values: List = []
    for address in addresses:
        if run_start is not None and address == run_start + len(run_values):
            run_values.append(program.initial_memory[address])
            continue
        if run_start is not None:
            lines.append(
                f"memory {run_start}: " + " ".join(str(v) for v in run_values)
            )
        run_start = address
        run_values = [program.initial_memory[address]]
    if run_start is not None:
        lines.append(f"memory {run_start}: " + " ".join(str(v) for v in run_values))
    for name in sorted(program.initial_registers):
        lines.append(f"reg {name} = {program.initial_registers[name]}")
    lines.append("")
    for function in program:
        lines.append(format_function_asm(function))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# parsing


def _parse_number(text: str) -> float | int:
    return float(text) if "." in text else int(text)


def _parse_operand(token: str, line_no: int, line: str) -> Operand:
    match = _NUMBER_RE.match(token)
    if match:
        return Imm(_parse_number(match.group("value")))
    if re.match(r"^[A-Za-z_]\w*$", token):
        return Reg(token)
    raise AsmSyntaxError(line_no, line, f"bad operand {token!r}")


def _parse_mem(token: str, line_no: int, line: str) -> Tuple[Reg, int]:
    match = _MEM_RE.match(token)
    if not match:
        raise AsmSyntaxError(line_no, line, f"bad memory operand {token!r}")
    offset = int(match.group("off") or 0)
    if match.group("sign") == "-":
        offset = -offset
    return Reg(match.group("base")), offset


def _split_operands(rest: str) -> List[str]:
    return [token.strip() for token in rest.split(",") if token.strip()]


def parse_operation(line: str, line_no: int = 0, op_id: int = 1) -> Operation:
    """Parse one assembly operation, giving it id ``op_id``."""
    text = line.split(";", 1)[0].strip()
    if not text:
        raise AsmSyntaxError(line_no, line, "empty operation")
    head, _, rest = text.partition(" ")
    mnemonic = head.strip().lower()
    opcode = _MNEMONICS.get(mnemonic)
    if opcode is None:
        raise AsmSyntaxError(line_no, line, f"unknown mnemonic {mnemonic!r}")
    tokens = _split_operands(rest)

    if opcode is Opcode.LOAD:
        if len(tokens) != 2:
            raise AsmSyntaxError(line_no, line, "load takes dest, [base+off]")
        base, offset = _parse_mem(tokens[1], line_no, line)
        return Operation(
            opcode=opcode, dest=Reg(tokens[0]), srcs=(base,), offset=offset,
            op_id=op_id,
        )
    if opcode is Opcode.STORE:
        if len(tokens) != 2:
            raise AsmSyntaxError(line_no, line, "store takes value, [base+off]")
        value = _parse_operand(tokens[0], line_no, line)
        base, offset = _parse_mem(tokens[1], line_no, line)
        return Operation(opcode=opcode, srcs=(value, base), offset=offset, op_id=op_id)
    if opcode is Opcode.BR:
        if len(tokens) != 1:
            raise AsmSyntaxError(line_no, line, "br takes one target label")
        return Operation(opcode=opcode, targets=(tokens[0],), op_id=op_id)
    if opcode is Opcode.BRCOND:
        if len(tokens) != 3:
            raise AsmSyntaxError(line_no, line, "brcond takes cond, then, else")
        cond = _parse_operand(tokens[0], line_no, line)
        return Operation(
            opcode=opcode, srcs=(cond,), targets=(tokens[1], tokens[2]),
            op_id=op_id,
        )
    if opcode is Opcode.HALT:
        if tokens:
            raise AsmSyntaxError(line_no, line, "halt takes no operands")
        return Operation(opcode=opcode, op_id=op_id)

    # ALU / compare forms: dest, src [, src]
    if not is_alu(opcode):
        raise AsmSyntaxError(line_no, line, f"unsupported opcode {mnemonic!r}")
    expected = 1 + arity(opcode)
    if len(tokens) != expected:
        raise AsmSyntaxError(
            line_no, line, f"{mnemonic} takes {expected} operands, got {len(tokens)}"
        )
    dest = Reg(tokens[0])
    srcs = tuple(_parse_operand(t, line_no, line) for t in tokens[1:])
    return Operation(opcode=opcode, dest=dest, srcs=srcs, op_id=op_id)


_FUNCTION_RE = re.compile(
    r"^function\s+(?P<name>\w+)(?:\s+entry=(?P<entry>\w+))?$"
)
_LABEL_RE = re.compile(r"^(?P<label>[A-Za-z_]\w*):$")
_MEMORY_RE = re.compile(r"^memory\s+(?P<addr>\d+)\s*:\s*(?P<values>.+)$")
_REG_RE = re.compile(r"^reg\s+(?P<name>\w+)\s*=\s*(?P<value>-?\d+(?:\.\d+)?)$")
_PROGRAM_RE = re.compile(r"^program\s+(?P<name>\w+)$")


def parse_function(
    text: str, start_line: int = 1, ids: Optional[Iterator[int]] = None
) -> Function:
    """Parse one function definition (no program directives); ``ids``
    (from 1 by default) numbers its operations."""
    ids = itertools.count(1) if ids is None else ids
    function: Optional[Function] = None
    block: Optional[BasicBlock] = None
    for offset, raw in enumerate(text.splitlines()):
        line_no = start_line + offset
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        header = _FUNCTION_RE.match(line)
        if header:
            if function is not None:
                raise AsmSyntaxError(line_no, raw, "nested function definition")
            function = Function(
                header.group("name"), entry_label=header.group("entry") or "entry"
            )
            continue
        if function is None:
            raise AsmSyntaxError(line_no, raw, "expected 'function NAME'")
        label = _LABEL_RE.match(line)
        if label:
            block = BasicBlock(label.group("label"))
            function.add_block(block)
            continue
        if block is None:
            raise AsmSyntaxError(line_no, raw, "operation outside any block")
        block.append(parse_operation(line, line_no, op_id=next(ids)))
    if function is None:
        raise AsmSyntaxError(start_line, text[:40], "no function found")
    return verify_function(function)


def parse_program(text: str) -> Program:
    """Parse a whole program: directives plus one or more functions."""
    program: Optional[Program] = None
    pending_memory: List[Tuple[int, List]] = []
    pending_regs: List[Tuple[str, float | int]] = []
    function_chunks: List[Tuple[int, List[str]]] = []
    current_chunk: Optional[List[str]] = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        prog_match = _PROGRAM_RE.match(line)
        if prog_match:
            if program is not None:
                raise AsmSyntaxError(line_no, raw, "duplicate program directive")
            program = Program(prog_match.group("name"))
            continue
        mem_match = _MEMORY_RE.match(line)
        if mem_match and current_chunk is None:
            values = [_parse_number(v) for v in mem_match.group("values").split()]
            pending_memory.append((int(mem_match.group("addr")), values))
            continue
        reg_match = _REG_RE.match(line)
        if reg_match and current_chunk is None:
            pending_regs.append(
                (reg_match.group("name"), _parse_number(reg_match.group("value")))
            )
            continue
        if _FUNCTION_RE.match(line):
            current_chunk = [raw]
            function_chunks.append((line_no, current_chunk))
            continue
        if current_chunk is None:
            raise AsmSyntaxError(line_no, raw, "unexpected line outside a function")
        current_chunk.append(raw)

    if program is None:
        raise AsmSyntaxError(1, text[:40], "missing 'program NAME' directive")
    ids = itertools.count(1)
    for start, chunk in function_chunks:
        program.add_function(parse_function("\n".join(chunk), start, ids))
    for address, values in pending_memory:
        program.poke_array(address, values)
    for name, value in pending_regs:
        program.set_register(name, value)
    return verify_program(program)
