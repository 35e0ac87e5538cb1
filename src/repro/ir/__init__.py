"""VLIW intermediate representation: operations, blocks, functions, programs.

This package replaces the Trimaran Elcor IR the paper builds on.  Import
each name from its defining module:

* :mod:`repro.ir.opcodes` — ``Opcode``, ``FUClass``: operation codes and
  FU classes.
* :mod:`repro.ir.operation` — ``Reg``, ``Imm``, ``Operation``.
* :mod:`repro.ir.block`, :mod:`repro.ir.function`, :mod:`repro.ir.program`
  — the containers.
* :mod:`repro.ir.builder` — ``FunctionBuilder``, ``ProgramBuilder``.
* :mod:`repro.ir.verifier` — ``verify_function``, ``verify_program``.
* :mod:`repro.ir.liveness` — ``compute_liveness``.
"""
