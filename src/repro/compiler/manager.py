"""The pass manager: runs a :class:`PipelineConfig` over a program.

:class:`PassManager` is the one compilation driver in the system — the
evaluation experiments, the runner's ``build``/``compile`` job stages,
the region-size sweeps and the quickstart all route through it.  It

* applies the config's program-rewriting passes
  (:meth:`~PassManager.run_program_passes`), verifying the IR after
  each one;
* lowers a profiled program to a
  :class:`~repro.core.metrics.ProgramCompilation`
  (:meth:`~PassManager.compile`) by verifying it and running the
  codegen passes over a shared
  :class:`~repro.compiler.passes.CompileState`.

The default pipeline reproduces the original ``compile_program``
byte-for-byte: the same per-block products, built in the same operation
-id-minting order (``speculate`` visits blocks in program order, exactly
as the old fused loop did).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.compiler.config import (
    PipelineConfig,
    canonical_value,
    content_hash,
    standard_pipeline,
)
from repro.compiler.passes import (
    CompileState,
    PipelineError,
    pass_info,
    resolve_options,
)
from repro.ir.program import Program
from repro.ir.verifier import verify_function
from repro.machine.description import MachineDescription
from repro.profiling.profile_run import ProfileData
from repro.core.speculation import SpeculationConfig


class PassManager:
    """Executes the passes of one :class:`PipelineConfig`."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        self.config = config or standard_pipeline()

    # -- program-rewriting stage --------------------------------------------

    def run_program_passes(self, program: Program) -> Program:
        """Apply the config's program passes, in order, returning the
        rewritten program (the input is never mutated)."""
        for spec in self.config.program_passes:
            info = pass_info(spec.name)
            options = resolve_options(info, spec)
            if info.kind != "program":
                raise PipelineError(
                    f"codegen pass {info.name!r} cannot appear in "
                    "program_passes"
                )
            program = info.fn(program, **options)
            self._verify(program, info.name)
        return program

    # -- codegen stage ------------------------------------------------------

    def compile(
        self,
        program: Program,
        machine: MachineDescription,
        profile: Optional[ProfileData],
        spec_config: Optional[SpeculationConfig] = None,
    ) -> "ProgramCompilation":
        """Lower ``program`` (already rewritten and profiled) to a
        :class:`~repro.core.metrics.ProgramCompilation`.

        ``profile`` must have been gathered on ``program`` as given —
        when the config carries program passes, run them (and re-profile)
        first; the runner's build/profile stages do exactly that.
        """
        from repro.core.metrics import ProgramCompilation

        spec_config = spec_config or SpeculationConfig()
        self._verify(program, "codegen input")
        state = CompileState(
            program=program,
            machine=machine,
            spec_config=spec_config,
            profile=profile,
        )
        for spec in self.config.codegen_passes:
            info = pass_info(spec.name)
            if info.kind != "codegen":
                raise PipelineError(
                    f"{info.kind} pass {info.name!r} cannot appear in "
                    "codegen_passes; it belongs in program_passes"
                )
            info.fn(state, **resolve_options(info, spec))
        return ProgramCompilation(
            program=state.program,
            machine=machine,
            config=spec_config,
            profile=profile,
            blocks=dict(state.blocks),
        )

    def run(
        self,
        program: Program,
        machine: MachineDescription,
        profile: Optional[ProfileData],
        spec_config: Optional[SpeculationConfig] = None,
    ) -> "ProgramCompilation":
        """Full pipeline: program passes, then codegen.

        Only valid when the config has no program passes or ``profile``
        is ``None`` — a profile gathered on the un-rewritten program
        would reference operations the rewrite replaced.  With no
        profile, the (rewritten) program's trace is captured and
        profiled here.
        """
        if self.config.program_passes:
            if profile is not None:
                raise PipelineError(
                    "run() cannot apply program passes under a profile "
                    "gathered on the original program; rewrite first "
                    "(run_program_passes), re-profile, then compile()"
                )
            program = self.run_program_passes(program)
        if profile is None:
            from repro.profiling.profile_run import profile_program
            from repro.trace.capture import capture_trace

            profile = profile_program(program, capture_trace(program))
        return self.compile(program, machine, profile, spec_config=spec_config)

    # -- internals ----------------------------------------------------------

    def _verify(self, program: Program, after: str) -> None:
        for function in program:
            try:
                verify_function(function)
            except Exception as exc:
                raise type(exc)(
                    [f"after pass {after!r}: {problem}" for problem in
                     getattr(exc, "problems", [str(exc)])]
                ) from exc


def compile_program(
    program: Program,
    machine: MachineDescription,
    profile: ProfileData,
    config: Optional[SpeculationConfig] = None,
) -> "ProgramCompilation":
    """Compile ``program`` through the standard pipeline's codegen passes."""
    return PassManager().compile(program, machine, profile, spec_config=config)


# ---------------------------------------------------------------------------
# determinism digest


def compilation_digest(compilation: "ProgramCompilation") -> str:
    """Stable content hash of a compilation's observable products.

    Covers the program text, machine, speculation config, and — per
    block — the original schedule length, the predicted loads, the full
    speculative schedule, its best/worst-case timings, and the baseline
    compensation shapes.  Schedule lines name operations by assembly
    text and the ids of the LdPred/check operations the speculation pass
    inserts are left out, so the digest reflects what the compilation
    does, not how its operations are numbered.  Equal compilations
    digest equally across runs, processes and cache temperature.
    """
    from repro.ir.asm import format_operation_asm, format_program_asm

    blocks: Dict[str, Any] = {}
    for label, comp in compilation.blocks.items():
        entry: Dict[str, Any] = {
            "original_length": comp.original_length,
            "speculated": comp.speculated,
        }
        if comp.speculated:
            spec_schedule = comp.spec_schedule
            entry["predicted_load_ids"] = list(comp.predicted_load_ids)
            entry["schedule"] = [
                f"{placed.cycle}: {format_operation_asm(placed.operation)}"
                for placed in spec_schedule.schedule.operations
            ]
            entry["spec_length"] = spec_schedule.length
            entry["wait_cycles"] = sorted(spec_schedule.wait_bits_by_cycle)
            entry["best_effective"] = comp.best_case().effective_length
            entry["worst_effective"] = comp.worst_case().effective_length
            if comp.baseline is not None:
                entry["baseline"] = {
                    "main_length": comp.baseline.main_length,
                    "compensation": sorted(
                        (c.op_count, c.length)
                        for c in comp.baseline.compensation.values()
                    ),
                }
        blocks[label] = entry
    return content_hash(
        {
            "program": format_program_asm(compilation.program),
            "machine": canonical_value(compilation.machine),
            "spec_config": canonical_value(compilation.config),
            "blocks": blocks,
        }
    )
