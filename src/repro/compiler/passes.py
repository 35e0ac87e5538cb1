"""The pass registry and the built-in passes.

A *pass* is a named, registered unit of pipeline work.  Two kinds
exist, distinguished by what they transform:

* ``program`` — ``fn(program, **options) -> Program``; whole-program
  rewrites such as classical optimisation and loop unrolling.
* ``codegen`` — ``fn(state, **options)``; reads and extends the
  :class:`CompileState` that accumulates the compilation products.

Registration is open: tests and downstream users may
:func:`register_pass` their own (including deliberately broken ones, to
exercise the manager's inter-pass verification).  Options declared at
registration are the only ones a :class:`~repro.compiler.config.PassSpec`
may set; :data:`REQUIRED` marks options without a default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.compiler.config import PassSpec
from repro.ir.liveness import LivenessInfo, compute_liveness
from repro.ir.program import Program
from repro.machine.description import MachineDescription
from repro.profiling.profile_run import ProfileData
from repro.core.speculation import SpeculationConfig


class PipelineError(RuntimeError):
    """A pipeline is malformed: unknown pass, bad options, or a codegen
    pass running before one it depends on."""


#: Sentinel default for options a PassSpec must provide explicitly.
REQUIRED = object()


@dataclass(frozen=True)
class PassInfo:
    """Registry entry for one pass."""

    name: str
    kind: str  # "program" | "codegen"
    summary: str
    defaults: Tuple[Tuple[str, Any], ...]
    fn: Callable[..., Any]


_REGISTRY: Dict[str, PassInfo] = {}


def register_pass(
    name: str,
    kind: str,
    summary: str,
    fn: Callable[..., Any],
    **defaults: Any,
) -> None:
    """Register (or override) a pass implementation."""
    if kind not in ("program", "codegen"):
        raise ValueError(f"unknown pass kind {kind!r}")
    _REGISTRY[name] = PassInfo(
        name=name,
        kind=kind,
        summary=summary,
        defaults=tuple(sorted(defaults.items())),
        fn=fn,
    )


def pass_info(name: str) -> PassInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PipelineError(
            f"unknown pass {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_passes() -> List[PassInfo]:
    """All registered passes, sorted by name."""
    return [info for _, info in sorted(_REGISTRY.items())]


def resolve_options(info: PassInfo, spec: PassSpec) -> Dict[str, Any]:
    """Merge a spec's options over the pass defaults, validating names."""
    allowed = dict(info.defaults)
    options: Dict[str, Any] = {}
    for key, value in spec.options:
        if key not in allowed:
            raise PipelineError(
                f"pass {info.name!r} has no option {key!r}; "
                f"available: {sorted(allowed)}"
            )
        options[key] = value
    for key, default in allowed.items():
        if key in options:
            continue
        if default is REQUIRED:
            raise PipelineError(
                f"pass {info.name!r} requires option {key!r}"
            )
        options[key] = default
    return options


# ---------------------------------------------------------------------------
# compilation state


@dataclass
class CompileState:
    """Mutable state threaded through the codegen passes.

    ``blocks`` is keyed in program block order and holds the
    per-block products the final
    :class:`~repro.core.metrics.ProgramCompilation` is assembled from;
    ``specs`` holds the intermediate speculative transforms between the
    ``speculate`` and scheduling/baseline passes.
    """

    program: Program
    machine: MachineDescription
    spec_config: SpeculationConfig
    profile: Optional[ProfileData]
    liveness: Optional[LivenessInfo] = None
    blocks: Dict[str, Any] = field(default_factory=dict)
    specs: Dict[str, Any] = field(default_factory=dict)

    def require(self, attr: str, needed_by: str, producer: str) -> Any:
        value = getattr(self, attr)
        if not value:
            raise PipelineError(
                f"pass {needed_by!r} needs {attr!r}; "
                f"run {producer!r} earlier in the pipeline"
            )
        return value


# ---------------------------------------------------------------------------
# built-in program-rewriting passes


def _lift_optimize(program: Program, max_iterations: int = 8) -> Program:
    from repro.opt.passes import optimize_program

    return optimize_program(program, max_iterations=max_iterations)


def _lift_unroll(program: Program, label: Any = REQUIRED, factor: int = 2) -> Program:
    from repro.regions.unroll import unroll_program_loop

    return unroll_program_loop(program, label, factor)


# ---------------------------------------------------------------------------
# built-in codegen passes


def _pass_liveness(state: CompileState) -> None:
    from repro.core import compile_cache

    # Machine- and profile-independent: one analysis per function serves
    # every compile of the program.
    function = state.program.main
    state.liveness = compile_cache.cached(
        function, ("liveness",), lambda: compute_liveness(function)
    )


def _pass_schedule_original(state: CompileState) -> None:
    from repro.core import compile_cache
    from repro.core.metrics import BlockCompilation

    for block in state.program.main:
        length = compile_cache.original_schedule(block, state.machine).length
        state.blocks[block.label] = BlockCompilation(
            label=block.label, original_length=length
        )


def _pass_speculate(state: CompileState) -> None:
    from repro.core.speculation import speculate_block

    liveness = state.require("liveness", "speculate", "liveness")
    if state.profile is None:
        raise PipelineError("pass 'speculate' needs a value profile")
    # One id base for the whole program: LdPred ids stay unique across
    # blocks, and every compile of this program numbers alike.
    id_base = state.program.max_op_id() + 1
    for block in state.program.main:
        spec = speculate_block(
            block,
            state.machine,
            state.profile.values,
            live_out=liveness.live_out[block.label],
            config=state.spec_config,
            id_base=id_base,
        )
        if spec is not None:
            state.specs[block.label] = spec


def _pass_schedule_speculative(state: CompileState) -> None:
    from repro.core import compile_cache

    if state.specs:
        state.require("blocks", "schedule-speculative", "schedule-original")
    for label, spec in state.specs.items():
        compilation = state.blocks[label]
        compilation.spec_schedule = compile_cache.speculative_schedule(
            spec, state.machine, compilation.original_length
        )
        # Static lengths for Tables 3/4 and Figure 8: the first reads
        # of the best- and worst-case runs simulate them.
        n = len(spec.ldpred_ids)
        compilation.best_length = compile_cache.pattern_run(
            compilation.spec_schedule, (True,) * n
        ).effective_length
        compilation.worst_length = compile_cache.pattern_run(
            compilation.spec_schedule, (False,) * n
        ).effective_length


def _pass_baseline(state: CompileState) -> None:
    from repro.core import compile_cache

    if state.specs:
        state.require("blocks", "baseline", "schedule-original")
    for label in state.specs:
        compilation = state.blocks[label]
        if compilation.spec_schedule is None:
            raise PipelineError(
                "pass 'baseline' needs each speculated block's schedule; "
                "run 'schedule-speculative' earlier in the pipeline"
            )
        compilation.baseline = compile_cache.baseline_block(
            compilation.spec_schedule, state.machine
        )


# ---------------------------------------------------------------------------
# registration

register_pass(
    "optimize",
    "program",
    "fold + copyprop + dce to a bounded fixpoint",
    _lift_optimize,
    max_iterations=8,
)
register_pass(
    "unroll",
    "program",
    "unroll one counted self-loop with register renaming",
    _lift_unroll,
    label=REQUIRED,
    factor=2,
)
register_pass(
    "liveness",
    "codegen",
    "whole-function liveness (live-out sets per block)",
    _pass_liveness,
)
register_pass(
    "schedule-original",
    "codegen",
    "resource-constrained list schedule of each original block",
    _pass_schedule_original,
)
register_pass(
    "speculate",
    "codegen",
    "value-speculation transform (LdPred/check/Sync assignment)",
    _pass_speculate,
)
register_pass(
    "schedule-speculative",
    "codegen",
    "list-schedule transformed blocks with run-time annotations",
    _pass_schedule_speculative,
)
register_pass(
    "baseline",
    "codegen",
    "statically-recovered baseline (compensation blocks)",
    _pass_baseline,
)
