"""One-stop profiling run: block frequencies + value profile.

This is the front half of the paper's methodology: execute the benchmark
once, collecting (a) how often each block runs and (b) how predictable
each load's value stream is under stride and FCM prediction.  The
resulting :class:`ProfileData` is what the speculation pass and the
evaluation experiments consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.program import Program
    from repro.profiling.block_profile import BlockProfile
    from repro.profiling.value_profile import ValueProfile


@dataclass(frozen=True)
class ProfileData:
    """Everything the compiler learns from a profiling run.

    The run's final registers and memory are not kept here: the
    :class:`~repro.trace.format.ValueTrace` of the same run already holds them.
    """

    program_name: str
    blocks: BlockProfile
    values: ValueProfile


def profile_program(
    program: Program,
    max_operations: int = 5_000_000,
    profile_alu: bool = False,
    trace=None,
    batch=None,
) -> ProfileData:
    """Run ``program`` once and collect both profiles.

    ``profile_alu=True`` additionally value-profiles long-latency ALU
    results (mul/div/...), enabling ``SpeculationConfig.predict_alu``.

    ``trace`` (a :class:`~repro.trace.format.ValueTrace` captured from this
    program) replays the recorded value stream instead of interpreting —
    the profilers consume only block entries and traced-op results, both
    of which the trace records exactly, so the profile is identical.

    ``batch`` opts into the column-wise struct-of-arrays profiler
    (:mod:`repro.batchsim.profiler`): pass a
    :class:`~repro.batchsim.context.BatchContext` (or ``True`` for the
    process-wide default) to profile from the shared trace decode.
    Requires ``trace``.  The profile is byte-identical either way.
    """
    from repro.profiling.block_profile import BlockFrequencyProfiler
    from repro.profiling.value_profile import LONG_LATENCY_OPCODES, ValueProfiler

    if batch is not None and trace is not None:
        from repro.batchsim.context import resolve_context
        from repro.batchsim.profiler import batch_profile

        return batch_profile(
            program,
            trace,
            resolve_context(batch),
            max_operations=max_operations,
            profile_alu=profile_alu,
        )

    block_profiler = BlockFrequencyProfiler()
    value_profiler = ValueProfiler(
        extra_opcodes=LONG_LATENCY_OPCODES if profile_alu else ()
    )
    observers = [block_profiler, value_profiler]
    if trace is not None:
        from repro.trace.replay import replay_trace

        replay_trace(
            trace, program, observers=observers, max_operations=max_operations
        )
    else:
        from repro.profiling.interpreter import Interpreter

        Interpreter(max_operations=max_operations).run(
            program, observers=observers
        )
    return ProfileData(
        program_name=program.name,
        blocks=block_profiler.profile(),
        values=value_profiler.profile(),
    )
