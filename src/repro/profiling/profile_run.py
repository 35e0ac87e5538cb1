"""One-stop profiling run: block frequencies + value profile.

This is the front half of the paper's methodology: from the benchmark's
one recorded run (its value trace), collect (a) how often each block
runs and (b) how predictable each load's value stream is under stride
and FCM prediction.  The resulting :class:`ProfileData` is what the
speculation pass and the evaluation experiments consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.program import Program
    from repro.profiling.block_profile import BlockProfile
    from repro.profiling.value_profile import ValueProfile
    from repro.trace.format import ValueTrace


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
    trace: ValueTrace,
    profile_alu: bool = False,
    max_operations: int = 5_000_000,
) -> ProfileData:
    """Collect both profiles from ``program``'s value trace.

    ``trace`` is the :class:`~repro.trace.format.ValueTrace` captured from
    this program; the profiles need only block entries and traced-op
    results, both of which it records exactly.  The column-wise profiler
    (:mod:`repro.batchsim.profiler`) computes them from the process-wide
    shared trace decode.

    ``profile_alu=True`` additionally value-profiles long-latency ALU
    results (mul/div/...), enabling ``SpeculationConfig.predict_alu``.
    """
    from repro.batchsim.context import default_context
    from repro.batchsim.profiler import batch_profile

    return batch_profile(
        program,
        trace,
        default_context(),
        max_operations=max_operations,
        profile_alu=profile_alu,
    )
