"""Reference runs for the trace-driven entry points.

``profile_program`` and ``simulate_program`` read only the value trace
and prefer the batched engines.  The helpers here produce the same
products the streaming way — observers riding a live interpretation or
a scalar trace replay — so the suites can hold the production paths to
them.
"""

from __future__ import annotations

from unittest import mock

from repro.batchsim import engine
from repro.core.program_sim import simulate_program
from repro.profiling.block_profile import BlockFrequencyProfiler
from repro.profiling.interpreter import Interpreter
from repro.profiling.profile_run import ProfileData
from repro.profiling.value_profile import LONG_LATENCY_OPCODES, ValueProfiler
from repro.trace.replay import replay_trace


def live(program):
    """A driver running ``program`` on the interpreter under observers."""
    return lambda observers: Interpreter().run(program, observers=observers)


def replayed(trace, program):
    """A driver replaying ``trace`` against ``program`` under observers."""
    return lambda observers: replay_trace(trace, program, observers=observers)


def observed_profile(program, drive, profile_alu=False):
    """The streaming profilers' :class:`ProfileData` over one run, where
    ``drive(observers)`` runs the program (see :func:`live`,
    :func:`replayed`)."""
    blocks = BlockFrequencyProfiler()
    values = ValueProfiler(
        extra_opcodes=LONG_LATENCY_OPCODES if profile_alu else ()
    )
    drive([blocks, values])
    return ProfileData(program.name, blocks.profile(), values.profile())


def scalar_only(machine, model_icache=False):
    """Stand-in for :func:`repro.batchsim.engine.unsupported_reason` that
    sends every simulation to the scalar replay engine."""
    return "scalar reference"


def scalar_simulation(compilation, trace, **options):
    """``simulate_program`` on the scalar replay engine."""
    with mock.patch.object(engine, "unsupported_reason", scalar_only):
        return simulate_program(compilation, trace, **options)
