"""Tests for the finite value-prediction-table extension of the dynamic
simulation, declared through the machine spec's ``predictor.table_entries``."""

import functools

from repro.core.metrics import compile_program
from repro.core.program_sim import simulate_program
from repro.machine.configs import PLAYDOH_4W_SPEC
from repro.machine.predictor import PredictorSpec
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_benchmark


def _machine(table_entries=None):
    """The paper's 4-wide machine with a value-prediction table of
    ``table_entries`` entries (``None``: unbounded)."""
    return PLAYDOH_4W_SPEC.override(
        name=f"playdoh-4w-vpt{table_entries}",
        predictor=PredictorSpec(table_entries=table_entries),
    ).build()


@functools.lru_cache(maxsize=None)
def _traced(benchmark):
    program = load_benchmark(benchmark, scale=0.4)
    trace = capture_trace(program)
    return program, trace, profile_program(program, trace)


def _simulate(benchmark, table_entries=None):
    program, trace, profile = _traced(benchmark)
    compilation = compile_program(program, _machine(table_entries), profile)
    return simulate_program(compilation, trace)


class TestTableCapacity:
    def test_unbounded_table_equals_raw_predictor(self):
        raw = _simulate("m88ksim")
        tabled = _simulate("m88ksim", table_entries=1 << 16)
        # A huge direct-mapped table has no conflicts for a handful of
        # static loads, so the accounting is identical.
        assert tabled.cycles_proposed == raw.cycles_proposed
        assert tabled.mispredictions == raw.mispredictions
        assert tabled.table_tag_misses == 0

    # ijpeg's dct loop predicts two loads, so a one-entry table thrashes
    # between them on every iteration.

    def test_tiny_table_causes_tag_misses(self):
        result = _simulate("ijpeg", table_entries=1)
        assert result.table_tag_misses > 0

    def test_capacity_never_helps(self):
        unbounded = _simulate("ijpeg")
        tiny = _simulate("ijpeg", table_entries=1)
        assert tiny.mispredictions >= unbounded.mispredictions
        assert tiny.cycles_proposed >= unbounded.cycles_proposed
