"""Surrogate accuracy: the documented error bound holds on the golden
suite, and the exact parts of the estimate are exact.

``DOCUMENTED_ERROR_BOUND`` is a contract: ``repro-explore --surrogate``
prunes points on the strength of these estimates, and the CI
surrogate-smoke job asserts the explore artifact's cross-validation
stayed within the bound.  This module re-derives the bound from first principles every run:
all benchmarks x {playdoh-4w, playdoh-8w} x thresholds {0.5, 0.65, 0.8}.
"""

from __future__ import annotations

import pytest

from repro.batchsim.surrogate import (
    DOCUMENTED_ERROR_BOUND,
    estimate_compilation,
    relative_error,
)
from repro.core.metrics import compile_program
from repro.core.program_sim import simulate_program
from repro.core.speculation import SpeculationConfig
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.profiling.profile_run import profile_program
from repro.trace import capture_trace
from repro.workloads.suite import load_suite

MACHINES = (PLAYDOH_4W, PLAYDOH_8W)
THRESHOLDS = (0.5, 0.65, 0.8)

SUITE = load_suite(scale=0.25)
TRACES = {name: capture_trace(program) for name, program in SUITE.items()}
PROFILES = {name: profile_program(program) for name, program in SUITE.items()}

GRID = [
    (workload, machine, threshold)
    for workload in sorted(SUITE)
    for machine in MACHINES
    for threshold in THRESHOLDS
]


def _ids(case):
    workload, machine, threshold = case
    return f"{workload}-{machine.name}-t{threshold}"


@pytest.mark.parametrize("case", GRID, ids=_ids)
def test_error_bound_holds_on_golden_suite(case):
    workload, machine, threshold = case
    compilation = compile_program(
        SUITE[workload],
        machine,
        PROFILES[workload],
        config=SpeculationConfig(threshold=threshold),
    )
    estimate = estimate_compilation(compilation)
    exact = simulate_program(
        compilation, trace=TRACES[workload], batch=True
    )
    # cycles_nopred is exact by construction (count x original length
    # over the same profiled block counts the simulator replays).
    assert estimate.cycles_nopred == exact.cycles_nopred
    err = relative_error(estimate, exact)
    assert err <= DOCUMENTED_ERROR_BOUND, (
        f"{workload} on {machine.name} @ threshold={threshold}: surrogate "
        f"error {err:.4f} exceeds documented bound {DOCUMENTED_ERROR_BOUND}"
    )


def test_estimate_is_pure_and_cheap():
    """The estimate never touches the simulator: same compilation, same
    answer, and the expected length sits between the boundary runs."""
    compilation = compile_program(
        SUITE["compress"], PLAYDOH_4W, PROFILES["compress"]
    )
    a = estimate_compilation(compilation)
    b = estimate_compilation(compilation)
    assert a == b
    for block in a.blocks:
        assert block.best_length <= block.expected_length <= block.worst_length
        assert 0.0 <= block.p_all_correct <= 1.0
    assert a.cycles_proposed <= a.cycles_nopred * 1.05  # speculation helps
    assert a.speedup >= 0.95
