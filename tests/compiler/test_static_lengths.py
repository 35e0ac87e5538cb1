"""Block compilations carry their static best- and worst-case lengths.

The ``schedule-speculative`` pass records each speculated block's
effective length with every prediction correct and with every
prediction wrong, reading the pattern runs outcome validation already
simulated.  Tables 3/4 and Figure 8 read these fields instead of
re-simulating, so they must equal a fresh dual-engine run, and they
must survive the disk cache.
"""

from __future__ import annotations

import pytest

from repro.batchsim.context import reset_shared_state
from repro.compiler.manager import compile_program
from repro.core.machine_sim import simulate_best_case, simulate_worst_case
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.profiling.profile_run import profile_program
from repro.runner.cache import DiskCache
from repro.workloads.suite import load_suite

SCALE = 0.25


def assert_lengths_match_fresh_runs(compilation) -> int:
    """Check every block; return how many were speculated."""
    speculated = 0
    for block in compilation.blocks.values():
        if not block.speculated:
            assert block.best_length is None and block.worst_length is None
            continue
        speculated += 1
        best = simulate_best_case(block.spec_schedule).effective_length
        worst = simulate_worst_case(block.spec_schedule).effective_length
        assert (block.best_length, block.worst_length) == (best, worst), block.label
    return speculated


@pytest.mark.parametrize("machine", [PLAYDOH_4W, PLAYDOH_8W], ids=lambda m: m.name)
def test_stored_lengths_equal_fresh_runs(machine, tmp_path):
    cache = DiskCache(root=tmp_path)
    checked = 0
    for name, program in load_suite(scale=SCALE).items():
        compilation = compile_program(program, machine, profile_program(program))
        cache.put(name, compilation)
        reset_shared_state()
        speculated = assert_lengths_match_fresh_runs(compilation)
        hit, decoded = cache.get(name)
        assert hit
        assert assert_lengths_match_fresh_runs(decoded) == speculated
        checked += speculated
    assert checked > 0
