"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W, UNLIMITED


@pytest.fixture(autouse=True, scope="session")
def _private_result_cache(tmp_path_factory):
    """Point the default result cache at a fresh directory.

    CLI tests that call ``main()`` without ``--cache-dir`` would
    otherwise read and fill the user's cache, so their outcome would
    depend on what earlier runs left there.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture(autouse=True)
def _reset_shared_state():
    """Isolate tests from the process-wide sweep-sharing caches.

    The batched simulation context, the per-block compile memos, the
    shared build/profile products and the program-digest memo are all
    pure memos, but tests that count cache traffic (trace-store
    captures, runner events) or construct conflicting stand-ins must
    not see another test's entries.
    """
    from repro.batchsim.context import reset_shared_state

    reset_shared_state()
    yield
    reset_shared_state()


@pytest.fixture
def m4():
    """The paper's primary 4-wide machine."""
    return PLAYDOH_4W


@pytest.fixture
def m8():
    """The 8-wide machine of the Table 4 scaling study."""
    return PLAYDOH_8W


@pytest.fixture
def unlimited():
    """A machine that never binds on resources."""
    return UNLIMITED


@pytest.fixture
def straight_block():
    """A simple straight-line block: load feeding an arithmetic chain."""
    fb = FunctionBuilder("straight")
    fb.block("entry")
    fb.mov("r1", 100)
    fb.load("r2", "r1")
    fb.add("r3", "r2", 1)
    fb.mul("r4", "r3", "r3")
    fb.store("r4", "r1", offset=10)
    fb.halt()
    function = fb.build()
    return function.block("entry")


@pytest.fixture
def loop_program():
    """A small program with a counted loop over a strided array."""
    pb = ProgramBuilder("loop_program")
    fb = pb.function()
    fb.block("entry")
    fb.mov("r_i", 0)
    fb.mov("r_acc", 0)
    fb.br("loop")
    fb.block("loop")
    fb.add("r_addr", "r_i", 1000)
    fb.load("r_v", "r_addr")
    fb.add("r_acc", "r_acc", "r_v")
    fb.add("r_i", "r_i", 1)
    fb.cmplt("r_c", "r_i", 50)
    fb.brcond("r_c", "loop", "exit")
    fb.block("exit")
    fb.store("r_acc", "r_i", offset=2000)
    fb.halt()
    pb.add(fb.build())
    pb.memory(1000, [3 * k for k in range(50)])
    return pb.build()


@pytest.fixture
def paper_example():
    """The paper's Figure 2/3 worked example, fully simulated."""
    from repro.evaluation.paper_example import run_example

    return run_example()
