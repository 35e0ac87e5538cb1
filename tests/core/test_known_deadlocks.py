"""Known defect: chained predicted loads can deadlock the FIFO CCB.

Each case replays one draw of
:func:`tests.core.test_speculation_properties.test_transform_and_simulate_invariants`
through that property's own body.  A speculated consumer of the second
prediction enters the Compensation Code Buffer ahead of the speculated
producer of that load's address, so a misprediction of the first load
blocks the CCB head for good and the engine raises
:class:`~repro.core.cc_engine.SimulationDeadlock`.

The markers are strict: when the scheduler orders CCB entries along
these producer/consumer chains, both cases pass and turn the suite red,
and the draws belong in the property test as ``@example``s instead.
"""

import pytest

from repro.core.cc_engine import SimulationDeadlock
from tests.core import test_speculation_properties as properties

DEADLOCK = pytest.mark.xfail(
    strict=True,
    raises=SimulationDeadlock,
    reason="chained-load CCB deadlock: CCB entry order ignores producer/consumer chains",
)


def _check(ops, pick, wide):
    properties.test_transform_and_simulate_invariants.hypothesis.inner_test(
        ops=ops, pick=pick, wide=wide
    )


@DEADLOCK
def test_load_feeding_a_predicted_load_address_through_mul():
    _check(
        [
            ("load", "r0", "r0", "r0"),
            ("mul", "r1", "r0", "r0"),
            ("alu", "r1", "r1", "r1"),
            ("load", "r2", "r1", "r0"),
            ("alu", "r0", "r0", "r2"),
        ],
        pick=1,
        wide=False,
    )


@DEADLOCK
def test_load_feeding_a_predicted_load_address_through_alu():
    _check(
        [
            ("load", "r0", "r0", "r0"),
            ("alu", "r0", "r0", "r0"),
            ("load", "r2", "r0", "r0"),
            ("alu", "r1", "r1", "r2"),
        ],
        pick=1,
        wide=False,
    )
