"""Analytical cycles surrogate: rank sweep points without simulating.

The cycle-accurate simulator replays the whole value trace per point.
For sweep *pruning* that is overkill: which points are worth simulating
exactly is decided by their relative ordering, and a compiled program
already contains everything an analytical estimate needs —

``cycles_nopred``
    exact by construction: every dynamic block instance of the
    no-prediction machine costs its original schedule length, and the
    profiled block counts come from the same trace the simulator
    replays, so ``sum(count * original_length)`` *is* the simulator's
    number.

``cycles_proposed``
    per speculated block, the dual-engine pattern runs give the two
    boundary lengths — ``best`` (every prediction correct: the
    issue-bound/dependence-height floor of the speculative schedule) and
    ``worst`` (every prediction wrong: floor plus the full recovery
    stall of the compensation path).  The surrogate models each dynamic
    instance as drawing the all-correct pattern with probability
    ``p = prod(profile rate of each predicted load)`` and the all-wrong
    boundary otherwise::

        E[length] = best + (1 - p) * (worst - best)

    Mixed patterns land between the boundaries and the run-time
    predictor is trained online rather than scoring the profile's
    best-of(stride, FCM) rate, so this is an estimate — its measured
    error against the exact simulator is bounded by
    :data:`DOCUMENTED_ERROR_BOUND` and re-checked by
    ``tests/batchsim/test_surrogate.py`` on the golden suite.

Both boundary lengths read the process-wide pattern-run memo that the
speculation pass's validation sweep already seeded, so an estimate costs
microseconds once the point is compiled.  ``repro-explore --surrogate``
uses the estimates to rank candidate points and prunes the weak ones
before exact simulation (pruned points are logged in the report, never
silently dropped), then cross-validates the survivors' estimates against
their exact simulations on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Documented worst-case relative error of the surrogate's
#: ``cycles_proposed`` estimate vs the cycle-accurate simulator on the
#: golden suite (all benchmarks x {playdoh-4w, playdoh-8w} x thresholds
#: {0.5, 0.65, 0.8}).  Asserted by tests/batchsim/test_surrogate.py and
#: the CI surrogate-smoke job; revisit if the estimate formula changes.
DOCUMENTED_ERROR_BOUND = 0.05


@dataclass(frozen=True)
class BlockEstimate:
    """The surrogate's model of one speculated block."""

    label: str
    #: Profiled execution count (== dynamic instances in the trace).
    weight: int
    original_length: int
    #: Effective length when every prediction is correct.
    best_length: int
    #: Effective length when every prediction is wrong.
    worst_length: int
    #: Probability that *all* of the block's predictions are correct,
    #: assuming independence: the product of the predicted loads'
    #: profile rates.
    p_all_correct: float

    @property
    def expected_length(self) -> float:
        return self.best_length + (1.0 - self.p_all_correct) * (
            self.worst_length - self.best_length
        )


@dataclass(frozen=True)
class SurrogateEstimate:
    """Analytical cycles estimate for one compiled program."""

    program_name: str
    machine_name: str
    cycles_nopred: int
    cycles_proposed: float
    #: Per speculated block detail (diagnostics; non-speculated blocks
    #: contribute exactly ``weight * original_length`` to both totals).
    blocks: Tuple[BlockEstimate, ...]

    @property
    def speedup(self) -> float:
        """Estimated proposed-machine speedup over no prediction."""
        if self.cycles_proposed <= 0:
            return 1.0
        return self.cycles_nopred / self.cycles_proposed


def estimate_compilation(compilation) -> SurrogateEstimate:
    """Estimate simulation cycles from a :class:`ProgramCompilation`.

    Pure function of the compilation (schedules + profile); never runs
    the simulator.  See the module docstring for the model.
    """
    profile = compilation.profile
    nopred = 0
    proposed = 0.0
    blocks = []
    for label, comp in compilation.blocks.items():
        weight = profile.blocks.count(label)
        if weight == 0:
            continue
        nopred += weight * comp.original_length
        if not comp.speculated:
            proposed += weight * comp.original_length
            continue
        p = 1.0
        for op_id in comp.predicted_load_ids:
            p *= profile.values.rate(op_id)
        estimate = BlockEstimate(
            label=label,
            weight=weight,
            original_length=comp.original_length,
            best_length=comp.best_case().effective_length,
            worst_length=comp.worst_case().effective_length,
            p_all_correct=p,
        )
        proposed += weight * estimate.expected_length
        blocks.append(estimate)
    return SurrogateEstimate(
        program_name=compilation.program.name,
        machine_name=compilation.machine.name,
        cycles_nopred=nopred,
        cycles_proposed=proposed,
        blocks=tuple(blocks),
    )


def relative_error(estimate: SurrogateEstimate, exact) -> float:
    """``|estimated - exact| / exact`` on proposed-machine cycles.

    ``exact`` is the :class:`ProgramSimResult` of the same compilation.
    This is the quantity :data:`DOCUMENTED_ERROR_BOUND` bounds.
    """
    if exact.cycles_proposed <= 0:
        return 0.0
    return (
        abs(estimate.cycles_proposed - exact.cycles_proposed)
        / exact.cycles_proposed
    )
