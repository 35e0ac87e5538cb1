"""Per-block compilation products and outcome classification.

:class:`ProgramCompilation` holds the full compiler output for one
program on one machine — per block: original schedule length,
speculation transform (where profitable), speculative schedule, and the
statically-recovered baseline version.  It is what both the static
experiments (Tables 3/4) and the dynamic simulation consume.  The
pipeline that builds it lives in :mod:`repro.compiler`
(:func:`repro.compiler.manager.compile_program`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.program import Program
    from repro.machine.description import MachineDescription
    from repro.obs.metrics import MetricsSnapshot
    from repro.profiling.profile_run import ProfileData
    from repro.core.baseline import BaselineBlock
    from repro.core.machine_sim import BlockRun
    from repro.core.specsched import SpeculativeSchedule
    from repro.core.speculation import SpeculationConfig


class OutcomeClass(enum.Enum):
    """Classification of one dynamic block instance (paper Table 2)."""

    NOT_SPECULATED = "not-speculated"
    ALL_CORRECT = "all-correct"
    ALL_INCORRECT = "all-incorrect"
    MIXED = "mixed"


def classify_outcome(predictions: int, mispredictions: int) -> OutcomeClass:
    if predictions < 0 or mispredictions < 0:
        raise ValueError(
            f"negative prediction counts: predictions={predictions}, "
            f"mispredictions={mispredictions}"
        )
    if mispredictions > predictions:
        raise ValueError(
            f"mispredictions ({mispredictions}) exceed predictions ({predictions})"
        )
    if predictions == 0:
        return OutcomeClass.NOT_SPECULATED
    if mispredictions == 0:
        return OutcomeClass.ALL_CORRECT
    if mispredictions == predictions:
        return OutcomeClass.ALL_INCORRECT
    return OutcomeClass.MIXED


@dataclass
class BlockCompilation:
    """All compiler products for one basic block."""

    label: str
    original_length: int
    spec_schedule: Optional[SpeculativeSchedule] = None
    baseline: Optional[BaselineBlock] = None
    #: Effective length with every prediction correct / incorrect, set
    #: with ``spec_schedule`` by the ``schedule-speculative`` pass.
    best_length: Optional[int] = None
    worst_length: Optional[int] = None
    _pattern_cache: Dict[Tuple[bool, ...], BlockRun] = field(default_factory=dict)
    _cycles_cache: Dict[Tuple[bool, ...], Dict[str, int]] = field(
        default_factory=dict
    )

    def __getstate__(self) -> Dict:
        # The pattern caches are pure memos of simulate_block results;
        # they are dropped on pickling so a serialised compilation is
        # canonical (independent of which patterns happened to be timed
        # first) and the runner's on-disk artifacts stay small.  They are
        # rebuilt on demand after unpickling.
        state = self.__dict__.copy()
        state["_pattern_cache"] = {}
        state["_cycles_cache"] = {}
        return state

    @property
    def speculated(self) -> bool:
        return self.spec_schedule is not None

    @property
    def predicted_load_ids(self) -> Tuple[int, ...]:
        """Original op ids of the predicted loads, in LdPred order.

        These are the keys under which the loads were value-profiled and
        under which the run-time value predictor is trained.
        """
        if self.spec_schedule is None:
            return ()
        spec = self.spec_schedule.spec
        return tuple(spec.predicted_load_of[l] for l in spec.ldpred_ids)

    def run_for(self, pattern: Tuple[bool, ...]) -> BlockRun:
        """Dual-engine timing for one correctness pattern (memoised)."""
        if self.spec_schedule is None:
            raise RuntimeError(f"block {self.label!r} was not speculated")
        cached = self._pattern_cache.get(pattern)
        if cached is None:
            ldpreds = self.spec_schedule.spec.ldpred_ids
            if len(pattern) != len(ldpreds):
                raise ValueError(
                    f"pattern of length {len(pattern)} for {len(ldpreds)} predictions"
                )
            # Shared process-wide per (spec schedule, pattern): sweep
            # points compiled from the same transform read one memo.
            from repro.core import compile_cache

            cached = compile_cache.pattern_run(self.spec_schedule, pattern)
            self._pattern_cache[pattern] = cached
        return cached

    def best_case(self) -> BlockRun:
        n = len(self.predicted_load_ids)
        return self.run_for((True,) * n)

    def worst_case(self) -> BlockRun:
        n = len(self.predicted_load_ids)
        return self.run_for((False,) * n)

    def metrics_for(self, pattern: Tuple[bool, ...]) -> MetricsSnapshot:
        """Dual-engine metrics for one correctness pattern: the snapshot
        folded from the pattern's :meth:`run_for` run."""
        return self.run_for(pattern).metrics

    def cycles_for(self, pattern: Tuple[bool, ...]) -> Dict[str, int]:
        """Per-cause cycle stack for one correctness pattern (memoised).

        Read from the pattern's :meth:`run_for` run, which carries its
        stack; the stack sums to the pattern's ``effective_length``.
        """
        cached = self._cycles_cache.get(pattern)
        if cached is None:
            cached = dict(self.run_for(pattern).cycle_stack)
            self._cycles_cache[pattern] = cached
        return cached


@dataclass
class ProgramCompilation:
    """Compiler output for a whole program on one machine."""

    program: Program
    machine: MachineDescription
    config: SpeculationConfig
    profile: ProfileData
    blocks: Dict[str, BlockCompilation]

    @property
    def speculated_labels(self) -> List[str]:
        return [label for label, b in self.blocks.items() if b.speculated]

    def block(self, label: str) -> BlockCompilation:
        return self.blocks[label]

    # -- static, frequency-weighted aggregates (Tables 3 and 4) ----------

    def weighted_length_fraction(self, best: bool = True) -> float:
        """Effective/original schedule-length ratio over speculated blocks,
        weighted by profiled execution frequency.

        ``best=True`` assumes every prediction correct; ``best=False``
        assumes every prediction incorrect — the paper's two columns.
        """
        num = 0.0
        den = 0.0
        for label, comp in self.blocks.items():
            if not comp.speculated:
                continue
            weight = self.profile.blocks.count(label)
            if weight == 0:
                continue
            num += weight * (comp.best_length if best else comp.worst_length)
            den += weight * comp.original_length
        return num / den if den else 1.0

    def metrics_snapshot(self, best: bool = True) -> MetricsSnapshot:
        """Static, frequency-weighted metrics over speculated blocks.

        Each block's per-pattern metrics (all predictions correct for
        ``best=True``, all incorrect otherwise) are scaled by its
        profiled execution count and merged — the observability analogue
        of :meth:`weighted_length_fraction`.  The dynamic simulation
        (:func:`repro.core.program_sim.simulate_program` with
        ``collect_metrics=True``) aggregates the same per-block
        snapshots under real predictor outcomes instead.
        """
        from repro.obs.metrics import MetricsSnapshot

        total = MetricsSnapshot.empty()
        for label, comp in self.blocks.items():
            if not comp.speculated:
                continue
            weight = self.profile.blocks.count(label)
            if weight == 0:
                continue
            pattern = (best,) * len(comp.predicted_load_ids)
            total = total.merged(comp.metrics_for(pattern).scaled(weight))
        return total
