"""Region-size experiment (the paper's closing expectation, quantified).

The paper closes: "For larger regions such as hyperblocks [11] and
superblocks [7], we expect to see a further improvement".  This
experiment enlarges each benchmark's hottest speculated loop by
unrolling (with register renaming) and re-runs the Table 3 best-case
measurement at region sizes 1x, 2x and 4x.

The result sharpens the paper's expectation into a mechanism:

* loops whose iterations chain *serially* (li's pointer chase — the next
  iteration's address is this iteration's loaded value) behave as the
  paper predicts: the longer dependence chain gives value prediction
  more to break, and the best-case fraction improves with region size;
* loops whose iterations are *independent* show the opposite: unrolling
  itself harvests the parallelism, shortening the original schedule and
  *diluting* prediction's relative benefit.

Every unrolled variant is validated architecturally (same final
registers and memory as the original) before being measured; variants
whose trip counts are not divisible by the factor fail validation and
are reported as absent.  Validation reads each program's final state
from its value trace: the ``trace`` jobs the original's and the
variant's profiles already depend on (so a warm rerun reads both from
the cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.compiler.config import standard_pipeline
from repro.ir.printer import format_table
from repro.evaluation.experiment import Evaluation

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.compiler.config import PipelineConfig
    from repro.profiling.memory import Number

    #: A program's final architectural state: registers and memory snapshot.
    FinalState = Tuple[Dict[str, Number], Dict[int, Number]]

FACTORS = (2, 4)

#: Benchmarks whose hottest loop carries a serial dependence from one
#: iteration to the next (the unrolled copies chain instead of running
#: side by side).
SERIAL_CHAIN_BENCHMARKS = frozenset({"li"})


@dataclass(frozen=True)
class RegionRow:
    benchmark: str
    loop_label: str
    serial_chain: bool
    fractions: Dict[int, Optional[float]]  # unroll factor -> best-case fraction

    @property
    def baseline_fraction(self) -> float:
        return self.fractions[1]


def _final_state(
    evaluation: Evaluation, name: str, pipeline: Optional[PipelineConfig] = None
) -> FinalState:
    """Final registers and memory snapshot of ``name`` built with
    ``pipeline`` (``None``: the standard build), read from its trace."""
    from repro.runner.jobs import trace_job

    trace = evaluation.runner.run_job(
        trace_job(name, scale=evaluation.settings.scale, pipeline=pipeline)
    )
    return trace.final_registers, trace.final_memory


def _architecturally_equivalent(base: FinalState, variant: FinalState) -> bool:
    """Whether two final states agree, ignoring the unroller's renamed
    (``__u``) registers."""
    (base_regs, base_memory), (variant_regs, variant_memory) = base, variant
    return (
        {k: v for k, v in base_regs.items() if "__u" not in k}
        == {k: v for k, v in variant_regs.items() if "__u" not in k}
        and base_memory == variant_memory
    )


def compute(evaluation: Evaluation) -> List[RegionRow]:
    from repro.regions.unroll import UnrollError, unroll_program_loop

    rows: List[RegionRow] = []
    machine = evaluation.machine_4w
    for name in evaluation.benchmarks:
        program = evaluation.program(name)
        compilation = evaluation.compilation(name, machine)
        if not compilation.speculated_labels:
            continue
        profile = evaluation.profile(name)
        label = max(
            compilation.speculated_labels,
            key=lambda l: profile.blocks.count(l),
        )
        fractions: Dict[int, Optional[float]] = {
            1: compilation.weighted_length_fraction(best=True)
        }
        base_state = _final_state(evaluation, name)
        for factor in FACTORS:
            fractions[factor] = None
            try:
                # Cheap and interpreter-free: a loop the unroller
                # rejects has no variant to build or trace.
                unroll_program_loop(program, label, factor)
            except UnrollError:
                continue
            # The variant goes through the shared pipeline: its build,
            # trace, profile and compile are jobs keyed by the pipeline
            # config.
            pipeline = standard_pipeline(unroll=(label, factor))
            variant_state = _final_state(evaluation, name, pipeline)
            if not _architecturally_equivalent(base_state, variant_state):
                continue  # trip count not divisible by the factor
            unrolled_compilation = evaluation.compilation(
                name, machine, pipeline
            )
            if not unrolled_compilation.speculated_labels:
                continue
            fractions[factor] = unrolled_compilation.weighted_length_fraction(
                best=True
            )
        rows.append(
            RegionRow(
                benchmark=name,
                loop_label=label,
                serial_chain=name in SERIAL_CHAIN_BENCHMARKS,
                fractions=fractions,
            )
        )
    return rows


def render(rows: List[RegionRow]) -> str:
    def cell(value: Optional[float]) -> str:
        return f"{value:.2f}" if value is not None else "-"

    body = [
        (
            r.benchmark,
            r.loop_label,
            "serial" if r.serial_chain else "parallel",
            cell(r.fractions.get(1)),
            cell(r.fractions.get(2)),
            cell(r.fractions.get(4)),
        )
        for r in rows
    ]
    table = format_table(
        ["Benchmark", "Loop", "Iteration deps", "1x", "2x", "4x"],
        body,
    )
    return (
        "Region-size study: best-case schedule fraction vs unroll factor\n"
        + table
        + "\n\nSerial-chain loops improve with region size (the paper's "
        "superblock expectation);\nindependent-iteration loops dilute the "
        "benefit because unrolling itself harvests the ILP."
    )


def run(evaluation: Optional[Evaluation] = None) -> str:
    return render(compute(evaluation or Evaluation()))
