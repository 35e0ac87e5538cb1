"""Shared machinery for the evaluation experiments.

:class:`Evaluation` caches profiles, compilations and dynamic simulation
results per (benchmark, machine) so the table/figure generators can share
work — profiling is the expensive step and every experiment needs it.

Every pipeline stage is a declarative job of a
:class:`repro.runner.executor.Runner`.  A runner with an enabled cache
also memoises stage results on disk (surviving across processes and
threshold/scale sweeps), and :meth:`Evaluation.warm` can execute the
whole job graph for a set of experiments up front before the
experiments read it back.  An evaluation built without a runner uses a
runner whose cache is disabled, so it does no disk I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.machine.configs import by_name, spec_by_name
from repro.machine.description import MachineDescription
from repro.machine.spec import MachineSpec
# No stage calls it here (simulation is a runner job), but the end-to-end
# benchmark's self-checks (e2ebench/test_e2e.py) patch it by this name.
from repro.core.program_sim import simulate_program  # noqa: F401
from repro.core.speculation import SpeculationConfig
from repro.workloads.suite import BENCHMARKS, resolve_benchmarks

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.compiler.config import PipelineConfig
    from repro.core.metrics import ProgramCompilation
    from repro.core.program_sim import ProgramSimResult
    from repro.ir.program import Program
    from repro.profiling.profile_run import ProfileData
    from repro.runner.executor import Runner
    from repro.runner.jobs import Job


#: How an experiment names a machine: a registry name, a spec-file path,
#: or an inline :class:`MachineSpec`.
MachineRef = Union[str, MachineSpec]

#: The default machine roles: the paper's primary 4-wide machine and its
#: doubled Table 4 twin, as registry names.
DEFAULT_MACHINES: Tuple[Tuple[str, MachineRef], ...] = (
    ("base", "playdoh-4w"),
    ("wide", "playdoh-8w"),
)


@dataclass(frozen=True)
class EvaluationSettings:
    """Knobs shared by all experiments.

    ``machines`` maps the *roles* experiments reference (``base``,
    ``wide``) to machine specs — registry names, spec-file paths, or
    inline :class:`MachineSpec` objects.  The defaults are the paper's
    machines; :meth:`with_machine` rebinds a role, which is how the
    explore driver sweeps machine axes without touching any experiment
    code.
    """

    scale: float = 1.0
    spec_config: SpeculationConfig = field(default_factory=SpeculationConfig)
    benchmarks: Tuple[str, ...] = BENCHMARKS
    machines: Tuple[Tuple[str, MachineRef], ...] = DEFAULT_MACHINES

    def with_threshold(self, threshold: float) -> "EvaluationSettings":
        return replace(
            self, spec_config=replace(self.spec_config, threshold=threshold)
        )

    def with_benchmarks(
        self, benchmarks: Optional[Sequence[str]]
    ) -> "EvaluationSettings":
        """Restrict the suite; names are validated against the registry."""
        if not benchmarks:
            return self
        return replace(self, benchmarks=resolve_benchmarks(benchmarks))

    def with_machine(
        self, role: str, machine: Union[MachineRef, MachineDescription]
    ) -> "EvaluationSettings":
        """Bind ``role`` (e.g. ``"base"``) to a machine spec/name/path."""
        if isinstance(machine, MachineDescription):
            machine = MachineSpec.from_description(machine)
        bound = dict(self.machines)
        bound[role] = machine
        return replace(self, machines=tuple(bound.items()))

    def machine_ref(self, role: str) -> MachineRef:
        refs = dict(self.machines)
        try:
            return refs[role]
        except KeyError:
            raise KeyError(
                f"no machine bound for role {role!r}; bound: {sorted(refs)}"
            ) from None

    def machine_spec(self, role: str) -> MachineSpec:
        """The resolved :class:`MachineSpec` bound to ``role``."""
        ref = self.machine_ref(role)
        if isinstance(ref, MachineSpec):
            return ref
        return spec_by_name(ref)


#: Pipeline products each experiment reads, as (stage, machine role,
#: model_icache, collect_cycles) tuples.  ``warm`` uses this to pre-build
#: the job graph; roles resolve through ``EvaluationSettings.machines``.
#: The baseline comparison always simulates with cycle accounting: its
#: overhead columns are defined in terms of the attributed stacks (see
#: :mod:`repro.evaluation.baseline_cmp`).
EXPERIMENT_NEEDS: Dict[str, Tuple[Tuple[str, str, bool, bool], ...]] = {
    "table2": (("simulate", "base", False, False),),
    "table3": (("compile", "base", False, False),),
    "table4": (
        ("simulate", "base", False, False),
        ("simulate", "wide", False, False),
    ),
    "figure8": (("compile", "base", False, False),),
    "baseline": (("simulate", "base", True, True),),
    "regions": (("compile", "base", False, False),),
    "example": (),
}


def memory_runner() -> "Runner":
    """A runner whose cache is disabled: its jobs run in memory and
    touch no disk."""
    from repro.runner.cache import DiskCache
    from repro.runner.executor import Runner

    return Runner(cache=DiskCache(enabled=False))


class Evaluation:
    """Caching front end over profile -> compile -> simulate.

    Every stage is a :class:`repro.runner.executor.Runner` job.  Without
    a runner the evaluation makes its own :func:`memory_runner`.
    """

    def __init__(
        self,
        settings: Optional[EvaluationSettings] = None,
        runner: Optional["Runner"] = None,
        collect_metrics: bool = False,
        collect_cycles: bool = False,
    ):
        self.settings = settings or EvaluationSettings()
        self.runner = runner or memory_runner()
        #: When set, every simulate stage aggregates an observability
        #: snapshot into its result (``ProgramSimResult.metrics``); see
        #: :meth:`metrics_snapshot`.  Off by default — simulate job keys
        #: and timing outputs are unchanged.
        self.collect_metrics = collect_metrics
        #: When set, every simulate stage attributes each simulated cycle
        #: to one cause (``ProgramSimResult.cycle_stacks``; see
        #: :mod:`repro.obs.cycles`).  Off by default — simulate job keys
        #: and timing outputs are unchanged.
        self.collect_cycles = collect_cycles
        self._machines: Dict[str, MachineDescription] = {}
        # Keyed by benchmark (and machine) plus the pipeline's
        # fingerprint, ``None`` for the standard pipeline.
        self._programs: Dict[Tuple[str, Optional[str]], Program] = {}
        self._profiles: Dict[Tuple[str, Optional[str]], ProfileData] = {}
        self._compilations: Dict[
            Tuple[str, str, Optional[str]], ProgramCompilation
        ] = {}
        self._simulations: Dict[
            Tuple[str, str, bool, bool], ProgramSimResult
        ] = {}

    # -- pipeline stages ----------------------------------------------------
    #
    # ``pipeline`` names a non-standard
    # :class:`repro.compiler.config.PipelineConfig` — e.g. the region-size
    # sweeps' unrolled loops.  Its build, profile and compile are ordinary
    # jobs keyed by the pipeline, so every unroll factor is its own cache
    # entry.

    def program(
        self, name: str, pipeline: Optional[PipelineConfig] = None
    ) -> Program:
        key = (name, _fingerprint(pipeline))
        if key not in self._programs:
            # The runner's build job is the canonical program: the cached
            # profiles and compilations reference its object graph.
            from repro.runner.jobs import build_job

            self._programs[key] = self.runner.run_job(
                build_job(name, scale=self.settings.scale, pipeline=pipeline)
            )
        return self._programs[key]

    def profile(
        self, name: str, pipeline: Optional[PipelineConfig] = None
    ) -> ProfileData:
        key = (name, _fingerprint(pipeline))
        if key not in self._profiles:
            from repro.runner.jobs import profile_job

            self._profiles[key] = self.runner.run_job(
                profile_job(name, scale=self.settings.scale, pipeline=pipeline)
            )
        return self._profiles[key]

    def compilation(
        self,
        name: str,
        machine: MachineDescription,
        pipeline: Optional[PipelineConfig] = None,
    ) -> ProgramCompilation:
        key = (name, machine.name, _fingerprint(pipeline))
        if key not in self._compilations:
            from repro.runner.jobs import compile_job

            self._compilations[key] = self.runner.run_job(
                compile_job(
                    name,
                    machine,
                    scale=self.settings.scale,
                    spec_config=self.settings.spec_config,
                    pipeline=pipeline,
                )
            )
        return self._compilations[key]

    def simulation(
        self,
        name: str,
        machine: MachineDescription,
        model_icache: bool = False,
        collect_cycles: Optional[bool] = None,
    ) -> ProgramSimResult:
        """One dynamic simulation (memoised per parameter point).

        ``collect_cycles=None`` inherits the evaluation-wide setting;
        ``True`` forces cycle accounting for this read regardless (the
        baseline-comparison experiment does this — its overhead columns
        need the attributed stacks).
        """
        cycles = self.collect_cycles if collect_cycles is None else collect_cycles
        key = (name, machine.name, model_icache, cycles)
        if key not in self._simulations:
            from repro.runner.jobs import simulate_job

            self._simulations[key] = self.runner.run_job(
                simulate_job(
                    name,
                    machine,
                    scale=self.settings.scale,
                    spec_config=self.settings.spec_config,
                    model_icache=model_icache,
                    collect_metrics=self.collect_metrics,
                    collect_cycles=cycles,
                )
            )
        return self._simulations[key]

    # -- runner integration -------------------------------------------------

    def required_jobs(
        self, experiments: Optional[Iterable[str]] = None
    ) -> List["Job"]:
        """The job graph covering ``experiments`` (default: all of them)."""
        from repro.runner.jobs import compile_job, simulate_job

        names = list(experiments) if experiments is not None else list(
            EXPERIMENT_NEEDS
        )
        jobs: List["Job"] = []
        seen = set()
        for experiment in names:
            for stage, role, model_icache, force_cycles in EXPERIMENT_NEEDS.get(
                experiment, ()
            ):
                machine = self.machine_for(role)
                for benchmark in self.settings.benchmarks:
                    if stage == "simulate":
                        # Mirror simulation()'s spec exactly, or warmed
                        # jobs would miss the keys the reads use.
                        job = simulate_job(
                            benchmark,
                            machine,
                            scale=self.settings.scale,
                            spec_config=self.settings.spec_config,
                            model_icache=model_icache,
                            collect_metrics=self.collect_metrics,
                            collect_cycles=force_cycles or self.collect_cycles,
                        )
                    else:
                        job = compile_job(
                            benchmark,
                            machine,
                            scale=self.settings.scale,
                            spec_config=self.settings.spec_config,
                        )
                    if job.key() not in seen:
                        seen.add(job.key())
                        jobs.append(job)
        return jobs

    def warm(self, experiments: Optional[Iterable[str]] = None) -> int:
        """Execute every pipeline job the given experiments will need,
        in one runner batch, so subsequent ``compute`` calls
        are pure cache reads.  Returns the number of jobs in the graph."""
        jobs = self.required_jobs(experiments)
        if jobs:
            self.runner.run(jobs)
        return len(jobs)

    # -- observability --------------------------------------------------------

    def cycle_stack_results(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Cycle stacks of every simulation run so far.

        Keyed ``benchmark@machine`` (icache-modelled simulations get an
        ``+icache`` suffix); values are the per-machine-model stacks from
        :attr:`repro.core.program_sim.ProgramSimResult.cycle_stacks`.
        Simulations run without cycle accounting are skipped.
        """
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        for (name, machine, icache, _cycles), result in sorted(
            self._simulations.items()
        ):
            stacks = getattr(result, "cycle_stacks", None)
            if not stacks:
                continue
            out[f"{name}@{machine}" + ("+icache" if icache else "")] = stacks
        return out

    def metrics_snapshot(self):
        """Merge of every collected simulation metrics snapshot so far.

        Requires ``collect_metrics=True``; returns a
        :class:`repro.obs.metrics.MetricsSnapshot` covering all
        (benchmark, machine) simulations this evaluation has run.
        """
        from repro.obs.metrics import MetricsSnapshot

        if not self.collect_metrics:
            raise RuntimeError(
                "metrics_snapshot() needs Evaluation(collect_metrics=True)"
            )
        total = MetricsSnapshot.empty()
        for result in self._simulations.values():
            if result.metrics is not None:
                total = total.merged(result.metrics)
        return total

    # -- convenience ----------------------------------------------------------

    @property
    def benchmarks(self) -> List[str]:
        return list(self.settings.benchmarks)

    def machine_for(self, role: str) -> MachineDescription:
        """The built machine bound to ``role`` in the settings.

        Registry names resolve to the shared module constants (so the
        default evaluation uses the identical ``PLAYDOH_4W`` object the
        rest of the codebase does); specs and spec files build once per
        evaluation.
        """
        if role not in self._machines:
            ref = self.settings.machine_ref(role)
            if isinstance(ref, MachineSpec):
                self._machines[role] = ref.build()
            else:
                self._machines[role] = by_name(ref)
        return self._machines[role]

    @property
    def machine_4w(self) -> MachineDescription:
        """The machine bound to the ``base`` role (``playdoh-4w`` by
        default); kept for callers written against the paper's names."""
        return self.machine_for("base")

    @property
    def machine_8w(self) -> MachineDescription:
        """The machine bound to the ``wide`` role (``playdoh-8w`` by
        default)."""
        return self.machine_for("wide")


def _fingerprint(pipeline: Optional[PipelineConfig]) -> Optional[str]:
    return None if pipeline is None else pipeline.fingerprint()


def geometric_mean(values: List[float]) -> float:
    """Geometric mean (safe for the ratio metrics used throughout).

    Raises ``ValueError`` for an empty input — a silently-empty
    experiment must not report a 0.0 geomean as if it were data.
    """
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= v
    return product ** (1.0 / len(values))


def arithmetic_mean(values: List[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)
