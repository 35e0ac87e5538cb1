"""Declarative job specifications for the experiment pipeline.

A :class:`JobSpec` names one unit of work — one pipeline stage applied to
one (benchmark, scale, machine, speculation-config) point — without
executing it.  Its :meth:`~JobSpec.key` is a content hash over every
input that can change the result, plus a code-version salt, so the key
doubles as the address of the result in the on-disk cache
(:mod:`repro.runner.cache`): identical settings hit, any changed knob
misses, and bumping :data:`CODE_VERSION` invalidates everything at once.

Stage semantics are looked up in a registry (:func:`register_stage`), so
tests can inject synthetic stages (flaky, slow) and future pipelines can
add stages without touching the executor.  The built-in stages are the
ones ``Evaluation`` runs:

========== ================================ ============================
stage      inputs                           produces
========== ================================ ============================
build      benchmark, scale                 ``Program``
trace      build                            ``ValueTrace``
profile    build + trace                    ``ProfileData``
compile    build + profile + machine/config ``ProgramCompilation``
simulate   compile + trace (+ model_icache) ``ProgramSimResult``
========== ================================ ============================

``trace`` interprets the built program exactly once and records the
value stream (:mod:`repro.trace`); ``profile`` and ``simulate`` then
read only that trace, and fail with ``TraceMismatch`` when it does not
match their program.  Like ``profile``, the trace key
excludes the machine and speculation config, so every sweep point of a
threshold/predictor/machine ablation shares one cached interpretation.

``build`` exists because operation ids are assigned from a process-local
counter: profiles and compilations reference programs *by op id*, so all
downstream stages must consume the one program object the build stage
produced (read back by pickle) rather than rebuilding it in whatever
counter state the process happens to be in.  The build stage resets the
counter first, making the shipped program canonical.  A ``compile``
payload holds that program by reference, not as a copy, so it decodes
only against its own build's result
(:class:`~repro.runner.cache.ProgramRefs`).

``build`` and ``profile`` deliberately exclude the speculation config
from their keys: threshold and predictor ablations re-use the same
profiling run, which is where most of the wall time goes.

Compilation-shaped stages additionally carry a
:class:`repro.compiler.config.PipelineConfig`: ``build`` runs its
program-rewriting prefix (classical optimisation, loop unrolling),
``compile`` its codegen passes, and the config's canonical form joins
the job key — so cache entries are addressed by *pipeline
specification*, and e.g. every unroll variant of the region sweeps is
its own durable cache entry.  ``build``/``profile`` keys see only the
program-rewriting prefix (:meth:`PipelineConfig.frontend`), keeping the
profile shared across codegen-only config changes; the all-default
pipeline normalises to ``None`` so standard jobs key exactly as before.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.compiler.config import PipelineConfig, canonical_value as _canonical
from repro.core.speculation import SpeculationConfig
from repro.machine.description import MachineDescription

#: Bump whenever a pipeline stage's semantics change in a way that makes
#: previously cached results wrong.  Part of every job key.
#: 2026.08.7: profile/simulate stages route through the batched
#: struct-of-arrays engine (byte-identical results, but the batch
#: context changes which memo state a worker accumulates) and a
#: multi-machine batched simulation stage (since removed) joined the
#: registry.
#: 2026.10.1: icache simulations fold their counts like every other run,
#: so their metrics histograms pool per-pattern samples frequency-weighted
#: instead of once per dynamic instance.
#: 2026.10.2: profiles no longer carry the run's final state (the trace
#: holds it) and block compilations carry their best/worst effective
#: lengths; an older compile entry would decode without them.
#: 2026.10.3: compile payloads reference their build's program instead
#: of embedding a copy, share one main schedule between the speculative
#: and baseline compilations, and carry no dependence graphs; a new
#: compile entry needs its build's program to decode.
#: 2026.10.4: simulation results lose ``gated_instances`` (confidence
#: gating is gone), and profile/simulate read only the trace: a trace
#: that does not match its program fails the stage instead of falling
#: back to live interpretation.
CODE_VERSION = "2026.10.4"

#: The built-in pipeline stages, in dependency order.
PIPELINE_STAGES = ("build", "trace", "profile", "compile", "simulate")


def _normalise_pipeline(
    pipeline: Optional[PipelineConfig], frontend_only: bool = False
) -> Optional[PipelineConfig]:
    """Reduce a pipeline config to its job-key-relevant core.

    ``frontend_only`` keeps just the program-rewriting prefix (what the
    ``build``/``profile`` stages run).  A pipeline equivalent to the
    all-default one normalises to ``None`` so explicit-default callers
    share cache keys with callers that never mention a pipeline.
    """
    if pipeline is None:
        return None
    if frontend_only:
        frontend = pipeline.frontend()
        return frontend if frontend.program_passes else None
    return None if pipeline.is_standard() else pipeline


@dataclass(frozen=True)
class JobSpec:
    """One pipeline stage applied to one parameter point.

    Attributes:
        stage: registered stage name (``profile``/``compile``/``simulate``
            or a test-injected stage).
        benchmark: workload name from :data:`repro.workloads.suite.BENCHMARKS`.
        scale: workload size multiplier.
        machine: target machine, or ``None`` for machine-independent
            stages (profiling).
        spec_config: speculation knobs, or ``None`` for stages upstream
            of the speculation pass.
        pipeline: compiler pipeline configuration, or ``None`` for the
            standard pipeline (``build``/``profile`` specs carry only
            its program-rewriting prefix; see :func:`_normalise_pipeline`).
        params: extra stage parameters as a sorted tuple of
            ``(name, value)`` pairs — e.g. ``(("model_icache", True),)``.
    """

    stage: str
    benchmark: str
    scale: float = 1.0
    machine: Optional[MachineDescription] = None
    spec_config: Optional[SpeculationConfig] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    pipeline: Optional[PipelineConfig] = None

    def key(self) -> str:
        """Content hash addressing this job's result in the disk cache.

        The machine joins the key through its spec ``fingerprint()`` —
        the content hash of its canonical declarative form — so every
        distinct machine axis (width, FU mix, latencies, buffer
        geometry, predictor, ...) keys distinctly, and a machine loaded
        from a spec file keys identically to the equivalent registry
        constant.

        The key is computed once per instance and memoised beside the
        :data:`CODE_VERSION` it was salted with, so a changed version
        still re-keys.  The memo never reaches pickled state (see
        :meth:`__getstate__`).
        """
        memo = self.__dict__.get("_key")
        if memo is not None and memo[0] == CODE_VERSION:
            return memo[1]
        payload = json.dumps(
            {
                "code_version": CODE_VERSION,
                "stage": self.stage,
                "benchmark": self.benchmark,
                "scale": repr(self.scale),
                "machine": (
                    None if self.machine is None else self.machine.fingerprint()
                ),
                "spec_config": _canonical(self.spec_config),
                "params": _canonical(self.params),
                # The canonical form, not the dataclass: it excludes
                # result-neutral knobs such as `verify`.
                "pipeline": (
                    self.pipeline.canonical() if self.pipeline else None
                ),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self.__dict__["_key"] = (CODE_VERSION, key)
        return key

    def __getstate__(self) -> Dict[str, Any]:
        # Pickle the fields only: a memoised key must not make a spec
        # that was keyed pickle differently from one that was not.
        return {k: v for k, v in self.__dict__.items() if k != "_key"}

    @property
    def job_id(self) -> str:
        """Human-readable identifier, e.g. ``simulate:swim@playdoh-4w``."""
        parts = [f"{self.stage}:{self.benchmark}"]
        if self.machine is not None:
            parts.append(f"@{self.machine.name}")
        flags = [
            name if value is True else f"{name}={value}"
            for name, value in self.params
            if value not in (False, None)
        ]
        if flags:
            parts.append("[" + ",".join(flags) + "]")
        if self.pipeline is not None:
            front = ",".join(p.render() for p in self.pipeline.program_passes)
            parts.append(
                f"+{front}" if front
                else f"+pipeline:{self.pipeline.fingerprint()[:8]}"
            )
        return "".join(parts)

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class Job:
    """A :class:`JobSpec` plus the specs whose results it consumes."""

    spec: JobSpec
    deps: Tuple[JobSpec, ...] = ()

    def key(self) -> str:
        return self.spec.key()

    @property
    def job_id(self) -> str:
        return self.spec.job_id


# -- stage registry ----------------------------------------------------------

class DepResults(dict):
    """One job's dependency results (key -> result), with each key's stage.

    The runner builds it from the job's own dep specs, which it has
    already keyed, so a stage finds its inputs by stage name
    (:func:`dep_result`) without re-deriving and re-hashing
    :func:`default_deps` on every call.  A missing input fails the stage
    that needs it (:func:`dep_result`).
    """

    def __init__(self, deps: Iterable[Tuple[JobSpec, Any]]):
        super().__init__()
        self.stages: Dict[str, str] = {}
        for spec, value in deps:
            key = spec.key()
            self[key] = value
            self.stages[key] = spec.stage

    def of_stage(self, stage: str) -> Any:
        """The result of the first ``stage`` dependency, or ``None``."""
        for key, dep_stage in self.stages.items():
            if dep_stage == stage:
                return self[key]
        return None


#: stage name -> fn(spec, dep_results: DepResults) -> result
StageFn = Callable[[JobSpec, DepResults], Any]

_STAGES: Dict[str, StageFn] = {}


def register_stage(name: str, fn: StageFn) -> None:
    """Register (or override) the implementation of a stage.

    The registry is process-wide: a registered stage serves every
    runner in the process from then on.
    """
    _STAGES[name] = fn


def stage_function(name: str) -> StageFn:
    try:
        return _STAGES[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; registered: {sorted(_STAGES)}"
        ) from None


def execute_spec(spec: JobSpec, dep_results: DepResults) -> Any:
    """Run one job body (the runner's only way to execute a job)."""
    return stage_function(spec.stage)(spec, dep_results)


def dep_result(spec: JobSpec, dep_results: DepResults, stage: str) -> Any:
    """Fetch the dependency result produced by ``stage`` for ``spec``."""
    value = dep_results.of_stage(stage)
    if value is None:
        raise RuntimeError(f"{spec.job_id}: missing {stage} dependency result")
    return value


def adopt_program(program: Any) -> Any:
    """Make a program numbered elsewhere safe for op-creating passes here.

    A program that arrived by pickle (a cache hit) carries
    op ids from a foreign counter state; the local counter may sit *below*
    its maximum — notably after an in-process ``build`` of a smaller
    benchmark reset it.  Bump the counter past the program's ids so the
    speculation pass and the unroller cannot mint colliding ids.
    """
    from repro.ir.operation import ensure_operation_ids_above

    max_id = max(
        (
            op.op_id
            for function in program
            for block in function
            for op in block.operations
        ),
        default=0,
    )
    ensure_operation_ids_above(max_id)
    return program


def _run_build(spec: JobSpec, dep_results: DepResults) -> Any:
    from repro.ir.operation import reset_operation_ids
    from repro.workloads.suite import load_benchmark

    # Canonical ids: every build of (benchmark, scale, pipeline front
    # end) numbers its operations identically, wherever it runs.
    reset_operation_ids()
    program = load_benchmark(spec.benchmark, scale=spec.scale)
    if spec.pipeline is not None and spec.pipeline.program_passes:
        from repro.compiler.manager import PassManager

        program = PassManager(spec.pipeline).run_program_passes(program)
    return program


def _run_trace(spec: JobSpec, dep_results: DepResults) -> Any:
    from repro.trace.capture import capture_trace

    program = dep_result(spec, dep_results, "build")
    return capture_trace(program)


def _run_profile(spec: JobSpec, dep_results: DepResults) -> Any:
    from repro.profiling.profile_run import profile_program

    return profile_program(
        dep_result(spec, dep_results, "build"),
        dep_result(spec, dep_results, "trace"),
        profile_alu=bool(spec.param("profile_alu", False)),
    )


def _run_compile(spec: JobSpec, dep_results: DepResults) -> Any:
    from repro.compiler.manager import PassManager

    if spec.machine is None:
        raise ValueError(f"{spec.job_id}: compile jobs need a machine")
    # The build dependency already ran the pipeline's program-rewriting
    # prefix; only the codegen passes run here.
    program = adopt_program(dep_result(spec, dep_results, "build"))
    profile = dep_result(spec, dep_results, "profile")
    return PassManager(spec.pipeline).compile(
        program, spec.machine, profile, spec_config=spec.spec_config
    )


def _run_simulate(spec: JobSpec, dep_results: DepResults) -> Any:
    from repro.core.program_sim import simulate_program

    return simulate_program(
        dep_result(spec, dep_results, "compile"),
        dep_result(spec, dep_results, "trace"),
        model_icache=bool(spec.param("model_icache", False)),
        collect_metrics=bool(spec.param("collect_metrics", False)),
        collect_cycles=bool(spec.param("collect_cycles", False)),
    )


register_stage("build", _run_build)
register_stage("trace", _run_trace)
register_stage("profile", _run_profile)
register_stage("compile", _run_compile)
register_stage("simulate", _run_simulate)


# -- spec/job constructors ---------------------------------------------------

# The machine-free upstream specs are shared: every compile, simulate
# and graph closure of one (benchmark, scale, front end) names the same
# build/trace/profile instance, so its memoised key is hashed once
# however many jobs depend on it.  Specs are immutable, so sharing is
# safe; ``typed`` keeps ``scale=1`` and ``scale=1.0`` (distinct keys)
# apart.
_shared_spec = functools.lru_cache(maxsize=1024, typed=True)


@_shared_spec
def build_spec(
    benchmark: str,
    scale: float = 1.0,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    return JobSpec(
        "build", benchmark, scale=scale,
        pipeline=_normalise_pipeline(pipeline, frontend_only=True),
    )


@_shared_spec
def trace_spec(
    benchmark: str,
    scale: float = 1.0,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    """One value-trace capture per (benchmark, scale, frontend pipeline).

    Deliberately machine- and config-free, like ``profile``: the
    architectural value stream is invariant across everything downstream
    of the build, which is what lets a whole ablation sweep share it.
    """
    return JobSpec(
        "trace", benchmark, scale=scale,
        pipeline=_normalise_pipeline(pipeline, frontend_only=True),
    )


@_shared_spec
def profile_spec(
    benchmark: str,
    scale: float = 1.0,
    profile_alu: bool = False,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    params = (("profile_alu", True),) if profile_alu else ()
    return JobSpec(
        "profile", benchmark, scale=scale, params=params,
        pipeline=_normalise_pipeline(pipeline, frontend_only=True),
    )


def compile_spec(
    benchmark: str,
    machine: MachineDescription,
    scale: float = 1.0,
    spec_config: Optional[SpeculationConfig] = None,
    profile_alu: bool = False,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    config = spec_config or SpeculationConfig()
    params = (("profile_alu", True),) if profile_alu else ()
    return JobSpec(
        "compile", benchmark, scale=scale, machine=machine,
        spec_config=config, params=params,
        pipeline=_normalise_pipeline(pipeline),
    )


def simulate_spec(
    benchmark: str,
    machine: MachineDescription,
    scale: float = 1.0,
    spec_config: Optional[SpeculationConfig] = None,
    model_icache: bool = False,
    profile_alu: bool = False,
    collect_metrics: bool = False,
    collect_cycles: bool = False,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    config = spec_config or SpeculationConfig()
    # Flags join the params tuple only when set, so enabling a new
    # option never disturbs the cache keys of existing jobs.
    params: Tuple[Tuple[str, Any], ...] = ()
    if collect_cycles:
        params += (("collect_cycles", True),)
    if collect_metrics:
        params += (("collect_metrics", True),)
    if model_icache:
        params += (("model_icache", True),)
    if profile_alu:
        params += (("profile_alu", True),)
    return JobSpec(
        "simulate", benchmark, scale=scale, machine=machine,
        spec_config=config, params=params,
        pipeline=_normalise_pipeline(pipeline),
    )


def default_deps(spec: JobSpec) -> Tuple[JobSpec, ...]:
    """The natural upstream specs of a built-in pipeline stage.

    Used both by the job constructors and by the graph when it has to
    materialise a dependency that was only named, never constructed.
    Injected test stages have no implicit dependencies.
    """
    profile_alu = bool(spec.param("profile_alu", False))
    if spec.stage == "trace":
        return (build_spec(spec.benchmark, spec.scale, spec.pipeline),)
    if spec.stage == "profile":
        return (
            build_spec(spec.benchmark, spec.scale, spec.pipeline),
            trace_spec(spec.benchmark, spec.scale, spec.pipeline),
        )
    if spec.stage == "compile":
        return (
            build_spec(spec.benchmark, spec.scale, spec.pipeline),
            profile_spec(
                spec.benchmark, spec.scale, profile_alu, spec.pipeline
            ),
        )
    if spec.stage == "simulate":
        if spec.machine is None:
            raise ValueError(f"{spec.job_id}: simulate jobs need a machine")
        return (
            compile_spec(
                spec.benchmark, spec.machine, spec.scale,
                spec.spec_config, profile_alu, spec.pipeline,
            ),
            trace_spec(spec.benchmark, spec.scale, spec.pipeline),
        )
    return ()


def job_for(spec: JobSpec) -> Job:
    """Wrap ``spec`` as a :class:`Job` with its natural dependencies."""
    return Job(spec, deps=default_deps(spec))


def build_job(benchmark: str, scale: float = 1.0, **kw: Any) -> Job:
    return job_for(build_spec(benchmark, scale, **kw))


def trace_job(benchmark: str, scale: float = 1.0, **kw: Any) -> Job:
    return job_for(trace_spec(benchmark, scale, **kw))


def profile_job(benchmark: str, scale: float = 1.0, **kw: Any) -> Job:
    return job_for(profile_spec(benchmark, scale, **kw))


def compile_job(
    benchmark: str, machine: MachineDescription, scale: float = 1.0, **kw: Any
) -> Job:
    return job_for(compile_spec(benchmark, machine, scale, **kw))


def simulate_job(
    benchmark: str, machine: MachineDescription, scale: float = 1.0, **kw: Any
) -> Job:
    return job_for(simulate_spec(benchmark, machine, scale, **kw))


def pipeline_jobs(
    benchmarks: Sequence[str],
    machines: Sequence[MachineDescription],
    scale: float = 1.0,
    spec_config: Optional[SpeculationConfig] = None,
    simulate_variants: Sequence[bool] = (False,),
) -> Tuple[Job, ...]:
    """The full profile -> compile -> simulate graph for a sweep.

    ``simulate_variants`` lists the ``model_icache`` settings to simulate
    per (benchmark, machine) point.
    """
    out = []
    for benchmark in benchmarks:
        out.append(profile_job(benchmark, scale))
        for machine in machines:
            out.append(
                compile_job(benchmark, machine, scale, spec_config=spec_config)
            )
            for model_icache in simulate_variants:
                out.append(
                    simulate_job(
                        benchmark,
                        machine,
                        scale,
                        spec_config=spec_config,
                        model_icache=model_icache,
                    )
                )
    return tuple(out)
