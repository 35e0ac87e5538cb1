"""repro — a reproduction of "Value Prediction in VLIW Machines"
(Tarun Nakra, Rajiv Gupta, Mary Lou Soffa; ISCA 1999).

The package is a complete VLIW compiler-and-simulator stack built from
scratch in Python:

* :mod:`repro.ir` — the intermediate representation (a Trimaran/Elcor
  stand-in): operations, basic blocks, functions, programs.
* :mod:`repro.machine` — HPL-PD/Playdoh-style machine descriptions.
* :mod:`repro.ddg` — data-dependence graphs and critical-path analysis.
* :mod:`repro.sched` — resource-constrained list scheduling.
* :mod:`repro.predict` — value predictors: last-value, stride, FCM,
  DFCM, hybrid; the hardware value-prediction table.
* :mod:`repro.profiling` — architectural execution, block-frequency and
  value profiling.
* :mod:`repro.trace` — the value trace of one architectural run: the
  only input of profiling and simulation.
* :mod:`repro.core` — the paper's contribution: the value-speculation
  compiler pass (LdPred / check-prediction / speculative /
  non-speculative forms, Synchronization register) and the dual-engine
  run-time model (VLIW Engine + Compensation Code Engine with its CCB
  and OVB), plus the statically-recovered baseline of the paper's
  reference [4].
* :mod:`repro.workloads` — eight synthetic SPEC95 stand-ins with
  controlled value predictability, plus a random-program generator.
* :mod:`repro.evaluation` — drivers that regenerate every table and
  figure of the paper's evaluation section.
* :mod:`repro.opt` — classical block-local optimisations (constant
  folding, copy propagation, dead-code elimination).
* :mod:`repro.regions` — superblock-style region enlargement
  (straight-line merging, loop unrolling with register renaming).
* :mod:`repro.compiler` — the pass-pipeline driver: a registry of
  named passes, a declarative (serializable, content-hashable)
  :class:`~repro.compiler.config.PipelineConfig`, and the
  :class:`~repro.compiler.manager.PassManager` that runs it with inter-pass
  IR verification and per-pass metrics.
* :mod:`repro.runner` — serial, disk-cached experiment execution;
  job cache keys incorporate the pipeline config.
* :mod:`repro.obs` — metrics, structured tracing, Perfetto export.
* :mod:`repro.tools` — the ``repro-inspect`` command-line tool.

Quickstart::

    from repro.machine.configs import PLAYDOH_4W
    from repro.profiling.profile_run import profile_program
    from repro.compiler.manager import compile_program
    from repro.core.program_sim import simulate_program
    from repro.trace.capture import capture_trace
    from repro.workloads.suite import load_benchmark

    program = load_benchmark("compress")
    trace = capture_trace(program)           # the one architectural run
    profile = profile_program(program, trace)
    compilation = compile_program(program, PLAYDOH_4W, profile)
    result = simulate_program(compilation, trace)
    print(f"speedup over no prediction: {result.speedup_proposed:.3f}")

Non-standard pipelines are declared, not hand-stitched::

    from repro.compiler.config import standard_pipeline
    from repro.compiler.manager import PassManager

    pipeline = standard_pipeline(optimize=True, unroll=("scan", 2))
    compilation = PassManager(pipeline).run(program, PLAYDOH_4W, None)

``python -m repro.compiler list`` prints the resolved pass order and
per-pass options; ``python -m repro.compiler digest`` emits a stable
content hash of every benchmark's compilation (the CI determinism
check).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
