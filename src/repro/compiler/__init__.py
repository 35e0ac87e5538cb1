"""repro.compiler — the pass-manager pipeline.

One typed pipeline covers the paper's whole compile-time half: classical
optimisation (:mod:`repro.opt`), optional region enlargement
(:mod:`repro.regions`), liveness, the value-speculation transform,
speculative scheduling and baseline construction — declared as a
serialisable :class:`~repro.compiler.config.PipelineConfig` and executed
by a :class:`~repro.compiler.manager.PassManager` that verifies the IR
after every program pass and before codegen.

Every compilation entry point in the repository routes through here:
:func:`repro.compiler.manager.compile_program` runs the standard codegen
passes, the experiment runner's ``build``/``compile`` job stages run the
config's two halves (cache entries are keyed by the config's
:meth:`~repro.compiler.config.PipelineConfig.fingerprint`), and the
region-size sweeps are just configs with an ``unroll`` pass in front.

Quickstart::

    from repro.compiler.config import standard_pipeline
    from repro.compiler.manager import PassManager

    manager = PassManager(standard_pipeline())
    compilation = manager.compile(program, machine, profile)

Inspect a resolved pipeline from the shell::

    python -m repro.compiler list
    repro-eval --list-passes
"""
