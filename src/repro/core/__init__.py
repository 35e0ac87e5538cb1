"""The paper's contribution: value speculation for VLIW machines with a
parallel Compensation Code Engine.

Compiler side:

* :func:`repro.core.speculation.speculate_block` /
  :func:`repro.core.speculation.transform_block` — the speculation
  pass (ISA rewriting, Synchronization-bit assignment).
* :func:`repro.core.specsched.schedule_speculative` — list scheduling of
  transformed blocks plus wait-mask/CCB-source annotation.
* :class:`repro.core.metrics.ProgramCompilation` — the whole-program
  compilation products (built by
  :func:`repro.compiler.manager.compile_program`).

Architecture side:

* :func:`repro.core.machine_sim.simulate_block` — dual-engine timing of
  one block instance.
* :func:`repro.core.program_sim.simulate_program` — whole-program
  dynamic simulation with a live value predictor, timing the proposed
  machine, the no-prediction machine and the statically-recovered
  baseline of reference [4].
"""
