"""repro.obs — unified observability for the simulator and the runner.

Four layers, each usable alone:

* :mod:`repro.obs.metrics` — a lightweight counter/gauge/histogram
  registry with near-zero disabled overhead and a snapshot/merge API,
  so per-block metrics aggregate up through program compilation and
  dynamic simulation (``vliw.stall_cycles``, ``cce.flush``,
  ``cce.reexec``, ``ovb.state_transitions{PN,RN,C,R}``, ...).
* :mod:`repro.obs.trace` — the event log each dual-engine run writes
  (the VLIW engine, the Compensation Code Engine, the OVB and the
  Synchronization register append to it), the typed trace events
  (dataclasses with ``kind``/``cycle``/``op_id``) read from it, and the
  fold into the run's cycle stack and counters.
* :mod:`repro.obs.perfetto` — a Chrome trace-event / Perfetto JSON
  exporter rendering the two engines as parallel tracks, plus
  runner-stage timing spans.
* :mod:`repro.obs.cycles` — exact cycle accounting: every simulated
  cycle attributed to one cause, with ``sum == total`` asserted.

The ``repro-trace`` CLI (:mod:`repro.obs.cli`) ties them together: run a
benchmark or the paper's worked example and emit a metrics snapshot and
a ``.trace.json`` that https://ui.perfetto.dev opens directly.  See
``docs/OBSERVABILITY.md``.
"""
