#!/usr/bin/env python3
"""Observability walkthrough: event log, typed traces, metrics, Perfetto.

Runs one scenario of the paper's worked example, reads typed trace
events and the metrics snapshot from the run's event log, shows how the
snapshot agrees with the simulator's own counters, and writes a Chrome
trace-event file for https://ui.perfetto.dev with the two engines side
by side — the visual version of Figure 3's parallel recovery.

Run:  python examples/trace_export.py [out.trace.json]
"""

import sys

from repro.evaluation.paper_example import run_example
from repro.obs.perfetto import block_run_events, chrome_trace, write_trace
from repro.obs.trace import CheckEvent, ExecuteEvent, FlushEvent
from repro.core.machine_sim import trace_block


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "example.trace.json"
    example = run_example()
    spec_schedule = example.spec_schedule
    l4, l7 = spec_schedule.spec.ldpred_ids

    # Run the r7-mispredict scenario and keep its event log.  The run's
    # metrics snapshot is folded from the same log.
    run, log = trace_block(spec_schedule, {l4: True, l7: False})
    snapshot = run.metrics

    print("Typed trace events (r7 mispredicted):")
    for event in log.events():
        if isinstance(event, (CheckEvent, FlushEvent, ExecuteEvent)):
            print(f"  cycle {event.cycle:>2}  {event}")

    print("\nMetrics snapshot (counters):")
    for key, value in sorted(snapshot.counters.items()):
        print(f"  {key:<32} {value}")
    print("\nMetrics snapshot (histograms):")
    for key, hist in sorted(snapshot.histograms.items()):
        print(f"  {key:<32} n={hist.count} mean={hist.mean:.2f} max={hist.max}")

    flush = snapshot.counter("cce.flush")
    reexec = snapshot.counter("cce.reexec")
    print(
        f"\nConsistency: cce.flush({flush}) + cce.reexec({reexec}) == "
        f"flushed({run.flushed}) + executed({run.executed}) -> "
        f"{flush + reexec == run.flushed + run.executed}"
    )

    events = block_run_events(spec_schedule, run, log, title="paper example")
    write_trace(out, chrome_trace(events))
    print(f"\nWrote {out} ({len(events)} trace events).")
    print("Open it at https://ui.perfetto.dev — the VLIW Engine's issue")
    print("slots and the Compensation Code Engine's pipeline appear as")
    print("parallel tracks, one microsecond per cycle.")


if __name__ == "__main__":
    main()
