#!/usr/bin/env python3
"""Drive the whole pipeline from textual assembly.

Writes a small program in the library's assembly syntax, parses it,
optimises it with the classical passes, profiles it, runs the value-
speculation pass, and prints the dual-engine timeline for the worst-case
scenario — the end-to-end path a downstream user would follow for code
that does not come from the bundled workloads.

Run:  python examples/asm_pipeline.py
"""

from repro.compiler.config import standard_pipeline
from repro.compiler.manager import PassManager
from repro.core.machine_sim import trace_block
from repro.core.specsched import schedule_speculative
from repro.core.speculation import speculate_block
from repro.core.timeline import render_timeline
from repro.ir.asm import format_program_asm, parse_program
from repro.ir.liveness import compute_liveness
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.profile_run import profile_program
from repro.sched.list_scheduler import schedule_block
from repro.trace.capture import capture_trace

SOURCE = """
program checksum
; a table of mostly-stable configuration words
memory 1000: 7 7 7 7 7 7 7 9 7 7 7 7 7 7 7 7
memory 2000: 3 1 4 1 5 9 2 6 5 3 5 8 9 7 9 3

function main
entry:
    mov   r_i, #0
    mov   r_sum, #0
    br    loop
loop:
    and   r_k, r_i, #15
    add   r_cfg_addr, r_k, #1000
    load  r_cfg, [r_cfg_addr]      ; highly predictable (mostly 7)
    add   r_d_addr, r_i, #2000
    load  r_data, [r_d_addr]       ; digits of pi: unpredictable-ish
    mul   r_m, r_cfg, r_cfg        ; the cfg value heads a serial chain
    add   r_t, r_m, r_data
    mul   r_u, r_t, #3
    add   r_sum, r_u, r_sum
    add   r_o_addr, r_i, #3000
    store r_sum, [r_o_addr]
    add   r_i, r_i, #1
    cmplt r_c, r_i, #160
    brcond r_c, loop, done
done:
    halt
"""


def main() -> None:
    # The `optimize` frontend pass is fold + copyprop + dce to a fixpoint,
    # with the IR verified after each pass.
    manager = PassManager(standard_pipeline(optimize=True))
    program = manager.run_program_passes(parse_program(SOURCE))
    machine = PLAYDOH_4W

    print("parsed + optimised program:")
    print(format_program_asm(program))

    profile = profile_program(program, capture_trace(program))
    print("load predictability:")
    for op_id, stats in sorted(profile.values.loads.items()):
        print(f"  op{op_id}: stride={stats.stride_rate:.2f} fcm={stats.fcm_rate:.2f}")

    block = program.main.block("loop")
    original = schedule_block(block, machine)
    live_out = compute_liveness(program.main).live_out["loop"]
    spec = speculate_block(block, machine, profile.values, live_out=live_out)
    if spec is None:
        raise SystemExit("nothing profitable to predict")
    sched = schedule_speculative(spec, machine, original_length=original.length)
    print(f"\nschedule: {original.length} -> {sched.length} cycles "
          f"({spec.num_predictions} prediction(s))\n")

    run, log = trace_block(sched, {l: False for l in spec.ldpred_ids})
    print("worst-case timeline (every prediction wrong):")
    print(render_timeline(sched, run, log))


if __name__ == "__main__":
    main()
