#!/usr/bin/env python3
"""Bring your own workload: build, profile, speculate, inspect.

Shows the library as a downstream user would drive it on code of their
own — a polynomial-evaluation kernel over a coefficient table — rather
than on the bundled SPEC95 stand-ins:

1. author the IR with the fluent builder;
2. lay out memory so the coefficient load is value-predictable;
3. profile, run the speculation pass, and print the block before and
   after (forms, Synchronization bits, wait masks);
4. simulate the best/worst outcome scenarios.

Run:  python examples/custom_workload.py
"""

from repro.core.isa_ext import OpForm
from repro.core.machine_sim import simulate_best_case, simulate_worst_case
from repro.core.specsched import schedule_speculative
from repro.core.speculation import speculate_block
from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.liveness import compute_liveness
from repro.ir.printer import format_block
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.profile_run import profile_program
from repro.sched.list_scheduler import schedule_block

COEFFS = 10_000
XS = 20_000
OUT = 30_000
TRIPS = 200


def build_program():
    pb = ProgramBuilder("poly")
    fb = pb.function()
    fb.block("entry")
    fb.mov("r_i", 0)
    fb.br("horner")
    fb.block("horner")
    # The coefficient table cycles every 4 entries: highly predictable.
    fb.and_("r_ci", "r_i", 3)
    fb.add("r_c_addr", "r_ci", COEFFS)
    fb.load("r_c", "r_c_addr")
    # The evaluation point: fresh data each iteration.
    fb.add("r_x_addr", "r_i", XS)
    fb.load("r_x", "r_x_addr")
    # Horner step: acc = acc * x + c — the coefficient heads the chain.
    fb.mul("r_m", "r_c", "r_c")
    fb.add("r_t", "r_m", "r_x")
    fb.mul("r_acc", "r_t", 3)
    fb.add("r_o_addr", "r_i", OUT)
    fb.store("r_acc", "r_o_addr")
    fb.add("r_i", "r_i", 1)
    fb.cmplt("r_cond", "r_i", TRIPS)
    fb.brcond("r_cond", "horner", "exit")
    fb.block("exit")
    fb.halt()
    pb.add(fb.build())
    pb.memory(COEFFS, [5, 3, 8, 2])
    pb.memory(XS, [17 * k % 251 for k in range(TRIPS)])
    return pb.build()


def main() -> None:
    program = build_program()
    machine = PLAYDOH_4W

    profile = profile_program(program)
    print("Load predictability:")
    for op_id, stats in sorted(profile.values.loads.items()):
        print(f"  op{op_id}: stride {stats.stride_rate:.2f}, FCM {stats.fcm_rate:.2f}")

    block = program.main.block("horner")
    print("\nOriginal block:")
    print(format_block(block))
    original = schedule_block(block, machine)
    print(f"\nOriginal schedule ({original.length} cycles):")
    print(original)

    live_out = compute_liveness(program.main).live_out["horner"]
    spec = speculate_block(block, machine, profile.values, live_out=live_out)
    if spec is None:
        raise SystemExit("the pass found nothing profitable to predict")

    print("\nTransformed block (forms and Synchronization bits):")
    for op in spec.operations:
        info = spec.info[op.op_id]
        notes = [info.form.value]
        if info.sync_bit is not None:
            notes.append(f"sets bit {info.sync_bit}")
        if info.wait_bits:
            notes.append(f"waits on bits {sorted(info.wait_bits)}")
        print(f"  {op}   [{', '.join(notes)}]")

    sched = schedule_speculative(spec, machine, original_length=original.length)
    print(f"\nSpeculative schedule ({sched.length} cycles, "
          f"{sched.improvement} saved):")
    print(sched.schedule)

    best = simulate_best_case(sched)
    worst = simulate_worst_case(sched)
    print(f"\nall predictions correct : {best.effective_length} cycles, "
          f"{best.flushed} ops flushed")
    print(f"all predictions wrong   : {worst.effective_length} cycles, "
          f"{worst.executed} ops re-executed in parallel, "
          f"{worst.stall_cycles} stall cycles")


if __name__ == "__main__":
    main()
