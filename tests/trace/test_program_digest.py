"""``program_digest``: what the structural hash sees and what it ignores.

The digest keys every trace to its program, so it must be equal for
programs that run identically whatever their object graph, numbering or
dict order, differ whenever the run could differ (down to a number's
type and the sign of a zero), and not depend on the process's string
hash seed.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir.builder import ProgramBuilder
from repro.trace.format import program_digest
from repro.workloads.suite import load_benchmark

SRC = Path(__file__).resolve().parents[2] / "src"


def small_program(imm=3, memory=((100, 7), (101, 2.5)), registers=(("n", 4),)):
    pb = ProgramBuilder("small")
    fb = pb.function()
    fb.block("entry")
    fb.mov("base", 100)
    fb.br("loop")
    fb.block("loop")
    fb.load("x", "base")
    fb.add("x", "x", imm)
    fb.store("x", "base", offset=1)
    fb.sub("n", "n", 1)
    fb.cmpgt("c", "n", 0)
    fb.brcond("c", "loop", "done")
    fb.block("done")
    fb.halt()
    pb.add(fb.build())
    program = pb.build()
    for address, value in memory:
        program.poke(address, value)
    for name, value in registers:
        program.set_register(name, value)
    return program


class TestEqual:
    def test_pickle_round_trip(self):
        program = load_benchmark("li", scale=0.25)
        copy = pickle.loads(pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy is not program
        assert program_digest(copy) == program_digest(program)

    def test_op_numbering_is_ignored(self):
        renumbered = small_program()
        for block in renumbered.main:
            for op in block.operations:
                op.op_id += 1000
        assert program_digest(renumbered) == program_digest(small_program())

    def test_memory_image_insertion_order_is_ignored(self):
        words = [(address, address * 3) for address in range(200, 260)]
        forward = small_program(memory=words)
        backward = small_program(memory=list(reversed(words)))
        assert list(forward.initial_memory) != list(backward.initial_memory)
        assert program_digest(forward) == program_digest(backward)

    def test_register_insertion_order_is_ignored(self):
        regs = [("n", 4), ("m", 9)]
        assert program_digest(small_program(registers=regs)) == program_digest(
            small_program(registers=list(reversed(regs)))
        )


class TestDifferent:
    BASE = small_program()

    @pytest.mark.parametrize(
        "variant",
        [
            small_program(memory=((100, 7), (101, 2.5), (102, 0))),
            small_program(memory=((100, 7), (101, 2.25))),
            small_program(memory=((100, 7.0), (101, 2.5))),
            small_program(memory=((100, True), (101, 2.5))),
            small_program(registers=(("n", 5),)),
            small_program(registers=(("n", 4.0),)),
            small_program(registers=(("n", 4), ("m", 0))),
        ],
        ids=[
            "memory-word-added", "memory-value", "memory-int-vs-float",
            "memory-int-vs-bool", "register-value", "register-int-vs-float",
            "register-added",
        ],
    )
    def test_initial_state(self, variant):
        assert program_digest(variant) != program_digest(self.BASE)

    def test_immediate_type(self):
        digests = {program_digest(small_program(imm=v)) for v in (3, 3.0, True)}
        assert len(digests) == 3

    def test_signed_zero(self):
        assert program_digest(small_program(imm=0.0)) != program_digest(
            small_program(imm=-0.0)
        )
        assert program_digest(small_program(memory=((100, 0.0),))) != (
            program_digest(small_program(memory=((100, -0.0),)))
        )


def test_pinned_value():
    """The encoding is part of every trace payload's identity: a change
    to it (or to pickle's output for these types) must be deliberate,
    and go with a ``CODE_VERSION`` bump."""
    assert program_digest(small_program()) == (
        "79c4a07f03b5596c9155374ad6bce0b0460d8afc5450b88520ca169dde04c365"
    )


@pytest.mark.parametrize("name", ["li", "swim"])
def test_independent_of_the_hash_seed(name):
    code = (
        "from repro.trace.format import program_digest\n"
        "from repro.workloads.suite import load_benchmark\n"
        f"print(program_digest(load_benchmark({name!r}, scale=0.25)))\n"
    )
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.append(proc.stdout.strip())
    expected = program_digest(load_benchmark(name, scale=0.25))
    assert digests == [expected, expected]
