"""Operation ids are a function of the program, never of process state.

Builders number a program's operations 1..N in emission order, the
unroller numbers its copies past its input's highest id, and the
speculation pass numbers LdPred/check ops from the program's id base.
So a build, the worked example and a compile come out the same whatever
else the process built or compiled before.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.compiler.manager import PassManager
from repro.core.speculation import SpeculationConfig
from repro.evaluation.paper_example import run_example
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.profiling.profile_run import profile_program
from repro.regions.unroll import unroll_program_loop
from repro.trace.capture import capture_trace
from repro.workloads.suite import benchmark_names, load_benchmark

SRC = Path(__file__).resolve().parents[1] / "src"


def _ids(program):
    return [op.op_id for function in program for block in function for op in block]


def _compile(name, machine, config=None):
    program = load_benchmark(name, scale=0.15)
    profile = profile_program(program, capture_trace(program))
    return PassManager().compile(program, machine, profile, spec_config=config)


class TestBuilds:
    def test_two_builds_of_a_benchmark_carry_equal_ids(self):
        for name in benchmark_names():
            first = _ids(load_benchmark(name, scale=0.1))
            load_benchmark("li", scale=0.1)  # another build in between
            second = _ids(load_benchmark(name, scale=0.1))
            assert first == second == list(range(1, len(first) + 1)), name

    def test_unrolled_copies_number_past_their_input(self):
        program = load_benchmark("swim", scale=0.1)
        label = next(
            b.label
            for b in program.main
            if b.terminator is not None and b.label in b.terminator.targets
        )
        first = unroll_program_loop(program, label, 2)
        second = unroll_program_loop(load_benchmark("swim", scale=0.1), label, 2)
        assert _ids(first) == _ids(second)
        assert len(set(_ids(first))) == len(_ids(first))
        fresh = set(_ids(first)) - set(_ids(program))
        assert fresh and min(fresh) == program.max_op_id() + 1


class TestWorkedExample:
    def test_loads_are_op4_and_op7_after_other_builds(self):
        for name in benchmark_names():
            load_benchmark(name, scale=0.1)
        example = run_example()
        assert str(example.load_r4).startswith("op4: load r4")
        assert str(example.load_r7).startswith("op7: load r7")


class TestCompile:
    def test_ldpred_and_check_ids_are_unique_and_above_the_program(self):
        compilation = _compile("li", PLAYDOH_8W)
        program_ids = set(_ids(compilation.program))
        inserted = []
        for label in compilation.speculated_labels:
            spec = compilation.block(label).spec_schedule.spec
            inserted += spec.ldpred_ids + list(spec.check_of.values())
        assert inserted, "li speculated nothing"
        assert len(set(inserted)) == len(inserted)
        assert min(inserted) > max(program_ids)

    def test_compile_after_other_points_pickles_as_in_a_fresh_process(self):
        _compile("hydro2d", PLAYDOH_8W)
        program = load_benchmark("li", scale=0.15)
        profile = profile_program(program, capture_trace(program))
        manager = PassManager()
        manager.compile(program, PLAYDOH_4W, profile)
        manager.compile(
            program, PLAYDOH_8W, profile, spec_config=SpeculationConfig(threshold=0.9)
        )
        compilation = manager.compile(program, PLAYDOH_8W, profile)
        assert compilation.speculated_labels
        here = hashlib.sha256(pickle.dumps(compilation)).hexdigest()

        code = (
            "import hashlib, pickle\n"
            "from tests.test_operation_ids import _compile\n"
            "from repro.machine.configs import PLAYDOH_8W\n"
            "compilation = _compile('li', PLAYDOH_8W)\n"
            "print(hashlib.sha256(pickle.dumps(compilation)).hexdigest())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(SRC.parent)])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split()[-1] == here
