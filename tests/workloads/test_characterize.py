"""Tests for the workload characterisation module."""

import pytest

from repro.ir.opcodes import is_alu
from repro.profiling.interpreter import run_program
from repro.workloads.characterize import (
    OperationMix,
    WorkloadProfile,
    characterize,
    characterize_suite,
    operation_mix,
    render,
)
from repro.workloads.suite import BENCHMARKS, load_benchmark


class _MixCounter:
    """Interpreter observer classifying every executed operation."""

    def __init__(self) -> None:
        self.alu = self.memory = self.branch = self.loads = self.total = 0

    def block_entered(self, block) -> None:
        pass

    def operation_executed(self, op, inputs, result) -> None:
        self.total += 1
        if is_alu(op.opcode):
            self.alu += 1
        elif op.is_memory:
            self.memory += 1
            if op.is_load:
                self.loads += 1
        elif op.is_branch:
            self.branch += 1


@pytest.fixture(scope="module")
def profiles():
    return characterize_suite(scale=0.4)


class TestCharacterize:
    def test_suite_covered(self, profiles):
        assert len(profiles) == 8
        assert {p.name for p in profiles} == {
            "compress", "ijpeg", "li", "m88ksim", "vortex",
            "hydro2d", "swim", "tomcatv",
        }

    def test_shares_partition_unity(self, profiles):
        for p in profiles:
            assert p.alu_share + p.memory_share + p.branch_share == pytest.approx(1.0)

    def test_risc_envelope(self, profiles):
        """Op mixes sit in the classic envelope: ALU-dominated, memory
        second, branches under 15%."""
        for p in profiles:
            assert 0.5 <= p.alu_share <= 0.9
            assert 0.1 <= p.memory_share <= 0.4
            assert p.branch_share <= 0.15
            assert 0.0 < p.load_density <= p.memory_share

    def test_fp_codes_less_predictable_than_int(self, profiles):
        """The literature shape the suite must reproduce: FP data is far
        less value-predictable than integer data."""
        by_name = {p.name: p for p in profiles}
        fp_mean = (
            by_name["swim"].mean_best_rate + by_name["tomcatv"].mean_best_rate
        ) / 2
        int_mean = (
            by_name["compress"].mean_best_rate + by_name["vortex"].mean_best_rate
        ) / 2
        assert int_mean > fp_mean + 0.2

    def test_hot_blocks_have_real_chains(self, profiles):
        for p in profiles:
            assert p.hot_block_height >= 5.0

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_mix_from_block_counts_matches_an_interpreted_count(self, name):
        from repro.profiling.profile_run import profile_program
        from repro.trace.capture import capture_trace

        program = load_benchmark(name, scale=0.25)
        counter = _MixCounter()
        run_program(program, observers=[counter])
        profile = profile_program(program, capture_trace(program))
        assert operation_mix(program, profile.blocks) == OperationMix(
            total=counter.total,
            alu=counter.alu,
            memory=counter.memory,
            branch=counter.branch,
            loads=counter.loads,
        )

    def test_reuses_supplied_profile(self):
        from repro.profiling.profile_run import profile_program
        from repro.trace.capture import capture_trace

        program = load_benchmark("compress", scale=0.2)
        profile = profile_program(program, capture_trace(program))
        a = characterize(program, profile=profile)
        b = characterize(program)
        assert a == b

    def test_render(self, profiles):
        text = render(profiles)
        assert "workload" in text
        assert "compress" in text and "tomcatv" in text
