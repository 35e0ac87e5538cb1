"""Tests for the workload characterisation module."""

import pytest

from repro.workloads.characterize import (
    WorkloadProfile,
    characterize,
    characterize_suite,
    render,
)
from repro.workloads.suite import load_benchmark


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
