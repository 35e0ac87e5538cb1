"""Tests for the region-size experiment module."""

import pytest

from repro.evaluation import regions_exp
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.evaluation.regions_exp import RegionRow, compute, render
from repro.runner import DiskCache, Runner


@pytest.fixture(scope="module")
def rows():
    # Restrict to two benchmarks (one serial-chain, one parallel) so the
    # test stays fast; full scale so trip counts divide the factors.
    settings = EvaluationSettings(scale=1.0, benchmarks=("li", "swim"))
    return compute(Evaluation(settings))


class TestRegionsExperiment:
    def test_rows_cover_requested_benchmarks(self, rows):
        assert [r.benchmark for r in rows] == ["li", "swim"]

    def test_baseline_fraction_is_1x(self, rows):
        for row in rows:
            assert row.baseline_fraction == row.fractions[1]
            assert 0 < row.baseline_fraction < 1

    def test_serial_chain_flagged(self, rows):
        by_name = {r.benchmark: r for r in rows}
        assert by_name["li"].serial_chain
        assert not by_name["swim"].serial_chain

    def test_unrolled_variants_validated(self, rows):
        # At scale 1.0 both benchmarks' hottest loops divide by 2.
        for row in rows:
            assert row.fractions.get(2) is not None

    def test_serial_chain_improves_with_region_size(self, rows):
        li = next(r for r in rows if r.benchmark == "li")
        assert li.fractions[2] < li.fractions[1]

    def test_render(self, rows):
        text = render(rows)
        assert "Region-size study" in text
        assert "serial" in text and "parallel" in text
        assert "li" in text

    def test_render_handles_missing_factors(self):
        row = RegionRow(
            benchmark="x",
            loop_label="l",
            serial_chain=False,
            fractions={1: 0.8, 2: None, 4: None},
        )
        text = render([row])
        assert "-" in text


class TestFullSuite:
    """The paper's superblock expectation across all eight programs."""

    @pytest.fixture(scope="class")
    def suite_rows(self):
        # Full scale, so every benchmark's hottest loop divides by 2.
        return compute(Evaluation(EvaluationSettings(scale=1.0)))

    def test_every_benchmark_keeps_the_2x_variant(self, suite_rows):
        assert len(suite_rows) == 8
        for row in suite_rows:
            assert row.fractions.get(2) is not None, row.benchmark

    def test_most_parallel_loops_dilute(self, suite_rows):
        """Unrolling an independent-iteration loop harvests its ILP
        before prediction can claim it; only li is a serial chain."""
        assert [r.benchmark for r in suite_rows if r.serial_chain] == ["li"]
        parallel = [r for r in suite_rows if not r.serial_chain]
        diluted = sum(1 for r in parallel if r.fractions[2] > r.fractions[1])
        assert diluted >= len(parallel) // 2


class TestRejectedVariants:
    """At scale 0.25 some trip counts do not divide the unroll factor:
    those variants end in a different state and must report ``None``."""

    @pytest.fixture(params=["runner", "no-runner"])
    def checked(self, request, tmp_path, monkeypatch):
        verdicts = []
        check = regions_exp._architecturally_equivalent

        def spy(base, variant):
            verdicts.append(check(base, variant))
            return verdicts[-1]

        monkeypatch.setattr(regions_exp, "_architecturally_equivalent", spy)
        settings = EvaluationSettings(scale=0.25, benchmarks=("li", "swim"))
        runner = None
        if request.param == "runner":
            runner = Runner(cache=DiskCache(tmp_path / "cache"))
        rows = compute(Evaluation(settings, runner=runner))
        return {r.benchmark: r for r in rows}, verdicts

    def test_li_keeps_2x_and_rejects_4x(self, checked):
        rows, _ = checked
        assert rows["li"].fractions[2] is not None
        assert rows["li"].fractions[4] is None

    def test_swim_rejects_both_factors(self, checked):
        rows, _ = checked
        assert rows["swim"].fractions[2] is None
        assert rows["swim"].fractions[4] is None

    def test_rejections_come_from_the_equivalence_check(self, checked):
        # li 2x passes; li 4x, swim 2x and swim 4x differ in final state.
        _, verdicts = checked
        assert verdicts == [True, False, False, False]

    def test_warm_rerun_reports_the_same_rows(self, tmp_path):
        settings = EvaluationSettings(scale=0.25, benchmarks=("li", "swim"))
        cache = tmp_path / "cache"
        cold_runner = Runner(cache=DiskCache(cache))
        cold = compute(Evaluation(settings, runner=cold_runner))
        warm_runner = Runner(cache=DiskCache(cache))
        warm = compute(Evaluation(settings, runner=warm_runner))
        assert warm == cold
        # The warm run reads every trace (and all else) back from disk.
        assert cold_runner.events.summary()["executed_by_stage"]["trace"] > 0
        assert warm_runner.events.summary()["executed"] == 0


class TestEquivalenceCheck:
    REGS = {"r1": 3, "r2__u1": 7}
    MEMORY = {0: 1, 8: 2}

    def test_identical_states_are_equivalent(self):
        state = (dict(self.REGS), dict(self.MEMORY))
        assert regions_exp._architecturally_equivalent(state, state)

    def test_renamed_registers_are_ignored(self):
        variant = ({"r1": 3, "r2__u1": 99, "r3__u2": 5}, dict(self.MEMORY))
        assert regions_exp._architecturally_equivalent(
            (dict(self.REGS), dict(self.MEMORY)), variant
        )

    def test_memory_difference_alone_is_not_equivalent(self):
        variant = (dict(self.REGS), {0: 1, 8: 3})
        assert not regions_exp._architecturally_equivalent(
            (dict(self.REGS), dict(self.MEMORY)), variant
        )

    def test_register_difference_is_not_equivalent(self):
        variant = ({"r1": 4, "r2__u1": 7}, dict(self.MEMORY))
        assert not regions_exp._architecturally_equivalent(
            (dict(self.REGS), dict(self.MEMORY)), variant
        )
