"""Integration tests for the evaluation experiments.

A module-scoped, scaled-down :class:`Evaluation` (``conftest.py``)
keeps these fast while still running the full pipeline (profile ->
compile -> simulate) for every benchmark at both machine widths.  The
``test_paper_shape_*`` bounds are the paper's claims about who wins and
by about how much.
"""

import pytest

from repro.evaluation import baseline_cmp, figure8, table2, table3, table4
from repro.evaluation.experiment import (
    Evaluation,
    EvaluationSettings,
    arithmetic_mean,
    geometric_mean,
)
from repro.evaluation.report import experiment_names, full_report, run_experiment


class TestEvaluationCache:
    def test_profiles_cached(self, evaluation):
        a = evaluation.profile("compress")
        b = evaluation.profile("compress")
        assert a is b

    def test_compilations_cached_per_machine(self, evaluation):
        a = evaluation.compilation("compress", evaluation.machine_4w)
        b = evaluation.compilation("compress", evaluation.machine_4w)
        c = evaluation.compilation("compress", evaluation.machine_8w)
        assert a is b
        assert a is not c

    def test_runs_without_a_runner_touch_no_disk(self, tmp_path, monkeypatch):
        """An evaluation given no runner runs every stage in memory: the
        default cache directory stays empty."""
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        rows = table2.compute(Evaluation(EvaluationSettings(scale=0.1)))
        assert len(rows) == 8
        assert list(cache_dir.iterdir()) == []

    def test_threshold_setting(self):
        settings = EvaluationSettings().with_threshold(0.8)
        assert settings.spec_config.threshold == 0.8

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([1.0, 4.0]) == 2.0
        assert arithmetic_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])
        # An empty input must raise, not report 0.0 as if it were data.
        with pytest.raises(ValueError):
            geometric_mean([])


class TestTable2(object):
    def test_rows_cover_suite(self, evaluation):
        rows = table2.compute(evaluation)
        assert [r.benchmark for r in rows] == evaluation.benchmarks
        assert len(rows) == 8

    def test_fractions_are_fractions(self, evaluation):
        for row in table2.compute(evaluation):
            assert 0.0 <= row.best_case_fraction <= 1.0
            assert 0.0 <= row.worst_case_fraction <= 1.0

    def test_paper_shape_best_dominates_worst(self, evaluation):
        """All-correct time dwarfs all-incorrect time (paper's Table 2)."""
        rows = table2.compute(evaluation)
        best = arithmetic_mean([r.best_case_fraction for r in rows])
        worst = arithmetic_mean([r.worst_case_fraction for r in rows])
        # "on average the benchmarks spent half of the overall time in
        # blocks where all predictions were made correctly"
        assert 0.35 <= best <= 0.70
        # "account for a very small fraction of the overall execution time"
        assert worst <= 0.15
        assert best > 3 * worst

    def test_render(self, evaluation):
        text = table2.render(table2.compute(evaluation))
        assert "Table 2" in text and "compress" in text and "average" in text


class TestTable3:
    def test_paper_shape_best_case_improves(self, evaluation):
        """Roughly 20% average best-case reduction (paper's headline)."""
        rows = table3.compute(evaluation)
        assert len(rows) == 8
        mean_best = arithmetic_mean([r.best_case_fraction for r in rows])
        assert 0.70 <= mean_best <= 0.90
        for row in rows:
            assert row.best_case_fraction < 1.0

    def test_worst_case_bounded(self, evaluation):
        """Parallel compensation keeps even all-wrong blocks near the
        original length (far from the serial-recovery blowup)."""
        rows = table3.compute(evaluation)
        for row in rows:
            assert row.worst_case_fraction <= 1.5
            assert row.best_case_fraction <= row.worst_case_fraction
        assert arithmetic_mean([r.worst_case_fraction for r in rows]) <= 1.25

    def test_render(self, evaluation):
        text = table3.render(table3.compute(evaluation))
        assert "Table 3" in text and "tomcatv" in text


class TestTable4:
    def test_wider_machine_speculates_no_less(self, evaluation):
        rows = table4.compute(evaluation)
        assert len(rows) == 8
        total_4w = sum(r.predictions_4w for r in rows)
        total_8w = sum(r.predictions_8w for r in rows)
        assert total_8w >= total_4w

    def test_wider_machine_improves_no_less_on_average(self, evaluation):
        rows = table4.compute(evaluation)
        mean_4w = arithmetic_mean([r.length_fraction_4w for r in rows])
        mean_8w = arithmetic_mean([r.length_fraction_8w for r in rows])
        assert mean_8w < mean_4w
        # Most benchmarks, not all, gain from the width (the paper's figure).
        strictly_better = sum(
            1 for r in rows if r.length_fraction_8w < r.length_fraction_4w
        )
        assert strictly_better >= 3

    def test_render(self, evaluation):
        text = table4.render(table4.compute(evaluation))
        assert "Table 4" in text and "8w" in text


class TestFigure8:
    def test_percentages_sum_to_100(self, evaluation):
        rows = figure8.compute(evaluation)
        assert len(rows) == 8
        for row in rows:
            assert sum(row.percentages.values()) == pytest.approx(100.0)

    def test_most_blocks_improve_by_small_amounts(self, evaluation):
        """Paper: 'a large percentage of the blocks improve the schedule
        length by 1-4 cycles'."""
        rows = figure8.compute(evaluation)
        improved_small = arithmetic_mean(
            [r.percentages["improved 1-4"] + r.percentages["improved 5-8"] for r in rows]
        )
        assert improved_small > 30.0
        assert arithmetic_mean([r.percentages["improved 1-4"] for r in rows]) >= 25.0
        improved_any = arithmetic_mean(
            [
                r.percentages["improved 1-4"]
                + r.percentages["improved 5-8"]
                + r.percentages["improved >8"]
                for r in rows
            ]
        )
        assert improved_any >= 40.0

    def test_no_degradation_in_all_correct_case(self, evaluation):
        for row in figure8.compute(evaluation):
            assert row.percentages["degraded"] == 0.0

    def test_bucket_of(self):
        assert figure8.bucket_of(-3) == "degraded"
        assert figure8.bucket_of(0) == "unchanged"
        assert figure8.bucket_of(2) == "improved 1-4"
        assert figure8.bucket_of(7) == "improved 5-8"
        assert figure8.bucket_of(40) == "improved >8"

    def test_render(self, evaluation):
        text = figure8.render(figure8.compute(evaluation))
        assert "Figure 8" in text and "suite" in text


#: Why the paper's "negligible overhead" bounds fail at scale 0.4.
_OVERHEAD_REDEFINED = (
    "since commit 4d591b9 proposed_overhead_fraction is the full CPI-stack "
    "attributed overhead: mean proposed 0.0894 (0.0389 before), mean "
    "baseline 0.0967, so neither baseline > 1.5 x proposed nor proposed "
    "< 0.08 holds"
)


class TestBaselineComparison:
    def test_proposed_beats_baseline_everywhere(self, evaluation):
        rows = baseline_cmp.compute(evaluation)
        assert len(rows) == 8
        for row in rows:
            assert row.cycles_proposed <= row.cycles_baseline
            assert row.proposed_speedup >= row.baseline_speedup
            # Selective parallel recovery also beats restart-the-block squash.
            assert row.proposed_speedup >= row.squash_speedup

    def test_baseline_overhead_exceeds_proposed(self, evaluation):
        """The paper's claim: recovery overhead is significant for the
        static scheme, negligible for the proposed architecture."""
        rows = baseline_cmp.compute(evaluation)
        mean_baseline = arithmetic_mean([r.baseline_overhead_fraction for r in rows])
        mean_proposed = arithmetic_mean([r.proposed_overhead_fraction for r in rows])
        assert mean_baseline > mean_proposed

    @pytest.mark.xfail(strict=True, reason=_OVERHEAD_REDEFINED)
    def test_paper_shape_baseline_overhead_is_significant(self, evaluation):
        rows = baseline_cmp.compute(evaluation)
        mean_baseline = arithmetic_mean([r.baseline_overhead_fraction for r in rows])
        mean_proposed = arithmetic_mean([r.proposed_overhead_fraction for r in rows])
        assert mean_baseline > 1.5 * mean_proposed

    @pytest.mark.xfail(strict=True, reason=_OVERHEAD_REDEFINED)
    def test_paper_shape_proposed_overhead_is_negligible(self, evaluation):
        rows = baseline_cmp.compute(evaluation)
        assert arithmetic_mean([r.proposed_overhead_fraction for r in rows]) < 0.08

    def test_speedups_positive(self, evaluation):
        for row in baseline_cmp.compute(evaluation):
            assert row.proposed_speedup >= 1.0

    def test_render(self, evaluation):
        text = baseline_cmp.render(baseline_cmp.compute(evaluation))
        assert "Recovery comparison" in text


class TestReport:
    def test_experiment_registry(self):
        assert set(experiment_names()) == {
            "table2", "table3", "table4", "figure8", "baseline", "example",
            "regions",
        }

    def test_unknown_experiment(self, evaluation):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("table9", evaluation)

    def test_run_single(self, evaluation):
        assert "Table 2" in run_experiment("table2", evaluation)

    def test_full_report_contains_everything(self, evaluation):
        text = full_report(evaluation)
        for marker in ("Table 2", "Table 3", "Table 4", "Figure 8", "worked example"):
            assert marker in text


class TestCLI:
    def test_main_single_experiment(self, capsys):
        from repro.evaluation.__main__ import main

        code = main(["table3", "--scale", "0.15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_main_rejects_unknown(self, capsys):
        from repro.evaluation.__main__ import main

        assert main(["tableX", "--scale", "0.15"]) == 2
