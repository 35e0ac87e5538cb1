"""Tests for the evaluation CLI's JSON output mode."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation.__main__ import main


class TestJsonOutput:
    def test_single_experiment_json(self, capsys):
        assert main(["table3", "--scale", "0.2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list)
        assert len(rows) == 8
        assert {"benchmark", "best_case_fraction", "worst_case_fraction"} <= set(
            rows[0]
        )

    def test_table2_json_fields(self, capsys):
        assert main(["table2", "--scale", "0.2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            assert 0.0 <= row["best_case_fraction"] <= 1.0
            assert 0.0 <= row["worst_case_fraction"] <= 1.0

    def test_example_has_no_json_form(self, capsys):
        assert main(["example", "--json"]) == 2

    def test_text_mode_unchanged(self, capsys):
        assert main(["table3", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "Table 3" in out


class TestRunnerFlags:
    def test_benchmarks_filter(self, capsys, tmp_path):
        assert (
            main(
                ["table2", "--scale", "0.2", "--json",
                 "--benchmarks", "swim,li", "--cache-dir", str(tmp_path)]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert [row["benchmark"] for row in rows] == ["swim", "li"]

    def test_unknown_benchmark_is_an_error(self, capsys, tmp_path):
        assert (
            main(["table2", "--benchmarks", "nosuch",
                  "--cache-dir", str(tmp_path)])
            == 2
        )
        assert "unknown benchmark" in capsys.readouterr().err

    def test_jobs_and_events_flags(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert (
            main(
                ["table3", "--scale", "0.2", "--json", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--events", str(events), "--benchmarks", "compress"]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        lines = [json.loads(l) for l in events.read_text().splitlines()]
        assert any(e["event"] == "job_finish" for e in lines)

    def test_no_cache_leaves_cache_dir_empty(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert (
            main(
                ["table3", "--scale", "0.2", "--json", "--no-cache",
                 "--cache-dir", str(cache), "--benchmarks", "compress"]
            )
            == 0
        )
        assert not cache.exists()

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert (
            main(["table3", "--scale", "0.2", "--json",
                  "--cache-dir", str(cache), "--benchmarks", "compress"])
            == 0
        )
        capsys.readouterr()
        # The run closed its store: one file, no write-ahead log beside it.
        (store,) = cache.iterdir()
        assert store.name == "v2.sqlite"
        full = store.stat().st_size
        assert main(["cache", "stats", "--cache-dir", str(cache), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        # build + trace + profile + compile.
        assert stats["entries"] == 4
        assert stats["by_stage"].get("trace") == 1
        assert stats["bytes_by_stage"].get("trace", 0) > 0
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "removed 4" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0
        assert list(cache.iterdir()) == [store]
        assert store.stat().st_size < full

    def test_a_store_that_is_not_a_database(self, capsys, tmp_path):
        """Cached commands name the file and the fix; ``cache clear``
        removes it with its write-ahead-log files."""
        from repro.compiler.__main__ import main as compiler_main
        from repro.explore.cli import main as explore_main

        cache = tmp_path / "cache"
        cache.mkdir()
        store = cache / "v2.sqlite"
        store.write_bytes(bytes(range(256)) * 20)
        run = ["table2", "--scale", "0.1", "--benchmarks", "li",
               "--cache-dir", str(cache)]
        for command, argv in (
            (main, run),
            (main, ["cache", "stats", "--cache-dir", str(cache)]),
            (explore_main, ["--axis", "issue_width=4", "--scale", "0.1",
                            "--benchmarks", "li", "--cache-dir", str(cache)]),
            (compiler_main, ["digest", "--scale", "0.1", "--benchmarks", "li",
                             "--cache-dir", str(cache)]),
        ):
            assert command(argv) == 1, argv
            err = capsys.readouterr().err.strip().splitlines()[-1]
            assert str(store) in err and "repro-eval cache clear" in err
        for suffix in ("-wal", "-shm"):
            (cache / f"v2.sqlite{suffix}").write_bytes(b"x")
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert list(cache.iterdir()) == []
        assert main(run) == 0
        assert list(cache.iterdir()) == [store]

    def test_unknown_cache_command(self, capsys, tmp_path):
        assert main(["cache", "bogus", "--cache-dir", str(tmp_path)]) == 2
        assert "unknown cache command" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--jobs", "2"], ["-j", "0"], ["--surrogate"], ["--bench", "x.json"]],
    )
    def test_removed_flags_are_usage_errors(self, flags, capsys, tmp_path):
        # ``--jobs 1`` still parses (see test_jobs_and_events_flags);
        # every other worker count, the surrogate and the timing
        # artifact are gone.
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--cache-dir", str(tmp_path)] + flags)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


def test_cli_imports_no_process_pool_machinery():
    """The serial runner keeps ``multiprocessing`` and
    ``concurrent.futures`` out of ``repro-eval``'s import graph."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import sys, repro.evaluation.__main__; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCpiFlag:
    def test_cpi_appends_table_in_text_mode(self, capsys, tmp_path):
        assert (
            main(
                ["table2", "--scale", "0.2", "--cpi",
                 "--benchmarks", "compress", "--cache-dir", str(tmp_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "CPI stacks (--cpi)" in out
        assert "compress@playdoh-4w" in out

    def test_cpi_json_appends_cpi_document(self, capsys, tmp_path):
        assert (
            main(
                ["table2", "--scale", "0.2", "--json", "--cpi",
                 "--benchmarks", "compress", "--cache-dir", str(tmp_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        decoder = json.JSONDecoder()
        rows, end = decoder.raw_decode(out)
        cpi, _ = decoder.raw_decode(out[end:].lstrip())
        assert [row["benchmark"] for row in rows] == ["compress"]
        stacks = cpi["cpi"]
        assert any(key.startswith("compress@") for key in stacks)
        for models in stacks.values():
            assert {"nopred", "proposed", "baseline"} <= set(models)
            for counts in models.values():
                assert sum(counts.values()) > 0

    def test_without_cpi_output_is_unchanged_and_stable(self, capsys, tmp_path):
        """The disabled path: table output must be byte-identical run to
        run and must not mention CPI stacks."""
        outputs = []
        for n in range(2):
            assert (
                main(
                    ["table2", "--scale", "0.2", "--benchmarks", "compress",
                     "--cache-dir", str(tmp_path / str(n))]
                )
                == 0
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "CPI" not in outputs[0]
