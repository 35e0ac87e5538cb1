"""The timing-artifact helpers that ``e2ebench/series.py`` imports."""

import json

from repro.bench.harness import code_fingerprint, host_fingerprint, write_artifact


class TestArtifactIO:
    def test_write_load_roundtrip(self, tmp_path):
        artifact = {
            "created_utc": "2026-01-02T03:04:05Z",
            "workloads": {"paper_cold": {"wall_s": [0.7, 0.8]}},
            "host": host_fingerprint(),
            **code_fingerprint(),
        }
        path = write_artifact(artifact, tmp_path / "history")
        assert path == tmp_path / "history" / "BENCH_20260102-030405.json"
        text = path.read_text(encoding="utf-8")
        # Sorted keys and a trailing newline keep committed artifacts diffable.
        assert text == json.dumps(artifact, indent=2, sort_keys=True) + "\n"
        loaded = json.loads(text)
        assert loaded == artifact
        assert set(loaded["host"]) == {
            "python", "implementation", "platform", "machine", "cpu_count",
        }
        assert loaded["host"]["python"]
        assert loaded["code_version"]
        assert loaded["pipeline_fingerprint"]
