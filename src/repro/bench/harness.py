"""Identity and file helpers for ``BENCH_*.json`` timing artifacts.

The end-to-end benchmark (``e2ebench/series.py``) stamps each artifact
with the host and code it was measured on and writes it through
:func:`write_artifact`.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any, Dict, Mapping, Optional


def host_fingerprint() -> Dict[str, Any]:
    """Where a timing came from — enough to judge comparability."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def code_fingerprint() -> Dict[str, str]:
    """Code-side identity: runner CODE_VERSION + pipeline content hash."""
    from repro.compiler import standard_pipeline
    from repro.runner import CODE_VERSION

    return {
        "code_version": CODE_VERSION,
        "pipeline_fingerprint": standard_pipeline().fingerprint(),
    }


def artifact_stamp(artifact: Mapping[str, Any]) -> str:
    """Filesystem-safe stamp derived from the artifact's creation time."""
    created = str(artifact.get("created_utc", ""))
    return created.replace("-", "").replace(":", "").replace("T", "-").rstrip("Z")


def write_artifact(
    artifact: Mapping[str, Any], directory: Optional[Path] = None
) -> Path:
    """Write ``BENCH_<stamp>.json`` under ``directory`` (default: cwd)."""
    root = Path(directory) if directory is not None else Path.cwd()
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"BENCH_{artifact_stamp(artifact)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
