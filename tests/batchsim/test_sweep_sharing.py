"""One sweep sample does each shared analysis once.

A sweep sample is ``repro-explore`` drawing 24 points of a grid over
issue width, threshold, predictor kind and load latency: 8 benchmark
programs, each compiled and simulated once per point.  The profile and
every simulated predictor read their outcome columns from one
:class:`~repro.batchsim.context.BatchContext`, and every compile of a
program reads one liveness analysis.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

from repro.batchsim.context import BatchContext
from repro.compiler import passes
from repro.explore.cli import main

SWEEP = [
    "--json", "--no-cache", "--scale", "0.25", "--jobs", "1",
    "--random", "24", "--seed", "0",
    "--axis", "issue_width=2,4,6,8",
    "--axis", "threshold=0.5,0.65,0.8",
    "--axis", "predictor.kind=stride,fcm,hybrid,last-value,dfcm",
    "--axis", "latency.load=2,3,5",
]


def test_sweep_sample_walks_each_stream_once(capsys):
    walks = Counter()
    walk = BatchContext._walk

    def counting(self, arrays, pkey, label, op_id):
        walks[arrays.trace.program_name, pkey, label, op_id] += 1
        return walk(self, arrays, pkey, label, op_id)

    with mock.patch.object(BatchContext, "_walk", counting):
        assert main(SWEEP) == 0
    capsys.readouterr()
    assert walks and max(walks.values()) == 1, walks.most_common(3)
    kinds = Counter(pkey[0] for _, pkey, _, _ in walks)
    # The profile walks every load's stride and FCM stream; the stride,
    # FCM and hybrid points walk nothing more of those two components.
    assert kinds["stride"] == kinds["fcm"] and set(kinds) == {
        "stride", "fcm", "hybrid", "dfcm", "last-value"
    }


def test_sweep_sample_computes_liveness_once_per_program(capsys):
    with mock.patch.object(
        passes, "compute_liveness", wraps=passes.compute_liveness
    ) as liveness:
        assert main(SWEEP) == 0
    capsys.readouterr()
    assert liveness.call_count == 8
