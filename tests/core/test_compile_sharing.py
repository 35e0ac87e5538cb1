"""Compile and dual-engine products are shared across predictor variants.

The value predictor is run-time hardware: it picks which correctness
pattern a block instance takes, never what a pattern costs.  So every
per-block product that reads the machine is keyed on the machine's
*timing key* (its spec without ``name`` and ``predictor``), and each
compilation still references only its own machine.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.core import compile_cache, machine_sim
from repro.ir.opcodes import FUClass, Opcode
from repro.machine.configs import PLAYDOH_4W_SPEC
from repro.machine.predictor import PredictorSpec
from repro.machine.spec import MachineSpec
from repro.runner.cache import DiskCache

SRC = Path(__file__).resolve().parents[2] / "src"
SWEEP = ["--scale", "0.25", "--benchmarks", "li,compress"]
KINDS = "stride,fcm,hybrid,last-value,dfcm"


def _changed(spec: MachineSpec, name: str):
    """A value of field ``name`` that differs from ``spec``'s."""
    current = getattr(spec, name)
    if name == "name":
        return current + "-renamed"
    if name == "units":
        units = dict(current)
        units[FUClass.IALU] = units.get(FUClass.IALU, 0) + 1
        return units
    if name == "latencies":
        latencies = dict(current)
        latencies[Opcode.LOAD] = latencies.get(Opcode.LOAD, 1) + 1
        return latencies
    if name == "predictor":
        kind = "fcm" if current.kind != "fcm" else "stride"
        return dataclasses.replace(current, kind=kind)
    if name == "speculation":
        return {"threshold": 0.5}
    if name in ("ccb_capacity", "ovb_capacity"):
        return 16 if current is None else None
    return current + 1


class TestTimingKey:
    def test_every_field_but_name_and_predictor_enters_the_key(self):
        base = PLAYDOH_4W_SPEC
        for f in dataclasses.fields(MachineSpec):
            variant = dataclasses.replace(base, **{f.name: _changed(base, f.name)})
            assert variant.fingerprint() != base.fingerprint(), f.name
            same = variant.timing_key() == base.timing_key()
            assert same == (f.name in ("name", "predictor")), f.name

    def test_description_key_matches_its_spec(self):
        spec = PLAYDOH_4W_SPEC.override(predictor=PredictorSpec(kind="fcm"))
        assert compile_cache.timing_key(spec.build()) == spec.timing_key()
        assert compile_cache.timing_key(spec.build()) == compile_cache.timing_key(
            PLAYDOH_4W_SPEC.build()
        )


def _explore_counts(monkeypatch, kinds: str):
    from repro.batchsim.context import reset_shared_state
    from repro.explore.cli import main

    calls = []
    original = machine_sim.simulate_block

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    reset_shared_state()
    monkeypatch.setattr(machine_sim, "simulate_block", counting)
    argv = ["--json", "--no-cache", *SWEEP, "--axis", f"predictor.kind={kinds}"]
    assert main(argv) == 0
    monkeypatch.setattr(machine_sim, "simulate_block", original)
    stats = compile_cache.stats()
    misses = {
        kind: stats.get(f"{kind}.miss", 0)
        for kind in ("osched", "spec", "sched", "valid", "base")
    }
    return misses, len(calls)


def test_predictor_variants_compile_and_simulate_each_block_once(
    monkeypatch, capsys
):
    one = _explore_counts(monkeypatch, "hybrid")
    five = _explore_counts(monkeypatch, KINDS)
    capsys.readouterr()
    assert one[0]["osched"] > 0 and one[1] > 0
    assert five == one


def _fcm_compile_payloads(tmp_path: Path, kinds: str):
    cache = tmp_path / kinds.replace(",", "-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.explore", "--json", *SWEEP,
            "--axis", "issue_width=2,4",
            "--axis", f"predictor.kind={kinds}",
            "--axis", "threshold=0.5,0.8",
            "--cache-dir", str(cache),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        key: payload
        for key, meta, payload in DiskCache(cache).entries()
        if meta["stage"] == "compile" and "predictor.kind=fcm" in meta["machine"]
    }


def test_rebound_compile_payloads_do_not_depend_on_point_order(tmp_path):
    # With stride first, the fcm points are handed products built for the
    # stride machines, rebound to their own machine.
    shared = _fcm_compile_payloads(tmp_path, "stride,fcm")
    alone = _fcm_compile_payloads(tmp_path, "fcm")
    assert len(alone) == 8
    assert shared == alone


def test_rebound_copies_pin_their_own_machine_and_share_runs(
    straight_block, m4
):
    from repro.core.speculation import speculate_block
    from repro.profiling.value_profile import LoadValueStats, ValueProfile

    fcm = PLAYDOH_4W_SPEC.override(
        name="fcm-4w", predictor=PredictorSpec(kind="fcm")
    ).build()
    (load,) = [op for op in straight_block.operations if op.is_load]
    profile = ValueProfile({load.op_id: LoadValueStats(100, 100, 0)})
    spec = speculate_block(straight_block, m4, profile)
    assert spec is not None
    assert speculate_block(straight_block, fcm, profile) is spec

    length = compile_cache.original_schedule(straight_block, m4).length
    assert compile_cache.original_schedule(straight_block, fcm).machine is fcm
    own = compile_cache.speculative_schedule(spec, m4, length)
    rebound = compile_cache.speculative_schedule(spec, fcm, length)
    assert own.schedule.machine is m4 and rebound.schedule.machine is fcm
    assert rebound is compile_cache.speculative_schedule(spec, fcm, length)
    assert compile_cache.origin(straight_block, rebound) is own
    base = compile_cache.baseline_block(rebound, fcm)
    assert base.schedule is rebound
    assert base.schedule.schedule.machine is fcm
    assert compile_cache.baseline_block(own, m4).schedule is own

    pattern = (False,) * len(spec.ldpred_ids)
    run = compile_cache.pattern_run(own, pattern)
    assert compile_cache.pattern_run(rebound, pattern) is run
    assert sum(dict(run.cycle_stack).values()) == run.effective_length


def test_rebound_schedules_share_their_query_results(straight_block, m4):
    fcm = PLAYDOH_4W_SPEC.override(
        name="fcm-4w", predictor=PredictorSpec(kind="fcm")
    ).build()
    original = compile_cache.original_schedule(straight_block, m4)
    original.instructions(), original.operations
    rebound = compile_cache.original_schedule(straight_block, fcm)
    assert rebound is not original and rebound.machine is fcm
    assert rebound.instructions() is original.instructions()
    assert rebound.operations is original.operations
    assert rebound.length == original.length
    # The shared results are not pickled.
    assert "_instructions" not in pickle.loads(pickle.dumps(rebound)).__dict__
