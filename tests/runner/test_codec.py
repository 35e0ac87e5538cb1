"""The cache's payload codec and the frozen slotted value classes.

CPython gives a ``@dataclass(frozen=True, slots=True)`` class a
generated ``__setstate__`` that calls ``dataclasses.fields()`` for every
object it unpickles.  Each such class in ``repro`` pickles by constructor
instead (``__reduce__``), which these tests hold for every class found,
so a new one is covered without being listed here first.  Payloads
written by the old codec must still decode, and a payload whose
constructor arguments no longer fit must be a cache miss.

A compile payload holds its build's program by reference
(:class:`~repro.runner.cache.ProgramRefs`), so it decodes only against
that program: its manifest names the build entry.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import importlib
import inspect
import io
import pickle
import pickletools
import pkgutil

import pytest

import repro
from repro.ddg.graph import DepEdge, DepKind
from repro.ir.opcodes import Opcode
from repro.ir.operation import Imm, Operation, Reg
from repro.runner.cache import DiskCache, ProgramRefs
from repro.sched.schedule import ScheduledOp, VLIWInstruction


def _frozen_slotted_classes():
    found = set()
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(module_info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
                and "__slots__" in cls.__dict__
            ):
                found.add(cls)
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


FROZEN_SLOTTED = _frozen_slotted_classes()

_LOAD = Operation(Opcode.LOAD, dest=Reg("r2"), srcs=(Reg("r1"),), offset=8, op_id=1)
_ADD = Operation(Opcode.ADD, dest=Reg("r3"), srcs=(Reg("r2"), Imm(-1)), op_id=2)
_PLACED = ScheduledOp(_LOAD, 3, 2)

#: One instance per class, every field away from any default.
SAMPLES = {
    Reg: Reg("f7"),
    Imm: Imm(2.5),
    DepEdge: DepEdge(4, 9, DepKind.MEM, 3),
    ScheduledOp: _PLACED,
    VLIWInstruction: VLIWInstruction(5, (ScheduledOp(_ADD, 5, 1), _PLACED)),
}


def _assert_same(back, sample) -> None:
    assert type(back) is type(sample)
    # Field by field: an Operation compares by identity, so a copy of a
    # class that holds one is never == the original.
    assert dataclasses.astuple(back) == dataclasses.astuple(sample)
    if not isinstance(sample, (ScheduledOp, VLIWInstruction)):
        assert back == sample
        assert hash(back) == hash(sample)


@pytest.fixture
def no_setstate(monkeypatch):
    """Make every generated per-object ``__setstate__`` raise."""

    def refuse(self, state):
        raise AssertionError(f"{type(self).__name__} decoded through __setstate__")

    for cls in FROZEN_SLOTTED:
        monkeypatch.setattr(cls, "__setstate__", refuse)


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    """A cache filled by ``repro-eval all --scale 0.1``."""
    from repro.evaluation.__main__ import main

    root = tmp_path_factory.mktemp("codec") / "cache"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["all", "--scale", "0.1", "--json", "--cache-dir", str(root)]) == 0
    cache = DiskCache(root=root)
    entries = {key: (manifest, payload) for key, manifest, payload in cache.entries()}
    cache.close()
    assert entries
    return cache, entries


@pytest.fixture(scope="module")
def build_programs(small_cache):
    """Compile entry key -> its build's program, decoded from the build
    entry its manifest names."""
    cache, entries = small_cache
    decoded = {}
    programs = {}
    for key, (manifest, _) in entries.items():
        program_key = manifest["program"]
        if program_key is None:
            continue
        if program_key not in decoded:
            decoded[program_key] = cache.decode(entries[program_key][1])
        programs[key] = decoded[program_key]
    assert programs
    return programs


@pytest.fixture(scope="module")
def payload_refs(small_cache, build_programs):
    """Entry key -> the references it was written with (``None`` for
    every stage but ``compile``)."""
    _, entries = small_cache
    tables = {}
    refs = {}
    for key in entries:
        program = build_programs.get(key)
        if program is not None and id(program) not in tables:
            tables[id(program)] = ProgramRefs(program)
        refs[key] = None if program is None else tables[id(program)]
    return refs


def test_every_class_has_a_sample():
    missing = [cls.__qualname__ for cls in FROZEN_SLOTTED if cls not in SAMPLES]
    assert not missing, f"add a sample of each to SAMPLES: {missing}"
    assert set(SAMPLES) <= set(FROZEN_SLOTTED)


@pytest.mark.parametrize("cls", FROZEN_SLOTTED, ids=lambda cls: cls.__qualname__)
class TestEveryFrozenSlottedClass:
    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_by_constructor(self, cls, protocol, no_setstate):
        sample = SAMPLES[cls]
        _assert_same(pickle.loads(pickle.dumps(sample, protocol=protocol)), sample)

    def test_deepcopy(self, cls):
        sample = SAMPLES[cls]
        _assert_same(copy.deepcopy(sample), sample)


def _referenced_names(payload: bytes) -> set:
    """Every string a pickle pushes, plus each ``GLOBAL``'s two halves:
    a class the payload instantiates is named among them."""
    names = set()
    for opcode, arg, _ in pickletools.genops(payload):
        if isinstance(arg, str):
            names.add(arg)
            if opcode.name == "GLOBAL":
                names.update(arg.split(" "))
    return names


def test_profile_and_compile_payloads_carry_no_final_state(small_cache):
    """The run's final registers and memory live in the trace payload
    only; a profile or a compilation (which embeds its profile) must not
    pickle a second copy."""
    _, entries = small_cache
    seen = {"profile": 0, "compile": 0}
    for key, (manifest, payload) in entries.items():
        stage = manifest["stage"]
        if stage not in seen:
            continue
        seen[stage] += 1
        names = _referenced_names(payload)
        assert "ProfileData" in names, key
        assert not names & {"ExecutionResult", "Memory"}, (stage, key)
    assert all(seen.values()), seen


def test_cached_payloads_decode_without_setstate(
    small_cache, payload_refs, no_setstate
):
    cache, entries = small_cache
    for key, (_, payload) in entries.items():
        cache.decode(payload, payload_refs[key])


class TestCompatibility:
    def test_payloads_of_the_old_codec_decode_to_equal_values(
        self, small_cache, payload_refs, monkeypatch
    ):
        cache, entries = small_cache
        refs = [payload_refs[key] for key in entries]
        current = [payload for _, payload in entries.values()]
        values = [
            cache.decode(payload, r) for payload, r in zip(current, refs)
        ]
        with monkeypatch.context() as old_codec:
            for cls in SAMPLES:
                old_codec.delattr(cls, "__reduce__")
            old = [cache.encode(value, r) for value, r in zip(values, refs)]
        assert old != current
        # Values holding Operations only compare by identity, so compare
        # what the current codec makes of each decoded value instead.
        for old_payload, payload, r in zip(old, current, refs):
            assert cache.encode(cache.decode(old_payload, r), r) == payload

    @pytest.mark.parametrize(
        "stale",
        [(Reg, ("r1", "r2")), (DepEdge, (4, 9, DepKind.MEM))],
        ids=["extra-argument", "missing-argument"],
    )
    def test_mismatched_constructor_arguments_are_a_miss(self, tmp_path, stale):
        class Stale:
            def __reduce__(self):
                return stale

        cache = DiskCache(root=tmp_path)
        key = "ab" * 32
        cache.put(key, [Stale()])
        assert cache.get(key) == (False, None)
        assert cache.misses == 1
        assert list(cache.entries()) == []


class TestCompilePayloadShape:
    """A compile payload holds one copy of what simulation reads: its
    build's program by reference, one main schedule per speculated block
    and no dependence graph."""

    @staticmethod
    def _speculated(compilation):
        return [comp for comp in compilation.blocks.values() if comp.speculated]

    def test_program_objects_decode_to_the_build_programs_own(
        self, small_cache, build_programs, payload_refs
    ):
        cache, entries = small_cache
        shared = minted = 0
        for key, program in build_programs.items():
            compilation = cache.decode(entries[key][1], payload_refs[key])
            assert compilation.program is program
            ops = {
                op.op_id: op
                for function in program
                for block in function
                for op in block.operations
            }
            for comp in self._speculated(compilation):
                spec_schedule = comp.spec_schedule
                spec = spec_schedule.spec
                assert spec.original is program.main.block(comp.label)
                placed = [p.operation for p in spec_schedule.schedule.operations]
                for op in spec.operations + placed:
                    if op.op_id in ops:
                        assert op is ops[op.op_id], (key, op)
                        shared += 1
                    else:
                        minted += 1
        assert shared and minted

    def test_baseline_schedule_is_the_speculative_schedule(
        self, small_cache, build_programs, payload_refs
    ):
        cache, entries = small_cache
        machines = set()
        for key in build_programs:
            compilation = cache.decode(entries[key][1], payload_refs[key])
            for comp in self._speculated(compilation):
                assert comp.baseline.schedule is comp.spec_schedule
                machines.add(compilation.machine.name)
        assert {"playdoh-4w", "playdoh-8w"} <= machines

    def test_a_rebound_schedule_stays_shared_through_the_cache(self, tmp_path):
        from repro.compiler.manager import PassManager
        from repro.core import compile_cache
        from repro.machine.configs import PLAYDOH_4W, PLAYDOH_4W_SPEC
        from repro.machine.spec import PredictorSpec
        from repro.profiling.profile_run import profile_program
        from repro.trace.capture import capture_trace
        from repro.workloads.suite import load_benchmark

        program = load_benchmark("li", scale=0.1)
        profile = profile_program(program, capture_trace(program))
        fcm = PLAYDOH_4W_SPEC.override(
            name="fcm-4w", predictor=PredictorSpec(kind="fcm")
        ).build()
        PassManager().compile(program, PLAYDOH_4W, profile)
        variant = PassManager().compile(program, fcm, profile)
        speculated = self._speculated(variant)
        assert speculated
        for comp in speculated:
            block = comp.spec_schedule.spec.original
            # A copy rebound from the playdoh-4w product, not the product.
            assert compile_cache.origin(block, comp.spec_schedule) is not (
                comp.spec_schedule
            )
            assert comp.baseline.schedule is comp.spec_schedule

        cache = DiskCache(root=tmp_path)
        refs = ProgramRefs(program)
        key = "cd" * 32
        cache.put(key, variant, refs=refs)
        hit, back = cache.get(key, refs)
        assert hit
        assert back.program is program
        for comp in self._speculated(back):
            assert comp.baseline.schedule is comp.spec_schedule
            assert comp.spec_schedule.schedule.machine.name == "fcm-4w"

    def test_no_compile_payload_pickles_a_dependence_graph(
        self, small_cache, build_programs
    ):
        _, entries = small_cache
        speculated = 0
        for key in build_programs:
            names = _referenced_names(entries[key][1])
            speculated += "SpeculativeBlock" in names
            assert not names & {"DepEdge", "DependenceGraph"}, key
        assert speculated

    def test_unresolvable_references_are_an_evicted_miss(
        self, small_cache, build_programs, tmp_path
    ):
        _, entries = small_cache

        def benchmark(key):
            return entries[key][0]["benchmark"]

        key, program = next(iter(build_programs.items()))
        other = next(
            p for k, p in build_programs.items() if benchmark(k) != benchmark(key)
        )
        manifest, payload = entries[key]
        value = DiskCache.decode(payload, ProgramRefs(program))

        def store_entry():
            store = DiskCache(root=tmp_path)
            store.put(key, value, manifest=manifest, refs=ProgramRefs(program))
            assert [p for _, _, p in store.entries()] == [payload]
            return store

        for refs in (ProgramRefs(other), None):
            store = store_entry()
            assert store.get(key, refs) == (False, None)
            assert store.misses == 1
            assert list(store.entries()) == []
        hit, value = store_entry().get(key, ProgramRefs(program))
        assert hit and value.program is program
