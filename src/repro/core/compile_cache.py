"""Process-wide, identity-keyed sharing of compiler/simulation products.

Sweeps simulate the *same* program blocks under many machine/threshold
variants; most per-block products (dependence graphs, original
schedules, speculation transforms and the trial kit they read,
per-pattern dual-engine timings, baseline/squash recovery runs) depend
on far fewer inputs than a whole sweep point, so recomputing them per
point is the dominant sweep cost.
This module gives every :class:`~repro.ir.block.BasicBlock` (and every
:class:`~repro.ir.function.Function`, for whole-function analyses such
as liveness) a weakly keyed memo dictionary; domain modules
(:mod:`repro.core.speculation`, :mod:`repro.core.metrics`,
:mod:`repro.core.program_sim`, :mod:`repro.compiler.passes`) store their
products under explicit keys via :func:`cached`.

Rules of the game:

* every memo lives in the per-block dictionary, so memory is bounded by
  block lifetime — dropping the last program reference drops its memos;
* values may be keyed by ``id(obj)`` of a product **only** when the memo
  value holds a strong reference to ``obj`` (then the id cannot be
  reused while the entry exists);
* products that read the machine are keyed on its :func:`timing_key`,
  so they are built once for whichever machine asks first.  Every
  machine with another fingerprint is handed a shallow copy rebound to
  itself (``Schedule.rebound``, which shares the placements and the
  query results read so far, ``SpeculativeSchedule.schedule``,
  ``BaselineBlock.schedule``, which is the compilation's own
  speculative schedule), memoised per (shared product, fingerprint):
  a compilation references only its own machine, so its pickled bytes
  do not depend on which point compiled first.  Memos of
  runs *on* a product key on the shared product (:func:`origin`), so
  rebound copies hit them;
* a dual-engine run is simulated when a compilation first reads its
  pattern (:func:`pattern_run`), never ahead of time: selection proves
  a speculative schedule safe statically
  (:func:`repro.core.specsched.check_schedule`), not by simulating
  every outcome pattern;
* everything here is a *pure* memo — a product is byte-identical to
  what computing it afresh would give.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any, Callable, Dict, Hashable, Tuple
from weakref import WeakKeyDictionary

__all__ = [
    "baseline_block",
    "cached",
    "latency_fingerprint",
    "machine_fingerprint",
    "original_schedule",
    "origin",
    "pattern_run",
    "plain_schedule",
    "reset",
    "shared_analysis",
    "shared_ddg",
    "speculative_schedule",
    "stats",
    "timing_key",
]

#: block -> {key: product}.  Weak on the block: memos die with the IR.
_BLOCK_MEMOS: "WeakKeyDictionary[Any, Dict[Hashable, Any]]" = WeakKeyDictionary()

#: id(machine) -> (machine, fingerprint, timing key).  Keyed by identity
#: — machine descriptions hold unhashable mappings, so they cannot key a
#: regular (or weak-key) dict.  The entry pins the machine, so its id
#: cannot be reused while the entry lives; machines are tiny and few per
#: process, and :func:`reset` clears the pin.
_MACHINE_KEYS: Dict[int, Tuple[Any, str, str]] = {}

#: id(machine) -> (machine, latency key).  Same pinning discipline as
#: :data:`_MACHINE_KEYS`.
_LATENCY_FPS: Dict[int, Tuple[Any, Hashable]] = {}

_STATS: Counter = Counter()


def _machine_keys(machine) -> Tuple[Any, str, str]:
    entry = _MACHINE_KEYS.get(id(machine))
    if entry is None or entry[0] is not machine:
        entry = (machine, machine.fingerprint(), machine.spec().timing_key())
        _MACHINE_KEYS[id(machine)] = entry
    return entry


def machine_fingerprint(machine) -> str:
    """Memoised ``machine.fingerprint()``: the full spec, name and
    predictor included.  Here it only decides whether a shared product
    must be rebound (see module docstring)."""
    return _machine_keys(machine)[1]


def timing_key(machine) -> str:
    """Memoised ``machine.spec().timing_key()``: the spec without name
    and predictor (:meth:`repro.machine.spec.MachineSpec.timing_key`).

    Schedules, speculation selections, baseline compilations and every
    dual-engine, baseline and squash run depend on the machine only
    through this key — the predictor is run-time hardware that picks a
    block instance's correctness pattern, never what a pattern costs —
    so the explore grid's ``predictor.kind`` points share them all.
    """
    return _machine_keys(machine)[2]


def latency_fingerprint(machine) -> Hashable:
    """Hashable key of everything :meth:`MachineDescription.latency`
    reads: the per-opcode latency table plus ``check_compare_cost``
    (which enters CHKPRED's derived latency).

    Dependence graphs and critical-path analyses depend on the machine
    *only* through ``latency()`` — edge weights and heights never read
    issue width or functional-unit counts — so memos keyed on this share
    those products across resource variants (the explore grid's
    ``issue_width=2,4`` points build each block's DDG once, not once per
    width).
    """
    entry = _LATENCY_FPS.get(id(machine))
    if entry is None or entry[0] is not machine:
        key = (
            tuple(sorted((op.value, lat) for op, lat in machine.latencies.items())),
            machine.check_compare_cost,
        )
        entry = (machine, key)
        _LATENCY_FPS[id(machine)] = entry
    return entry[1]


def cached(block, key: Tuple, compute: Callable[[], Any]) -> Any:
    """Return the memoised product for ``(block, key)``.

    ``key`` must be a hashable tuple whose first element names the
    product kind (used for hit/miss stats).
    """
    try:
        memo = _BLOCK_MEMOS.get(block)
    except TypeError:  # block not weakref-able (exotic test double)
        return compute()
    if memo is None:
        memo = {}
        _BLOCK_MEMOS[block] = memo
    if key in memo:
        _STATS[f"{key[0]}.hit"] += 1
        return memo[key]
    _STATS[f"{key[0]}.miss"] += 1
    value = compute()
    memo[key] = value
    return value


# ---------------------------------------------------------------------------
# shared compiler/simulation products
#
# Convenience wrappers over :func:`cached` for the products several
# layers need (passes, speculation selection, program simulation).
# Imports are lazy to keep this module cycle-free at the bottom of the
# ``repro.core`` import graph.


def shared_ddg(block, machine):
    """The block's original dependence graph, shared across every
    machine with the same latency table (see :func:`latency_fingerprint`)."""
    from repro.ddg.builder import build_ddg

    lfp = latency_fingerprint(machine)
    return cached(block, ("ddg", lfp), lambda: build_ddg(block, machine))


def shared_analysis(block, graph, machine):
    """Critical-path analysis of a (memoised) graph, shared across
    latency-equal machines.

    Keyed on the graph's identity; the memo value pins the graph so the
    id stays valid while the entry lives.
    """
    from repro.ddg.critical_path import analyze

    lfp = latency_fingerprint(machine)
    entry = cached(
        block, ("ana", id(graph), lfp), lambda: (graph, analyze(graph, machine))
    )
    return entry[1]


def origin(block, product):
    """The shared product ``product`` was rebound from, or ``product``
    itself when it is not a rebound copy."""
    try:
        memo = _BLOCK_MEMOS.get(block)
    except TypeError:  # block not weakref-able (exotic test double)
        return product
    entry = memo.get(("origin", id(product))) if memo else None
    return product if entry is None else entry[1]


def _handed_out(block, product, built_for, machine, rebind):
    """``product`` as handed to ``machine``.

    A product built for a machine with the same fingerprint is returned
    as is; otherwise ``rebind(product, machine)`` makes a shallow copy
    pinned to ``machine``, memoised per (product, fingerprint) so every
    compilation for that fingerprint references the same copy.
    """
    fp = machine_fingerprint(machine)
    if machine_fingerprint(built_for) == fp:
        return product

    def compute():
        rebound = rebind(product, machine)
        _BLOCK_MEMOS[block][("origin", id(rebound))] = (rebound, product)
        return (product, rebound)

    return cached(block, ("rebind", id(product), fp), compute)[1]


def _rebind_spec_schedule(spec_schedule, machine):
    return dataclasses.replace(
        spec_schedule, schedule=spec_schedule.schedule.rebound(machine)
    )


def original_schedule(block, machine):
    """The block's original resource-constrained list schedule."""
    from repro.sched.list_scheduler import ListScheduler

    def compute():
        graph = shared_ddg(block, machine)
        analysis = shared_analysis(block, graph, machine)
        return ListScheduler(machine).schedule_graph(
            block.label, graph, analysis=analysis
        )

    schedule = cached(block, ("osched", timing_key(machine)), compute)
    return _handed_out(block, schedule, schedule.machine, machine, type(schedule).rebound)


def plain_schedule(spec, machine):
    """The plain list schedule of a transformed block, before any CCB
    order repair (keyed on the spec identity and the timing key).

    Selection reads it to reject a set whose schedule would need a
    repair without running the repair; :func:`speculative_schedule`
    starts from it.  The memo value pins ``spec``, so the ``id(spec)``
    in the key cannot be reused while the entry lives (see module
    docstring rules).
    """
    from repro.sched.list_scheduler import ListScheduler

    def compute():
        analysis = shared_analysis(spec.original, spec.graph, machine)
        return (
            spec,
            ListScheduler(machine).schedule_graph(
                spec.label, spec.graph, analysis=analysis
            ),
        )

    return cached(spec.original, ("psched", id(spec), timing_key(machine)), compute)[1]


def speculative_schedule(spec, machine, original_length):
    """List-schedule a transformed block (keyed on the spec identity),
    pinned to ``machine``.

    The memo value pins ``spec``, so the ``id(spec)`` in the key cannot
    be reused while the entry lives (see module docstring rules).
    """
    from repro.core.specsched import schedule_speculative

    def compute():
        analysis = shared_analysis(spec.original, spec.graph, machine)
        return (
            spec,
            schedule_speculative(
                spec,
                machine,
                original_length=original_length,
                analysis=analysis,
                schedule=plain_schedule(spec, machine),
            ),
        )

    key = ("sched", id(spec), timing_key(machine))
    shared = cached(spec.original, key, compute)[1]
    return _handed_out(
        spec.original,
        shared,
        shared.schedule.machine,
        machine,
        _rebind_spec_schedule,
    )


def baseline_block(spec_schedule, machine):
    """The statically-recovered baseline compilation of a scheduled
    transform, pinned to ``machine``.

    ``spec_schedule`` is the :func:`speculative_schedule` product handed
    to ``machine``, and the baseline's main schedule *is* that object for
    every machine fingerprint, so a compilation pickles it once.  The
    compensation blocks are built once per shared schedule.
    """
    from repro.core.baseline import build_baseline_block

    block = spec_schedule.spec.original
    shared = origin(block, spec_schedule)
    baseline = cached(
        block,
        ("base", id(shared)),
        lambda: (shared, build_baseline_block(shared, machine)),
    )[1]
    return _handed_out(
        block,
        baseline,
        shared.schedule.machine,
        machine,
        lambda product, _: dataclasses.replace(product, schedule=spec_schedule),
    )


def pattern_run(spec_schedule, pattern: Tuple[bool, ...]):
    """Dual-engine run of one correctness pattern, with its cycle stack
    and metrics snapshot (shared memo).

    A pattern is simulated the first time any compilation reads it, so
    only the patterns a trace reaches (and the best and worst cases the
    tables print) are ever run."""
    from repro.core.machine_sim import simulate_block

    block = spec_schedule.spec.original
    shared = origin(block, spec_schedule)
    ldpreds = shared.spec.ldpred_ids
    entry = cached(
        block,
        ("prun", id(shared), pattern),
        lambda: (shared, simulate_block(shared, dict(zip(ldpreds, pattern)))),
    )
    return entry[1]


def stats() -> Dict[str, int]:
    """Hit/miss counters per product kind (for bench diagnostics)."""
    return dict(_STATS)


def reset() -> None:
    """Drop every memo (bench iterations and test isolation)."""
    _BLOCK_MEMOS.clear()
    _MACHINE_KEYS.clear()
    _LATENCY_FPS.clear()
    _STATS.clear()
