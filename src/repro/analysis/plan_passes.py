"""Plan certifier: translation validation for the compiled dataplane.

The compiled dataplane (DESIGN §13) lowers every execution-tree path to
a column program and runs whole chunks through NumPy kernels, with the
interpreter as per-lane fallback.  Everything downstream — hazard
demotion, scatter grouping — assumes the lowering preserved
the path's meaning.  This module is the static soundness net behind that
assumption (DESIGN §14): before anything executes, it re-derives what
each lowered program *should* compute from its source symbex path and
proves the two equivalent, then certifies the execution plan built on
top of the programs.

Checks, one stable code each (all error severity):

``MAE300``
    Lowering equivalence.  Each supported program is re-executed
    symbolically (:func:`repro.symbex.symkernel.interpret_program`) and
    its predicates, stateful steps, writes, and terminal action are
    proved equivalent to the source path's — structurally after
    zero-extension normalization, else via :mod:`repro.solver.eqsmt`
    under the path condition (counterexample search, then UNSAT proof;
    *unknown* is conservatively reported).  Every symbol a program
    consumes from the packet or the clock must be one its port binds.
``MAE301``
    Fallback-set soundness.  A supported program must use only
    ``LOWERED_OPS``; a demoted program's unlowered suffix must publish
    every aspect it can touch into the dirt descriptors, or the
    frozen-prefix hazard analysis would never see it.  Every lowered
    step must publish its aspects when its lane runs interpreted, and a
    key or cell that depends on an allocation's result (which an
    interpreted lane may pop differently) only as a wildcard, or as the
    chain's reach when it is that allocation's index.  An NF with a
    path op that may free a dchain index inside a chunk must not lower
    an allocation or narrow allocation dirt to reaches at all.
``MAE302``
    Conflict-pass completeness.  For every kernel step kind, a
    read/write interference lattice derived here (independently of the
    runtime) names the aspects an interpreter lane must not touch
    before the step's kernel lane; the *actual* conflict table is
    probed with a synthetic 2-lane chunk per (step, aspect) pair —
    wildcard and keyed — and must demote the kernel lane when the
    interpreter lane comes first, and only then.  Programs whose own
    bail must poison state are checked against their published
    wildcard set.
``MAE303``
    Retired (it certified the classification memo, which is gone); the
    code is never reused.
``MAE304``
    Plan/verdict consistency.  Kernel scatter writes must stay inside
    the source path's write footprint; under LOCKS/TM every vector
    scatter object must be lock-covered (rejuvenation is maintenance,
    matching the race sanitizer's excusal); a shared-nothing plan must
    carry no locks and must not contradict a LOCKS verdict.

Findings are anchored to the first ``ctx.<op>("<obj>", ...)`` call in
the NF source (same attribution the race sanitizer uses), so the
line-scoped ``# maestro: waive[MAE3xx]`` syntax applies.  Ports whose
paths cannot be compiled at all (paths that sweep different chains, so
the sweeping packets cannot be found from the trace) are recorded as
*uncompiled* — the runtime never builds kernels for them, so falling
back wholesale is sound, not a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.analysis.diagnostics import SCHEMA_VERSION, Diagnostic
from repro.analysis.passes import AnalysisPass, PassContext
from repro.analysis.race import _locate_access
from repro.analysis.source import NfSource, gather_sources
from repro.core.codegen import LockPlan, Strategy
from repro.core.report import StatefulReport, build_report
from repro.core.sharding import ConstraintsGenerator, ShardingSolution, Verdict
from repro.nf.api import NF
from repro.nf.state import key_hash
from repro.sim.compiled import (
    LOWERED_OPS,
    _alloc_exact,
    _compile_port,
    _Conflicts,
    _entry,
    _kernel_footprint,
    _ProgState,
    _qualify,
)
from repro.solver import eqsmt
from repro.symbex import expr as E
from repro.symbex.engine import explore_nf
from repro.symbex.lower import LowerError
from repro.symbex.symkernel import (
    SymKernelError,
    interpret_program,
    strip_zext,
)
from repro.symbex.tree import ActionKind, ExecutionTree

__all__ = [
    "CertifyReport",
    "PlanCertifyPass",
    "certify_nf",
    "prove_equiv",
]


# ------------------------------------------------------------------ #
# Interference / guard lattices — derived here from op semantics, on
# purpose NOT imported from repro.sim.compiled: the whole point is an
# independent re-derivation the runtime's tables are checked against.
# ------------------------------------------------------------------ #

#: Aspects that must demote a kernel lane whose step is of this kind
#: when an earlier interpreter lane touched them (RAW/WAR/WAW pairs):
#: map probes read map entries; map inserts conflict with interpreter
#: writes of the key (WAW order), reads of it (the read must not miss
#: the kernel's later insert), puts of the same value (the store's
#: value index keeps the last) and, on a map that may fill this chunk,
#: any change of its entry count (``map_n``, shard-wide); vector
#: writes conflict with both earlier writes and earlier reads;
#: timestamp scatters conflict with interpreter timestamp writes and
#: with allocation (a slot allocated mid-chunk invalidates the frozen
#: flag the lane classified on); flag reads conflict with allocation.
#: A kernel ``dchain_allocate`` pops in lane order among the chunk's
#: allocations on its chain, so an interpreter allocation there
#: (allocation dirt, keyed by the reach) reorders it, and an
#: interpreter flag read of the cell it takes would miss it.
_INTERFERENCE: dict[str, tuple[str, ...]] = {
    "map_get": ("map_w",),
    "map_put": ("map_w", "map_r", "map_v", "map_n"),
    "vector_borrow": ("vec_w",),
    "vector_put": ("vec_w", "vec_r"),
    "dchain_rejuvenate": ("ts_w", "alloc"),
    "dchain_is_allocated": ("alloc",),
    "dchain_allocate": ("alloc", "flag_r"),
}

#: Dirt a trace op's lane publishes when it runs interpreted: what the
#: op writes, plus the reads a kernel write must not be reordered
#: across (``None`` = hazard-free).  A lowered step publishes the same
#: aspects when its program bails or its lane is demoted.
_OP_ASPECTS: dict[str, tuple[str, ...] | None] = {
    "map_get": ("map_r",),
    "map_put": ("map_w", "map_v", "map_n"),
    "map_erase": ("map_w", "map_n"),
    "vector_put": ("vec_w",),
    "vector_fill": ("vec_w",),
    "vector_borrow": ("vec_r",),
    "dchain_allocate": ("alloc",),
    "dchain_rejuvenate": ("ts_w", "flag_r"),
    "dchain_is_allocated": ("flag_r",),
    "sketch_fetch": None,
    "sketch_touch": None,
}

_ALL_ASPECTS = (
    "map_w", "map_r", "map_v", "map_n", "vec_w", "vec_r", "ts_w", "flag_r",
    "alloc",
)

#: Aspects published only as shard-wide wildcards.
_WILD_ASPECTS = frozenset({"map_n"})

#: Aspects a step's lane publishes keyed by the step's value expression
#: rather than its key/index.
_VALUE_ASPECTS = frozenset({"map_v"})

#: Kernel ops allowed to scatter state writes.  Anything else writing
#: from inside a kernel has no single-writer/ordering argument.
_KERNEL_WRITE_OPS = frozenset({
    "vector_put", "dchain_rejuvenate", "map_put", "dchain_allocate",
})

#: Maintenance writes excused from lock coverage, mirroring the race
#: sanitizer's `_MAINTENANCE_OPS` (rejuvenation is idempotent bookkeeping).
_MAINTENANCE_OPS = frozenset({"dchain_rejuvenate"})


# ------------------------------------------------------------------ #
# Equivalence proving
# ------------------------------------------------------------------ #
def _as_expr(value) -> E.Expr:
    if isinstance(value, E.Expr):
        return value
    return E.Const(32, int(value))


def prove_equiv(a, b, assumptions=(), *, seed: int = 0) -> str:
    """Prove two expressions equal under the path condition.

    Returns ``"proved"`` (structurally identical after zero-extension
    normalization, or ``a != b`` refutation-closed UNSAT), ``"refuted"``
    (a concrete counterexample model exists), or ``"unknown"`` (the
    solver could decide neither way — callers treat this as a failure:
    certification must *prove*, not fail-to-disprove).
    """
    na = strip_zext(_as_expr(a))
    nb = strip_zext(_as_expr(b))
    if E.structurally_equal(na, nb):
        return "proved"
    literals = [strip_zext(c) for c in assumptions]
    literals.append(E.Ne(na, nb))
    if eqsmt.find_model(literals, seed=seed) is not None:
        return "refuted"
    if eqsmt.check(literals, seed=seed) is eqsmt.Result.UNSAT:
        return "proved"
    return "unknown"


# ------------------------------------------------------------------ #
# Findings (pre-location diagnostics)
# ------------------------------------------------------------------ #
@dataclass
class _Finding:
    code: str
    message: str
    obj: str | None = None
    op: str | None = None
    path_id: str | None = None


def _pid(prog) -> str:
    return f"port{prog.port}#{prog.pid}"


# ------------------------------------------------------------------ #
# MAE300 / MAE301: per-program translation validation
# ------------------------------------------------------------------ #
def _expected_binds(entry) -> tuple[str, ...]:
    """Result-symbol names the source entry introduces, by op semantics."""
    op = entry.op
    if op == "map_get":
        return (entry.result("found").name, entry.result("value").name)
    if op == "vector_borrow":
        return tuple(sym.name for _, sym in entry.results)
    if op == "dchain_is_allocated":
        return (entry.result("allocated").name,)
    if op == "dchain_allocate":
        return (entry.result("ok").name, entry.result("index").name)
    if op == "map_put":
        return (entry.result("ok").name,)
    return ()


def _check_write_cover(what, entries, descs, pid, findings) -> bool:
    """Every aspect of ``entries`` must appear among ``descs``."""
    covered = {(a, o) for a, o, *_ in descs}
    ok = True
    for e in entries:
        aspects = _OP_ASPECTS.get(e.op, _ALL_ASPECTS)
        if aspects is None:
            continue
        for aspect in aspects:
            if (aspect, e.obj) not in covered:
                findings.append(_Finding(
                    "MAE301",
                    f"{what} unlowered {e.op}({e.obj!r}) is missing its "
                    f"{aspect!r} dirt descriptor — the frozen-prefix "
                    "hazard analysis would never see this access",
                    obj=e.obj, op=e.op, path_id=pid,
                ))
                ok = False
    return ok


def _check_publish(prog, outcome, findings) -> bool:
    """Each lowered step publishes its aspects, and a key, cell or value
    derived from an allocation's result only as a wildcard (or as the
    reach of the allocation whose index it is): a lane that runs
    interpreted may pop another cell than its kernel rank predicted."""
    pid = _pid(prog)
    pubs = {}
    for si, aspect, obj, src in prog.pubs:
        pubs[(si, aspect)] = src
    tainted: set[str] = set()
    chains: dict[str, str] = {}
    ok = True
    for i, step in enumerate(outcome.steps):
        if step.op == "dchain_allocate":
            chains[step.binds[1]] = step.obj
        for aspect in _OP_ASPECTS.get(step.op) or ():
            where = f"lowered step {i} ({step.op} on {step.obj!r})"
            if (i, aspect) not in pubs:
                findings.append(_Finding(
                    "MAE301",
                    f"{where} publishes no {aspect!r} dirt when its lane "
                    "runs interpreted",
                    obj=step.obj, op=step.op, path_id=pid,
                ))
                ok = False
                continue
            src = pubs[(i, aspect)]
            if step.op == "dchain_allocate":
                exprs = ()
                allowed = {None, ("reach", step.obj)}
            else:
                exprs = (
                    tuple(e for _, e in step.stored)
                    if aspect in _VALUE_ASPECTS else step.key
                )
                allowed = {None}
                if len(exprs) == 1 and isinstance(exprs[0], E.Sym) \
                        and exprs[0].name in chains:
                    allowed.add(("reach", chains[exprs[0].name]))
            if aspect in _WILD_ASPECTS:
                exprs = ()
                allowed = {None}
            derived = (
                aspect in _WILD_ASPECTS or step.op == "dchain_allocate"
                or any(
                    s.name in tainted
                    for e in exprs for s in E.free_symbols(e)
                )
            )
            if derived and src not in allowed:
                findings.append(_Finding(
                    "MAE301",
                    f"{where} publishes {aspect!r} dirt as {src!r}, but "
                    "its value derives from an allocation result: an "
                    "interpreted lane may pop another cell",
                    obj=step.obj, op=step.op, path_id=pid,
                ))
                ok = False
        inputs = step.key + tuple(e for _, e in step.stored)
        if step.op == "dchain_allocate" or any(
            s.name in tainted for e in inputs for s in E.free_symbols(e)
        ):
            tainted.update(step.binds)
    return ok


def _certify_program(prog, findings: list[_Finding], seed: int) -> bool:
    """MAE300/MAE301 for one path program; True when fully proved."""
    pid = _pid(prog)
    path = prog.source_path
    if path is None:
        findings.append(_Finding(
            "MAE300",
            "path program carries no source-path provenance; its lowering "
            "cannot be validated",
            path_id=pid,
        ))
        return False
    entries = [e for e in path.trace if e.op != "expire"]

    if not prog.supported:
        # The lowerable prefix must still be a well-formed symbolic
        # computation (it narrows lanes for hazard attribution) ...
        ok = True
        try:
            outcome = interpret_program(prog)
        except SymKernelError as exc:
            findings.append(_Finding(
                "MAE300", f"demoted program's prefix is malformed: {exc}",
                path_id=pid,
            ))
            ok = False
        else:
            ok &= _check_publish(prog, outcome, findings)
        # ... and the unlowered suffix's accesses must all be published
        # to the hazard board, else the fallback set is unsound (MAE301).
        stop = prog.stop if prog.stop is not None else len(prog.steps)
        ok &= _check_write_cover(
            "demoted path's", entries[stop:],
            list(prog.dirt_descs) + list(prog.wild), pid, findings,
        )
        return ok

    rogue = sorted({e.op for e in entries if e.op not in LOWERED_OPS})
    if rogue:
        findings.append(_Finding(
            "MAE301",
            f"path uses op(s) outside LOWERED_OPS ({', '.join(rogue)}) "
            "but was not demoted to the interpreter",
            obj=entries[0].obj if entries else None,
            op=rogue[0], path_id=pid,
        ))
        return False

    try:
        outcome = interpret_program(prog)
    except SymKernelError as exc:
        findings.append(_Finding(
            "MAE300", f"lowered program is malformed: {exc}", path_id=pid,
        ))
        return False

    ok = _check_publish(prog, outcome, findings)
    return _check_equivalence(
        prog, outcome, path, entries, findings, seed
    ) and ok


def _certify_narrowing(tree, pps, findings: list[_Finding]) -> None:
    """MAE301: reach-keyed allocation dirt and allocation lowering (lane
    order ranks into the free stack) assume no index is freed inside a
    chunk, so an NF with a path op that may free one must use neither.

    The ops ``_OP_ASPECTS`` models are the ``NfContext`` state API, and
    none of them frees an index; expiry does, but only on a packet that
    runs alone in its own chunk.  Any other op could free a cell
    mid-chunk and push it above the reach.
    """
    frees = sorted({
        e.op for path in tree.paths() for e in path.trace
        if e.op != "expire" and e.op not in _OP_ASPECTS
    })
    if not frees:
        return
    for pp in pps:
        for prog in pp.programs:
            if any(s.sig[0] == "dchain_allocate" for s in prog.steps) or any(
                isinstance(key, str) for _, _, key in prog.dirt_descs
            ) or any(type(src) is tuple for *_, src in prog.pubs):
                findings.append(_Finding(
                    "MAE301",
                    f"path op(s) {', '.join(frees)} may free a dchain "
                    "index inside a chunk, but this program still narrows "
                    "allocation (reach-keyed dirt or a lowered "
                    "dchain_allocate)",
                    path_id=_pid(prog),
                ))


def _check_equivalence(
    prog, outcome, path, entries, findings: list[_Finding], seed: int
) -> bool:
    pid = _pid(prog)
    ok = True

    def bad(message, obj=None, op=None):
        nonlocal ok
        ok = False
        findings.append(_Finding("MAE300", message, obj=obj, op=op,
                                 path_id=pid))

    # Path condition: assumptions every sub-proof runs under.
    source_cs = [strip_zext(c) for c in path.constraints]

    # Predicates: same count, pairwise equivalent, in order (the
    # classifier evaluates them in program order; reordering predicates
    # across stateful steps would change which state reads they see).
    if len(outcome.constraints) != len(source_cs):
        bad(
            f"predicate count differs: lowered {len(outcome.constraints)} "
            f"vs source {len(source_cs)}"
        )
    else:
        for i, (lc, sc) in enumerate(zip(outcome.constraints, source_cs)):
            verdict = prove_equiv(lc, sc, source_cs[:i], seed=seed)
            if verdict != "proved":
                bad(
                    f"predicate {i} not equivalent to the source path's "
                    f"({verdict}): lowered {lc!r} vs source {sc!r}"
                )

    # Stateful steps: sequence, ops, objects, key/index expressions,
    # result bindings, stored values.
    if len(outcome.steps) != len(entries):
        bad(
            f"step count differs: lowered {len(outcome.steps)} vs "
            f"source {len(entries)} stateful entries"
        )
        return False
    for i, (step, entry) in enumerate(zip(outcome.steps, entries)):
        where = f"step {i} ({entry.op} on {entry.obj!r})"
        if step.op != entry.op or step.obj != entry.obj:
            bad(
                f"{where}: lowered as {step.op} on {step.obj!r}",
                obj=entry.obj, op=entry.op,
            )
            continue
        src_keys = tuple(entry.key or ())
        if len(step.key) != len(src_keys):
            bad(
                f"{where}: key arity {len(step.key)} vs {len(src_keys)}",
                obj=entry.obj, op=entry.op,
            )
            continue
        for j, (lk, sk) in enumerate(zip(step.key, src_keys)):
            verdict = prove_equiv(lk, sk, source_cs, seed=seed)
            if verdict != "proved":
                bad(
                    f"{where}: key component {j} not equivalent "
                    f"({verdict}): lowered {lk!r} vs source {sk!r}",
                    obj=entry.obj, op=entry.op,
                )
        expected = _expected_binds(entry)
        if step.binds != expected:
            bad(
                f"{where}: binds {step.binds} instead of the source "
                f"result symbols {expected}",
                obj=entry.obj, op=entry.op,
            )
        if entry.op in ("vector_put", "map_put"):
            src_stored = tuple(entry.stored or ())
            if tuple(f for f, _ in step.stored) != tuple(
                f for f, _ in src_stored
            ):
                bad(
                    f"{where}: stored fields "
                    f"{[f for f, _ in step.stored]} vs source "
                    f"{[f for f, _ in src_stored]}",
                    obj=entry.obj, op=entry.op,
                )
            else:
                for (fname, le), (_, se) in zip(step.stored, src_stored):
                    verdict = prove_equiv(le, se, source_cs, seed=seed)
                    if verdict != "proved":
                        bad(
                            f"{where}: stored field {fname!r} not "
                            f"equivalent ({verdict}): lowered {le!r} vs "
                            f"source {se!r}",
                            obj=entry.obj, op=entry.op,
                        )

    # Terminal action: kind, port, header rewrites.
    act = path.action
    if outcome.kind is not act.kind:
        bad(f"action kind {outcome.kind} vs source {act.kind}")
    elif act.kind is ActionKind.FORWARD:
        src_port = act.port
        if isinstance(outcome.port, E.Expr) or isinstance(src_port, E.Expr):
            verdict = prove_equiv(
                _as_expr(outcome.port), _as_expr(src_port), source_cs,
                seed=seed,
            )
            if verdict != "proved":
                bad(
                    f"forward port not equivalent ({verdict}): lowered "
                    f"{outcome.port!r} vs source {src_port!r}"
                )
        elif int(outcome.port) != int(
            src_port.value if isinstance(src_port, E.Const) else src_port
        ):
            bad(
                f"forward port {outcome.port} vs source {src_port}"
            )
    src_mods = tuple(act.mods or ())
    if tuple(f for f, _ in outcome.mods) != tuple(f for f, _ in src_mods):
        bad(
            f"header rewrites {[f for f, _ in outcome.mods]} vs source "
            f"{[f for f, _ in src_mods]}"
        )
    else:
        for (fname, le), (_, se) in zip(outcome.mods, src_mods):
            verdict = prove_equiv(le, se, source_cs, seed=seed)
            if verdict != "proved":
                bad(
                    f"header rewrite {fname!r} not equivalent "
                    f"({verdict}): lowered {le!r} vs source {se!r}"
                )
    return ok


# ------------------------------------------------------------------ #
# MAE302: conflict-pass completeness (probes the real runtime)
# ------------------------------------------------------------------ #
def _probe_state(prog) -> _ProgState:
    """A synthetic one-lane chunk state sitting on ``prog``.

    Artifacts cover every field a kernel lane's footprint reads: an
    all-zero key and value on shard 0 and cell 0 per step, a *stale*
    allocation flag (allocation only flips free→allocated, so a lane
    that classified on a free slot is exactly the lane an allocation
    invalidates), and a successful allocation of cell 0 whose outcome
    other lanes can change.
    """
    shards = np.zeros(1, dtype=np.int64)
    ps = _ProgState(prog, shards)
    ps.kmask = np.ones(1, dtype=bool)
    cells = np.zeros(1, dtype=np.int64)
    ps.arts = [
        {
            "kcols": [cells] * len(getattr(step, "keys", ())),
            "vals": cells,
            "cells": cells,
            "q": _qualify(cells, shards, 1),
            "flags": np.zeros(1, dtype=bool),
            "free": np.ones(1, dtype=bool),
            "ok": np.ones(1, dtype=bool),
            "exposed": np.ones(1, dtype=bool),
        }
        for step in prog.steps
    ]
    return ps


def _probe_keys(aspect: str, step) -> list[tuple[str, object]]:
    """Wildcard and keyed footprints of one interpreter lane that meet
    the probe lane: its shard, and its shard-qualified key, value or
    cell."""
    if aspect in _WILD_ASPECTS:
        return [("wildcard", None)]
    zero = np.zeros(1, dtype=np.int64)
    if aspect == "map_v":
        keyed = key_hash(zero, [zero])
    elif aspect.startswith("map_"):
        keyed = key_hash(zero, [zero] * len(step.keys))
    else:
        keyed = zero
    return [("wildcard", None), ("keyed", keyed)]


def _demotes(prog, touched, lane: int) -> bool:
    """Whether an interpreter lane at chunk position ``lane`` touching
    the ``(aspect, obj, keys)`` of ``touched`` sends the probe kernel
    lane, at position 1, to the interpreter."""
    table = _Conflicts(1)
    at = (np.ones(1, dtype=bool), np.array([lane]), np.zeros(1, np.int64))
    for aspect, obj, keys in touched:
        table.add(aspect, obj, partial(_entry, *at, keys),
                  None if keys is None else False)
    _kernel_footprint(table, _probe_state(prog), np.ones(1, dtype=np.int64))
    return any((d == 1).any() for d in table.demoted())


def _certify_demotion(pp, findings: list[_Finding]) -> None:
    for prog in pp.programs:
        if not prog.supported:
            continue
        pid = _pid(prog)
        everything = [
            (aspect, step.obj, None)
            for step in prog.steps for aspect in _ALL_ASPECTS
        ]
        if everything and not _demotes(prog, everything, 0):
            findings.append(_Finding(
                "MAE302",
                "an earlier interpreter lane touching everything failed to "
                "demote this program's kernel lane",
                path_id=pid,
            ))
        for step in prog.steps:
            op = step.sig[0]
            aspects = _INTERFERENCE.get(op)
            if aspects is None:
                findings.append(_Finding(
                    "MAE302",
                    f"kernel step {op!r} has no entry in the interference "
                    "lattice — its conflicts cannot be certified",
                    obj=step.obj, op=op, path_id=pid,
                ))
                continue
            for aspect in aspects:
                for flavor, keys in _probe_keys(aspect, step):
                    touched = [(aspect, step.obj, keys)]
                    if not _demotes(prog, touched, 0):
                        findings.append(_Finding(
                            "MAE302",
                            f"{op}({step.obj!r}) kernel lane survives an "
                            f"earlier lane's {flavor} {aspect!r} on "
                            f"{step.obj!r} — the conflict pass would miss "
                            "this RAW/WAR/WAW pair",
                            obj=step.obj, op=op, path_id=pid,
                        ))
                    if _demotes(prog, touched, 2):
                        findings.append(_Finding(
                            "MAE302",
                            f"{op}({step.obj!r}) kernel lane is demoted by "
                            f"a later lane's {flavor} {aspect!r} on "
                            f"{step.obj!r} — a later lane sees the kernel "
                            "writes, as in the reference",
                            obj=step.obj, op=op, path_id=pid,
                        ))
            for aspect in _OP_ASPECTS.get(op) or ():
                if (aspect, step.obj) not in prog.wild:
                    findings.append(_Finding(
                        "MAE302",
                        f"program bail would not publish {aspect!r} dirt "
                        f"for {op}({step.obj!r}); sibling kernel lanes "
                        "could keep stale reads",
                        obj=step.obj, op=op, path_id=pid,
                    ))


# ------------------------------------------------------------------ #
# MAE300: port bindings
# ------------------------------------------------------------------ #
def _certify_bindings(pp, findings: list[_Finding]) -> None:
    """Every packet field and the clock a program consumes must be bound
    by its port, or the classifier would evaluate it unbound."""
    for prog in pp.programs:
        missing = sorted(
            n for n in prog.used
            if n.startswith("pkt.") and n not in pp.fields
        )
        if missing:
            findings.append(_Finding(
                "MAE300",
                f"program consumes packet field(s) {', '.join(missing)} "
                "but the port does not bind them",
                path_id=_pid(prog),
            ))
        if "time" in prog.used and not pp.need_time:
            findings.append(_Finding(
                "MAE300",
                "program consumes virtual time but the port does not "
                "bind it",
                path_id=_pid(prog),
            ))


# ------------------------------------------------------------------ #
# MAE304: plan/verdict consistency
# ------------------------------------------------------------------ #
def _certify_plan(
    pp,
    solution: ShardingSolution | None,
    lock_plan: LockPlan | None,
    strategy: Strategy,
    findings: list[_Finding],
) -> None:
    if (
        solution is not None
        and solution.verdict is Verdict.LOCKS
        and strategy is Strategy.SHARED_NOTHING
    ):
        findings.append(_Finding(
            "MAE304",
            "shared-nothing execution plan contradicts the LOCKS verdict "
            "— per-path footprints require coordination",
        ))
    if (
        strategy is Strategy.SHARED_NOTHING
        and lock_plan is not None
        and lock_plan.locked
    ):
        findings.append(_Finding(
            "MAE304",
            "shared-nothing plan carries locks "
            f"({', '.join(sorted(lock_plan.locked))}) — the kernels' "
            "scatter grouping assumes per-shard domains",
        ))
    for prog in pp.programs:
        if not prog.supported or prog.source_path is None:
            continue
        pid = _pid(prog)
        src_writes = {
            e.obj for e in prog.source_path.trace
            if e.write and e.op != "expire"
        }
        for step in prog.steps:
            op = step.sig[0]
            if op not in _KERNEL_WRITE_OPS:
                continue
            if step.obj not in src_writes:
                findings.append(_Finding(
                    "MAE304",
                    f"kernel scatter {op}({step.obj!r}) writes an object "
                    "outside the source path's write footprint",
                    obj=step.obj, op=op, path_id=pid,
                ))
            if (
                strategy in (Strategy.LOCKS, Strategy.TM)
                and op not in _MAINTENANCE_OPS
                and lock_plan is not None
                and not lock_plan.covers(step.obj)
            ):
                findings.append(_Finding(
                    "MAE304",
                    f"kernel scatter {op}({step.obj!r}) is not covered "
                    f"by the {strategy.value} lock plan",
                    obj=step.obj, op=op, path_id=pid,
                ))


# ------------------------------------------------------------------ #
# Driver, report, pass
# ------------------------------------------------------------------ #
def _locate(findings: list[_Finding], nf_name: str,
            source: NfSource | None) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for f in findings:
        file = line = None
        if source is not None and f.obj is not None:
            file, line = _locate_access(source, f.obj, f.op)
        out.append(Diagnostic.of(
            f.code, f.message, nf=nf_name, file=file, line=line,
            path_id=f.path_id,
        ))
    return out


def _certify(
    nf: NF,
    tree: ExecutionTree,
    solution: ShardingSolution | None,
    lock_plan: LockPlan | None,
    strategy: Strategy,
    source: NfSource | None,
    seed: int,
) -> tuple[list[Diagnostic], dict]:
    """Compile every port and run the MAE3xx checks.

    Returns located (unfiltered) diagnostics plus run stats.
    """
    findings: list[_Finding] = []
    uncompiled: dict[int, str] = {}
    n_paths = sum(len(tree.paths_by_port[p]) for p in tree.ports)
    n_supported = n_proved = 0
    supported_pids: list[int] = []
    pid = 0
    pps = []
    exact = _alloc_exact(tree.paths())
    for port in tree.ports:
        try:
            pp = _compile_port(
                nf, port, tree.paths_by_port[port], pid, exact
            )
        except LowerError as exc:
            # The runtime refuses to build kernels for this port too
            # (compile_parallel builds a dispatcher with no programs):
            # wholesale fallback to the interpreter is sound by
            # construction, not a finding.
            uncompiled[port] = str(exc)
            continue
        pid += len(pp.programs)
        pps.append(pp)
        for prog in pp.programs:
            proved = _certify_program(prog, findings, seed)
            if prog.supported:
                n_supported += 1
                supported_pids.append(prog.pid)
                if proved:
                    n_proved += 1
        _certify_demotion(pp, findings)
        _certify_bindings(pp, findings)
        _certify_plan(pp, solution, lock_plan, strategy, findings)
    _certify_narrowing(tree, pps, findings)
    stats = {
        "paths": n_paths,
        "supported": n_supported,
        "proved": n_proved,
        "uncompiled": uncompiled,
        "supported_pids": tuple(supported_pids),
    }
    return _locate(findings, nf.name, source), stats


@dataclass
class CertifyReport:
    """Outcome of certifying one NF's lowered programs and plan."""

    nf_name: str
    strategy: Strategy
    n_paths: int
    n_supported: int
    n_proved: int
    #: dispatcher path ids (numbered identically to ``compile_parallel``)
    #: certified as fully lowered — the fuzz oracle cross-checks observed
    #: kernel lanes against this set.
    supported_pids: tuple = ()
    uncompiled: dict[int, str] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    waived: list[Diagnostic] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)

    def describe(self) -> str:
        verdict = "certified" if self.clean else (
            f"{sum(1 for d in self.diagnostics if d.is_error)} finding(s)"
        )
        waived = f", {len(self.waived)} waived" if self.waived else ""
        uncompiled = (
            f", {len(self.uncompiled)} port(s) uncompiled"
            if self.uncompiled else ""
        )
        return (
            f"{self.nf_name} [{self.strategy.value}]: {verdict} — "
            f"{self.n_proved}/{self.n_supported} lowered path(s) proved "
            f"of {self.n_paths} total{uncompiled}{waived}"
        )

    def to_json(self) -> dict:
        return {
            "nf": self.nf_name,
            "strategy": self.strategy.value,
            "paths": self.n_paths,
            "supported": self.n_supported,
            "proved": self.n_proved,
            "supported_pids": list(self.supported_pids),
            "clean": self.clean,
            "uncompiled": {
                str(port): reason
                for port, reason in sorted(self.uncompiled.items())
            },
            "diagnostics": (
                [{**d.to_json(), "waived": False} for d in self.diagnostics]
                + [{**d.to_json(), "waived": True} for d in self.waived]
            ),
        }


def certify_nf(
    nf: NF,
    *,
    tree: ExecutionTree | None = None,
    report: StatefulReport | None = None,
    solution: ShardingSolution | None = None,
    lock_plan: LockPlan | None = None,
    strategy: Strategy | None = None,
    seed: int = 0,
    source: NfSource | None = None,
) -> CertifyReport:
    """Certify one NF: lowering equivalence plus plan soundness.

    Missing artifacts are derived the same way the lint driver derives
    them (ESE → report → Constraints Generator → lock plan from the
    verdict's default strategy unless ``strategy`` overrides it).
    """
    with obs.span("analysis.certify", nf=nf.name) as sp:
        if tree is None:
            tree = explore_nf(nf)
        if solution is None:
            if report is None:
                report = build_report(nf, tree)
            solution = ConstraintsGenerator(report).solve()
        chosen = strategy or Strategy.default_for(solution.verdict)
        if lock_plan is None:
            lock_plan = LockPlan.build(nf, chosen)
        nf_source = source if source is not None else gather_sources(nf)
        diagnostics, stats = _certify(
            nf, tree, solution, lock_plan, chosen, nf_source, seed
        )
        active: list[Diagnostic] = []
        waived: list[Diagnostic] = []
        for diag in diagnostics:
            if nf_source.waived(diag.code, diag.file, diag.line):
                waived.append(diag)
            else:
                active.append(diag)
        sp.set("paths", stats["paths"])
        sp.set("proved", stats["proved"])
        sp.set("findings", len(active))
        obs.counter("certify.findings", len(active), nf=nf.name)
    return CertifyReport(
        nf_name=nf.name,
        strategy=chosen,
        n_paths=stats["paths"],
        n_supported=stats["supported"],
        n_proved=stats["proved"],
        supported_pids=stats["supported_pids"],
        uncompiled=stats["uncompiled"],
        diagnostics=active,
        waived=waived,
    )


class PlanCertifyPass(AnalysisPass):
    """Lint-pipeline adapter: certify inside ``Maestro.analyze(lint=True)``.

    Reuses the lint run's tree/solution/lock plan; returns unfiltered
    diagnostics — the pass manager applies waivers like for every other
    pass.
    """

    name = "plan-certify"
    phase = "tree"

    def run(self, pctx: PassContext) -> list[Diagnostic]:
        lock_plan = pctx.lock_plan
        strategy = (
            lock_plan.strategy if lock_plan is not None
            else Strategy.default_for(
                pctx.solution.verdict if pctx.solution else None
            )
        )
        diagnostics, _ = _certify(
            pctx.nf, pctx.tree, pctx.solution, lock_plan, strategy,
            pctx.source, 0,
        )
        return diagnostics
