"""Compiled batch dataplane: vectorized kernels from the execution tree.

The paper's observation is that the symbolic execution tree *is* the NF:
every per-packet behavior is one path — a constraint prefix, a sequence
of stateful operations, and a terminal action.  This module compiles
each path into a **column program** and executes whole packet chunks at
once:

* **Stage 1 (classify)** evaluates every path's branch predicates
  column-wise over the chunk (:mod:`repro.symbex.lower`), interleaved
  with vectorized state reads (map probes, vector gathers, dchain flag
  reads) against the frozen pre-chunk state, assigning each packet lane
  to exactly one path.
* **Stage 2 (apply)** materializes the per-lane results from the lowered
  action (port/mods expressions) and applies the paths' state writes as
  scatters (dchain timestamp refreshes, vector slot stores).

Lanes on paths the lowerer cannot express (successful allocations,
sketch paths, hash functions) fall back to the packet-at-a-time
interpreter, which remains the oracle: kernel output is bit-identical to
:meth:`repro.nf.runtime.ConcreteContext.run`.

Correctness hinges on the *frozen-prefix* discipline.  Classification
reads pre-chunk state, so a kernel lane is only kept when no interpreter
lane (or other kernel lane) in the same chunk invalidates what it read
or re-orders what it writes.  This is resolved by a chunk-local hazard
fixpoint over a "dirt board" of keys/cells written by fallback lanes:
kernel lanes whose reads/writes collide are demoted to the interpreter,
and each demotion publishes that lane's own writes as new dirt.  Expiry
sweeps are hoisted to chunk boundaries: the exact positions where
``expire_flows`` fires are precomputed (the once-per-simulated-second
gate is a pure function of the trace timestamps) and chunks are split
there, so no sweep ever mutates state mid-chunk.  No other op frees a
dchain index, so the cells a chunk can allocate are the top of each
chain's free stack at chunk start (its *reach*), and a chain that is
full at chunk start stays full for the whole chunk.

Classifications are memoized per (shard, port, flow) — keyed on a
verified hash of the packet fields a port's programs consume and
guarded by state version counters — and the whole memo is flushed
whenever ``rss.steering_generation`` bumps, because re-steering moves
flows between shards and a cached classification is only valid against
the shard whose state it was computed from.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat, starmap

import numpy as np

from repro import obs
from repro.core.codegen import ParallelNF, Strategy
from repro.nf.api import ActionKind
from repro.nf.packet import PACKET_FIELDS
from repro.nf.runtime import OpRecord, PacketResult
from repro.symbex import expr as E
from repro.symbex.engine import explore_nf
from repro.symbex.lower import (
    FLOAT_EXACT,
    INT_SAFE,
    Column,
    KernelBail,
    LowerError,
    as_bool,
    check_expr,
    eval_expr,
    _to_int,
)

__all__ = [
    "CompiledDispatcher", "compile_parallel", "DEFAULT_CHUNK", "LOWERED_OPS",
]

#: Lanes per kernel chunk (also the hazard-analysis horizon).
DEFAULT_CHUNK = 2048
#: Stateful ops the lowerer can express as column kernels; any path
#: containing another op kind (sketch, hash, ...) runs on the
#: interpreter.  ``dchain_allocate`` runs on kernels only while its
#: chain is full at chunk start (``ok = 0, index = 0``); otherwise every
#: program crossing it stops there.  DESIGN.md §13 documents each rule —
#: kept in sync by the doc tests.
LOWERED_OPS = (
    "map_get",
    "vector_borrow",
    "dchain_is_allocated",
    "dchain_rejuvenate",
    "vector_put",
    "dchain_allocate",
)
#: Op kinds known never to free a dchain index.  Expiry (hoisted to
#: chunk boundaries) is the only freeing op; a path carrying any op
#: outside this set withdraws the allocation narrowing for its NF.
_NON_FREEING_OPS = frozenset({
    "map_get", "map_put", "map_erase", "vector_borrow", "vector_put",
    "vector_fill", "dchain_allocate", "dchain_is_allocated",
    "dchain_rejuvenate", "sketch_fetch", "sketch_touch",
})
#: Per-(shard, port) memo slots before the memo is dropped wholesale.
_MEMO_MAX = 65536
#: Slots a fresh (shard, port) memo starts with; it grows by doubling.
_MEMO_CAP0 = 64
#: Hazard-fixpoint iteration cap; on overrun the whole chunk is demoted.
_FIXPOINT_MAX = 64

#: ``_Alloc`` step artifacts: the chain is full (the step is lowered)
#: or has a free index (every program crossing the step stops there).
_FULL = {"oob": None}
_FREE = {"oob": None}

#: The symbol bindings available before any stateful op runs.
_BASE_SYMS = frozenset(
    {"time", "pkt.wire_size"} | {f"pkt.{name}" for name in PACKET_FIELDS}
)


# ------------------------------------------------------------------ #
# Lowered steps: one per supported stateful-op kind.
# ------------------------------------------------------------------ #
class _MapGet:
    __slots__ = ("obj", "keys", "found", "value", "sig")

    def __init__(self, obj, keys, found, value):
        self.obj = obj
        self.keys = keys
        self.found = found
        self.value = value
        self.sig = ("map_get", obj, keys, found, value)


class _VecBorrow:
    __slots__ = ("obj", "index", "fields", "sig")

    def __init__(self, obj, index, fields):
        self.obj = obj
        self.index = index
        self.fields = fields
        self.sig = ("vector_borrow", obj, index, fields)


class _IsAlloc:
    __slots__ = ("obj", "index", "res", "sig")

    def __init__(self, obj, index, res):
        self.obj = obj
        self.index = index
        self.res = res
        self.sig = ("dchain_is_allocated", obj, index, res)


class _Rejuv:
    __slots__ = ("obj", "index", "sig")

    def __init__(self, obj, index):
        self.obj = obj
        self.index = index
        self.sig = ("dchain_rejuvenate", obj, index)


class _VecPut:
    __slots__ = ("obj", "index", "stored", "sig")

    def __init__(self, obj, index, stored):
        self.obj = obj
        self.index = index
        self.stored = stored
        self.sig = ("vector_put", obj, index, stored)


class _Alloc:
    """``dchain_allocate`` on a chain that is full at chunk start.

    ``suffix`` holds the dirt descriptors of the path from this
    allocation on, collected with the symbols known *before* it: when
    the chain has a free index, the program stops here and its lanes
    publish that footprint.
    """

    __slots__ = ("obj", "ok", "index", "suffix", "sig")

    def __init__(self, obj, ok, index, suffix):
        self.obj = obj
        self.ok = ok
        self.index = index
        self.suffix = suffix
        self.sig = ("dchain_allocate", obj, ok, index)


def _lower_entry(entry, known, used, suffix=None):
    """Lower one trace entry into a step, binding its result symbols.

    ``dchain_allocate`` lowers only with its path ``suffix`` dirt.
    """
    op = entry.op
    if op == "dchain_allocate" and suffix is not None:
        step = _Alloc(entry.obj, entry.result("ok").name,
                      entry.result("index").name, suffix)
        known.add(step.ok)
        known.add(step.index)
        return step
    if op == "map_get":
        for k in entry.key:
            check_expr(k, known, used)
        found = entry.result("found").name
        value = entry.result("value").name
        known.add(found)
        known.add(value)
        return _MapGet(entry.obj, tuple(entry.key), found, value)
    if op == "vector_borrow":
        check_expr(entry.key[0], known, used)
        fields = tuple((fname, sym.name) for fname, sym in entry.results)
        for _, name in fields:
            known.add(name)
        return _VecBorrow(entry.obj, entry.key[0], fields)
    if op == "dchain_is_allocated":
        check_expr(entry.key[0], known, used)
        res = entry.result("allocated").name
        known.add(res)
        return _IsAlloc(entry.obj, entry.key[0], res)
    if op == "dchain_rejuvenate":
        check_expr(entry.key[0], known, used)
        return _Rejuv(entry.obj, entry.key[0])
    if op == "vector_put":
        check_expr(entry.key[0], known, used)
        for _, expr in entry.stored:
            check_expr(expr, known, used)
        return _VecPut(entry.obj, entry.key[0], tuple(entry.stored))
    raise LowerError(f"cannot lower stateful op {op!r} on {entry.obj!r}")


#: Write/read aspects a kernel lane's step contributes when the lane
#: runs interpreted.  A lowered ``_Alloc`` has none: its chain is full.
def _step_dirt_aspect(step):
    if isinstance(step, _Rejuv):
        return "ts_w"
    if isinstance(step, _VecPut):
        return "vec_w"
    if isinstance(step, _VecBorrow):
        return "vec_r"
    return None


class _PathProgram:
    """One execution path, lowered (fully or as far as possible).

    ``items`` interleaves constraints and steps in path order.  When
    ``supported`` is False, ``items`` is the lowerable prefix (used to
    narrow which lanes sit on this path for hazard attribution) and
    ``dirt_descs`` describes the state the *unlowered* suffix touches.
    """

    __slots__ = (
        "pid", "port", "supported", "items", "steps", "dirt_descs",
        "kind", "port_const", "port_expr", "mods", "const_result",
        "ops_list", "bump_ops", "used", "wild", "source_path", "stop",
    )

    def __init__(self, pid, port):
        self.pid = pid
        self.port = port
        self.supported = False
        self.items = []
        self.steps = []
        self.dirt_descs = []
        self.kind = None
        self.port_const = None
        self.port_expr = None
        self.mods = ()
        self.const_result = None
        self.ops_list = []
        self.bump_ops = []
        self.used = set()
        self.wild = []
        # Provenance for the plan certifier (translation validation):
        # the source symbex path and, for demoted programs, the index of
        # the first non-expire entry the lowering gave up at.
        self.source_path = None
        self.stop = None


def _collect_dirt(entries, known, chains, exact):
    """Describe the state footprint of unlowered trace entries.

    Returns ``(aspect, obj, key)`` descriptors.  ``key`` is ``None`` for
    a wildcard, a chain name for the *reach* of that chain (the cells
    its allocations can return this chunk), or a tuple of expressions
    lowerable against ``known`` (exact demotion).  With ``exact``,
    allocation dirt and cell dirt at an index an allocation bound
    (``chains`` maps earlier allocations' index symbols to their chain)
    are reach-keyed; without it they are wildcards.  Result symbols of
    unlowered ops are *not* bound, so downstream expressions depending
    on them correctly degrade to wildcards.
    """
    chains = dict(chains)
    descs = []

    def _keyed(exprs):
        for expr in exprs:
            try:
                check_expr(expr, known, set())
            except LowerError:
                return None
        return tuple(exprs)

    def _cell(e):
        if not e.key:
            return None
        idx = e.key[0]
        if isinstance(idx, E.Sym) and idx.name in chains:
            return chains[idx.name]
        return _keyed(e.key)

    for e in entries:
        op = e.op
        if op == "expire":
            continue
        if op in ("map_put", "map_erase"):
            descs.append(("map_w", e.obj, _keyed(e.key) if e.key else None))
        elif op in ("vector_put", "vector_fill"):
            descs.append(("vec_w", e.obj, _cell(e)))
        elif op == "vector_borrow":
            descs.append(("vec_r", e.obj, _cell(e)))
        elif op == "dchain_allocate":
            descs.append(("alloc", e.obj, e.obj if exact else None))
            if exact:
                chains[e.result("index").name] = e.obj
        elif op == "dchain_rejuvenate":
            descs.append(("ts_w", e.obj, _cell(e)))
        elif op in ("map_get", "dchain_is_allocated", "sketch_fetch",
                    "sketch_touch"):
            # Reads of state kernels never write (maps, flags, sketches)
            # and sketch writes kernels never read: hazard-free.
            pass
        else:  # unknown op: poison every aspect of the object
            for aspect in ("map_w", "vec_w", "vec_r", "ts_w", "alloc"):
                descs.append((aspect, e.obj, None))
    return descs


def _alloc_exact(paths):
    """Whether allocation dirt may be narrowed to reaches for these paths:
    no op but hoisted expiry frees a dchain index."""
    return all(
        e.op in _NON_FREEING_OPS or e.op == "expire"
        for path in paths for e in path.trace
    )


def _compile_path(path, pid, exact_alloc):
    """Lower one path to a :class:`_PathProgram` (never raises)."""
    prog = _PathProgram(pid, path.port)
    prog.source_path = path
    prog.kind = path.action.kind
    # Expiry sweeps never lower inline: they are hoisted to chunk
    # boundaries (or disabled outright when expiration_time is None).
    entries = [e for e in path.trace if e.op != "expire"]
    # Concrete op records, in concrete order (expire entries only fire at
    # chunk boundaries and are prepended there; rejuvenation *is*
    # recorded concretely even though the engine marks it maintenance).
    prog.ops_list = [OpRecord(e.obj, e.op, e.write) for e in entries]
    prog.bump_ops = [
        ((e.obj, e.op, e.write),
         OpRecord(e.obj, e.op, e.write),
         (e.obj, "write" if e.write else "read"))
        for e in entries
    ]
    known = set(_BASE_SYMS)
    used = prog.used
    items = prog.items
    constraints = path.constraints
    # Index symbol -> chain, for every lowered allocation so far.
    chains = {}
    ci = 0
    stop = len(entries)
    supported = True
    for idx, e in enumerate(entries):
        target = e.pc_len
        while ci < target:
            c = constraints[ci]
            try:
                check_expr(c, known, used)
            except LowerError:
                supported = False
                stop = idx
                break
            items.append(("c", c))
            ci += 1
        if not supported:
            break
        suffix = None
        if e.op == "dchain_allocate" and exact_alloc:
            suffix = _collect_dirt(entries[idx:], known, chains, True)
        try:
            step = _lower_entry(e, known, used, suffix)
        except LowerError:
            supported = False
            stop = idx
            break
        if suffix is not None:
            chains[step.index] = step.obj
        items.append(("op", step))
        prog.steps.append(step)
    if supported:
        while ci < len(constraints):
            c = constraints[ci]
            try:
                check_expr(c, known, used)
            except LowerError:
                supported = False
                stop = len(entries)
                break
            items.append(("c", c))
            ci += 1
    if supported:
        # Terminal action: port expression and header rewrites.
        try:
            act = path.action
            if act.kind is ActionKind.FORWARD:
                p = act.port
                if isinstance(p, E.Const):
                    prog.port_const = int(p.value)
                elif isinstance(p, E.Expr):
                    check_expr(p, known, used)
                    prog.port_expr = p
                else:
                    prog.port_const = int(p)
            for _, expr in act.mods:
                check_expr(expr, known, used)
            prog.mods = tuple(act.mods)
        except LowerError:
            supported = False
            stop = len(entries)
    prog.supported = supported
    prog.stop = None if supported else stop
    if supported:
        if prog.port_expr is None and all(
            isinstance(expr, E.Const) for _, expr in prog.mods
        ):
            prog.const_result = PacketResult(
                prog.kind,
                prog.port_const,
                {name: int(expr.value) for name, expr in prog.mods},
                prog.ops_list,
                False,
            )
    else:
        prog.dirt_descs = _collect_dirt(
            entries[stop:], known, chains, exact_alloc
        )
        prog.wild = [(a, o) for a, o, key in prog.dirt_descs if key is None]
    # Aspects this program's *lowered* steps poison when the program
    # bails at run time (lanes unknown -> wildcard everything),
    # including the footprint past every allocation it crosses.
    for step in prog.steps:
        if isinstance(step, _Alloc):
            prog.wild.extend((a, o) for a, o, _ in step.suffix)
            continue
        aspect = _step_dirt_aspect(step)
        if aspect is not None:
            prog.wild.append((aspect, step.obj))
    return prog


class _PortProgram:
    """All programs for one ingress port, plus shared-evaluation facts."""

    __slots__ = (
        "port", "programs", "pairs", "fields", "need_time", "memoizable",
        "shared_ok", "read_objs", "any_supported", "alloc_max",
    )

    def __init__(self, port, programs, pairs):
        self.port = port
        self.programs = programs
        self.pairs = pairs
        # Most allocations one lane of this port makes per chain: with
        # the lane count it bounds a chunk's reach into the free stack.
        self.alloc_max = Counter()
        for prog in programs:
            self.alloc_max |= Counter(
                e.obj for e in prog.source_path.trace
                if e.op == "dchain_allocate"
            )
        used = set()
        for prog in programs:
            used |= prog.used
        self.fields = tuple(sorted(n for n in used if n.startswith("pkt.")))
        self.need_time = "time" in used
        self.any_supported = any(p.supported for p in programs)
        # A cached classification must be a pure function of (fields,
        # state): any supported program consuming ``time`` makes the
        # same flow classify differently across packets.
        self.memoizable = not any(
            "time" in p.used for p in programs if p.supported
        )
        # Can sibling programs share one env/cache?  Only if every
        # result symbol name is defined by the same step signature in
        # every program that binds it (the engine's per-path op counter
        # usually guarantees this for shared prefixes).
        sigs: dict[str, tuple] = {}
        self.shared_ok = True
        for prog in programs:
            for step in prog.steps:
                if isinstance(step, _MapGet):
                    bound = ((step.found, step.sig), (step.value, step.sig))
                elif isinstance(step, _VecBorrow):
                    bound = tuple((n, step.sig) for _, n in step.fields)
                elif isinstance(step, _IsAlloc):
                    bound = ((step.res, step.sig),)
                elif isinstance(step, _Alloc):
                    bound = ((step.ok, step.sig), (step.index, step.sig))
                else:
                    bound = ()
                for name, sig in bound:
                    prev = sigs.setdefault(name, sig)
                    if prev != sig:
                        self.shared_ok = False
        # Ordered read-object versions guarding the memo: one (obj,
        # kind) per distinct read the supported programs perform.
        seen = set()
        self.read_objs = []
        for prog in programs:
            if not prog.supported:
                continue
            for step in prog.steps:
                if isinstance(step, _MapGet):
                    key = (step.obj, "map")
                elif isinstance(step, _VecBorrow):
                    key = (step.obj, "vec")
                elif isinstance(step, (_IsAlloc, _Rejuv, _Alloc)):
                    key = (step.obj, "chain")
                else:
                    continue
                if key not in seen:
                    seen.add(key)
                    self.read_objs.append(key)


def _compile_port(nf, port, paths, pid_start, exact_alloc):
    """Compile one port's paths; raises LowerError on expiry shapes the
    chunk scheduler cannot hoist (non-prefix ``expire_flows`` calls).

    ``exact_alloc`` (see :func:`_alloc_exact`) enables reach-keyed
    allocation dirt and the full-chain ``dchain_allocate`` lowering.
    """
    lead = []
    for e in paths[0].trace:
        if e.op == "expire":
            lead.append(e)
        else:
            break
    if len(lead) % 2:
        raise LowerError(f"odd expire prefix on port {port}")
    # The engine emits (chain, map) per expire_flows call; the concrete
    # call signature is expire_flows(map_name, chain_name).
    pairs = [
        (lead[i + 1].obj, lead[i].obj) for i in range(0, len(lead), 2)
    ]
    for path in paths:
        plead = []
        for e in path.trace:
            if e.op == "expire":
                plead.append(e)
            else:
                break
        total = sum(1 for e in path.trace if e.op == "expire")
        if total != len(plead) or len(plead) != len(lead):
            raise LowerError(f"non-prefix expire on port {port}")
        for a, b in zip(plead, lead):
            if a.obj != b.obj:
                raise LowerError(f"divergent expire prefix on port {port}")
    if nf.expiration_time is None:
        pairs = []
    programs = [
        _compile_path(path, pid_start + i, exact_alloc)
        for i, path in enumerate(paths)
    ]
    return _PortProgram(port, programs, pairs)


def compile_parallel(parallel: ParallelNF, tree=None):
    """Compile a parallel NF's execution tree into a dispatcher.

    When nothing useful can be compiled (no supported path anywhere, or
    expiry shapes the scheduler cannot hoist) the dispatcher holds no
    programs and runs every lane on the interpreter.
    """
    nf = parallel.nf
    if tree is None:
        tree = getattr(parallel, "symbex_tree", None)
    if tree is None:
        tree = explore_nf(nf)
    ports = {}
    pid = 0
    exact = _alloc_exact(tree.paths())
    try:
        for port in tree.ports:
            pp = _compile_port(
                nf, port, tree.paths_by_port[port], pid, exact
            )
            pid += len(pp.programs)
            ports[port] = pp
    except LowerError:
        ports = {}
    if not any(pp.any_supported for pp in ports.values()):
        return CompiledDispatcher(parallel, {}, 0)
    return CompiledDispatcher(parallel, ports, pid)


# ------------------------------------------------------------------ #
# Run-time: hazard board, per-chunk group state.
# ------------------------------------------------------------------ #
class _DirtBoard:
    """Chunk-local record of state touched by interpreter-bound lanes.

    Per aspect and object: ``None`` is a wildcard (everything dirty), a
    set holds the exact keys/cells.  ``alloc`` cells are the chain's
    reach: the free cells an allocation this chunk can hand out.
    """

    __slots__ = ("maps", "vec_w", "vec_r", "ts_w", "alloc", "wild_all")

    def __init__(self):
        self.maps = {}
        self.vec_w = {}
        self.vec_r = {}
        self.ts_w = {}
        self.alloc = {}
        self.wild_all = False

    def _table(self, aspect):
        if aspect == "map_w":
            return self.maps
        if aspect == "vec_w":
            return self.vec_w
        if aspect == "vec_r":
            return self.vec_r
        if aspect == "alloc":
            return self.alloc
        return self.ts_w

    def add(self, aspect, obj, values):
        table = self._table(aspect)
        if values is None:
            table[obj] = None
            return
        cur = table.get(obj, ())
        if cur is None:
            return
        if cur == ():
            cur = set()
            table[obj] = cur
        cur.update(values)

    def add_wild(self, pairs):
        for aspect, obj in pairs:
            self.add(aspect, obj, None)


class _ProgState:
    """Per-chunk evaluation state of one program over one port group."""

    __slots__ = (
        "prog", "match", "force_f", "kmask", "bailed", "stopped", "arts",
        "dirt_vals", "port_vals", "mod_vals", "memo_results",
    )

    def __init__(self, prog):
        self.prog = prog
        self.match = None
        self.force_f = None
        self.kmask = None
        self.bailed = False
        #: Stopped at an allocation whose chain has a free index: the
        #: program runs like an unsupported one, ``match`` being the
        #: lanes that reach the allocation.
        self.stopped = False
        self.arts = []
        self.dirt_vals = []
        self.port_vals = None
        self.mod_vals = None
        self.memo_results = None


class _Group:
    """One (domain, port) lane group and its classification state."""

    __slots__ = ("pp", "g_lanes", "progs", "assign")

    def __init__(self, pp, g_lanes):
        self.pp = pp
        self.g_lanes = g_lanes
        self.progs = [_ProgState(p) for p in pp.programs]
        self.assign = None


def _field_hash(cols, n):
    """Vectorized uint64 key of each of ``n`` rows of 8-byte columns.

    Mixes every column's bit pattern into a running hash.  Equal rows
    always get equal keys; a memo probe verifies the row itself, so two
    rows that collide only cost a miss.
    """
    h = np.full(n, 0x9E3779B97F4A7C15, np.uint64)
    for col in cols:
        h ^= col
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(29)
    return h


def _grown(arr, cap):
    """``arr`` copied into zeroed storage of ``cap`` rows."""
    out = np.zeros((cap,) + arr.shape[1:], arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class _Memo:
    """Classification memo of one (shard, port) at one state-version vector.

    ``index`` maps a packet's field-row hash to a *slot*, and ``rows``
    keeps each slot's exact field row, so every probe is verified: a
    hash collision is a miss, never a wrong hit.  Per slot the memo
    holds the program index (``assign``), that program's per-step scalar
    columns (``arts``) and the finished, shared :class:`PacketResult`
    (``results``); a hit is a gather at its slots.  Columns grow by
    doubling and persist across runs for as long as the versions hold.
    """

    __slots__ = ("pp", "versions", "index", "n", "rows", "assign", "arts",
                 "results", "pending")

    def __init__(self, pp, versions):
        self.pp = pp
        self.versions = versions
        self.index = {}
        self.n = 0
        self.rows = np.zeros((_MEMO_CAP0, len(pp.fields)), np.uint64)
        self.assign = np.zeros(_MEMO_CAP0, np.int64)
        self.results = np.empty(_MEMO_CAP0, object)
        self.arts = [None] * len(pp.programs)
        #: The last evaluated group's misses, awaiting insertion.
        self.pending = None

    def lookup(self, keys, rows):
        """Slot of each lane's field row; -1 where it is not memoized."""
        if not self.index:
            return np.full(keys.size, -1, np.int64)
        if not self.pp.fields:  # one empty row: one probe serves all
            return np.full(keys.size, self.index.get(int(keys[0]), -1))
        slots = np.fromiter(
            map(self.index.get, keys.tolist(), repeat(-1)),
            np.int64, count=keys.size,
        )
        found = np.flatnonzero(slots >= 0)
        if found.size:
            wrong = (self.rows[slots[found]] != rows[found]).any(axis=1)
            slots[found[wrong]] = -1
        return slots

    def reserve(self, k):
        """``k`` fresh slot numbers; past ``_MEMO_MAX`` the memo starts over."""
        if self.n + k > _MEMO_MAX:
            self.index.clear()
            self.n = 0
        start = self.n
        self.n += k
        cap = self.assign.size
        if self.n > cap:
            while cap < self.n:
                cap *= 2
            self.rows = _grown(self.rows, cap)
            self.assign = _grown(self.assign, cap)
            self.results = _grown(self.results, cap)
            self.arts = [
                None if cols is None
                else [tuple(_grown(a, cap) for a in col) for col in cols]
                for cols in self.arts
            ]
        return np.arange(start, self.n)

    def columns(self, pidx):
        """Per-step slot columns of program ``pidx``, allocated on first use."""
        cols = self.arts[pidx]
        if cols is None:
            cap = self.assign.size
            cols = []
            for step in self.pp.programs[pidx].steps:
                if isinstance(step, _MapGet):
                    cols.append((np.empty(cap, object),))
                elif isinstance(step, _VecPut):
                    cols.append(
                        (np.zeros(cap, np.int64), np.empty(cap, object))
                    )
                elif isinstance(step, _VecBorrow):
                    cols.append((np.zeros(cap, np.int64),))
                elif isinstance(step, _Alloc):
                    cols.append(())
                else:  # _IsAlloc / _Rejuv
                    cols.append(
                        (np.zeros(cap, np.int64), np.zeros(cap, dtype=bool))
                    )
            self.arts[pidx] = cols
        return cols


def _ivals(col, g):
    """Column -> int64 array of length ``g`` (broadcasting scalars)."""
    arr = np.asarray(_to_int(col))
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, (g,))
    return arr


def _expiry_triggers(ts, last):
    """Positions in ``ts`` where the once-per-second expiry gate fires.

    Replays the interpreter's gate exactly (it skips while
    ``t - last < 1.0``), for sorted and unsorted timestamps alike: the
    predicate is evaluated as an array over a window that doubles while
    nothing fires, and the scan jumps to the first position where it
    does.
    """
    out = []
    j, w, m = 0, 256, ts.size
    while j < m:
        due = np.flatnonzero(~(ts[j:j + w] - last < 1.0))
        if not due.size:
            j += w
            w *= 2
            continue
        j += int(due[0])
        out.append(j)
        last = float(ts[j])
        j += 1
    return out


def _bump(ctx, bump_ops, n):
    """Add ``n`` packets' worth of op counts to a context's intern table.

    Mirrors the interpreter's per-op ``nf.state_op`` counter emission in
    bulk (one counter event of weight ``n`` per op kind instead of ``n``
    events of weight 1), so attached collectors see identical totals per
    ``(nf, obj, kind)`` stream whether a lane ran compiled or not.
    """
    intern = ctx._op_intern
    emit = obs.enabled()
    for key, record, tkey in bump_ops:
        entry = intern.get(key)
        if entry is None:
            entry = [record, tkey, 0]
            intern[key] = entry
        entry[2] += n
        if emit:
            obs.counter(
                "nf.state_op", n, nf=ctx.nf.name, obj=tkey[0], kind=tkey[1]
            )


class CompiledDispatcher:
    """Executes traces through compiled kernels with interpreter fallback."""

    def __init__(self, parallel, ports, total_paths):
        self.parallel = parallel
        self.ports = ports
        self.chunk = DEFAULT_CHUNK
        self.fault = None
        self._fault_fired = False
        self._generation = parallel.rss.steering_generation
        self._memo = {}
        self.memo_enabled = True
        self.total_paths = total_paths
        self.supported_paths = sum(
            1 for pp in ports.values() for p in pp.programs if p.supported
        )
        self.kernel_packets = 0
        self.fallback_packets = 0
        self.chunks = 0
        self.bails = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_invalidations = 0
        self.expire_ports = {
            port: pp.pairs for port, pp in ports.items() if pp.pairs
        }
        self.path_ids = np.zeros(0, dtype=np.int32)
        self._sn = parallel.strategy is Strategy.SHARED_NOTHING
        self._ctxs = [core.ctx for core in parallel.cores]
        self._bucket_ids = None
        self._cols = None
        self._triggers = {}
        self._ts_pending = {}
        #: Per-run field-row keys, by the field tuple they cover.
        self._keys = {}
        #: The running domain's store and groups, and its reaches.
        self._domain = None
        self._reaches = {}

    # -------------------------------------------------------------- #
    # Memo/generation plumbing
    # -------------------------------------------------------------- #
    def _check_generation(self):
        gen = self.parallel.rss.steering_generation
        if gen != self._generation:
            # Re-steering moves flows between shards: every cached
            # classification was computed against the wrong shard.
            self._memo.clear()
            self._generation = gen
            self.memo_invalidations += 1

    def _store_for(self, cid):
        if cid is None:
            return self._ctxs[0].store
        return self._ctxs[cid].store

    # -------------------------------------------------------------- #
    # Run setup
    # -------------------------------------------------------------- #
    def start_run(self, cols, core_ids, window_packets, bucket_ids=None):
        """Bind one run's :class:`~repro.traffic.TraceColumns`; return chunk edges.

        Every per-run table — header columns, field-row keys — is
        derived from ``cols`` afresh, so nothing carries over from an
        earlier run but the (shard, port) classification memos.
        """
        n = len(cols)
        self._cols = cols
        #: Per-packet indirection-table slots (elastic runs only): the
        #: fallback path installs them as ``ctx.current_bucket`` so
        #: establishment packets bucket-tag the state they create, and
        #: kernel vector scatters re-tag the rows they overwrite.
        self._bucket_ids = bucket_ids
        self._ports_arr = cols.ports
        self._keys = {}
        self._core_ids = core_ids
        self.path_ids = np.full(n, -1, dtype=np.int32)
        self._check_generation()
        self._triggers = self._plan_triggers()
        edges = {0, n}
        if self.ports:
            # The chunk bound is the hazard-analysis horizon; without
            # programs there is no hazard analysis to bound.
            edges.update(range(self.chunk, n, self.chunk))
        if window_packets:
            edges.update(range(window_packets, n, window_packets))
        edges.update(self._triggers)
        return sorted(edges)

    def end_run(self):
        self._cols = None
        self._keys = {}
        self._triggers = {}
        self._bucket_ids = None

    def _field_col(self, name):
        """Column of symbol ``pkt.<field>``, shared with steering."""
        return self._cols.field(name[4:])

    def _plan_triggers(self):
        """Exact positions where ``expire_flows`` fires, per context.

        The gate is ``now - last_expiry >= 1.0`` evaluated packet-wise
        over each context's expire-port packets; replaying it over the
        trace timestamps up front lets the chunker split at precisely
        those packets so sweeps never happen mid-chunk.
        """
        triggers = {}
        if self.parallel.nf.expiration_time is None or not self.expire_ports:
            return triggers
        eports = np.fromiter(self.expire_ports, np.int64,
                             count=len(self.expire_ports))
        pmask = np.isin(self._ports_arr, eports)
        ts = self._cols.field("timestamp")
        for ci, ctx in enumerate(self._ctxs):
            idxs = np.flatnonzero(pmask & (self._core_ids == ci))
            if not idxs.size:
                continue
            for j in _expiry_triggers(ts[idxs], ctx._last_expiry):
                triggers[int(idxs[j])] = ci
        return triggers

    # -------------------------------------------------------------- #
    # Chunk execution
    # -------------------------------------------------------------- #
    def run_chunk(self, start, end, results):
        self.chunks += 1
        self._check_generation()
        captured = None
        ci = self._triggers.get(start)
        if ci is not None:
            ctx = self._ctxs[ci]
            port = int(self._ports_arr[start])
            ctx._now = float(self._cols.field("timestamp")[start])
            ctx._trace_on = ctx._tracer.enabled()
            ctx._ops = []
            for map_name, chain_name in self.expire_ports[port]:
                ctx.expire_flows(map_name, chain_name)
            captured = ctx._ops
            ctx._ops = []
        if self._sn:
            chunk_cores = self._core_ids[start:end]
            for cid in range(self.parallel.n_cores):
                lanes = np.flatnonzero(chunk_cores == cid) + start
                if lanes.size:
                    self._run_domain(lanes, results, cid)
        else:
            self._run_domain(np.arange(start, end), results, None)
        if captured:
            r = results[start]
            results[start] = PacketResult(
                r.kind, r.port, r.mods, list(captured) + list(r.ops),
                r.new_flow,
            )

    def _run_domain(self, lanes, results, cid):
        ports_l = self._ports_arr[lanes]
        store = self._store_for(cid)
        groups = []
        board = _DirtBoard()
        covered = 0
        for port, pp in sorted(self.ports.items()):
            g_lanes = lanes[ports_l == port]
            if g_lanes.size:
                covered += g_lanes.size
                groups.append(self._classify(pp, g_lanes, cid, store))
        if not groups:
            self._run_fallback(lanes, results, cid)
            self.fallback_packets += lanes.size
            return
        # Lanes of a port with no program run interpreted with an
        # unknown footprint: no kernel lane may trust its reads.
        board.wild_all = covered < lanes.size
        self._domain = (store, groups)
        self._reaches = {}
        self._seed_board(groups, board)
        self._multi_touch(groups)
        self._fixpoint(groups, board)
        victim = self._inject_fault(groups)
        k_flag = np.zeros(lanes.size, dtype=bool)
        for g in groups:
            pos = np.searchsorted(lanes, g.g_lanes)
            for ps in g.progs:
                if ps.kmask is not None and ps.kmask.any():
                    k_flag[pos[ps.kmask]] = True
        if victim is not None:
            k_flag[np.searchsorted(lanes, victim[0])] = True
        f_lanes = lanes[~k_flag]
        self._run_fallback(f_lanes, results, cid)
        kept = 0
        for g in groups:
            kept += self._apply_group(g, results, cid, store)
        self._flush_ts(store)
        if victim is not None:
            self._apply_fault(victim, results)
            kept += 1
        self.kernel_packets += kept
        self.fallback_packets += f_lanes.size

    def _run_fallback(self, f_lanes, results, cid):
        if not f_lanes.size:
            return
        trace = self._cols.trace
        idx = f_lanes.tolist()
        buckets = self._bucket_ids
        if cid is not None:
            ctx = self._ctxs[cid]
            if buckets is None:
                outs = starmap(ctx.run, [trace[i] for i in idx])
                for i, result in zip(idx, outs):
                    results[i] = result
            else:
                for i in idx:
                    ctx.current_bucket = int(buckets[i])
                    port, pkt = trace[i]
                    results[i] = ctx.run(port, pkt)
        else:
            # Shared state: strict trace order.  Elastic runs are
            # shared-nothing, so there are no buckets to install here.
            ctxs = self._ctxs
            for i, c in zip(idx, self._core_ids[f_lanes].tolist()):
                port, pkt = trace[i]
                results[i] = ctxs[c].run(port, pkt)

    # -------------------------------------------------------------- #
    # Stage 1: classification (with memoized fast path)
    # -------------------------------------------------------------- #
    def _classify(self, pp, g_lanes, cid, store):
        group = _Group(pp, g_lanes)
        if not (self.memo_enabled and pp.memoizable and pp.any_supported):
            self._eval_group(group, store)
            return group
        memo = self._memo_for(pp, cid, store)
        keys, rows = self._keys_for(pp)
        keys = keys[g_lanes]
        rows = rows[g_lanes]
        slots = memo.lookup(keys, rows)
        miss = slots < 0
        n_miss = int(np.count_nonzero(miss))
        self.memo_hits += g_lanes.size - n_miss
        self.memo_misses += n_miss
        if not n_miss:
            self._reconstruct(group, memo, slots)
            return group
        # One miss evaluates the whole group: kernel cost is mostly
        # per-call overhead, so serving the hit lanes apart saves little.
        self._eval_group(group, store)
        # Inserted at this memo's next use, and only if the chunk left
        # the versions as they were: under churn, fallback allocations
        # move them every chunk and the rows would be dropped unused.
        memo.pending = (group, miss, keys, rows)
        return group

    def _keys_for(self, pp):
        """Hash keys and exact field rows of every packet, once per run."""
        entry = self._keys.get(pp.fields)
        if entry is None:
            n = self._ports_arr.size
            cols = [self._field_col(f).view(np.uint64) for f in pp.fields]
            rows = (
                np.stack(cols, axis=1) if cols
                else np.zeros((n, 0), np.uint64)
            )
            entry = (_field_hash(cols, n), rows)
            self._keys[pp.fields] = entry
        return entry

    def _memo_for(self, pp, cid, store):
        """The (shard, port) memo for the *current* state versions."""
        versions = tuple(
            store[obj].alloc_version if kind == "chain"
            else store[obj].version
            for obj, kind in pp.read_objs
        )
        key = (cid if cid is not None else -1, pp.port)
        memo = self._memo.get(key)
        if memo is None or memo.versions != versions:
            memo = _Memo(pp, versions)
            self._memo[key] = memo
        elif memo.pending is not None:
            self._memo_insert(memo, *memo.pending)
            memo.pending = None
        return memo

    def _reconstruct(self, group, memo, slots):
        """Rebuild per-program artifacts by gathering memo slot columns."""
        assign = memo.assign[slots]
        group.assign = assign
        results = memo.results[slots]
        for pidx, ps in enumerate(group.progs):
            mask = assign == pidx
            ps.match = mask
            ps.kmask = mask.copy()
            if not mask.any():
                continue
            arts = ps.arts
            for step, cols in zip(ps.prog.steps, memo.arts[pidx]):
                if isinstance(step, _MapGet):
                    arts.append({"keys": cols[0][slots], "oob": None})
                elif isinstance(step, _VecPut):
                    arts.append({
                        "cells": cols[0][slots],
                        "oob": None,
                        "stored_rows": cols[1][slots],
                    })
                elif isinstance(step, _VecBorrow):
                    arts.append({"cells": cols[0][slots], "oob": None})
                elif isinstance(step, _Alloc):
                    arts.append(_FULL)
                else:  # _IsAlloc / _Rejuv
                    arts.append({
                        "cells": cols[0][slots],
                        "flags": cols[1][slots],
                        "oob": None,
                    })
            ps.memo_results = results

    def _memo_insert(self, memo, group, miss, keys, rows):
        """Memoize the missed rows whose lanes classified supported-clean.

        ``assign >= 0`` already means a supported, unbailed program
        claimed the lane without forcing it to the interpreter.  One slot
        per new key; a row whose key is already indexed for a different
        row collided, and stays a miss.
        """
        assign = group.assign
        cand = np.flatnonzero(miss & (assign >= 0))
        if not cand.size:
            return
        index = memo.index
        fresh = dict(zip(keys[cand].tolist(), cand.tolist()))
        if index:
            fresh = {k: p for k, p in fresh.items() if k not in index}
            if not fresh:
                return
        pos = np.fromiter(fresh.values(), np.int64, count=len(fresh))
        slots = memo.reserve(pos.size)
        memo.index.update(zip(fresh, slots.tolist()))
        memo.rows[slots] = rows[pos]
        owner = assign[pos]
        memo.assign[slots] = owner
        for pidx in set(owner.tolist()):
            sel = owner == pidx
            self._memo_fill(
                memo, pidx, group.progs[pidx], pos[sel], slots[sel]
            )

    def _memo_fill(self, memo, pidx, ps, pos, slots):
        """Write one program's lanes ``pos`` into memo ``slots``."""
        prog = ps.prog
        pos_l = pos.tolist()
        slots_l = slots.tolist()
        for step, cols, art in zip(prog.steps, memo.columns(pidx), ps.arts):
            if isinstance(step, _MapGet):
                keys = art["keys"]
                col = cols[0]
                for s, p in zip(slots_l, pos_l):
                    col[s] = keys[p]
            elif not isinstance(step, _Alloc):
                cols[0][slots] = art["cells"][pos]
                if isinstance(step, _VecPut):
                    col = cols[1]
                    for s, p in zip(slots_l, pos_l):
                        col[s] = self._stored_row(art, p)
                elif not isinstance(step, _VecBorrow):  # _IsAlloc / _Rejuv
                    cols[1][slots] = art["flags"][pos]
        results = memo.results
        if prog.const_result is not None:
            results[slots] = prog.const_result
            return
        kind = prog.kind
        ops = prog.ops_list
        port_vals = ps.port_vals
        for s, p in zip(slots_l, pos_l):
            port = prog.port_const if port_vals is None else int(port_vals[p])
            mods = {name: int(vals[p]) for name, vals in ps.mod_vals}
            results[s] = PacketResult(kind, port, mods, ops, False)

    @staticmethod
    def _stored_row(art, pos):
        rows = art.get("stored_rows")
        if rows is not None:
            return rows[pos]
        out = []
        for fname, col in art["stored"]:
            arr = col.arr
            v = arr[pos] if arr.ndim else arr[()]
            if col.is_float:
                is_f = True if col.fmask is None else bool(col.fmask[pos])
                out.append((fname, float(v) if is_f else int(v)))
            else:
                out.append((fname, int(v)))
        return tuple(out)

    def _eval_group(self, group, store):
        pp = group.pp
        g_lanes = group.g_lanes
        g = g_lanes.size
        base_env = {
            name: Column(self._field_col(name)[g_lanes]) for name in pp.fields
        }
        if pp.need_time:
            base_env["time"] = Column(self._cols.field("timestamp")[g_lanes])
        shared = pp.shared_ok
        env = dict(base_env)
        cache: dict = {}
        step_cache: dict = {}
        assign = np.full(g, -1, np.int64)
        claimed = np.zeros(g, dtype=bool)
        group.assign = assign
        for pidx, prog in enumerate(pp.programs):
            if not shared:
                env = dict(base_env)
                cache = {}
                step_cache = {}
            ps = group.progs[pidx]
            try:
                self._eval_program(prog, ps, env, cache, step_cache, g, store)
            except (KernelBail, OverflowError):
                ps.bailed = True
                ps.match = None
                self.bails += 1
                continue
            if prog.supported and not ps.stopped:
                m = ps.match & ~ps.force_f & ~claimed
                ps.kmask = m
                claimed |= m
                assign[m] = pidx

    def _eval_program(self, prog, ps, env, cache, step_cache, g, store):
        alive = np.ones(g, dtype=bool)
        force_f = np.zeros(g, dtype=bool)
        descs = prog.dirt_descs
        for tag, x in prog.items:
            if tag == "c":
                alive = np.logical_and(alive, as_bool(eval_expr(x, env, cache)))
            else:
                art = step_cache.get(x.sig)
                if art is None:
                    art = self._exec_step(x, env, cache, g, store)
                    step_cache[x.sig] = art
                if art is _FREE:
                    # The chain has a free index: stop, and publish the
                    # footprint of the path from the allocation on.
                    ps.stopped = True
                    descs = x.suffix
                    break
                ps.arts.append(art)
                oob = art.get("oob")
                if oob is not None:
                    force_f = force_f | oob
        ps.match = alive
        ps.force_f = force_f
        for aspect, obj, exprs in descs:
            if exprs is None or isinstance(exprs, str):
                ps.dirt_vals.append((aspect, obj, exprs))
                continue
            try:
                if aspect == "map_w":
                    arrs = [
                        _ivals(eval_expr(k, env, cache), g).tolist()
                        for k in exprs
                    ]
                    keys = (
                        [(v,) for v in arrs[0]] if len(arrs) == 1
                        else list(zip(*arrs))
                    )
                    ps.dirt_vals.append((aspect, obj, keys))
                else:
                    cells = _ivals(eval_expr(exprs[0], env, cache), g)
                    ps.dirt_vals.append((aspect, obj, cells))
            except (KernelBail, OverflowError):
                ps.dirt_vals.append((aspect, obj, None))
        if prog.supported and not ps.stopped and prog.const_result is None:
            if prog.port_expr is not None:
                ps.port_vals = _ivals(eval_expr(prog.port_expr, env, cache), g)
            ps.mod_vals = [
                (name, _ivals(eval_expr(expr, env, cache), g))
                for name, expr in prog.mods
            ]

    def _exec_step(self, step, env, cache, g, store):
        if isinstance(step, _Alloc):
            chain = store[step.obj]
            if chain.allocated_count() < chain.capacity:
                return _FREE
            # Full at chunk start, so full all chunk: every lane gets
            # the interpreter's ``(False, 0)``.
            env[step.ok] = Column(np.zeros(g, dtype=bool), 1.0)
            env[step.index] = Column(np.zeros(g, np.int64), 0.0)
            return _FULL
        if isinstance(step, _MapGet):
            data = store[step.obj]._data
            arrs = [
                _ivals(eval_expr(k, env, cache), g).tolist()
                for k in step.keys
            ]
            keys = (
                [(v,) for v in arrs[0]] if len(arrs) == 1
                else list(zip(*arrs))
            )
            vals = [data.get(k) for k in keys]
            found = np.fromiter((v is not None for v in vals), bool, count=g)
            value = np.fromiter(
                (0 if v is None else v for v in vals), np.int64, count=g
            )
            env[step.found] = Column(found, 1.0)
            env[step.value] = Column(value)
            return {"keys": keys, "oob": None}
        if isinstance(step, _VecBorrow):
            vec = store[step.obj]
            cells = _ivals(eval_expr(step.index, env, cache), g)
            oob = (cells < 0) | (cells >= vec.capacity)
            has_oob = bool(oob.any())
            safe = np.where(oob, 0, cells) if has_oob else cells
            uniq, inv = np.unique(safe, return_inverse=True)
            row = vec.row
            try:
                recs = [row(u) for u in uniq.tolist()]
                for fname, sym in step.fields:
                    vals = [r[fname] for r in recs]
                    env[sym] = self._value_column(vals, inv)
            except KeyError:
                raise KernelBail("missing vector field") from None
            return {"cells": cells, "oob": oob if has_oob else None}
        if isinstance(step, (_IsAlloc, _Rejuv)):
            chain = store[step.obj]
            cells = _ivals(eval_expr(step.index, env, cache), g)
            flags = chain.flags(cells)
            if isinstance(step, _IsAlloc):
                env[step.res] = Column(flags, 1.0)
            return {"cells": cells, "flags": flags, "oob": None}
        # _VecPut
        vec = store[step.obj]
        cells = _ivals(eval_expr(step.index, env, cache), g)
        oob = (cells < 0) | (cells >= vec.capacity)
        stored = []
        for fname, expr in step.stored:
            col = eval_expr(expr, env, cache)
            if col.is_float and col.fmask is not None \
                    and col.bound >= FLOAT_EXACT:
                raise KernelBail("mixed stored column beyond exact range")
            arr = np.asarray(col.arr)
            if arr.ndim == 0:
                arr = np.broadcast_to(arr, (g,))
                col = Column(arr, col.bound, col.fmask)
            stored.append((fname, col))
        return {
            "cells": cells,
            "oob": oob if bool(oob.any()) else None,
            "stored": stored,
        }

    @staticmethod
    def _value_column(vals, inv):
        """Unique-slot values -> per-lane Column, preserving int/float."""
        if any(isinstance(v, float) for v in vals):
            u_arr = np.array(vals, np.float64)
            bound = float(np.abs(u_arr).max()) if u_arr.size else 0.0
            if bound >= FLOAT_EXACT:
                raise KernelBail("vector values beyond exact float range")
            fm_u = np.fromiter(
                (isinstance(v, float) for v in vals), bool, count=len(vals)
            )
            fmask = fm_u[inv]
            return Column(
                u_arr[inv], bound, None if fmask.all() else fmask
            )
        try:
            u_arr = np.array([int(v) for v in vals], np.int64)
        except OverflowError:
            raise KernelBail("vector values beyond int64") from None
        if u_arr.size and abs(int(np.abs(u_arr).max())) >= INT_SAFE:
            raise KernelBail("vector values beyond safe int range")
        return Column(u_arr[inv])

    # -------------------------------------------------------------- #
    # Hazard analysis
    # -------------------------------------------------------------- #
    def _seed_board(self, groups, board):
        for g in groups:
            for ps in g.progs:
                prog = ps.prog
                if ps.bailed:
                    # No artifacts survived: wildcard every aspect this
                    # program could touch, including keyed suffix descs.
                    board.add_wild(prog.wild)
                    for aspect, obj, _ in prog.dirt_descs:
                        board.add(aspect, obj, None)
                elif not prog.supported or ps.stopped:
                    if ps.match is not None and ps.match.any():
                        self._publish_dirt(board, ps, ps.match)
                else:
                    excl = ps.match & ~ps.kmask
                    if excl.any():
                        self._publish_dirt(board, ps, excl)

    def _publish_dirt(self, board, ps, mask):
        """Publish the state footprint of ``mask`` lanes of one program."""
        prog = ps.prog
        for step, art in zip(prog.steps, ps.arts):
            aspect = _step_dirt_aspect(step)
            if aspect is None:
                continue
            cells = art["cells"][mask]
            if aspect == "ts_w":
                cells = cells[art["flags"][mask]]
            if cells.size:
                board.add(aspect, step.obj, cells.tolist())
        for aspect, obj, vals in ps.dirt_vals:
            if vals is None:
                board.add(aspect, obj, None)
            elif isinstance(vals, str):
                board.add(aspect, obj, self._reach(vals))
            elif aspect == "map_w":
                board.add(
                    aspect, obj,
                    [vals[i] for i in np.flatnonzero(mask).tolist()],
                )
            else:
                board.add(aspect, obj, vals[mask].tolist())

    def _reach(self, chain):
        """Cells the running domain's allocations on ``chain`` can return.

        Nothing frees an index inside a chunk, so at most ``k`` pops (the
        domain's lanes times their paths' allocations on ``chain``) take
        the top ``k`` cells of the free stack; past its end they fail
        with index 0.
        """
        cells = self._reaches.get(chain)
        if cells is None:
            store, groups = self._domain
            k = sum(g.g_lanes.size * g.pp.alloc_max[chain] for g in groups)
            cells = store[chain].reach(k)
            self._reaches[chain] = cells
        return cells

    def _multi_touch(self, groups):
        """Serialize same-cell vector writes: only one kernel lane may
        write a cell, and no other kernel lane may read it."""
        writer_entries = {}
        reader_entries = {}
        for g in groups:
            for ps in g.progs:
                if ps.kmask is None or not ps.kmask.any():
                    continue
                for si, step in enumerate(ps.prog.steps):
                    if isinstance(step, _VecPut):
                        writer_entries.setdefault(step.obj, []).append(
                            (g, ps, si)
                        )
                    elif isinstance(step, _VecBorrow):
                        reader_entries.setdefault(step.obj, []).append(
                            (g, ps, si)
                        )
        for obj, writers in writer_entries.items():
            owner = {}
            for g, ps, si in writers:
                lanes = g.g_lanes
                cells = ps.arts[si]["cells"]
                for p in np.flatnonzero(ps.kmask).tolist():
                    cell = int(cells[p])
                    lane = int(lanes[p])
                    prev = owner.get(cell)
                    if prev is None:
                        owner[cell] = lane
                    elif prev != lane:
                        owner[cell] = -2
            multi = {c for c, l in owner.items() if l == -2}
            for g, ps, si in writers:
                lanes = g.g_lanes
                cells = ps.arts[si]["cells"]
                for p in np.flatnonzero(ps.kmask).tolist():
                    if int(cells[p]) in multi:
                        ps.kmask[p] = False
            for g, ps, si in reader_entries.get(obj, ()):
                lanes = g.g_lanes
                cells = ps.arts[si]["cells"]
                for p in np.flatnonzero(ps.kmask).tolist():
                    cell = int(cells[p])
                    own = owner.get(cell)
                    if own is not None and own != int(lanes[p]):
                        ps.kmask[p] = False

    def _fixpoint(self, groups, board):
        for _ in range(_FIXPOINT_MAX):
            changed = False
            for g in groups:
                for ps in g.progs:
                    if ps.kmask is None or not ps.kmask.any():
                        continue
                    dem = self._demote_mask(ps, board)
                    if dem is not None and dem.any():
                        ps.kmask &= ~dem
                        self._publish_dirt(board, ps, dem)
                        changed = True
            if not changed:
                return
        # Fixpoint overran: demote every remaining kernel lane.
        for g in groups:
            for ps in g.progs:
                if ps.kmask is not None and ps.kmask.any():
                    mask = ps.kmask.copy()
                    ps.kmask[:] = False
                    self._publish_dirt(board, ps, mask)

    def _demote_mask(self, ps, board):
        kmask = ps.kmask
        if board.wild_all:
            return kmask.copy()
        dem = None
        for step, art in zip(ps.prog.steps, ps.arts):
            if isinstance(step, _MapGet):
                d = board.maps.get(step.obj, ())
                if d is None:
                    return kmask.copy()
                if d:
                    keys = art["keys"]
                    hit = [
                        p for p in np.flatnonzero(kmask).tolist()
                        if keys[p] in d
                    ]
                    if hit:
                        dem = self._mark(dem, kmask, hit)
            elif isinstance(step, _VecBorrow):
                dem = self._cell_demote(
                    dem, kmask, art["cells"], board.vec_w.get(step.obj, ())
                )
            elif isinstance(step, _VecPut):
                dem = self._cell_demote(
                    dem, kmask, art["cells"], board.vec_w.get(step.obj, ())
                )
                dem = self._cell_demote(
                    dem, kmask, art["cells"], board.vec_r.get(step.obj, ())
                )
            elif isinstance(step, (_Rejuv, _IsAlloc)):
                if isinstance(step, _Rejuv):
                    dem = self._cell_demote(
                        dem, kmask, art["cells"], board.ts_w.get(step.obj, ())
                    )
                # Allocation only flips free -> allocated, and only for
                # cells in the reach: a lane that read a free flag there
                # read a stale one.
                dirty = board.alloc.get(step.obj, ())
                if dirty is None or dirty:
                    dem = self._cell_demote(
                        dem, kmask & ~art["flags"], art["cells"], dirty
                    )
            # _Alloc: a full chain stays full all chunk; nothing demotes.
            if dem is not None and not (kmask & ~dem).any():
                break
        return dem

    @staticmethod
    def _mark(dem, kmask, positions):
        if dem is None:
            dem = np.zeros(kmask.shape, dtype=bool)
        dem[positions] = True
        return dem

    def _cell_demote(self, dem, kmask, cells, dirty):
        if dirty is None:
            return kmask.copy() if dem is None else (dem | kmask)
        if not dirty:
            return dem
        hit = kmask & np.isin(
            cells, np.fromiter(dirty, np.int64, count=len(dirty))
        )
        if hit.any():
            return hit if dem is None else (dem | hit)
        return dem

    # -------------------------------------------------------------- #
    # Fault injection (the fuzz oracle's `skew-kernel` leg)
    # -------------------------------------------------------------- #
    def _inject_fault(self, groups):
        if self.fault != "skew-kernel" or self._fault_fired:
            return None
        for g in groups:
            for ps in g.progs:
                if ps.kmask is not None and ps.kmask.any():
                    pos = int(np.flatnonzero(ps.kmask)[0])
                    ps.kmask[pos] = False
                    self._fault_fired = True
                    return (int(g.g_lanes[pos]), ps.prog)
        return None

    def _apply_fault(self, victim, results):
        lane, prog = victim
        kind = (
            ActionKind.FORWARD if prog.kind is ActionKind.DROP
            else ActionKind.DROP
        )
        port = 0 if kind is ActionKind.FORWARD else None
        results[lane] = PacketResult(kind, port, {}, prog.ops_list, False)
        self.path_ids[lane] = prog.pid

    # -------------------------------------------------------------- #
    # Stage 2: results, op accounting, scatters
    # -------------------------------------------------------------- #
    def _apply_group(self, group, results, cid, store):
        kept = 0
        g_lanes = group.g_lanes
        for ps in group.progs:
            if ps.kmask is None or not ps.kmask.any():
                continue
            prog = ps.prog
            kidx = np.flatnonzero(ps.kmask)
            lanes = g_lanes[kidx]
            lanes_l = lanes.tolist()
            n_k = kidx.size
            kept += n_k
            self.path_ids[lanes] = prog.pid
            # Lifetime op-count accounting, batched per context.
            if cid is not None:
                _bump(self._ctxs[cid], prog.bump_ops, n_k)
            else:
                counts = np.bincount(
                    self._core_ids[lanes], minlength=len(self._ctxs)
                )
                for c in np.flatnonzero(counts).tolist():
                    _bump(self._ctxs[c], prog.bump_ops, int(counts[c]))
            # Results.
            if prog.const_result is not None:
                r = prog.const_result
                for i in lanes_l:
                    results[i] = r
            elif ps.memo_results is not None:
                for r, i in zip(ps.memo_results[kidx].tolist(), lanes_l):
                    results[i] = r
            else:
                kind = prog.kind
                ops = prog.ops_list
                port_vals = ps.port_vals
                port_const = prog.port_const
                mod_vals = ps.mod_vals
                for p, i in zip(kidx.tolist(), lanes_l):
                    port = port_const if port_vals is None \
                        else int(port_vals[p])
                    mods = {name: int(vals[p]) for name, vals in mod_vals}
                    results[i] = PacketResult(kind, port, mods, ops, False)
            # Scatters: dchain timestamp refreshes and vector stores.
            # Hazard demotion guarantees cell-disjointness with every
            # interpreter lane and every other kernel lane, so apply
            # order only matters lane-internally (step order below).
            for step, art in zip(prog.steps, ps.arts):
                if isinstance(step, _Rejuv):
                    # Lanes from *different* port groups may rejuvenate
                    # the same cell; defer and apply in lane order so
                    # last-touched matches the interpreter's trace order.
                    pend = self._ts_pending.setdefault(step.obj, [])
                    live = kidx[art["flags"][kidx]]
                    pend.append((g_lanes[live], art["cells"][live]))
                elif isinstance(step, _VecPut):
                    vec = store[step.obj]
                    cells = art["cells"]
                    # Elastic runs re-tag overwritten rows with the
                    # writing packet's bucket (same bucket for every
                    # packet of a flow, so re-tagging is idempotent).
                    bindex = (
                        self._ctxs[cid].bucket_index
                        if cid is not None and self._bucket_ids is not None
                        else None
                    )
                    if bindex is not None:
                        bucket_ids = self._bucket_ids
                        for p in kidx.tolist():
                            bindex.note_index(
                                step.obj,
                                int(cells[p]),
                                int(bucket_ids[g_lanes[p]]),
                            )
                    rows = art.get("stored_rows")
                    if rows is not None:
                        for p in kidx.tolist():
                            vec.put(int(cells[p]), dict(rows[p]))
                    else:
                        stored = art["stored"]
                        for p in kidx.tolist():
                            rec = {}
                            for fname, col in stored:
                                v = col.arr[p]
                                if col.is_float:
                                    is_f = (
                                        True if col.fmask is None
                                        else bool(col.fmask[p])
                                    )
                                    rec[fname] = (
                                        float(v) if is_f else int(v)
                                    )
                                else:
                                    rec[fname] = int(v)
                            vec.put(int(cells[p]), rec)
        return kept

    def _flush_ts(self, store):
        if not self._ts_pending:
            return
        ts = self._cols.field("timestamp")
        for obj, parts in self._ts_pending.items():
            if len(parts) == 1:
                lanes, cells = parts[0]
            else:
                lanes = np.concatenate([p[0] for p in parts])
                cells = np.concatenate([p[1] for p in parts])
            if not lanes.size:
                continue
            # Lane order is the interpreter's apply order; only the
            # last write per cell is observable before the next chunk
            # boundary, so collapse to one store per touched cell.
            order = np.argsort(lanes, kind="stable")
            cells_s = cells[order]
            uniq, first_rev = np.unique(cells_s[::-1], return_index=True)
            last_pos = cells_s.size - 1 - first_rev
            store[obj].stamp(uniq, ts[lanes[order[last_pos]]])
        self._ts_pending = {}

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #
    def stats(self):
        total = self.kernel_packets + self.fallback_packets
        return {
            "paths": self.total_paths,
            "supported_paths": self.supported_paths,
            "kernel_packets": self.kernel_packets,
            "fallback_packets": self.fallback_packets,
            "coverage": self.kernel_packets / total if total else 0.0,
            "fallback_rate": self.fallback_packets / total if total else 0.0,
            "chunks": self.chunks,
            "bails": self.bails,
            "memo": {
                "hits": self.memo_hits,
                "misses": self.memo_misses,
                "invalidations": self.memo_invalidations,
            },
            "generation": self._generation,
        }

    def run_stats(self, kernel_before, fallback_before):
        kernel = self.kernel_packets - kernel_before
        fallback = self.fallback_packets - fallback_before
        total = kernel + fallback
        return {
            "paths": self.total_paths,
            "supported_paths": self.supported_paths,
            "kernel_packets": kernel,
            "fallback_packets": fallback,
            "coverage": kernel / total if total else 0.0,
            "fallback_rate": fallback / total if total else 0.0,
        }
