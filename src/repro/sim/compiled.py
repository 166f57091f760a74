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
and each demotion publishes that lane's own writes as new dirt.  A
packet whose ``expire_flows`` call sweeps runs alone on the
interpreter: the positions where each chain's once-per-simulated-second
gate fires are replayed from the trace timestamps up front
(:func:`repro.nf.runtime.expiry_triggers`), and each becomes a
one-lane chunk, so no sweep ever mutates state mid-chunk.  No other op
frees a dchain index, so the cells a chunk can allocate are the top of
each chain's free stack at chunk start (its *reach*), and a chain that
is full at chunk start stays full for the whole chunk.

The shard is a per-lane column: each chunk is classified once per
port over every core's lanes, each state read picks the lane's own
shard store, and hazard keys and cells carry the shard.  Nothing is
cached across chunks, so a ``rss.steering_generation`` bump needs no
flush: the next run simply reads the shards its new core ids name.
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
#: Op kinds known never to free a dchain index.  Expiry (whose sweeping
#: packets run alone, in one-lane chunks) is the only freeing op; a path
#: carrying any op outside this set withdraws the allocation narrowing
#: for its NF.
_NON_FREEING_OPS = frozenset({
    "map_get", "map_put", "map_erase", "vector_borrow", "vector_put",
    "vector_fill", "dchain_allocate", "dchain_is_allocated",
    "dchain_rejuvenate", "sketch_fetch", "sketch_touch",
})
#: Hazard-fixpoint iteration cap; on overrun the whole chunk is demoted.
_FIXPOINT_MAX = 64

#: ``_Alloc`` step artifact when the chain is full on every shard of
#: the group.  Otherwise the artifact's ``free`` mask marks the lanes
#: whose shard has a free index: every program crossing the step stops
#: there for them.
_FULL = {"oob": None}

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
    no op but expiry (never swept mid-chunk) frees a dchain index."""
    return all(
        e.op in _NON_FREEING_OPS or e.op == "expire"
        for path in paths for e in path.trace
    )


def _compile_path(path, pid, exact_alloc):
    """Lower one path to a :class:`_PathProgram` (never raises)."""
    prog = _PathProgram(pid, path.port)
    prog.source_path = path
    prog.kind = path.action.kind
    # Expiry never lowers: a packet whose sweep fires runs alone on the
    # interpreter, and on every other packet the gate records nothing.
    entries = [e for e in path.trace if e.op != "expire"]
    # Concrete op records, in concrete order (rejuvenation *is* recorded
    # concretely even though the engine marks it maintenance).
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
        "port", "programs", "swept", "fields", "need_time", "shared_ok",
        "any_supported", "alloc_max",
    )

    def __init__(self, port, programs, swept):
        self.port = port
        self.programs = programs
        #: The chains every packet of this port passes to
        #: ``expire_flows`` (empty when the NF never expires).
        self.swept = swept
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


def _swept_chains(path):
    """The chains ``path`` passes to ``expire_flows``: the engine emits
    a (chain, map) pair of ``expire`` entries per call."""
    return frozenset(
        [e.obj for e in path.trace if e.op == "expire"][::2]
    )


def _compile_port(nf, port, paths, pid_start, exact_alloc):
    """Compile one port's paths; raises LowerError when its paths do not
    all sweep the same chains, since the sweeps could then not be found
    from the trace alone.

    ``exact_alloc`` (see :func:`_alloc_exact`) enables reach-keyed
    allocation dirt and the full-chain ``dchain_allocate`` lowering.
    """
    swept = _swept_chains(paths[0])
    if any(_swept_chains(path) != swept for path in paths):
        raise LowerError(f"paths of port {port} sweep different chains")
    programs = [
        _compile_path(path, pid_start + i, exact_alloc)
        for i, path in enumerate(paths)
    ]
    if nf.expiration_time is None:
        swept = frozenset()
    return _PortProgram(port, programs, swept)


def compile_parallel(parallel: ParallelNF):
    """Compile a parallel NF's execution tree into a dispatcher.

    The tree is the analysis's ``parallel.symbex_tree`` when it is set.
    When nothing useful can be compiled (no supported path anywhere, or
    a port whose paths sweep different chains) the dispatcher holds no
    programs and runs every lane on the interpreter.
    """
    nf = parallel.nf
    tree = parallel.symbex_tree
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
def _qualify(cells, shards, n_shards):
    """Shard-qualified cells: ``cell * n_shards + shard``.

    A cell no store can hold (negative, or too large to encode) becomes
    -1.  Kernel lanes keep it, so it matches no dirt; dirt drops it,
    because an operation at such a cell touches no state.
    """
    ok = (cells >= 0) & (cells <= INT_SAFE // n_shards)
    return np.where(ok, cells * n_shards + shards, -1)


def _by_shard(shards, n_shards):
    """``(shard, lane positions)`` per shard present, in shard order;
    the positions are None when one shard holds every lane."""
    if n_shards == 1:
        return [(0, None)]
    counts = np.bincount(shards, minlength=n_shards)
    present = np.flatnonzero(counts).tolist()
    if len(present) == 1:
        return [(present[0], None)]
    order = np.argsort(shards, kind="stable")
    ends = np.cumsum(counts[present]).tolist()
    return [
        (s, order[e - int(counts[s]):e]) for s, e in zip(present, ends)
    ]


def _on_shards(shards, wild):
    """Lanes whose shard is in the set ``wild``."""
    return np.isin(shards, np.fromiter(wild, np.int64, count=len(wild)))


class _DirtBoard:
    """Chunk-local record of state touched by interpreter-bound lanes.

    Per aspect and object, an entry holds the shards dirtied wholesale
    (wildcards) and the exact keys or cells, each qualified by its
    shard: ``(shard, key)`` for map keys, :func:`_qualify` for cells.
    ``alloc`` cells are a chain's reach: the free cells an allocation
    this chunk can hand out.  ``wild_all`` holds the shards where a
    lane of a port with no program runs interpreted.
    """

    __slots__ = ("tables", "wild_all")

    def __init__(self):
        self.tables = {
            aspect: {} for aspect in ("map_w", "vec_w", "vec_r", "ts_w",
                                      "alloc")
        }
        self.wild_all = set()

    def get(self, aspect, obj):
        """``(wildcard shards, qualified keys)`` of ``obj``, or None."""
        return self.tables[aspect].get(obj)

    def _entry(self, aspect, obj):
        table = self.tables[aspect]
        entry = table.get(obj)
        if entry is None:
            entry = table[obj] = (set(), set())
        return entry

    def add(self, aspect, obj, values):
        """Mark shard-qualified keys or cells of ``obj`` dirty."""
        self._entry(aspect, obj)[1].update(values)

    def add_wild(self, aspect, obj, shards):
        """Mark all of ``obj`` dirty on each of ``shards``."""
        self._entry(aspect, obj)[0].update(shards)


class _ProgState:
    """Per-chunk evaluation state of one program over one port group."""

    __slots__ = (
        "prog", "shards", "match", "force_f", "kmask", "bailed", "arts",
        "dirt_vals", "stops", "stopped", "port_vals", "mod_vals",
    )

    def __init__(self, prog, shards):
        self.prog = prog
        #: The shard of each lane of the group.
        self.shards = shards
        self.match = None
        self.force_f = None
        self.kmask = None
        self.bailed = False
        self.arts = []
        self.dirt_vals = []
        #: Lanes stopped at an allocation whose chain has a free index
        #: on their shard, per allocation: ``(steps run before it, lane
        #: mask, footprint of the path from it on)``.  ``stopped`` is
        #: the union of the masks (None while empty); these lanes run
        #: interpreted, and ``match`` excludes them.
        self.stops = []
        self.stopped = None
        self.port_vals = None
        self.mod_vals = None


class _Group:
    """One port's lanes of a chunk, over every shard, and their
    classification state."""

    __slots__ = ("pp", "g_lanes", "shards", "by_shard", "progs")

    def __init__(self, pp, g_lanes, shards, n_shards):
        self.pp = pp
        self.g_lanes = g_lanes
        self.shards = shards
        self.by_shard = _by_shard(shards, n_shards)
        self.progs = [_ProgState(p, shards) for p in pp.programs]


def _ivals(col, g):
    """Column -> int64 array of length ``g`` (broadcasting scalars)."""
    arr = np.asarray(_to_int(col))
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, (g,))
    return arr


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


def _stored_values(col, kidx):
    """Python values a ``vector_put`` stores from column ``col`` at
    lanes ``kidx``: floats where the lane holds a float, else ints."""
    arr = col.arr[kidx]
    if not col.is_float:
        return arr.astype(np.int64).tolist()
    if col.fmask is None:
        return arr.tolist()
    return [
        v if is_f else int(v)
        for v, is_f in zip(arr.tolist(), col.fmask[kidx].tolist())
    ]


def _hit_or(dem, hit):
    """``dem | hit``, where None is an empty mask."""
    if hit is None or not hit.any():
        return dem
    return hit if dem is None else dem | hit


class CompiledDispatcher:
    """Executes traces through compiled kernels with interpreter fallback."""

    def __init__(self, parallel, ports, total_paths):
        self.parallel = parallel
        self.ports = ports
        self.chunk = DEFAULT_CHUNK
        self.total_paths = total_paths
        self.supported_paths = sum(
            1 for pp in ports.values() for p in pp.programs if p.supported
        )
        self.kernel_packets = 0
        self.fallback_packets = 0
        self.chunks = 0
        self.bails = 0
        self.path_ids = np.zeros(0, dtype=np.int32)
        self._sn = parallel.strategy is Strategy.SHARED_NOTHING
        self._ctxs = []
        self._bucket_ids = None
        self._cols = None
        #: Per run: the packets whose ``expire_flows`` call sweeps.
        self._sweeps = set()
        self._ts_pending = {}
        #: Per run: the stores kernels read (one per core under
        #: shared-nothing, else the one shared store) and each packet's
        #: shard, its index in ``_stores``.
        self._stores = []
        self._shards = None
        #: The running chunk's groups, and its reaches per (shard, chain).
        self._groups = []
        self._reaches = {}

    # -------------------------------------------------------------- #
    # Run setup
    # -------------------------------------------------------------- #
    def start_run(self, cols, core_ids, window_packets, bucket_ids=None):
        """Bind one run's :class:`~repro.traffic.TraceColumns`; return chunk edges.

        Every per-run table is derived from ``cols`` and ``core_ids``
        afresh, so nothing carries over from an earlier run: a re-steered
        trace reads the shards its new core ids name.
        """
        n = len(cols)
        self._cols = cols
        # Bound per run: a rescale between runs may revive cores.
        self._ctxs = [core.ctx for core in self.parallel.cores]
        #: Per-packet indirection-table slots (elastic runs only): the
        #: fallback path installs them as ``ctx.current_bucket`` so
        #: establishment packets bucket-tag the state they create, and
        #: kernel vector scatters re-tag the rows they overwrite.
        self._bucket_ids = bucket_ids
        self._ports_arr = cols.ports
        self._core_ids = core_ids
        if self._sn:
            self._stores = [ctx.store for ctx in self._ctxs]
            self._shards = core_ids
        else:
            self._stores = [self._ctxs[0].store]
            self._shards = np.zeros(n, np.int64)
        self.path_ids = np.full(n, -1, dtype=np.int32)
        self._sweeps = self._plan_sweeps()
        edges = {0, n}
        if self.ports:
            # The chunk bound is the hazard-analysis horizon; without
            # programs there is no hazard analysis to bound.
            edges.update(range(self.chunk, n, self.chunk))
        if window_packets:
            edges.update(range(window_packets, n, window_packets))
        # Each sweeping packet is a one-lane chunk.
        edges.update(self._sweeps)
        edges.update(t + 1 for t in self._sweeps)
        return sorted(edges)

    def end_run(self):
        self._cols = None
        self._sweeps = set()
        self._bucket_ids = None
        self._stores = []
        self._shards = None
        self._groups = []

    def _field_col(self, name):
        """Column of symbol ``pkt.<field>``, shared with steering."""
        return self._cols.field(name[4:])

    def _plan_sweeps(self):
        """The packets whose ``expire_flows`` call sweeps a chain.

        Every packet of a port calls ``expire_flows`` on each chain in
        its program's ``swept`` set, so each context's gate per chain
        is replayed over that context's packets of the ports sweeping
        the chain.
        """
        ports_of = {}
        for port, pp in self.ports.items():
            for chain in pp.swept:
                ports_of.setdefault(chain, []).append(port)
        sweeps = set()
        if not ports_of:
            return sweeps
        ts = self._cols.field("timestamp")
        for chain, ports in ports_of.items():
            pmask = np.isin(self._ports_arr, ports)
            for ci, ctx in enumerate(self._ctxs):
                idxs = np.flatnonzero(pmask & (self._core_ids == ci))
                if idxs.size:
                    sweeps.update(
                        idxs[ctx.sweep_positions(chain, ts[idxs])].tolist()
                    )
        return sweeps

    # -------------------------------------------------------------- #
    # Chunk execution
    # -------------------------------------------------------------- #
    def run_chunk(self, start, end, results):
        self.chunks += 1
        if start in self._sweeps:
            # A sweeping packet runs alone, so its ``expire_flows``
            # frees cells between chunks, never inside one.
            self._run_fallback(np.arange(start, end), results)
            self.fallback_packets += end - start
            return
        self._run_lanes(start, end, results)

    def _run_lanes(self, start, end, results):
        """Classify each port group of the chunk once, over every shard,
        then run the fallback lanes and apply the kernel lanes."""
        lanes = np.arange(start, end)
        ports_l = self._ports_arr[start:end]
        shards = self._shards[start:end]
        n_shards = len(self._stores)
        groups = []
        uncovered = np.ones(lanes.size, dtype=bool)
        for port, pp in sorted(self.ports.items()):
            pos = np.flatnonzero(ports_l == port)
            if pos.size:
                uncovered[pos] = False
                group = _Group(pp, lanes[pos], shards[pos], n_shards)
                self._eval_group(group)
                groups.append(group)
        if not groups:
            self._run_fallback(lanes, results)
            self.fallback_packets += lanes.size
            return
        board = _DirtBoard()
        # Lanes of a port with no program run interpreted with an
        # unknown footprint: no kernel lane of their shard may trust
        # its reads.
        if uncovered.any():
            board.wild_all.update(np.unique(shards[uncovered]).tolist())
        self._groups = groups
        self._reaches = {}
        self._seed_board(groups, board)
        self._multi_touch(groups)
        self._fixpoint(groups, board)
        k_flag = np.zeros(lanes.size, dtype=bool)
        for g in groups:
            pos = g.g_lanes - start
            for ps in g.progs:
                if ps.kmask is not None and ps.kmask.any():
                    k_flag[pos[ps.kmask]] = True
        f_lanes = lanes[~k_flag]
        self._run_fallback(f_lanes, results)
        kept = 0
        for g in groups:
            kept += self._apply_group(g, results)
        self._flush_ts()
        self.kernel_packets += kept
        self.fallback_packets += f_lanes.size

    def _run_fallback(self, f_lanes, results):
        if not f_lanes.size:
            return
        trace = self._cols.trace
        ctxs = self._ctxs
        cores = self._core_ids[f_lanes]
        if not self._sn:
            # Shared state: strict trace order.  Elastic runs are
            # shared-nothing, so there are no buckets to install here.
            for i, c in zip(f_lanes.tolist(), cores.tolist()):
                results[i] = ctxs[c].run(*trace[i])
            return
        # Shared-nothing: cores touch disjoint state, so each core's
        # lanes run together, in trace order.
        buckets = self._bucket_ids
        for c in np.unique(cores).tolist():
            idx = f_lanes[cores == c].tolist()
            ctx = ctxs[c]
            if buckets is None:
                outs = starmap(ctx.run, [trace[i] for i in idx])
                for i, result in zip(idx, outs):
                    results[i] = result
            else:
                for i in idx:
                    ctx.current_bucket = int(buckets[i])
                    results[i] = ctx.run(*trace[i])

    # -------------------------------------------------------------- #
    # Stage 1: classification
    # -------------------------------------------------------------- #
    def _eval_group(self, group):
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
        claimed = np.zeros(g, dtype=bool)
        for prog, ps in zip(pp.programs, group.progs):
            if not shared:
                env = dict(base_env)
                cache = {}
                step_cache = {}
            try:
                self._eval_program(prog, ps, env, cache, step_cache, group)
            except (KernelBail, OverflowError):
                ps.bailed = True
                ps.match = None
                self.bails += 1
                continue
            if prog.supported:
                m = ps.match & ~ps.force_f & ~claimed
                ps.kmask = m
                claimed |= m

    def _eval_program(self, prog, ps, env, cache, step_cache, group):
        g = group.g_lanes.size
        alive = np.ones(g, dtype=bool)
        force_f = np.zeros(g, dtype=bool)
        for tag, x in prog.items:
            if tag == "c":
                alive = np.logical_and(alive, as_bool(eval_expr(x, env, cache)))
                continue
            art = step_cache.get(x.sig)
            if art is None:
                art = self._exec_step(x, env, cache, group)
                step_cache[x.sig] = art
            free = art.get("free")
            if free is not None:
                # The chain has a free index on these lanes' shards: they
                # stop here and publish the footprint of the path from
                # the allocation on.
                stop = alive & free
                if stop.any():
                    ps.stops.append((
                        len(ps.arts), stop,
                        self._eval_dirt(x.suffix, env, cache, g),
                    ))
                    ps.stopped = stop if ps.stopped is None \
                        else ps.stopped | stop
                alive = alive & ~free
                if not alive.any():
                    break
            ps.arts.append(art)
            oob = art.get("oob")
            if oob is not None:
                force_f = force_f | oob
        else:
            ps.dirt_vals = self._eval_dirt(prog.dirt_descs, env, cache, g)
            if prog.supported and prog.const_result is None:
                if prog.port_expr is not None:
                    ps.port_vals = _ivals(
                        eval_expr(prog.port_expr, env, cache), g
                    )
                ps.mod_vals = [
                    (name, _ivals(eval_expr(expr, env, cache), g))
                    for name, expr in prog.mods
                ]
        ps.match = alive
        ps.force_f = force_f

    @staticmethod
    def _eval_dirt(descs, env, cache, g):
        """Per-lane values of dirt descriptors: a list of key columns for
        ``map_w``, a cell column otherwise; None (wildcard) or a chain
        name (its reach) pass through."""
        out = []
        for aspect, obj, exprs in descs:
            if exprs is not None and not isinstance(exprs, str):
                try:
                    if aspect == "map_w":
                        exprs = [
                            _ivals(eval_expr(k, env, cache), g) for k in exprs
                        ]
                    else:
                        exprs = _ivals(eval_expr(exprs[0], env, cache), g)
                except (KernelBail, OverflowError):
                    exprs = None
            out.append((aspect, obj, exprs))
        return out

    def _exec_step(self, step, env, cache, group):
        g = group.g_lanes.size
        stores = self._stores
        n_shards = len(stores)
        by_shard = group.by_shard
        if isinstance(step, _Alloc):
            free = [
                s for s, _ in by_shard
                if stores[s][step.obj].allocated_count()
                < stores[s][step.obj].capacity
            ]
            # A chain full at chunk start stays full all chunk: its
            # lanes get the interpreter's ``(False, 0)``.
            env[step.ok] = Column(np.zeros(g, dtype=bool), 1.0)
            env[step.index] = Column(np.zeros(g, np.int64), 0.0)
            if not free:
                return _FULL
            mask = np.zeros(g, dtype=bool)
            if len(free) == len(by_shard):
                mask[:] = True
            else:
                for s, pos in by_shard:
                    if s in free:
                        mask[pos] = True
            return {"oob": None, "free": mask}
        if isinstance(step, _MapGet):
            keys = list(zip(*[
                _ivals(eval_expr(k, env, cache), g).tolist()
                for k in step.keys
            ]))
            if len(by_shard) == 1:
                data = stores[by_shard[0][0]][step.obj]._data
                found = map(data.__contains__, keys)
                value = map(data.get, keys, repeat(0))
            else:
                # Each lane probes its own shard's map, in one pass.
                datas = [store[step.obj]._data for store in stores]
                lane_data = list(map(datas.__getitem__, group.shards.tolist()))
                found = map(dict.__contains__, lane_data, keys)
                value = map(dict.get, lane_data, keys, repeat(0))
            env[step.found] = Column(np.fromiter(found, bool, count=g), 1.0)
            env[step.value] = Column(np.fromiter(value, np.int64, count=g))
            return {"keys": keys, "oob": None}
        if isinstance(step, _VecBorrow):
            cells = _ivals(eval_expr(step.index, env, cache), g)
            # Every shard of a structure has the same capacity.
            oob = (cells < 0) | (cells >= stores[0][step.obj].capacity)
            has_oob = bool(oob.any())
            safe = np.where(oob, 0, cells) if has_oob else cells
            # One row read per distinct (shard, cell).
            q = safe * n_shards + group.shards
            uniq, inv = np.unique(q, return_inverse=True)
            try:
                if n_shards == 1:
                    recs = list(map(stores[0][step.obj].row, uniq.tolist()))
                else:
                    rows = [store[step.obj].row for store in stores]
                    recs = [
                        rows[s](c) for c, s in zip(
                            (uniq // n_shards).tolist(),
                            (uniq % n_shards).tolist(),
                        )
                    ]
                for fname, sym in step.fields:
                    env[sym] = self._value_column(
                        [r[fname] for r in recs], inv
                    )
            except KeyError:
                raise KernelBail("missing vector field") from None
            return {
                "cells": cells,
                "q": np.where(oob, -1, q) if has_oob else q,
                "oob": oob if has_oob else None,
            }
        if isinstance(step, (_IsAlloc, _Rejuv)):
            cells = _ivals(eval_expr(step.index, env, cache), g)
            flags = np.empty(g, dtype=bool)
            for s, pos in by_shard:
                chain = stores[s][step.obj]
                if pos is None:
                    flags = chain.flags(cells)
                else:
                    flags[pos] = chain.flags(cells[pos])
            if isinstance(step, _IsAlloc):
                env[step.res] = Column(flags, 1.0)
            return {
                "cells": cells,
                "q": _qualify(cells, group.shards, n_shards),
                "flags": flags,
                "oob": None,
            }
        # _VecPut
        cells = _ivals(eval_expr(step.index, env, cache), g)
        oob = (cells < 0) | (cells >= stores[0][step.obj].capacity)
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
            "q": _qualify(cells, group.shards, n_shards),
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
                    # program could touch on the group's shards,
                    # including keyed suffix descs.
                    shards = [s for s, _ in g.by_shard]
                    for aspect, obj in prog.wild:
                        board.add_wild(aspect, obj, shards)
                    for aspect, obj, _ in prog.dirt_descs:
                        board.add_wild(aspect, obj, shards)
                    continue
                fall = ps.match & ~ps.kmask if prog.supported else ps.match
                if ps.stopped is not None:
                    fall = fall | ps.stopped
                if fall.any():
                    self._publish_dirt(board, ps, fall)

    def _publish_dirt(self, board, ps, mask):
        """Publish the state footprint of ``mask`` lanes of one program."""
        for n_steps, stop, vals in ps.stops:
            sel = mask & stop
            if sel.any():
                self._publish(board, ps, sel, n_steps, vals)
        if ps.stopped is not None:
            mask = mask & ~ps.stopped
            if not mask.any():
                return
        self._publish(board, ps, mask, len(ps.arts), ps.dirt_vals)

    def _publish(self, board, ps, mask, n_steps, dirt_vals):
        """Publish the first ``n_steps`` steps' cells and ``dirt_vals``
        of ``mask`` lanes."""
        for step, art in zip(ps.prog.steps[:n_steps], ps.arts):
            aspect = _step_dirt_aspect(step)
            if aspect is None:
                continue
            sel = mask & art["flags"] if aspect == "ts_w" else mask
            q = art["q"][sel]
            if q.size:
                board.add(aspect, step.obj, q[q >= 0].tolist())
        shards = ps.shards[mask]
        present = None
        for aspect, obj, vals in dirt_vals:
            if vals is None or isinstance(vals, str):
                if present is None:
                    present = np.unique(shards).tolist()
                if vals is None:
                    board.add_wild(aspect, obj, present)
                else:
                    for s in present:
                        board.add(aspect, obj, self._reach(s, vals))
            elif aspect == "map_w":
                board.add(aspect, obj, zip(
                    shards.tolist(), zip(*[a[mask].tolist() for a in vals])
                ))
            else:
                q = _qualify(vals[mask], shards, len(self._stores))
                board.add(aspect, obj, q[q >= 0].tolist())

    def _reach(self, shard, chain):
        """Qualified cells allocations on ``chain`` can return on
        ``shard`` this chunk.

        Nothing frees an index inside a chunk, so at most ``k`` pops (the
        shard's lanes times their paths' allocations on ``chain``) take
        the top ``k`` cells of its free stack; past its end they fail
        with index 0.
        """
        cells = self._reaches.get((shard, chain))
        if cells is None:
            k = sum(
                int(np.count_nonzero(g.shards == shard))
                * g.pp.alloc_max[chain]
                for g in self._groups if g.pp.alloc_max[chain]
            )
            n_shards = len(self._stores)
            cells = [
                c * n_shards + shard
                for c in self._stores[shard][chain].reach(k)
            ]
            self._reaches[(shard, chain)] = cells
        return cells

    def _multi_touch(self, groups):
        """Serialize same-cell vector writes: only one kernel lane may
        write a cell, and no other kernel lane may read it.

        Objects go in order of first use; each sees the kernel lanes the
        objects before it left.
        """
        writers = {}
        readers = {}
        for g in groups:
            for ps in g.progs:
                if ps.kmask is None or not ps.kmask.any():
                    continue
                for si, step in enumerate(ps.prog.steps):
                    if isinstance(step, _VecPut):
                        writers.setdefault(step.obj, []).append((g, ps, si))
                    elif isinstance(step, _VecBorrow):
                        readers.setdefault(step.obj, []).append((g, ps, si))
        for obj, entries in writers.items():
            kidxs = [np.flatnonzero(ps.kmask) for _, ps, _ in entries]
            cells = np.concatenate([
                ps.arts[si]["q"][k] for (_, ps, si), k in zip(entries, kidxs)
            ])
            lanes = np.concatenate([
                g.g_lanes[k] for (g, _, _), k in zip(entries, kidxs)
            ])
            # Each distinct (cell, lane) once, by cell: a cell two lanes
            # write has no single owner.
            order = np.lexsort((lanes, cells))
            cells = cells[order]
            lanes = lanes[order]
            new = np.ones(cells.size, dtype=bool)
            new[1:] = (cells[1:] != cells[:-1]) | (lanes[1:] != lanes[:-1])
            uniq, first, counts = np.unique(
                cells[new], return_index=True, return_counts=True
            )
            owner = lanes[new][first]
            owner[counts > 1] = -1
            multi = uniq[counts > 1]
            if multi.size:
                for (_, ps, si), k in zip(entries, kidxs):
                    ps.kmask[k[np.isin(ps.arts[si]["q"][k], multi)]] = False
            for g, ps, si in readers.get(obj, ()):
                k = np.flatnonzero(ps.kmask)
                q = ps.arts[si]["q"][k]
                at = np.minimum(np.searchsorted(uniq, q), uniq.size - 1)
                written = uniq[at] == q
                ps.kmask[k[written & (owner[at] != g.g_lanes[k])]] = False

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
        shards = ps.shards
        dem = None
        if board.wild_all:
            dem = _hit_or(None, kmask & _on_shards(shards, board.wild_all))
        for step, art in zip(ps.prog.steps, ps.arts):
            if isinstance(step, _MapGet):
                dem = _hit_or(dem, self._key_hit(
                    kmask, shards, art["keys"], board.get("map_w", step.obj)
                ))
            elif isinstance(step, _VecBorrow):
                dem = _hit_or(dem, self._cell_hit(
                    kmask, shards, art["q"], board.get("vec_w", step.obj)
                ))
            elif isinstance(step, _VecPut):
                for aspect in ("vec_w", "vec_r"):
                    dem = _hit_or(dem, self._cell_hit(
                        kmask, shards, art["q"], board.get(aspect, step.obj)
                    ))
            elif isinstance(step, (_Rejuv, _IsAlloc)):
                if isinstance(step, _Rejuv):
                    dem = _hit_or(dem, self._cell_hit(
                        kmask, shards, art["q"], board.get("ts_w", step.obj)
                    ))
                # Allocation only flips free -> allocated, and only for
                # cells in the reach: a lane that read a free flag there
                # read a stale one.
                dem = _hit_or(dem, self._cell_hit(
                    kmask & ~art["flags"], shards, art["q"],
                    board.get("alloc", step.obj),
                ))
            # _Alloc: a full chain stays full all chunk; nothing demotes.
            if dem is not None and not (kmask & ~dem).any():
                break
        return dem

    @staticmethod
    def _cell_hit(kmask, shards, q, entry):
        """Lanes of ``kmask`` whose qualified cell ``entry`` dirties."""
        if entry is None:
            return None
        wild, cells = entry
        hit = kmask & _on_shards(shards, wild) if wild else None
        if cells:
            h = kmask & np.isin(
                q, np.fromiter(cells, np.int64, count=len(cells))
            )
            hit = h if hit is None else hit | h
        return hit

    @staticmethod
    def _key_hit(kmask, shards, keys, entry):
        """Lanes of ``kmask`` whose map key ``entry`` dirties."""
        if entry is None:
            return None
        wild, dirty = entry
        hit = kmask & _on_shards(shards, wild) if wild else None
        if dirty:
            kidx = np.flatnonzero(kmask)
            pos = [
                p for p, s in zip(kidx.tolist(), shards[kidx].tolist())
                if (s, keys[p]) in dirty
            ]
            if pos:
                if hit is None:
                    hit = np.zeros(kmask.shape, dtype=bool)
                hit[pos] = True
        return hit

    # -------------------------------------------------------------- #
    # Stage 2: results, op accounting, scatters
    # -------------------------------------------------------------- #
    def _apply_group(self, group, results):
        kept = 0
        g_lanes = group.g_lanes
        stores = self._stores
        ctxs = self._ctxs
        for ps in group.progs:
            if ps.kmask is None or not ps.kmask.any():
                continue
            prog = ps.prog
            kidx = np.flatnonzero(ps.kmask)
            lanes = g_lanes[kidx]
            lanes_l = lanes.tolist()
            kept += kidx.size
            self.path_ids[lanes] = prog.pid
            # Lifetime op-count accounting, batched per context.
            counts = np.bincount(self._core_ids[lanes], minlength=len(ctxs))
            for c in np.flatnonzero(counts).tolist():
                _bump(ctxs[c], prog.bump_ops, int(counts[c]))
            # Results.
            if prog.const_result is not None:
                r = prog.const_result
                for i in lanes_l:
                    results[i] = r
            else:
                ports = (
                    repeat(prog.port_const) if ps.port_vals is None
                    else ps.port_vals[kidx].tolist()
                )
                names = [name for name, _ in ps.mod_vals]
                rows = zip(*[vals[kidx].tolist() for _, vals in ps.mod_vals])
                mods = (
                    [dict(zip(names, row)) for row in rows] if names
                    else [{} for _ in lanes_l]
                )
                for i, r in zip(lanes_l, map(
                    PacketResult, repeat(prog.kind), ports, mods,
                    repeat(prog.ops_list), repeat(False),
                )):
                    results[i] = r
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
                    pend.append((g_lanes[live], art["q"][live]))
                elif isinstance(step, _VecPut):
                    vecs = [store[step.obj] for store in stores]
                    cells = art["cells"][kidx].tolist()
                    shards = ps.shards[kidx].tolist()
                    # Elastic runs re-tag overwritten rows with the
                    # writing packet's bucket (same bucket for every
                    # packet of a flow, so re-tagging is idempotent).
                    bucket_ids = self._bucket_ids
                    if bucket_ids is not None:
                        for c, s, i in zip(cells, shards, lanes_l):
                            bindex = ctxs[s].bucket_index
                            if bindex is not None:
                                bindex.note_index(
                                    step.obj, c, int(bucket_ids[i])
                                )
                    fnames = [fname for fname, _ in art["stored"]]
                    cols = [_stored_values(col, kidx) for _, col in art["stored"]]
                    for c, s, row in zip(cells, shards, zip(*cols)):
                        vecs[s].put(c, dict(zip(fnames, row)))
        return kept

    def _flush_ts(self):
        if not self._ts_pending:
            return
        ts = self._cols.field("timestamp")
        n_shards = len(self._stores)
        for obj, parts in self._ts_pending.items():
            if len(parts) == 1:
                lanes, q = parts[0]
            else:
                lanes = np.concatenate([p[0] for p in parts])
                q = np.concatenate([p[1] for p in parts])
            if not lanes.size:
                continue
            # Lane order is the interpreter's apply order; only the
            # last write per (shard, cell) is observable before the next
            # chunk boundary, so collapse to one store per touched cell.
            order = np.argsort(lanes, kind="stable")
            q_s = q[order]
            uniq, first_rev = np.unique(q_s[::-1], return_index=True)
            times = ts[lanes[order[q_s.size - 1 - first_rev]]]
            shard = uniq % n_shards
            cells = uniq // n_shards
            for s in np.unique(shard).tolist():
                on = shard == s
                self._stores[s][obj].stamp(cells[on], times[on])
        self._ts_pending = {}

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #
    def stats(self):
        return {
            **self.run_stats(0, 0),
            "chunks": self.chunks,
            "bails": self.bails,
            # Always zero: nothing is memoized.  Kept only because the
            # perfbench harness reads it (ROADMAP item 3).
            "memo": {"hits": 0, "misses": 0},
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
