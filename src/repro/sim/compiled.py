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
  scatters: dchain timestamp refreshes, vector slot stores, and per
  shard, in lane order, the allocations and map inserts of flow
  establishment.

Lanes on paths the lowerer cannot express (sketch paths, hash
functions) fall back to the packet-at-a-time interpreter, which remains
the oracle: kernel output is bit-identical to
:meth:`repro.nf.runtime.ConcreteContext.run`.

Correctness hinges on the *frozen-prefix* discipline.  Classification
reads pre-chunk state; each chunk then applies every kernel write and
runs its interpreter lanes after, which see those writes.  So one
conflict pass keeps a kernel lane only while nothing earlier in the
chunk conflicts with it: kernel lane j leaves the kernels when an
earlier interpreter lane touches its footprint in either direction,
an earlier kernel lane writes what it reads (or, for a vector row,
writes it too: row scatters are not applied in lane order), or an
earlier ranked lane of another tree node ranks on its shard of a
chain or map.  A demoted lane touches its interpreter footprint,
which holds its kernel footprint, so it only meets later lanes, and
the pass repeats until it demotes nothing; a pass that goes on has
demoted one of the chunk's finitely many kernel lanes.  A packet whose
``expire_flows`` call sweeps runs alone on the interpreter: the
positions where each chain's once-per-simulated-second gate fires are
replayed from the trace timestamps up front
(:func:`repro.nf.runtime.expiry_triggers`), and each becomes a
one-lane chunk, so no sweep ever mutates state mid-chunk.  No other op
frees a dchain index, so the k-th allocation of a chunk on a shard pops
the k-th cell of that shard's free stack at chunk start: allocating
kernel lanes are ranked in lane order per tree node and shard, and the
cells any allocation of the chunk can return are the top of the stack
(its *reach*).

The shard is a per-lane column: each chunk is classified once per
port over every core's lanes, each state read picks the lane's own
shard store, and conflict keys and cells carry the shard.  The one thing
kept across chunks is each map's :class:`~repro.nf.state.MapIndex`,
which map probes of a chunk of at least ``INDEX_MIN_LANES`` lanes read
in one pass over every shard (smaller chunks probe the dicts).  It
stays exact because such a chunk first reconciles it with every key
its shards' maps logged since (interpreter and kernel puts and erases
alike), and it rebuilds from the dicts when the run's stores change.
So a ``rss.steering_generation`` bump needs no flush: the next run
simply reads the shards its new core ids name.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import repeat, starmap

import numpy as np

from repro import obs
from repro.core.codegen import ParallelNF, Strategy
from repro.nf.api import ActionKind
from repro.nf.packet import PACKET_FIELDS
from repro.nf.runtime import OpRecord, PacketResult
from repro.nf.state import MapIndex, key_hash
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

#: Lanes per kernel chunk (also the conflict pass's horizon).
DEFAULT_CHUNK = 2048

#: Fewest lanes a chunk needs to probe maps through their indexes (the
#: default of ``CompiledDispatcher.index_min_lanes``).  An index probe
#: has a fixed cost of about 100 dict probes (350 when the chunk first
#: reconciles two logged keys), so a smaller chunk probes the dicts, and
#: the logs wait for the next indexed chunk.
INDEX_MIN_LANES = 256

#: Aspects: how a lane touches an object, as the state it names and
#: whether the lane writes it.  A map's keys (``key``) and the values
#: its puts store (``val``, for the store's value index) are keyed by
#: (shard, key) row hashes, its entry count (``n``) by the shard, and
#: vector rows, chain flags and timestamps by shard-qualified cells.
#: An allocation writes the flag of the cell it pops.
_SPACE = {
    "map_w": ("key", True), "map_r": ("key", False), "map_v": ("val", True),
    "map_n": ("n", True), "vec_w": ("vec", True), "vec_r": ("vec", False),
    "ts_w": ("ts", True), "flag_r": ("flag", False), "alloc": ("flag", True),
}
_ASPECTS = tuple(_SPACE)
_ROW_ASPECTS = frozenset({"map_w", "map_r", "map_v"})

#: The footprint of each ``NfContext`` state op run interpreted: per
#: aspect, the operand it is keyed by (the entry's ``"key"``, its stored
#: ``"value"``, its cell ``"index"``, the ``"reach"`` of the chain it
#: allocates on), or None for a shard-wide wildcard (``map_n`` marks a
#: map whose entry count the lane changes).  Sketches never run on
#: kernels: conflict-free.  An op missing here touches every aspect of
#: its object, and may free a dchain index: its NF then lowers no
#: allocation and narrows no footprint to a reach (:func:`_alloc_exact`).
_FOOTPRINT = {
    "map_get": (("map_r", "key"),),
    "map_put": (("map_w", "key"), ("map_v", "value"), ("map_n", None)),
    "map_erase": (("map_w", "key"), ("map_n", None)),
    "vector_borrow": (("vec_r", "index"),),
    "vector_put": (("vec_w", "index"),),
    "vector_fill": (("vec_w", "index"),),
    "dchain_allocate": (("alloc", "reach"),),
    "dchain_is_allocated": (("flag_r", "index"),),
    "dchain_rejuvenate": (("ts_w", "index"), ("flag_r", "index")),
    "sketch_fetch": (),
    "sketch_touch": (),
}

#: The symbol bindings available before any stateful op runs.
_BASE_SYMS = frozenset(
    {"time", "pkt.wire_size"} | {f"pkt.{name}" for name in PACKET_FIELDS}
)


# ------------------------------------------------------------------ #
# Lowered steps: one class per supported stateful op, holding all the
# dispatcher knows of it (the dispatcher's loops only call it):
#
# * ``op``, the trace op it lowers (``LOWERED_OPS`` lists them); the
#   constructor lowers a ``TraceEntry`` after the path's steps so far or
#   raises LowerError, and ``inputs``/``binds`` are the expressions the
#   step evaluates and the result symbols it defines;
# * ``cols``, the artifact column its lane's exact ``_FOOTPRINT`` keys
#   are read from when it runs interpreted, per aspect (default ``q``);
# * ``read``, its per-chunk work over a port group, which returns the
#   step's artifact (per-lane columns, ``env`` its bindings, ``oob`` the
#   lanes that must fall back); ``probes``: it reads the map index;
# * ``ranked`` (allocations and inserts, whose outcome depends on the
#   chunk's earlier lanes on the shard): ``node`` is then its tree node,
#   shared by every program through it, and ``after`` the ``(aspect,
#   obj)`` pairs any path through it touches from there on;
# * ``touches``: its kernel lane's footprint, per aspect: the lanes
#   that touch it (all, or those that read a free flag ("free"), whose
#   allocation or insert succeeds ("ok"), or whose outcome other lanes'
#   allocations or inserts can change ("exposed")), and the artifact
#   column keying it (None: the shard);
# * ``apply``, its scatter per group; ``flush``, its write once per
#   chunk after every group; ``opened``, the lanes that open a flow.
#
# ``sig`` is the plain tuple :mod:`repro.symbex.symkernel` decodes, and
# ``ckey`` keys the per-group step cache.  Lowering an op adds one class
# here, one ``symkernel`` case and one row of the certifier's lattices
# (an op new to ``NfContext`` adds its ``_FOOTPRINT`` row too), and
# nothing else in the dispatcher.
# ------------------------------------------------------------------ #
def _after(lowered, op, obj):
    """Whether ``lowered`` (a path's steps so far) holds an ``op`` step
    on ``obj``."""
    return any(s.op == op and s.obj == obj for s in lowered)


class _Step:
    """The defaults: a step that touches nothing on kernels, opens no
    flow and writes nothing."""

    __slots__ = ()
    node = None
    ranked = probes = False
    touches = ()
    cols = {}

    def taint(self, tainted):
        """Track the ``tainted`` symbols, whose value depends on an
        allocation's result: an interpreter lane's allocation may pop
        another cell than its kernel rank predicted."""
        if tainted and any(
            s.name in tainted for x in self.inputs for s in E.free_symbols(x)
        ):
            tainted.update(self.binds)

    def opened(self, art, kidx):
        return None

    def apply(self, disp, group, ps, art, kidx):
        pass

    @classmethod
    def flush(cls, disp, k_flag):
        pass


class _MapStep(_Step):
    """A keyed step on the lane's shard map: its footprint is keyed by
    (shard, key) row hashes."""

    __slots__ = ()
    cols = {"map_r": "kh", "map_w": "kh", "map_v": "vh"}


class _MapGet(_MapStep):
    """``map_get``: a probe of the lane's shard map."""

    __slots__ = (
        "obj", "keys", "found", "value", "inputs", "binds", "sig", "ckey",
    )
    op = "map_get"
    touches = (("map_r", None, "kh"),)
    probes = True

    def __init__(self, entry, lowered, exact_alloc):
        if _after(lowered, _MapPut.op, entry.obj):
            raise LowerError(f"map_get of {entry.obj!r} after its map_put")
        self.obj = entry.obj
        self.keys = tuple(entry.key)
        self.found = entry.result("found").name
        self.value = entry.result("value").name
        self.inputs = self.keys
        self.binds = (self.found, self.value)
        self.sig = self.ckey = (
            self.op, self.obj, self.keys, self.found, self.value,
        )

    def read(self, disp, group, env, cache, steps, alive):
        art = {
            "kcols": _key_cols(self.keys, env, cache, group.g_lanes.size),
            "oob": None,
        }
        found, value = disp._probe(self, art, group.shards)
        art["env"] = (
            (self.found, Column(found, 1.0)), (self.value, Column(value)),
        )
        return art


class _MapPut(_MapStep):
    """``map_put``: a keyed insert into the lane's shard map.

    ``probe`` is an earlier ``map_get`` of the same key on this path,
    whose pre-chunk probe the step reuses.  A put of a present key
    succeeds; so does every insert into a map with room for all the
    inserts the chunk can make.  Otherwise new keys are ranked like
    allocations: the k-th insert of its tree node on a (shard, map)
    succeeds while the map has room for k more.
    """

    __slots__ = (
        "obj", "keys", "value", "ok", "probe", "probes", "node", "after",
        "inputs", "binds", "sig", "ckey",
    )
    op = "map_put"
    # It reads whether the key is present; an insert into a map that may
    # fill this chunk also counts its entries.
    touches = (
        ("map_r", None, "kh"), ("map_w", "ok", "kh"), ("map_v", "ok", "vh"),
        ("map_n", "exposed", None),
    )
    ranked = True

    def __init__(self, entry, lowered, exact_alloc):
        obj = entry.obj
        if _after(lowered, self.op, obj):
            raise LowerError(f"second map_put of {obj!r} on one path")
        self.obj = obj
        self.keys = keys = tuple(entry.key)
        self.value = entry.stored[0][1]
        self.ok = entry.result("ok").name
        self.probe = next((
            s for s in lowered if s.op == _MapGet.op and s.obj == obj
            and len(s.keys) == len(keys)
            and all(E.structurally_equal(a, b) for a, b in zip(s.keys, keys))
        ), None)
        self.probes = self.probe is None
        self.node = None
        self.after = ()
        self.inputs = keys + (self.value,)
        self.binds = (self.ok,)
        self.sig = self.ckey = (self.op, obj, keys, self.value, self.ok)

    def read(self, disp, group, env, cache, steps, alive):
        g = group.g_lanes.size
        kcols = _key_cols(self.keys, env, cache, g)
        vals = _ivals(eval_expr(self.value, env, cache), g)
        ok = np.ones(g, dtype=bool)
        exposed = np.zeros(g, dtype=bool)
        kidx = np.flatnonzero(alive)
        art = {"kcols": kcols}
        if kidx.size:
            on = group.shards[kidx]
            if self.probe is not None:
                kh = steps[self.probe.ckey].get("kh")
                if kh is not None:
                    art["kh"] = kh
                found = env[self.probe.found].arr[kidx]
            else:
                found = disp._probe(self, art, group.shards, kidx, False)[0]
            room = np.array([
                m.capacity - len(m)
                for m in (store[self.obj] for store in disp._stores)
            ])
            # Inserts into a map with room for all the chunk can make
            # succeed in any order; the others are ranked.
            ranked = ~found & (room < disp._bound(self.op, self.obj))[on]
            if ranked.any():
                sel = kidx[ranked]
                exposed[sel] = True
                ranks = disp._ranks(self, sel, group, room)
                ok[sel] = ranks < room[group.shards[sel]]
        art.update(
            vals=vals, ok=ok, exposed=exposed, tight=exposed,
            oob=None, env=((self.ok, Column(ok, 1.0)),),
        )
        return art

    def apply(self, disp, group, ps, art, kidx):
        put = kidx[art["ok"][kidx]]
        disp._put_pending.setdefault(self.obj, []).append((
            group.g_lanes[put], ps.shards[put], art["vals"][put],
            *(c[put] for c in art["kcols"]),
        ))

    @classmethod
    def flush(cls, disp, k_flag):
        """Insert the kernel lanes' map puts, per map and shard in lane
        order, the order ``StateStore``'s value index must see them in.
        Key tuples are built here, for the applied lanes only; the maps
        log them for their indexes like any other put."""
        if not disp._put_pending:
            return
        stores = disp._stores
        ctxs = disp._ctxs
        buckets = disp._bucket_ids
        for obj, parts in disp._put_pending.items():
            lanes, shards, vals, *kcols = (
                np.concatenate(col) for col in zip(*parts)
            )
            if len(parts) > 1:
                order = np.argsort(lanes, kind="stable")
                lanes, shards, vals, *kcols = (
                    c[order] for c in (lanes, shards, vals, *kcols)
                )
            for s, pos in _by_shard(shards, len(stores)):
                at = slice(None) if pos is None else pos
                s_keys = list(zip(*[c[at].tolist() for c in kcols]))
                s_vals = vals[at].tolist()
                store = stores[s]
                store[obj].put_many(s_keys, s_vals)
                store.note_puts(obj, s_keys, s_vals)
                bindex = ctxs[s].bucket_index if buckets is not None else None
                if bindex is not None:
                    for key, i in zip(s_keys, lanes[at].tolist()):
                        bindex.note_key(obj, key, int(buckets[i]))
        disp._put_pending = {}


class _VecBorrow(_Step):
    """``vector_borrow``; ``fwd`` are the earlier ``vector_put`` steps of
    the same vector on this path, whose rows the lane reads back."""

    __slots__ = (
        "obj", "index", "fields", "fwd", "inputs", "binds", "sig", "ckey",
    )
    op = "vector_borrow"
    touches = (("vec_r", None, "q"),)

    def __init__(self, entry, lowered, exact_alloc):
        self.obj = entry.obj
        self.index = entry.key[0]
        self.fields = tuple((fname, sym.name) for fname, sym in entry.results)
        self.fwd = tuple(
            s for s in lowered if s.op == _VecPut.op and s.obj == self.obj
        )
        self.inputs = (self.index,)
        self.binds = tuple(n for _, n in self.fields)
        self.sig = (self.op, self.obj, self.index, self.fields)
        self.ckey = self.sig + tuple(p.sig for p in self.fwd)

    def read(self, disp, group, env, cache, steps, alive):
        g = group.g_lanes.size
        stores = disp._stores
        n_shards = len(stores)
        cells = _ivals(eval_expr(self.index, env, cache), g)
        # The lane's own earlier puts to the cell, in path order: the
        # lane reads the last one back instead of the state.
        puts = []
        covered = None
        for put in self.fwd:
            part = steps[put.ckey]
            same = part["cells"] == cells
            if same.any():
                puts.append((same, dict(part["stored"])))
                covered = same if covered is None else covered | same
        # Every shard of a structure has the same capacity.
        oob = (cells < 0) | (cells >= stores[0][self.obj].capacity)
        has_oob = bool(oob.any())
        safe = np.where(oob, 0, cells) if has_oob else cells
        q = safe * n_shards + group.shards
        # One row read per distinct (shard, cell) not read back.
        if covered is None or not covered.all():
            uniq, inv = np.unique(
                q if covered is None else np.where(covered, q[~covered][0], q),
                return_inverse=True,
            )
            try:
                if n_shards == 1:
                    recs = list(map(stores[0][self.obj].row, uniq.tolist()))
                else:
                    rows = [store[self.obj].row for store in stores]
                    recs = [
                        rows[s](c) for c, s in zip(
                            (uniq // n_shards).tolist(),
                            (uniq % n_shards).tolist(),
                        )
                    ]
                cols = {
                    fname: _value_column([r[fname] for r in recs], inv)
                    for fname, _ in self.fields
                }
            except KeyError:
                raise KernelBail("missing vector field") from None
        else:
            cols = dict.fromkeys(fname for fname, _ in self.fields)
        for same, stored in puts:
            for fname in cols:
                if fname not in stored:
                    raise KernelBail("read of a field a put dropped")
                cols[fname] = (
                    stored[fname] if cols[fname] is None
                    else _select(same, stored[fname], cols[fname])
                )
        return {
            "cells": cells,
            "q": np.where(oob, -1, q) if has_oob else q,
            "oob": oob if has_oob else None,
            "env": tuple((sym, cols[fname]) for fname, sym in self.fields),
        }


class _FlagStep(_Step):
    """A read of the lane's cell flag on its shard chain; ``results``
    names the op's results the step binds."""

    __slots__ = ("obj", "index", "inputs", "binds", "sig", "ckey")

    def __init__(self, entry, lowered, exact_alloc):
        if _after(lowered, _Alloc.op, entry.obj):
            raise LowerError(f"{self.op} of {entry.obj!r} after its allocation")
        self.obj = entry.obj
        self.index = entry.key[0]
        self.inputs = (self.index,)
        self.binds = tuple(entry.result(r).name for r in self.results)
        self.sig = self.ckey = (self.op, self.obj, self.index) + self.binds

    def read(self, disp, group, env, cache, steps, alive):
        g = group.g_lanes.size
        stores = disp._stores
        cells = _ivals(eval_expr(self.index, env, cache), g)
        flags = np.empty(g, dtype=bool)
        for s, pos in group.by_shard:
            chain = stores[s][self.obj]
            if pos is None:
                flags = chain.flags(cells)
            else:
                flags[pos] = chain.flags(cells[pos])
        return {
            "cells": cells,
            "q": _qualify(cells, group.shards, len(stores)),
            "flags": flags,
            "free": ~flags,
            "oob": None,
            "env": tuple((name, Column(flags, 1.0)) for name in self.binds),
        }


class _IsAlloc(_FlagStep):
    __slots__ = ()
    op = "dchain_is_allocated"
    results = ("allocated",)
    touches = (("flag_r", "free", "q"),)


class _Rejuv(_FlagStep):
    __slots__ = ()
    op = "dchain_rejuvenate"
    results = ()
    touches = (("flag_r", "free", "q"), ("ts_w", None, "q"))
    cols = {"ts_w": "live"}  # only a live cell's timestamp is written

    def apply(self, disp, group, ps, art, kidx):
        # Lanes from *different* port groups may rejuvenate the same
        # cell; defer and apply in lane order so last-touched matches
        # the interpreter's trace order.
        live = kidx[art["flags"][kidx]]
        disp._ts_pending.setdefault(self.obj, []).append(
            (group.g_lanes[live], art["q"][live])
        )

    @classmethod
    def flush(cls, disp, k_flag):
        if not disp._ts_pending:
            return
        ts = disp._cols.field("timestamp")
        n_shards = len(disp._stores)
        for obj, parts in disp._ts_pending.items():
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
                disp._stores[s][obj].stamp(cells[on], times[on])
        disp._ts_pending = {}


class _VecPut(_Step):
    __slots__ = ("obj", "index", "stored", "inputs", "binds", "sig", "ckey")
    op = "vector_put"
    touches = (("vec_w", None, "q"),)

    def __init__(self, entry, lowered, exact_alloc):
        self.obj = entry.obj
        self.index = entry.key[0]
        self.stored = tuple(entry.stored)
        self.inputs = (self.index,) + tuple(e for _, e in self.stored)
        self.binds = ()
        self.sig = self.ckey = (self.op, self.obj, self.index, self.stored)

    def read(self, disp, group, env, cache, steps, alive):
        g = group.g_lanes.size
        cells = _ivals(eval_expr(self.index, env, cache), g)
        oob = (cells < 0) | (cells >= disp._stores[0][self.obj].capacity)
        stored = []
        for fname, expr in self.stored:
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
            "q": _qualify(cells, group.shards, len(disp._stores)),
            "oob": oob if bool(oob.any()) else None,
            "stored": stored,
            "env": (),
        }

    def apply(self, disp, group, ps, art, kidx):
        # The conflict pass leaves each (shard, row) at most one kernel
        # writer, before which no interpreter lane touches the row; the
        # interpreter lanes after it run after this scatter.  So only a
        # lane's own step order matters, not the order of port groups.
        stores = disp._stores
        vecs = [store[self.obj] for store in stores]
        cells = art["cells"][kidx].tolist()
        # Elastic runs tag the written rows with the writing packet's
        # bucket (same bucket for every packet of a flow, so re-tagging
        # is idempotent).
        bucket_ids = disp._bucket_ids
        if bucket_ids is not None:
            ctxs = disp._ctxs
            for c, s, i in zip(
                cells, ps.shards[kidx].tolist(), group.g_lanes[kidx].tolist()
            ):
                bindex = ctxs[s].bucket_index
                if bindex is not None:
                    bindex.note_index(self.obj, c, int(bucket_ids[i]))
        fnames = [fname for fname, _ in art["stored"]]
        cols = [_stored_values(col, kidx) for _, col in art["stored"]]
        if len(fnames) == 1:
            recs = [{fnames[0]: v} for v in cols[0]]
        else:
            recs = [dict(zip(fnames, row)) for row in zip(*cols)]
        for s, pos in _by_shard(ps.shards[kidx], len(stores)):
            if pos is None:
                vecs[s].put_many(cells, recs)
            else:
                vecs[s].put_many(
                    art["cells"][kidx[pos]].tolist(),
                    [recs[i] for i in pos.tolist()],
                )


class _Alloc(_Step):
    """``dchain_allocate``: the lane's rank among its tree node's
    allocations on its (shard, chain), in lane order, picks its
    free-stack pop: the k-th allocation takes the k-th cell of the
    stack, and gets ``(False, 0)`` past its end.  Lowers only with
    ``exact_alloc``."""

    __slots__ = (
        "obj", "ok", "index", "node", "after", "inputs", "binds", "sig",
        "ckey",
    )
    op = "dchain_allocate"
    # A refused allocation (past the stack's end) keys on cell 0, the
    # index it returns.
    touches = (("alloc", "exposed", "q"),)
    ranked = True

    def __init__(self, entry, lowered, exact_alloc):
        if not exact_alloc or _after(lowered, self.op, entry.obj):
            raise LowerError(f"cannot lower {self.op} on {entry.obj!r}")
        self.obj = entry.obj
        self.ok = entry.result("ok").name
        self.index = entry.result("index").name
        self.node = None
        self.after = ()
        self.inputs = ()
        self.binds = (self.ok, self.index)
        self.sig = self.ckey = (self.op, self.obj, self.ok, self.index)

    def taint(self, tainted):
        tainted.update(self.binds)

    def opened(self, art, kidx):
        return art["ok"][kidx]

    def read(self, disp, group, env, cache, steps, alive):
        g = group.g_lanes.size
        name = self.obj
        ok = np.zeros(g, dtype=bool)
        exposed = np.zeros(g, dtype=bool)
        tight = np.zeros(g, dtype=bool)
        index = np.zeros(g, np.int64)
        kidx = np.flatnonzero(alive)
        if kidx.size:
            disp._chains.add(name)
            chains = [store[name] for store in disp._stores]
            n_free = np.array([
                c.capacity - c.allocated_count() for c in chains
            ])
            ranks = disp._ranks(self, kidx, group, n_free)
            on = group.shards[kidx]
            room = n_free[on]
            exposed[kidx] = room > 0
            tight[kidx] = (room > 0) & (
                room < disp._bound(self.op, name)[on]
            )
            live = ranks < room
            ok[kidx] = live
            if live.any():
                sel = kidx[live]
                on = on[live]
                ranks = ranks[live]
                for s in np.unique(on).tolist():
                    at = on == s
                    top = chains[s].peek(int(ranks[at].max()) + 1)
                    index[sel[at]] = np.asarray(top)[ranks[at]]
        return {
            "ok": ok,
            "exposed": exposed,
            "tight": tight,
            "q": _qualify(index, group.shards, len(disp._stores)),
            "oob": None,
            "env": (
                (self.ok, Column(ok, 1.0)),
                (self.index, Column(index)),
            ),
        }

    @classmethod
    def flush(cls, disp, k_flag):
        """Pop each (shard, chain)'s free stack for the kernel lanes'
        allocations, in rank order, which is lane order.  A tree node's
        kernel allocations on a shard must be its ranks 0..m-1: a lane
        the kernels skip would take the cell a later one was given."""
        if not disp._chains:
            return
        ts = disp._cols.field("timestamp")
        buckets = disp._bucket_ids
        for name in disp._chains:
            evs = disp._events.get(name)
            if not evs:
                continue
            room = disp._rooms[name]
            lanes, on, ranks = (np.concatenate(col) for col in zip(*evs))
            kern = k_flag[lanes - disp._start] & (ranks < room[on])
            node = np.repeat(np.arange(len(evs)), [ev[0].size for ev in evs])
            at = (node * room.size + on)[kern]
            top = np.full(len(evs) * room.size, -1)
            np.maximum.at(top, at, ranks[kern])
            if (top + 1 != np.bincount(at, minlength=top.size)).any():
                raise RuntimeError(
                    f"allocations on {name!r} split between kernel "
                    "and interpreter lanes"
                )
            for s in np.unique(on[kern]).tolist():
                at = kern & (on == s)
                popped = lanes[at][np.argsort(ranks[at])]
                cells = disp._stores[s][name].take(ts[popped])
                bindex = disp._ctxs[s].bucket_index if buckets is not None \
                    else None
                if bindex is not None:
                    for c, i in zip(cells, popped.tolist()):
                        bindex.note_index(name, c, int(buckets[i]))


_STEPS = (_MapGet, _MapPut, _VecBorrow, _IsAlloc, _Rejuv, _VecPut, _Alloc)
#: Stateful ops the lowerer can express as column kernels; any path
#: containing another op kind (sketch, hash, ...) runs on the
#: interpreter.  DESIGN.md §13 documents each rule — kept in sync by the
#: doc tests.
LOWERED_OPS = tuple(cls.op for cls in _STEPS)
_LOWERING = dict(zip(LOWERED_OPS, _STEPS))
#: Ops whose steps are ranked: allocations on a chain, inserts into a map.
_RANKED_OPS = frozenset(cls.op for cls in _STEPS if cls.ranked)


class _PathProgram:
    """One execution path, lowered (fully or as far as possible).

    ``items`` interleaves constraints and steps in path order.  When
    ``supported`` is False, ``items`` is the lowerable prefix (used to
    narrow which lanes sit on this path for hazard attribution) and
    ``dirt_descs`` describes the state the *unlowered* suffix touches.
    ``pubs`` holds the ``(artifact index, aspect, obj, source)`` dirt its
    lanes publish when they run interpreted, from :func:`_dirt`: per
    lowered step, with the step's index (read from the step artifact's
    column its class ``cols`` names), then per dirt descriptor,
    indexed past the steps, whose keyed values each chunk evaluates into
    an artifact of its own (``kh`` key hashes or ``q`` cells).
    """

    __slots__ = (
        "pid", "port", "supported", "items", "steps", "dirt_descs", "pubs",
        "kind", "port_const", "port_expr", "mods", "const_result",
        "const_new", "ops_list", "bump_ops", "used", "wild", "source_path",
        "stop",
    )

    def __init__(self, pid, port):
        self.pid = pid
        self.port = port
        self.supported = False
        self.items = []
        self.steps = []
        self.dirt_descs = []
        self.pubs = []
        self.kind = None
        self.port_const = None
        self.port_expr = None
        self.mods = ()
        self.const_result = None
        self.const_new = None
        self.ops_list = []
        self.bump_ops = []
        self.used = set()
        self.wild = []
        # Provenance for the plan certifier (translation validation):
        # the source symbex path and, for demoted programs, the index of
        # the first non-expire entry the lowering gave up at.
        self.source_path = None
        self.stop = None


def _dirt(entry, known, chains, exact):
    """The ``(aspect, key)`` dirt trace ``entry`` makes when its lane runs
    interpreted, one pair per aspect of its ``_FOOTPRINT`` row.

    ``key`` is None for a wildcard, a chain name for that chain's *reach*
    (the cells its allocations can return this chunk) when the operand
    is an allocation's index (``chains`` maps each earlier allocation's
    index symbol to its chain; an allocation adds its own), or the
    operand's expressions when they lower against ``known`` (exact
    demotion).  Callers leave out of ``known`` the result symbols of
    unlowered ops and the symbols derived from an allocation's result,
    so dirt depending on them degrades to a wildcard.  Without
    ``exact``, allocation dirt is a wildcard too.
    """
    row = _FOOTPRINT.get(entry.op)
    if row is None:  # unknown op: poison every aspect of the object
        return [(aspect, None) for aspect in _ASPECTS]
    dirt = []
    for aspect, operand in row:
        key = exprs = None
        if operand == "reach":
            if exact:
                key = entry.obj
                chains[entry.result("index").name] = entry.obj
        elif operand == "value":
            exprs = (entry.stored[0][1],)
        elif operand and entry.key:
            exprs = entry.key if operand == "key" else entry.key[:1]
        if exprs:
            x = exprs[0]
            if operand != "key" and isinstance(x, E.Sym) and x.name in chains:
                key = chains[x.name]
            else:
                try:
                    for x in exprs:
                        check_expr(x, known, set())
                    key = exprs
                except LowerError:
                    pass
        dirt.append((aspect, key))
    return dirt


def _src(key, col):
    """The ``pubs`` source of a dirt ``key``: None for a wildcard, a
    chain's reach, or the artifact column ``col`` of an exact key."""
    if key is None:
        return None
    return ("reach", key) if isinstance(key, str) else col


def _alloc_exact(paths):
    """Whether allocations may lower and their dirt be narrowed to
    reaches for these paths: no op but expiry (never swept mid-chunk)
    frees a dchain index."""
    return all(
        e.op in _FOOTPRINT or e.op == "expire"
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
    # Index symbol -> chain, for every lowered allocation so far, and the
    # symbols whose value depends on an allocation's result.
    chains = {}
    tainted = set()
    supported = True
    ci = stop = 0
    try:
        for stop, e in enumerate(entries):
            for c in constraints[ci:e.pc_len]:
                check_expr(c, known, used)
                items.append(("c", c))
                ci += 1
            cls = _LOWERING.get(e.op)
            if cls is None:
                raise LowerError(f"cannot lower stateful op {e.op!r}")
            step = cls(e, prog.steps, exact_alloc)
            for x in step.inputs:
                check_expr(x, known, used)
            known.update(step.binds)
            if step.ranked:
                step.node = (path.decisions[:e.pc_len], e.index)
            avail = known - tainted if tainted else known
            for aspect, key in _dirt(e, avail, chains, exact_alloc):
                prog.pubs.append((
                    len(prog.steps), aspect, step.obj,
                    _src(key, step.cols.get(aspect, "q")),
                ))
            step.taint(tainted)
            items.append(("op", step))
            prog.steps.append(step)
        stop = len(entries)
        for c in constraints[ci:]:
            check_expr(c, known, used)
            items.append(("c", c))
        # Terminal action: port expression and header rewrites.
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
    prog.supported = supported
    prog.stop = None if supported else stop
    if supported:
        if prog.port_expr is None and all(
            isinstance(expr, E.Const) for _, expr in prog.mods
        ):
            const = (
                prog.kind,
                prog.port_const,
                {name: int(expr.value) for name, expr in prog.mods},
                prog.ops_list,
            )
            prog.const_result = PacketResult(*const, False)
            prog.const_new = PacketResult(*const, True)
    else:
        known -= tainted
        prog.dirt_descs = [
            (aspect, e.obj, key) for e in entries[stop:]
            for aspect, key in _dirt(e, known, chains, exact_alloc)
        ]
        for si, (aspect, obj, key) in enumerate(
            prog.dirt_descs, len(prog.steps)
        ):
            col = "kh" if aspect in _ROW_ASPECTS else "q"
            prog.pubs.append((si, aspect, obj, _src(key, col)))
    # Aspects this program poisons when it bails at run time (lanes
    # unknown -> wildcard everything it could touch).
    prog.wild = [(a, o) for _, a, o, _ in prog.pubs]
    return prog


class _PortProgram:
    """All programs for one ingress port, plus shared-evaluation facts."""

    __slots__ = (
        "port", "programs", "swept", "fields", "need_time", "shared_ok",
        "any_supported", "write_max",
    )

    def __init__(self, port, programs, swept):
        self.port = port
        self.programs = programs
        #: The chains every packet of this port passes to
        #: ``expire_flows`` (empty when the NF never expires).
        self.swept = swept
        # Most allocations (per chain) and map inserts (per map) one
        # lane of this port makes: with the lane count they bound a
        # chunk's reach into a free stack and its inserts into a map.
        self.write_max = Counter()
        for prog in programs:
            self.write_max |= Counter(
                (e.op, e.obj) for e in prog.source_path.trace
                if e.op in _RANKED_OPS
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
                for name in step.binds:
                    prev = sigs.setdefault(name, step.ckey)
                    if prev != step.ckey:
                        self.shared_ok = False
        # Intern tree nodes: programs through one node share its id, and
        # the footprint of every path through it from there on.
        nodes = {}
        after = {}
        for prog in programs:
            for si, step in enumerate(prog.steps):
                if isinstance(step.node, tuple):
                    step.node = nodes.setdefault(step.node, len(nodes))
                if step.node is not None:
                    after.setdefault(step.node, set()).update(
                        (a, o) for sj, a, o, _ in prog.pubs if sj >= si
                    )
        for prog in programs:
            for step in prog.steps:
                if step.node is not None:
                    step.after = tuple(sorted(after[step.node]))


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

    ``exact_alloc`` (see :func:`_alloc_exact`) enables the
    ``dchain_allocate`` lowering and reach-keyed allocation dirt.
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
# Run-time: per-chunk group state and the conflict table.
# ------------------------------------------------------------------ #
def _qualify(cells, shards, n_shards):
    """Shard-qualified cells: ``cell * n_shards + shard``.

    A cell no store can hold (negative, or too large to encode) becomes
    -1, which footprints drop: an operation at such a cell
    touches no state.
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


class _ProgState:
    """Per-chunk evaluation state of one program over one port group."""

    __slots__ = (
        "prog", "shards", "match", "force_f", "kmask", "bailed", "arts",
        "port_vals", "mod_vals",
    )

    def __init__(self, prog, shards):
        self.prog = prog
        #: The shard of each lane of the group.
        self.shards = shards
        self.match = None
        self.force_f = None
        #: The lanes left on kernels: all False for a bailed or
        #: unsupported program.
        self.kmask = np.zeros(shards.size, dtype=bool)
        self.bailed = False
        #: Per lowered step, then per dirt descriptor (see
        #: ``_PathProgram.pubs``), the chunk's artifact.
        self.arts = []
        self.port_vals = None
        self.mod_vals = None


class _Group:
    """One port's lanes of a chunk, over every shard, and their
    classification state."""

    __slots__ = ("pp", "g_lanes", "shards", "counts", "by_shard", "progs")

    def __init__(self, pp, g_lanes, shards, n_shards):
        self.pp = pp
        self.g_lanes = g_lanes
        self.shards = shards
        #: Lanes per shard.
        self.counts = np.bincount(shards, minlength=n_shards)
        self.by_shard = _by_shard(shards, n_shards)
        self.progs = [_ProgState(p, shards) for p in pp.programs]


def _ivals(col, g):
    """Column -> int64 array of length ``g`` (broadcasting scalars)."""
    arr = np.asarray(_to_int(col))
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, (g,))
    return arr


def _key_cols(keys, env, cache, g):
    """Int64 columns of a map key's components.  A float component
    bails: the interpreter would key the map by the float itself."""
    cols = []
    for k in keys:
        col = eval_expr(k, env, cache)
        if col.is_float:
            raise KernelBail("float map key component")
        cols.append(_ivals(col, g))
    return cols


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
        return Column(u_arr[inv], bound, None if fmask.all() else fmask)
    try:
        u_arr = np.array([int(v) for v in vals], np.int64)
    except OverflowError:
        raise KernelBail("vector values beyond int64") from None
    if u_arr.size and abs(int(np.abs(u_arr).max())) >= INT_SAFE:
        raise KernelBail("vector values beyond safe int range")
    return Column(u_arr[inv])


def _select(same, a, b):
    """Column ``a`` where ``same``, else ``b`` (int lanes only)."""
    if a.is_float or b.is_float:
        raise KernelBail("forwarded float vector values")
    return Column(np.where(same, _to_int(a), _to_int(b)),
                  max(a.bound, b.bound))


def _art_vals(art, col, shards, lanes):
    """Artifact column ``col`` at ``lanes`` (a mask or positions).  Key-row
    (``kh``) and stored-value (``vh``) hashes of a map step are made on
    demand; hashes of every lane are kept once a quarter is asked for."""
    if col not in ("kh", "vh"):
        return art[col][lanes]
    h = art.get(col)
    if h is None:
        cols = art["kcols"] if col == "kh" else [art["vals"]]
        n = np.count_nonzero(lanes) if lanes.dtype == bool else lanes.size
        if 4 * n < shards.size:
            return key_hash(shards[lanes], [c[lanes] for c in cols])
        h = art[col] = key_hash(shards, cols)
    return h[lanes]


#: A lane no entry precedes.
_NEVER = np.iinfo(np.int64).max


class _Conflicts:
    """One chunk's conflict table: what each lane touches, per state
    (``_SPACE``) of each object, keyed by a shard-qualified cell or a
    (shard, key) row hash, by every key of its shard (an interpreter
    lane's wildcard) or by a chain's reach on its shard; :meth:`demoted`
    applies the lane-ordered rule (see the module docstring)."""

    def __init__(self, n_shards, ordered=True, reached=None):
        self.n_shards = n_shards
        #: Whether a kernel entry follows earlier kernel writes.
        self.ordered = ordered
        #: Per (state, obj) and ``(kernel, write)`` kind (``kernel`` None:
        #: interpreter wildcards, keyed by shard), functions making the
        #: entries' ``(lanes, shards, keys)``; per (aspect, obj, shard,
        #: chain), a reach's first lane and cells, and the first lane any
        #: table of the chunk gave it (a later one meets nothing new).
        self.spaces, self.reaches = {}, {}
        self.reached = {} if reached is None else reached

    def add(self, aspect, obj, entry, kernel=False):
        """``entry()`` gives lanes that touch ``obj`` as ``aspect``: kernel
        ones if ``kernel``, else interpreter ones (wildcards if None)."""
        space, write = _SPACE[aspect]
        self.spaces.setdefault((space, obj), {}).setdefault(
            (kernel, write), []
        ).append(entry)

    def add_reach(self, aspect, obj, lane, shard, chain, cells):
        """Interpreter ``lane`` touches ``obj`` as ``aspect`` at any of
        ``cells()``, the reach of ``chain`` on ``shard``."""
        key = (aspect, obj, shard, chain)
        if self.reached.get(key, _NEVER) <= lane:
            return
        self.reached[key] = lane
        reach = self.reaches.get(key)
        if reach is None:
            reach = self.reaches[key] = [lane, cells]
            self.add(aspect, obj, partial(_reach_entry, reach, shard))
        reach[0] = lane

    def demoted(self):
        """The lanes of the kernel entries the rule demotes, as a list of
        arrays (empty when it demotes none)."""
        out = []
        for (space, _), kinds in self.spaces.items():
            taken = {}
            for write in (False, True):
                # A kernel read follows interpreter writes, a kernel write
                # any interpreter entry; in an ordered table both follow
                # kernel writes, which only vector rows need for writes.
                follows = {(k, w) for k in (False, None)
                           for w in (True, not write)}
                if self.ordered and (not write or space == "vec"):
                    follows.add((True, True))
                follows = [k for k in follows if k in kinds]
                if (True, write) not in kinds or not follows:
                    continue
                for kind in {*follows, (True, write)} - taken.keys():
                    taken[kind] = [np.concatenate(col) for col in zip(
                        *(entry() for entry in kinds[kind]))]
                lanes, shards, keys = taken[(True, write)]
                before = np.full(lanes.size, _NEVER)
                for kind in follows:
                    la, sh, ks = taken[kind]
                    if kind[0] is None:
                        first = np.full(self.n_shards, _NEVER)
                        np.minimum.at(first, sh, la)
                        before = np.minimum(before, first[shards])
                    elif ks.size:
                        order = np.lexsort((la, ks))
                        ks, at = np.unique(ks[order], return_index=True)
                        la = la[order[at]]
                        pos = np.minimum(np.searchsorted(ks, keys), ks.size - 1)
                        hit = ks[pos] == keys
                        before[hit] = np.minimum(before[hit], la[pos[hit]])
                dem = before < lanes
                if dem.any():
                    out.append(lanes[dem])
        return out


def _entry(mask, lanes, shards, keys):
    """The ``mask`` lanes of a table entry: ``keys`` may be a function
    of the mask, and a wildcard's (None) are its shards."""
    keys = shards if keys is None else keys
    return lanes[mask], shards[mask], keys(mask) if callable(keys) else keys[mask]


def _reach_entry(reach, shard):
    """A reach's entry: its first lane at every one of its cells."""
    cells = reach[1]()
    return np.full(cells.size, reach[0]), np.full(cells.size, shard), cells


def _kernel_entry(kmask, art, sel, col, lanes, shards):
    """The kernel lanes a ``touches`` entry ``(aspect, sel, col)`` of a
    step with artifact ``art`` names, at a cell some store holds."""
    m = kmask if sel is None else kmask & art[sel]
    if col in ("kh", "vh"):
        return lanes[m], shards[m], _art_vals(art, col, shards, m)
    keys = shards if col is None else art[col]
    m = m & (keys >= 0)
    return lanes[m], shards[m], keys[m]


def _kernel_footprint(table, ps, g_lanes):
    """Add the ``touches`` of ``ps``'s kernel lanes (``g_lanes`` their
    group's) to ``table``, or, unordered, those its interpreters meet."""
    for step, art in zip(ps.prog.steps, ps.arts):
        for aspect, sel, col in step.touches:
            if table.ordered or (_SPACE[aspect][0], step.obj) in table.spaces:
                table.add(aspect, step.obj, partial(
                    _kernel_entry, ps.kmask, art, sel, col, g_lanes, ps.shards
                ), True)


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
        #: Per run: the stores kernels read (one per core under
        #: shared-nothing, else the one shared store) and each packet's
        #: shard, its index in ``_stores``.
        self._stores = []
        self._shards = None
        #: One :class:`~repro.nf.state.MapIndex` per map a step probes,
        #: kept across chunks and runs: each chunk first reconciles it
        #: with the keys its shards' maps logged.
        self._indexes = {}
        for pp in ports.values():
            for prog in pp.programs:
                for step in prog.steps:
                    if step.probes and step.obj not in self._indexes:
                        self._indexes[step.obj] = MapIndex(len(step.keys))
        self.index_min_lanes = INDEX_MIN_LANES
        self._new_chunk(0, 0, [])

    def _new_chunk(self, start, size, groups):
        """Reset the running chunk's state."""
        self._start = start
        self._size = size
        self._groups = groups
        #: Whether the chunk probes maps through their indexes.
        self._indexed = size >= self.index_min_lanes
        #: Reaches per (shard, chain, as key hashes).
        self._reaches = {}
        #: Node-step artifacts per (port, node), and the ranked events
        #: per chain or map, one per node: ``(lanes, shards, ranks)`` of
        #: the lanes that reached its allocation or insert.
        self._node_arts = {}
        self._events = {}
        #: Room per shard of each object with events; the chains.
        self._rooms = {}
        self._chains = set()
        self._ts_pending = {}
        self._put_pending = {}

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
        #: kernel writes tag the keys, rows and indices they create.
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
            # The chunk bound is the conflict pass's horizon; without
            # programs there is no conflict pass to bound.
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
        self._new_chunk(0, 0, [])

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
        decide which lanes stay on the kernels, apply their writes, then
        run the other lanes on the interpreter."""
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
                groups.append(_Group(pp, lanes[pos], shards[pos], n_shards))
        if not groups:
            self._run_fallback(lanes, results)
            self.fallback_packets += lanes.size
            return
        self._new_chunk(start, lanes.size, groups)
        if self._indexed:
            for obj, index in self._indexes.items():
                index.sync([store[obj] for store in self._stores])
        for group in groups:
            self._eval_group(group)
        self._conflict_pass(groups, lanes, uncovered)
        k_flag = np.zeros(lanes.size, dtype=bool)
        for g in groups:
            pos = g.g_lanes - start
            for ps in g.progs:
                k_flag[pos[ps.kmask]] = True
        f_lanes = lanes[~k_flag]
        self.kernel_packets += self._commit(groups, k_flag, f_lanes, results)
        self.fallback_packets += f_lanes.size

    def _commit(self, groups, k_flag, f_lanes, results):
        """Apply the kernel lanes' writes, then run ``f_lanes`` on the
        interpreter, which sees them; return the kernel lane count."""
        kept = 0
        for g in groups:
            kept += self._apply_group(g, results)
        for cls in _STEPS:
            cls.flush(self, k_flag)
        self._run_fallback(f_lanes, results)
        return kept

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
        ps.match = alive
        ps.force_f = force_f
        for tag, x in prog.items:
            if tag == "c":
                alive = alive & as_bool(eval_expr(x, env, cache))
                if not alive.any():
                    # No lane is on this path: nothing more to evaluate.
                    ps.match = alive
                    return
                continue
            # A ranked step's work depends on the lanes alive at it: it
            # runs once per tree node and chunk (programs through the
            # node see the same lanes there).
            if x.node is None:
                arts, key = step_cache, x.ckey
            else:
                arts, key = self._node_arts, (group.pp.port, x.node)
            art = arts.get(key)
            if art is None:
                art = arts[key] = x.read(
                    self, group, env, cache, step_cache, alive
                )
            env.update(art["env"])
            ps.arts.append(art)
            oob = art["oob"]
            if oob is not None:
                force_f = force_f | oob
        self._suffix_arts(ps, env, cache, g)
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

    def _suffix_arts(self, ps, env, cache, g):
        """Artifacts of the dirt descriptors' exact keys: key columns for
        map aspects, qualified cells otherwise; None for a wildcard or a
        reach, and for keys the chunk cannot evaluate (wildcards then)."""
        for aspect, _, key in ps.prog.dirt_descs:
            art = None
            if type(key) is tuple:
                try:
                    cols = [_ivals(eval_expr(k, env, cache), g) for k in key]
                except (KernelBail, OverflowError):
                    pass
                else:
                    art = {"kcols": cols} if aspect in _ROW_ASPECTS else {
                        "q": _qualify(cols[0], ps.shards, len(self._stores)),
                    }
            ps.arts.append(art)

    def _ranks(self, step, sel, group, room):
        """Ranks of the ``sel`` lanes of ``group`` among the lanes of the
        ranked ``step``'s tree node on their shard, in lane order, from
        0; ``room`` is how many more each shard's object takes.  Where
        another node ranked an earlier lane on the shard of the object,
        :meth:`_node_rule` sends a lane to the interpreter."""
        on = group.shards[sel]
        counts = np.bincount(on, minlength=room.size)
        order = np.argsort(on, kind="stable")
        ranks = np.empty(sel.size, np.int64)
        ranks[order] = (
            np.arange(sel.size) - (np.cumsum(counts) - counts)[on[order]]
        )
        self._rooms[step.obj] = room
        self._events.setdefault(step.obj, []).append(
            (group.g_lanes[sel], on, ranks)
        )
        return ranks

    def _probe(self, step, art, shards, kidx=None, values=True):
        """``(found, value)`` of the keys ``art["kcols"]`` (of lanes
        ``kidx``, or all) in their shards' maps: value 0 on a miss, None
        without ``values``, and a value beyond int64 bails.  An indexed
        chunk reads the map's index (see
        :meth:`~repro.nf.state.MapIndex.lookup`) and keeps every lane's
        key hash in ``art``; a smaller chunk probes the dicts."""
        kcols = art["kcols"]
        if self._indexed:
            kh = art.get("kh")
            if kh is None:
                kh = art["kh"] = key_hash(shards, kcols)
        if kidx is not None:
            shards = shards[kidx]
            kcols = [c[kidx] for c in kcols]
        if self._indexed:
            index = self._indexes[step.obj]
            if index.arity != len(kcols):
                raise KernelBail("map probed with keys of two arities")
            found, value, wide = index.lookup(
                kh if kidx is None else kh[kidx], shards, kcols
            )
            if values and wide.any():
                raise KernelBail("map value beyond int64")
            return found, value
        keys = list(zip(*[c.tolist() for c in kcols]))
        datas = [store[step.obj]._data for store in self._stores]
        lane_data = list(map(datas.__getitem__, shards.tolist()))
        found = np.fromiter(
            map(dict.__contains__, lane_data, keys), bool, count=len(keys)
        )
        if not values:
            return found, None
        # A value beyond int64 raises OverflowError, which bails.
        return found, np.fromiter(
            map(dict.get, lane_data, keys, repeat(0)), np.int64,
            count=len(keys),
        )

    def _bound(self, op, obj):
        """Most ``op`` calls on ``obj`` the chunk's lanes on each shard
        can make (allocations on a chain, inserts into a map)."""
        return sum(
            g.counts * g.pp.write_max[(op, obj)] for g in self._groups
        )

    # -------------------------------------------------------------- #
    # The conflict pass
    # -------------------------------------------------------------- #
    def _conflict_pass(self, groups, lanes, uncovered):
        """Send to the interpreter each kernel lane an earlier lane of the
        chunk conflicts with, pass after pass, to a fixpoint.

        A lane of a port with no program (``uncovered``) touches anything
        on its shard; :meth:`_node_rule` and :class:`_Conflicts` hold the
        other rules.  Kernel entries only go, so only the lanes the last
        pass demoted can demote more.
        """
        dem = list(self._node_rule())
        if uncovered.any():
            shards = self._shards[lanes]
            first = np.full(len(self._stores), _NEVER)
            np.minimum.at(first, shards[uncovered], lanes[uncovered])
            dem.append(lanes[lanes > first[shards]])
        ordered, reached = True, {}
        while ordered or dem:
            off = np.zeros(lanes.size, dtype=bool)
            off[np.concatenate([lanes[:0], *dem]) - self._start] = True
            for g in groups if dem else ():
                keep = ~off[g.g_lanes - self._start]
                for ps in g.progs:
                    ps.kmask &= keep
            # The first pass adds every interpreter lane and orders the
            # kernel lanes; a later one adds the lanes the last demoted.
            table = _Conflicts(len(self._stores), ordered, reached)
            self._footprint(table, groups, None if ordered else off)
            dem = table.demoted()
            ordered = False

    def _node_rule(self):
        """The ranked lanes an earlier ranked lane of another tree node
        precedes on their shard of a chain or map (each node ranks from
        0, so their ranks do not hold)."""
        n = len(self._stores)
        for evs in self._events.values():
            if len(evs) < 2:
                continue
            first = np.full((len(evs), n), _NEVER)
            for e, (lanes, on, _) in enumerate(evs):
                np.minimum.at(first[e], on, lanes)
            lead = first.argmin(0)
            first[lead, np.arange(n)] = _NEVER
            other = first.min(0)
            for e, (lanes, on, _) in enumerate(evs):
                yield lanes[(lead[on] != e) | (lanes > other[on])]

    def _footprint(self, table, groups, fresh):
        """Add to ``table`` what each ``fresh`` interpreter lane (all, when
        None) touches run interpreted, then the kernel lanes'
        footprints."""
        for g in groups:
            kern = np.any([ps.kmask for ps in g.progs], axis=0)
            interp = ~kern if fresh is None else (
                fresh[g.g_lanes - self._start] & ~kern
            )
            if not interp.any():
                continue
            known = np.any([
                ps.match for ps in g.progs
                if ps.prog.supported and not ps.bailed
            ], axis=0)
            # No artifacts of a bailed program survived: its lanes, which
            # no other program's path claims, may touch all it can.
            wild = partial(_entry, interp & ~known, g.g_lanes, g.shards, None)
            for ps in g.progs:
                if ps.bailed:
                    for aspect, obj in ps.prog.wild:
                        table.add(aspect, obj, wild, None)
                elif (ps.match & interp).any():
                    self._interp_footprint(
                        table, ps, g.g_lanes, ps.match & interp
                    )
        for g in groups:
            for ps in g.progs:
                if ps.kmask.any():
                    _kernel_footprint(table, ps, g.g_lanes)

    def _interp_footprint(self, table, ps, g_lanes, mask):
        """Add what the ``mask`` lanes of one program touch run
        interpreted: per ``pubs`` entry, a wildcard on the lane's shard,
        the reach of a chain, or its artifact's key hashes or cells.  A
        lane whose allocation or insert outcome other lanes can change
        may take any path from there: every path through that step, as
        wildcards."""
        shards = ps.shards
        for step, art in zip(ps.prog.steps, ps.arts):
            tight = art.get("tight") if step.node is not None else None
            if tight is not None and (mask & tight).any():
                wild = partial(_entry, mask & tight, g_lanes, shards, None)
                for aspect, obj in step.after:
                    table.add(aspect, obj, wild, None)
        for si, aspect, obj, src in ps.prog.pubs:
            art = ps.arts[si]
            if type(src) is tuple:  # only each shard's first lane counts
                present, at = np.unique(shards[mask], return_index=True)
                lanes = g_lanes[mask][at].tolist()
                for s, lane in zip(present.tolist(), lanes):
                    table.add_reach(aspect, obj, lane, s, src[1], partial(
                        self._reach, s, src[1], aspect
                    ))
                continue
            sel, keys = mask, None
            if src in ("kh", "vh") and art is not None:
                keys = partial(_art_vals, art, src, shards)
            elif src is not None and art is not None:
                sel = mask & art["flags"] if src == "live" else mask
                sel, keys = sel & (art["q"] >= 0), art["q"]
            table.add(aspect, obj, partial(_entry, sel, g_lanes, shards, keys),
                      None if keys is None else False)

    def _reach(self, shard, chain, aspect):
        """The cells allocations on ``chain`` can return on ``shard``
        this chunk, as ``aspect`` keys: qualified cells, or key hashes
        of ``(shard, cell)`` for a map value.

        Nothing frees an index inside a chunk, so at most ``k`` pops (the
        shard's lanes times their paths' allocations on ``chain``) take
        the top ``k`` cells of its free stack; past its end they fail
        with index 0.
        """
        rows = aspect in _ROW_ASPECTS
        vals = self._reaches.get((shard, chain, rows))
        if vals is None:
            k = int(self._bound(_Alloc.op, chain)[shard])
            dchain = self._stores[shard][chain]
            free = dchain.capacity - dchain.allocated_count()
            cells = dchain.peek(min(k, free))
            if k > free:
                cells.append(0)
            cells = np.array(cells, np.int64)
            vals = (
                key_hash(np.full(cells.size, shard), [cells]) if rows
                else cells * len(self._stores) + shard
            )
            self._reaches[(shard, chain, rows)] = vals
        return vals

    # -------------------------------------------------------------- #
    # Stage 2: results, op accounting, scatters
    # -------------------------------------------------------------- #
    def _apply_group(self, group, results):
        kept = 0
        g_lanes = group.g_lanes
        ctxs = self._ctxs
        for ps in group.progs:
            if not ps.kmask.any():
                continue
            prog = ps.prog
            kidx = np.flatnonzero(ps.kmask)
            lanes = g_lanes[kidx]
            lanes_l = lanes.tolist()
            kept += kidx.size
            self.path_ids[lanes] = prog.pid
            # Lifetime op-count accounting, batched per context.
            cores = self._core_ids[lanes]
            counts = np.bincount(cores, minlength=len(ctxs))
            for c in np.flatnonzero(counts).tolist():
                _bump(ctxs[c], prog.bump_ops, int(counts[c]))
            # A lane opens a flow when one of its steps opens one.
            new = None
            for step, art in zip(prog.steps, ps.arts):
                ok = step.opened(art, kidx)
                if ok is not None:
                    new = ok if new is None else new | ok
            if new is not None and new.any():
                opened = np.bincount(cores[new], minlength=len(ctxs))
                for c in np.flatnonzero(opened).tolist():
                    ctxs[c].new_flow_total += int(opened[c])
            else:
                new = None
            # Results.
            if prog.const_result is not None:
                if new is None:
                    r = prog.const_result
                    for i in lanes_l:
                        results[i] = r
                else:
                    both = (prog.const_result, prog.const_new)
                    for i, opened_flow in zip(lanes_l, new.tolist()):
                        results[i] = both[opened_flow]
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
                    repeat(prog.ops_list),
                    repeat(False) if new is None else new.tolist(),
                )):
                    results[i] = r
            # Scatters, in step order: each step writes its kernel lanes'
            # state or queues it for its chunk-end flush.
            for step, art in zip(prog.steps, ps.arts):
                step.apply(self, group, ps, art, kidx)
        return kept

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #
    def stats(self):
        return {
            **self.run_stats((0, 0, 0, 0)),
            "chunks": self.chunks,
            "bails": self.bails,
            # Always zero: nothing is memoized.  Kept only because the
            # perfbench harness reads it (ROADMAP item 3).
            "memo": {"hits": 0, "misses": 0},
        }

    def counters(self):
        """Lifetime kernel and fallback packets, and keys the map indexes
        reconciled and their rebuilds: :meth:`run_stats` reports a run
        as the change since the counters taken before it."""
        indexes = self._indexes.values()
        return (
            self.kernel_packets,
            self.fallback_packets,
            sum(ix.reconciled for ix in indexes),
            sum(ix.rebuilds for ix in indexes),
        )

    def run_stats(self, before):
        """Accounting since ``before`` (:meth:`counters`); ``map_index``
        holds the keys the map indexes reconciled from logs, their
        rebuilds and the bytes they hold now."""
        kernel, fallback, reconciled, rebuilds = (
            now - then for now, then in zip(self.counters(), before)
        )
        total = kernel + fallback
        return {
            "paths": self.total_paths,
            "supported_paths": self.supported_paths,
            "kernel_packets": kernel,
            "fallback_packets": fallback,
            "coverage": kernel / total if total else 0.0,
            "fallback_rate": fallback / total if total else 0.0,
            "map_index": {
                "reconciled": reconciled,
                "rebuilds": rebuilds,
                "bytes": sum(ix.nbytes for ix in self._indexes.values()),
            },
        }
