"""Concrete execution of NFs: the sequential reference runtime.

This is what "running the sequential NF" means throughout the repository:
the functional simulator, the equivalence checker, and the traffic studies
all execute NF ``process`` methods through :class:`ConcreteContext`.

Besides producing the packet's fate (:class:`PacketResult`), the runtime
records *operation statistics* — which stateful objects were read or
written — because the performance model (:mod:`repro.hw.cpu`) prices each
packet from exactly those counts.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.errors import SimulationError, StateModelError
from repro.nf.api import NF, ActionKind, NfContext, PacketDone, StateDecl, StateKind
from repro.nf.packet import PACKET_FIELDS, Packet
from repro.nf.state import DChain, Map, Sketch, Vector

__all__ = [
    "OpRecord", "PacketResult", "StateStore", "ConcreteContext",
    "SequentialRunner", "EXPIRY_PERIOD", "expiry_triggers",
]

#: ``expire_flows`` sweeps each chain at most once per this many
#: simulated seconds, which bounds a trace's sweep cost.
EXPIRY_PERIOD = 1.0
#: The last sweep time of a chain never swept.
_NEVER = float("-inf")


def expiry_triggers(ts: np.ndarray, last: float) -> list[int]:
    """Positions in ``ts`` where a chain last swept at ``last`` sweeps.

    The batched replay of :meth:`ConcreteContext.expire_flows`'s gate
    (it skips while ``t - last < EXPIRY_PERIOD``), exact for sorted and
    unsorted timestamps alike: the predicate is evaluated as an array
    over a window that doubles while nothing fires, and the scan jumps
    to the first position where it does.
    """
    out = []
    j, w, m = 0, 256, ts.size
    while j < m:
        due = np.flatnonzero(~(ts[j:j + w] - last < EXPIRY_PERIOD))
        if not due.size:
            j += w
            w *= 2
            continue
        j += int(due[0])
        out.append(j)
        last = float(ts[j])
        j += 1
    return out


class OpRecord(NamedTuple):
    """One stateful operation performed while processing a packet.

    A ``NamedTuple`` rather than a frozen dataclass: the functional
    simulator creates one per stateful op on every packet, and tuple
    construction is several times cheaper on that hot path.
    """

    obj: str
    op: str
    write: bool


class PacketResult:
    """The observable outcome of processing one packet.

    A ``__slots__`` class with a hand-written ``__init__`` rather than a
    dataclass: one is created per packet, and on the batched fast path
    the construction cost is a measurable slice of the whole per-packet
    budget.
    """

    __slots__ = ("kind", "port", "mods", "ops", "new_flow")

    def __init__(
        self,
        kind: ActionKind,
        port: int | None = None,
        mods: dict[str, int] | None = None,
        ops: list[OpRecord] | None = None,
        new_flow: bool = False,
    ) -> None:
        self.kind = kind
        self.port = port
        self.mods = {} if mods is None else mods
        self.ops = [] if ops is None else ops
        self.new_flow = new_flow

    def __repr__(self) -> str:
        return (
            f"PacketResult(kind={self.kind!r}, port={self.port!r}, "
            f"mods={self.mods!r}, ops={self.ops!r}, new_flow={self.new_flow!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, PacketResult):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.port == other.port
            and self.mods == other.mods
            and self.ops == other.ops
            and self.new_flow == other.new_flow
        )

    @property
    def reads(self) -> int:
        return sum(1 for op in self.ops if not op.write)

    @property
    def writes(self) -> int:
        return sum(1 for op in self.ops if op.write)

    def observable(self) -> tuple[Any, ...]:
        """The externally visible behaviour (for equivalence checking)."""
        return (self.kind, self.port, tuple(sorted(self.mods.items())))


class StateStore:
    """Instantiates and owns the stateful objects declared by an NF.

    ``scale`` divides every capacity, implementing the paper's state
    sharding (§4): per-core shards hold ``capacity / n_cores`` entries so
    total memory stays constant.
    """

    def __init__(self, decls: Sequence[StateDecl], scale: int = 1):
        if scale <= 0:
            raise SimulationError(f"state scale must be positive: {scale}")
        self.decls = {decl.name: decl for decl in decls}
        self.scale = scale
        self.objects: dict[str, Any] = {}
        for decl in decls:
            # Read-only tables are replicated whole on every core; only
            # written state is sharded (§4, *State sharding*).
            capacity = decl.capacity if decl.read_only else max(1, decl.capacity // scale)
            if decl.kind is StateKind.MAP:
                self.objects[decl.name] = Map(capacity)
            elif decl.kind is StateKind.VECTOR:
                initial = {field_name: 0 for field_name, _ in decl.value_layout}
                self.objects[decl.name] = Vector(capacity, initial=initial)
            elif decl.kind is StateKind.DCHAIN:
                self.objects[decl.name] = DChain(capacity)
            elif decl.kind is StateKind.SKETCH:
                self.objects[decl.name] = Sketch(capacity, depth=decl.sketch_depth)
            else:  # pragma: no cover - enum is closed
                raise StateModelError(f"unknown state kind {decl.kind}")
        # Two-way value<->key index per map (the map+dchain expiry idiom):
        # ``_reverse[v]`` is the live key last put with value ``v``, and
        # ``_forward[key]`` lists exactly the values mapped to ``key``, so
        # erasing a key visits only its own values.  Keys are never None.
        maps = [decl.name for decl in decls if decl.kind is StateKind.MAP]
        self._reverse: dict[str, dict[int, Any]] = {name: {} for name in maps}
        self._forward: dict[str, dict[Any, list[int]]] = {name: {} for name in maps}

    def __getitem__(self, name: str) -> Any:
        try:
            return self.objects[name]
        except KeyError:
            raise StateModelError(f"undeclared state object {name!r}") from None

    def decl(self, name: str) -> StateDecl:
        try:
            return self.decls[name]
        except KeyError:
            raise StateModelError(f"undeclared state object {name!r}") from None

    def note_put(self, name: str, key: Any, value: int) -> None:
        reverse = self._reverse.get(name)
        if reverse is None:
            return
        value = int(value)
        forward = self._forward[name]
        old = reverse.get(value)
        if old is not None and old != key:
            forward[old].remove(value)
            if not forward[old]:
                del forward[old]
        reverse[value] = key
        values = forward.setdefault(key, [])
        if value not in values:
            values.append(value)

    def note_puts(self, name: str, keys: list, values: list[int]) -> None:
        """:meth:`note_put` of each key and its value, in order."""
        reverse = self._reverse.get(name)
        if reverse is None:
            return
        forward = self._forward[name]
        if (
            len(set(values)) == len(values)
            and reverse.keys().isdisjoint(values)
            and len(set(keys)) == len(keys)
            and forward.keys().isdisjoint(keys)
        ):
            # New keys with unused values: nothing to unlink.
            reverse.update(zip(values, keys))
            forward.update(zip(keys, ([v] for v in values)))
            return
        for key, value in zip(keys, values):
            old = reverse.get(value)
            if old is not None and old != key:
                forward[old].remove(value)
                if not forward[old]:
                    del forward[old]
            reverse[value] = key
            owned = forward.setdefault(key, [])
            if value not in owned:
                owned.append(value)

    def note_erase(self, name: str, key: Any) -> None:
        forward = self._forward.get(name)
        if forward is not None:
            reverse = self._reverse[name]
            for v in forward.pop(key, ()):
                del reverse[v]

    def key_for_value(self, name: str, value: int) -> Any | None:
        return self._reverse.get(name, {}).get(int(value))


def _contents(obj: Any) -> Any:
    """Everything a state object holds, comparable with ``==``."""
    if isinstance(obj, DChain):
        return obj._free, obj._allocated, obj._touched
    return obj._data if isinstance(obj, Map) else obj._rows


class ConcreteContext(NfContext):
    """NfContext implementation over real data structures and packets."""

    def __init__(self, nf: NF, store: StateStore):
        self.nf = nf
        self.store = store
        self._now: float = 0.0
        self._mods: dict[str, int] = {}
        self._ops: list[OpRecord] = []
        self._new_flow = False
        #: Chain name -> simulated time of its last expiry sweep.
        self._last_sweep: dict[str, float] = {}
        #: Lifetime count of packets that created a flow (at most one per
        #: packet, matching ``PacketResult.new_flow``); telemetry windows
        #: read it through :meth:`stat_snapshot` instead of re-walking
        #: every packet result.
        self.new_flow_total: int = 0
        # Hot-path plumbing: op records are immutable and drawn from a
        # tiny set of (obj, op) pairs, so intern them instead of
        # constructing one per stateful operation.  Each entry is
        # ``[record, (obj, kind), count]``; the count cell accumulates the
        # lifetime total for that op (cheaper than a dict update per op),
        # and :attr:`op_totals` aggregates the cells on demand.
        self._op_intern: dict[tuple[str, str, bool], list] = {}
        self._tracer = obs.get_tracer()
        self._trace_on = self._tracer.enabled()
        self._objects = store.objects
        #: Optional state-access probe (the race sanitizer's event tap,
        #: :mod:`repro.analysis.race`).  When set it must expose
        #: ``begin(port)`` — called once per packet before processing —
        #: and ``access(obj, op, write, key)`` — called per stateful op
        #: with the concrete key/index (None for key-less ops).  The
        #: disabled case pays one attribute load and a None test per op.
        self.access_probe = None
        #: Elastic-scaling plumbing (:mod:`repro.scale`).  When a core runs
        #: under live re-sharding, ``bucket_index`` is a
        #: :class:`repro.scale.migrate.BucketIndex` and ``current_bucket``
        #: is set per packet to the indirection-table slot that steered it;
        #: the stateful-op wrappers below then tag every created map key /
        #: vector row / chain index with that bucket so migration can later
        #: extract exactly the entries a moving bucket owns.  Both stay
        #: inert (None / -1) outside elastic runs.
        self.bucket_index = None
        self.current_bucket = -1
        # One reusable terminator exception per context: the packet ops
        # below re-arm and re-raise it instead of constructing a fresh
        # PacketDone per packet (exception allocation is a measurable
        # slice of the per-packet budget).
        self._done = PacketDone(ActionKind.DROP)

    # -------------------------------------------------------------- #
    # Control flow & value algebra: plain Python semantics.
    # -------------------------------------------------------------- #
    def cond(self, value: Any) -> bool:
        return bool(value)

    def const(self, value: int, width: int) -> int:
        return int(value) & ((1 << width) - 1)

    def eq(self, lhs: Any, rhs: Any) -> bool:
        return lhs == rhs

    def lt(self, lhs: Any, rhs: Any) -> bool:
        return lhs < rhs

    def add(self, lhs: Any, rhs: Any) -> Any:
        return lhs + rhs

    def sub(self, lhs: Any, rhs: Any) -> Any:
        return lhs - rhs

    def mul(self, lhs: Any, rhs: Any) -> Any:
        return lhs * rhs

    def extract(self, value: Any, hi: int, lo: int) -> int:
        return (int(value) >> lo) & ((1 << (hi - lo + 1)) - 1)

    def lnot(self, value: Any) -> bool:
        return not value

    def land(self, lhs: Any, rhs: Any) -> bool:
        return bool(lhs) and bool(rhs)

    def lor(self, lhs: Any, rhs: Any) -> bool:
        return bool(lhs) or bool(rhs)

    def hash_value(self, fn: str, values: Sequence[Any], width: int) -> int:
        material = fn.encode() + b"|".join(str(int(v)).encode() for v in values)
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return int.from_bytes(digest, "little") & ((1 << width) - 1)

    def now(self) -> float:
        return self._now

    # -------------------------------------------------------------- #
    # Stateful operations
    # -------------------------------------------------------------- #
    @property
    def op_totals(self) -> dict[tuple[str, str], int]:
        """Lifetime stateful-op totals: ``(obj, "read"|"write") -> count``."""
        totals: dict[tuple[str, str], int] = {}
        for _, totals_key, count in self._op_intern.values():
            totals[totals_key] = totals.get(totals_key, 0) + count
        return totals

    def stat_snapshot(
        self, locked: frozenset[str] = frozenset()
    ) -> tuple[int, int, int, int]:
        """``(reads, writes, new_flow_packets, locked_writes)`` lifetime
        totals in one pass over the interned op cells.

        ``locked_writes`` counts writes to objects in ``locked`` (the
        :class:`~repro.core.codegen.LockPlan`'s guarded set) — the
        telemetry plane's ``lock_waits`` proxy: each such write is one
        write-lock acquisition under LOCKS/TM, and zero when the NF runs
        shared-nothing.
        """
        reads = writes = locked_writes = 0
        for record, _, count in self._op_intern.values():
            if record.write:
                writes += count
                if record.obj in locked:
                    locked_writes += count
            else:
                reads += count
        return reads, writes, self.new_flow_total, locked_writes

    def state_diff(self, other: ConcreteContext) -> str | None:
        """What of ``other``'s state first differs from this context's, or
        None: a state object's name (map contents, vector rows, a chain's
        free stack, flags and timestamps, sketch rows), ``"value index"``
        (the store's value-to-key index) or ``"bucket tags"``."""
        mine, theirs = self.store, other.store
        for name, obj in mine.objects.items():
            if _contents(obj) != _contents(theirs[name]):
                return name
        if (mine._forward, mine._reverse) != (theirs._forward, theirs._reverse):
            return "value index"
        tags = [
            None if ix is None else (ix._keys, ix._indices)
            for ix in (self.bucket_index, other.bucket_index)
        ]
        return "bucket tags" if tags[0] != tags[1] else None

    def _record(self, obj: str, op: str, write: bool, key: Any = None) -> None:
        entry = self._op_intern.get((obj, op, write))
        if entry is None:
            kind = "write" if write else "read"
            entry = [OpRecord(obj, op, write), (obj, kind), 0]
            self._op_intern[(obj, op, write)] = entry
        self._ops.append(entry[0])
        entry[2] += 1
        probe = self.access_probe
        if probe is not None:
            probe.access(obj, op, write, key)
        # Guard on the tracer so the (dominant) untraced case never pays
        # for assembling the counter's attribute kwargs.  The flag is
        # refreshed once per packet in run().
        if self._trace_on:
            obs.counter(
                "nf.state_op", 1, nf=self.nf.name, obj=obj, kind=entry[1][1]
            )

    # In every wrapper below, ``self._objects.get(name) or self.store[name]``
    # is the inlined fast path of ``self.store[name]``: one dict probe,
    # falling back to the raising lookup for undeclared names.  (State
    # objects are always truthy: they are plain container instances.)
    def map_get(self, name: str, key: Sequence[Any]) -> tuple[bool, int]:
        key_t = tuple(key)
        self._record(name, "map_get", False, key_t)
        obj = self._objects.get(name) or self.store[name]
        return obj.get(key_t)

    def map_put(self, name: str, key: Sequence[Any], value: Any) -> bool:
        key_t = tuple(key)
        self._record(name, "map_put", True, key_t)
        obj = self._objects.get(name) or self.store[name]
        ok = obj.put(key_t, int(value))
        if ok:
            self.store.note_put(name, key_t, int(value))
            if self.bucket_index is not None:
                self.bucket_index.note_key(name, key_t, self.current_bucket)
        return ok

    def map_erase(self, name: str, key: Sequence[Any]) -> None:
        key_t = tuple(key)
        self._record(name, "map_erase", True, key_t)
        self.store.note_erase(name, key_t)
        if self.bucket_index is not None:
            self.bucket_index.drop_key(name, key_t)
        obj = self._objects.get(name) or self.store[name]
        obj.erase(key_t)

    def vector_borrow(self, name: str, index: Any) -> Mapping[str, Any]:
        idx = int(index)
        self._record(name, "vector_borrow", False, idx)
        obj = self._objects.get(name) or self.store[name]
        return obj.borrow(idx)

    def vector_put(self, name: str, index: Any, record: Mapping[str, Any]) -> None:
        idx = int(index)
        self._record(name, "vector_put", True, idx)
        obj = self._objects.get(name) or self.store[name]
        obj.put(idx, dict(record))
        if self.bucket_index is not None:
            self.bucket_index.note_index(name, idx, self.current_bucket)

    def vector_fill(self, name: str, records: Sequence[Mapping[str, Any]]) -> None:
        self._record(name, "vector_fill", True)
        vector: Vector = self.store[name]
        for i in range(len(vector)):
            vector.put(i, dict(records[i % len(records)]) if records else {})

    def dchain_allocate(self, name: str) -> tuple[bool, int]:
        self._record(name, "dchain_allocate", True)
        obj = self._objects.get(name) or self.store[name]
        ok, index = obj.allocate(self._now)
        if ok:
            if self.bucket_index is not None:
                self.bucket_index.note_index(name, index, self.current_bucket)
            if not self._new_flow:
                self._new_flow = True
                self.new_flow_total += 1
        return ok, index

    def dchain_is_allocated(self, name: str, index: Any) -> bool:
        idx = int(index)
        self._record(name, "dchain_is_allocated", False, idx)
        obj = self._objects.get(name) or self.store[name]
        return obj.is_allocated(idx)

    def dchain_rejuvenate(self, name: str, index: Any) -> None:
        idx = int(index)
        self._record(name, "dchain_rejuvenate", True, idx)
        obj = self._objects.get(name) or self.store[name]
        obj.rejuvenate(idx, self._now)

    def sketch_fetch(self, name: str, key: Sequence[Any]) -> int:
        key_t = tuple(key)
        self._record(name, "sketch_fetch", False, key_t)
        obj = self._objects.get(name) or self.store[name]
        return obj.fetch(key_t)

    def sketch_touch(self, name: str, key: Sequence[Any]) -> None:
        key_t = tuple(key)
        self._record(name, "sketch_touch", True, key_t)
        obj = self._objects.get(name) or self.store[name]
        obj.touch(key_t)

    def expire_flows(self, map_name: str, chain_name: str) -> None:
        horizon = self.nf.expiration_time
        if horizon is None:
            return
        # Each chain is swept at most once per EXPIRY_PERIOD.
        if self._now - self._last_sweep.get(chain_name, _NEVER) < EXPIRY_PERIOD:
            return
        self._last_sweep[chain_name] = self._now
        self._record(chain_name, "expire", write=True)
        chain: DChain = self.store[chain_name]
        flow_map: Map = self.store[map_name]
        for index in chain.expire(self._now - horizon):
            key = self.store.key_for_value(map_name, index)
            if self.bucket_index is not None:
                self.bucket_index.drop_index(chain_name, index)
            if key is not None:
                flow_map.erase(key)
                self.store.note_erase(map_name, key)
                if self.bucket_index is not None:
                    self.bucket_index.drop_key(map_name, key)

    def sweep_positions(self, chain_name: str, ts: np.ndarray) -> list[int]:
        """Positions in ``ts`` where packets calling ``expire_flows`` on
        ``chain_name``, in order, would sweep it from this context's
        current state."""
        if self.nf.expiration_time is None:
            return []
        return expiry_triggers(ts, self._last_sweep.get(chain_name, _NEVER))

    # -------------------------------------------------------------- #
    # Packet operations
    # -------------------------------------------------------------- #
    def set_field(self, name: str, value: Any) -> None:
        if name not in PACKET_FIELDS:
            raise StateModelError(f"cannot rewrite unknown packet field {name!r}")
        self._mods[name] = int(value)

    # Re-arm the per-context PacketDone instead of allocating one per
    # packet (the base-class implementations construct a fresh exception).
    def forward(self, port: Any) -> None:
        done = self._done
        done.kind = ActionKind.FORWARD
        done.port = port
        raise done

    def drop(self) -> None:
        done = self._done
        done.kind = ActionKind.DROP
        done.port = None
        raise done

    def flood(self) -> None:
        done = self._done
        done.kind = ActionKind.FLOOD
        done.port = None
        raise done

    # -------------------------------------------------------------- #
    # Driver
    # -------------------------------------------------------------- #
    def run(self, port: int, pkt: Packet, now: float | None = None) -> PacketResult:
        """Process one packet and return its observable result."""
        self._now = pkt.timestamp if now is None else now
        self._mods = {}
        self._ops = []
        self._new_flow = False
        self._trace_on = self._tracer.enabled()
        probe = self.access_probe
        if probe is not None:
            probe.begin(port, self.current_bucket)
        try:
            self.nf.process(self, port, pkt)
        except PacketDone as done:
            # The reusable exception must not retain its traceback between
            # packets: it lives on the context, so a lingering traceback
            # would pin every frame of this call (and its locals) until
            # the next packet — measurable GC pressure at trace scale.
            done.__traceback__ = None
            # Hand the working mods/ops containers to the result instead
            # of copying them: run() rebinds fresh ones on the next call,
            # so the result keeps sole ownership.
            return PacketResult(
                done.kind,
                None if done.port is None else int(done.port),
                self._mods,
                self._ops,
                self._new_flow,
            )
        raise SimulationError(
            f"{self.nf.name}.process returned without a packet operation"
        )


class SequentialRunner:
    """Convenience wrapper: one NF instance with its own state.

    >>> runner = SequentialRunner(Firewall())
    >>> result = runner.process(port=0, pkt=some_packet)
    """

    def __init__(self, nf: NF, *, state_scale: int = 1):
        self.nf = nf
        self.store = StateStore(nf.state(), scale=state_scale)
        self.ctx = ConcreteContext(nf, self.store)
        nf.setup(self.ctx)

    @property
    def op_totals(self) -> dict[tuple[str, str], int]:
        """Lifetime per-object stateful read/write counts (see ctx)."""
        return dict(self.ctx.op_totals)

    def process(self, port: int, pkt: Packet, now: float | None = None) -> PacketResult:
        return self.ctx.run(port, pkt, now=now)

    def process_trace(
        self, trace: Sequence[tuple[int, Packet]]
    ) -> list[PacketResult]:
        """Process ``(port, packet)`` pairs in order."""
        return [self.process(port, pkt) for port, pkt in trace]
