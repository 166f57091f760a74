"""Vigor-style stateful data structures (Table 1 of the paper).

====== =====================================================
map    Stores integers indexed by arbitrary data.
vector Stores arbitrary data (records) indexed by integers.
dchain Time-aware integer allocator.
sketch Count-min sketch.
====== =====================================================

These are the *only* containers NF state may live in (paper §5,
limitation (i): "a clean separation between stateful and stateless
operations ... only allowing state to persist within a set of well-defined
data structures").  The Maestro analysis relies on this: per-structure
sharding rules are encoded once (§3.4) and every NF built on top of them
is analyzable.

All structures have a fixed ``capacity`` so the shared-nothing code
generator can divide it across cores (§4, *State sharding*).
"""

from __future__ import annotations

import hashlib
import operator
from array import array
from itertools import chain, repeat
from typing import Hashable, Iterator

import numpy as np

from repro.errors import StateModelError

__all__ = ["Map", "MapIndex", "Vector", "DChain", "Sketch", "key_hash"]

#: Keys a watched map logs between two drains of its index.  One more
#: unwatches the map, and the index rebuilds from the dicts instead.
MAP_LOG_MAX = 4096


class Map:
    """A bounded map from arbitrary hashable keys to integers.

    Mirrors Vigor's ``map``: ``put`` fails (returns ``False``) when the map
    is at capacity, matching the sequential semantics that the paper's
    state-sharding discussion (§4) builds on: a "full" shard behaves
    locally like the full sequential map behaves globally.

    The dict is the truth.  A :class:`MapIndex` that mirrors the map
    *watches* it: ``_log`` is then a list of the keys changed since the
    index last drained it, and None otherwise.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise StateModelError(f"map capacity must be positive: {capacity}")
        self.capacity = capacity
        self._data: dict[Hashable, int] = {}
        self._log: list | None = None

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> tuple[bool, int]:
        """Lookup ``key``; returns ``(found, value)`` with value 0 on miss."""
        if key in self._data:
            return True, self._data[key]
        return False, 0

    def put(self, key: Hashable, value: int) -> bool:
        """Insert or update; returns ``False`` when full (new key only)."""
        if key not in self._data and len(self._data) >= self.capacity:
            return False
        self._data[key] = int(value)
        log = self._log
        if log is not None:
            log.append(key)
            if len(log) > MAP_LOG_MAX:
                self._log = None
        return True

    def put_many(self, keys: list, values: list[int]) -> None:
        """``put`` each key in order, when the map has room for every
        new one among them (so each put succeeds)."""
        self._data.update(zip(keys, values))
        log = self._log
        if log is not None:
            log.extend(keys)
            if len(log) > MAP_LOG_MAX:
                self._log = None

    def erase(self, key: Hashable) -> bool:
        """Remove ``key``; returns whether it was present."""
        if self._data.pop(key, None) is None:
            return False
        log = self._log
        if log is not None:
            log.append(key)
            if len(log) > MAP_LOG_MAX:
                self._log = None
        return True

    def keys(self) -> Iterator[Hashable]:
        return iter(list(self._data.keys()))


_MIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(31)
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def key_hash(shards, cols):
    """A 64-bit hash of each lane's ``(shard, *cols)`` row.

    Equal rows hash equal, so a dirt check on hashes never misses a
    collision; two different rows that hash equal only demote a lane,
    which is always safe.
    """
    acc = np.asarray(shards, np.int64).astype(np.uint64) + _MIX
    for col in cols:
        acc = acc * _MIX
        acc ^= np.asarray(col, np.int64).view(np.uint64)
        acc ^= acc >> _SHIFT
    return acc * _MIX


def _lane_key(key, arity):
    """The tuple of int64 values equal to dict key ``key``, or None when
    no lane key (``arity`` Python ints within int64) can equal it.

    ``(True, 3.0)`` is ``(1, 3)``.  The tuple must also hash like
    ``key``: a dict finds a stored key only through its hash.
    """
    if not isinstance(key, tuple) or len(key) != arity:
        return None
    lane = key
    if type(key) is not tuple or any(type(x) is not int for x in key):
        try:
            lane = tuple([int(x) for x in key])
        except (TypeError, ValueError, OverflowError):
            return None
        if not (lane == key and hash(lane) == hash(key)):
            return None
    if lane and (min(lane) < _I64_MIN or max(lane) > _I64_MAX):
        return None
    return lane


def _lane_rows(keys, arity):
    """The lanes of the keys a lane key can equal (:func:`_lane_key`),
    as an ``(n, arity)`` int64 array, and their positions in ``keys``
    (None when that is every key)."""
    if set(map(type, keys)) == {tuple} and set(map(len, keys)) == {arity} \
            and set(map(type, chain.from_iterable(keys))) <= {int}:
        try:
            flat = np.fromiter(
                chain.from_iterable(keys), np.int64, count=len(keys) * arity
            )
            return flat.reshape(len(keys), arity), None
        except OverflowError:
            pass
    lanes = [_lane_key(key, arity) for key in keys]
    at = [i for i, lane in enumerate(lanes) if lane is not None]
    rows = np.array([lanes[i] for i in at], np.int64)
    return rows.reshape(len(at), arity), at


def _int64s(values):
    """``values`` as int64, and which of them are not ints within int64
    (``wide``, stored as 0)."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, np.int64), np.zeros(len(values), bool)
        except OverflowError:
            pass
    wide = np.fromiter(
        (not (type(v) is int and _I64_MIN <= v <= _I64_MAX) for v in values),
        bool, count=len(values),
    )
    values = [0 if w else v for v, w in zip(values, wide.tolist())]
    return np.array(values, np.int64), wide


class MapIndex:
    """An exact open-addressing index of one map object over its shards,
    for batched lookups of lane keys of ``arity`` int64 components.

    Vigor's map layout (Table 1), one slot per entry: a :func:`key_hash`
    of ``(shard, key)``, the shard and key columns, the value, and
    whether the value is outside int64 (``wide``).  A stored hash has
    bit 1 set, so 0 marks an empty slot and 1 a deleted one.  Probes are
    linear on the hashes; the columns are compared exactly once per
    hash hit.  At most half the slots are used (deleted ones included:
    past that, the live entries are inserted afresh), and the table is
    sized by the live entries, never by the maps' capacity.  One more
    slot past the table stays empty, so a miss (slot -1) reads value 0.

    The per-shard dicts stay the truth.  The index watches each shard's
    :class:`Map` with its own log list, and :meth:`sync` reconciles each
    logged key against its shard's dict: present means upsert, absent
    means delete, so the order of the logged operations does not matter.
    It rebuilds from the dicts only when the maps change (a rescale), a
    log overflows, or another index took over a map's log.  A dict key
    no lane key can equal (see :func:`_lane_key`) is left out.
    """

    #: Slot offsets one probe round reads, from where the round starts.
    _WINDOW = np.arange(8)
    _TAG = np.uint64(2)

    def __init__(self, arity: int):
        self.arity = arity
        self.maps: list[Map] = []
        self.logs: list[list] = []
        #: Keys reconciled from logs, and rebuilds, over the lifetime.
        self.reconciled = 0
        self.rebuilds = 0
        self._alloc(0)

    def _alloc(self, n):
        """Empty arrays for ``n`` live entries, at most a third full: at
        least ``n / 2`` more entries fit before the table is refilled,
        so refilling costs O(1) per insert."""
        cap = 8
        while cap < 3 * n:
            cap *= 2
        self.mask = cap - 1
        self.shift = np.uint64(65 - cap.bit_length())
        self.hashes = np.zeros(cap + 1, np.uint64)
        #: Row 0 holds each slot's shard, the others its key columns.
        self.cols = np.zeros((1 + self.arity, cap + 1), np.int64)
        self.values = np.zeros(cap + 1, np.int64)
        self.wide = np.zeros(cap + 1, bool)
        self.live = 0
        self.used = 0

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (
            self.hashes, self.cols, self.values, self.wide
        ))

    # ------------------------------------------------------------ #
    # Keeping up with the dicts
    # ------------------------------------------------------------ #
    def sync(self, maps: list[Map]) -> None:
        """Bring the index up to the contents of ``maps`` (one per shard)."""
        if len(maps) != len(self.maps) or any(
            m is not w or m._log is not log
            for m, w, log in zip(maps, self.maps, self.logs)
        ):
            self.rebuild(maps)
        else:
            self.drain()

    def rebuild(self, maps: list[Map]) -> None:
        """Watch ``maps`` afresh and index every entry of their dicts."""
        for m, log in zip(self.maps, self.logs):
            if m._log is log:
                m._log = None
        self.maps = list(maps)
        self.logs = []
        for m in maps:
            m._log = []
            self.logs.append(m._log)
        rows, values = self._rows(
            (s, list(m._data)) for s, m in enumerate(maps)
        )
        self._alloc(len(values))
        self.rebuilds += 1
        if values:
            self._insert(key_hash(rows[0], rows[1:]), rows, *_int64s(values))

    def drain(self) -> None:
        """Reconcile every logged key against its shard's dict, in one
        batch."""
        logged = []
        for s, log in enumerate(self.logs):
            if log:
                keys = list(dict.fromkeys(log))
                log.clear()
                self.reconciled += len(keys)
                logged.append((s, keys))
        if not logged:
            return
        rows, values = self._rows(logged)
        if not values:
            return
        h = key_hash(rows[0], rows[1:])
        slots = self._find(h, rows)
        keep = np.fromiter(
            map(operator.is_not, values, repeat(None)), bool, count=len(values)
        )
        drop = slots[(slots >= 0) > keep]
        self.hashes[drop] = 1
        self.live -= drop.size
        vals, wide = _int64s([v for v in values if v is not None])
        slots = slots[keep]
        here = slots >= 0
        self.values[slots[here]] = vals[here]
        self.wide[slots[here]] = wide[here]
        new = np.flatnonzero(keep)[~here]
        if new.size:
            self._add(h[new], rows[:, new], vals[~here], wide[~here])

    def _rows(self, keys_by_shard):
        """The keys a lane key can equal, over ``(shard, keys)`` pairs,
        as columns (shard, then key), and each one's value in its
        shard's dict (None when absent)."""
        shards, keys, values = [], [], []
        for s, some in keys_by_shard:
            shards += repeat(s, len(some))
            keys += some
            values += map(self.maps[s]._data.get, some)
        lanes, at = _lane_rows(keys, self.arity)
        if at is not None:
            shards = [shards[i] for i in at]
            values = [values[i] for i in at]
        rows = np.empty((1 + self.arity, len(values)), np.int64)
        rows[0] = shards
        rows[1:] = lanes.T
        return rows, values

    # ------------------------------------------------------------ #
    # Batched lookups and writes, by (hash, shard, key columns)
    # ------------------------------------------------------------ #
    def lookup(self, h, shards, kcols):
        """``(found, value, wide)`` per row: whether its ``(shard, key)``
        (``h`` its :func:`key_hash`) is present, its value (0 on a miss),
        and whether that value is outside int64 (stored as 0)."""
        slots = self._find(h, [shards, *kcols])
        return slots >= 0, self.values[slots], self.wide[slots]

    def _find(self, h, cols):
        """The slot holding each row of ``cols`` (shard, then key
        columns), or -1."""
        if not self.live or not h.size:
            return np.full(h.size, -1, np.int64)
        table = self.hashes
        hp = h | self._TAG
        sp = (h >> self.shift).view(np.int64)
        hv = table[sp]
        hit = hv == hp
        out = np.where(hit, sp, -1)
        # A row whose home slot holds another entry probes on.
        pos = np.flatnonzero((hv != 0) ^ hit)
        hp = hp[pos, None]
        sp = sp[pos, None] + 1
        while pos.size:
            slots = (sp + self._WINDOW) & self.mask
            hv = table[slots]
            hit = hv == hp
            first = hit.argmax(1)
            at = np.arange(pos.size)
            hit = hit[at, first]
            out[pos[hit]] = slots[at, first][hit]
            # On past a window with neither the hash nor an empty slot.
            go = ~hit & (hv != 0).all(1)
            pos, hp, sp = pos[go], hp[go], sp[go] + self._WINDOW.size
        # An entry is never stored past an empty slot of its probe, so
        # a hash hit beyond one is a collision the exact check rejects.
        same = self.cols[0][out] == cols[0]
        for j in range(1, len(cols)):
            same &= self.cols[j][out] == cols[j]
        for i in np.flatnonzero((out >= 0) > same).tolist():
            out[i] = self._walk(
                (int(out[i]) + 1) & self.mask, int(h[i] | self._TAG),
                [int(c[i]) for c in cols],
            )
        return out

    def _walk(self, slot, want, row):
        """One row's probe from ``slot``: the first slot holding tagged
        hash ``want`` and ``row`` (shard, then key), or -1 at an empty
        slot."""
        while True:
            hv = int(self.hashes[slot])
            if hv == 0:
                return -1
            if hv == want and self.cols[:, slot].tolist() == row:
                return slot
            slot = (slot + 1) & self.mask

    def _add(self, h, rows, vals, wide):
        """Insert distinct absent rows.  Past half the slots used, every
        live entry is inserted afresh with them, into a table sized for
        both."""
        if 2 * (self.used + h.size) > self.mask + 1:
            live = np.flatnonzero(self.hashes > 1)
            h = np.concatenate((self.hashes[live], h))
            rows = np.concatenate((self.cols[:, live], rows), axis=1)
            vals = np.concatenate((self.values[live], vals))
            wide = np.concatenate((self.wide[live], wide))
            self._alloc(h.size)
        self._insert(h, rows, vals, wide)

    def _insert(self, h, rows, vals, wide):
        """Insert absent rows into free slots, probing from their homes."""
        mask = self.mask
        pos = np.arange(h.size)
        sp = (h >> self.shift).view(np.int64)[:, None]
        claim = np.empty(mask + 1, np.int64)
        while pos.size:
            slots = (sp + self._WINDOW) & mask
            free = self.hashes[slots] <= 1
            first = free.argmax(1)
            at = np.arange(pos.size)
            has = free[at, first]
            cand = slots[at, first]
            # One row per free slot takes it, the one whose claim stuck;
            # the others probe on past it, or past the window when it
            # held no free slot.
            claim[cand[has]] = at[has]
            won = has & (claim[cand] == at)
            self._write(cand[won], pos[won], h, rows, vals, wide)
            left = ~won
            sp = np.where(has, cand, sp[:, 0] + self._WINDOW.size)[left, None]
            pos = pos[left]

    def _write(self, slots, sel, h, rows, vals, wide):
        """Store rows ``sel`` at free ``slots``."""
        self.used += int(np.count_nonzero(self.hashes[slots] == 0))
        self.live += slots.size
        self.hashes[slots] = h[sel] | self._TAG
        self.cols[:, slots] = rows[:, sel]
        self.values[slots] = vals[sel]
        self.wide[slots] = wide[sel]


class Vector:
    """A fixed-size array of records indexed by small integers.

    Records are plain ``dict``s whose layout is declared by the owning NF
    (see :class:`repro.nf.api.StateDecl`); the declared layout is what lets
    the R5 analysis track value provenance through writes and reads.

    Storage is sparse: only written rows are held, and every other index
    (never written, or :meth:`reset`) reads as the template.
    """

    def __init__(self, capacity: int, initial: dict[str, int] | None = None):
        if capacity <= 0:
            raise StateModelError(f"vector capacity must be positive: {capacity}")
        self.capacity = capacity
        #: Pristine record layout, read by every never-written index.
        self._template: dict[str, int] = dict(initial or {})
        self._rows: dict[int, dict[str, int]] = {}

    def __len__(self) -> int:
        return self.capacity

    def _check(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.capacity:
            raise StateModelError(
                f"vector index {index} out of range [0, {self.capacity})"
            )
        return index

    def row(self, index: int) -> dict[str, int]:
        """The record at an in-range ``index``, *not* copied: batch
        readers use it to gather fields and must not mutate it."""
        return self._rows.get(index, self._template)

    def borrow(self, index: int) -> dict[str, int]:
        """Read the record at ``index`` (a copy; write back with ``put``)."""
        return dict(self._rows.get(self._check(index), self._template))

    def put(self, index: int, record: dict[str, int]) -> None:
        """Overwrite the record at ``index``."""
        self._rows[self._check(index)] = dict(record)

    def put_many(self, indices: list[int], records: list[dict]) -> None:
        """``put`` each record at its in-range index, in order, taking
        ownership of the records."""
        self._rows.update(zip(indices, records))

    def reset(self, index: int) -> None:
        """Restore the record at ``index`` to the initial template.

        Used by live state migration: after a row's contents move to the
        receiving core's shard, the donor's slot goes back to its pristine
        state so a later (re)allocation of that index starts clean.
        """
        self._rows.pop(self._check(index), None)


class DChain:
    """Time-aware integer allocator (Vigor's ``dchain``).

    Allocates indices in ``[0, capacity)``; each allocated index carries a
    last-touched timestamp that :meth:`rejuvenate` refreshes and
    :meth:`expire` consults to free stale indices.  This is the structure
    whose aging data the lock-based code generator replicates per core
    (§4, *Lock-based rejuvenation*).

    State is columnar: a flag byte and a ``float64`` timestamp per index
    in flat buffers, plus the free stack (allocation pops its end).
    Batch methods wrap the buffers in NumPy views per call and never
    store them, so no copied chain can hold another chain's view.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise StateModelError(f"dchain capacity must be positive: {capacity}")
        self.capacity = capacity
        self._allocated = bytearray(capacity)
        self._touched = array("d", bytes(8 * capacity))
        self._free: list[int] = list(range(capacity - 1, -1, -1))

    def allocated_count(self) -> int:
        return self.capacity - len(self._free)

    def allocate(self, now: float) -> tuple[bool, int]:
        """Allocate a fresh index; ``(False, 0)`` when exhausted."""
        if not self._free:
            return False, 0
        index = self._free.pop()
        self._allocated[index] = 1
        self._touched[index] = now
        return True, index

    def peek(self, k: int) -> list[int]:
        """The indices the next ``k`` allocations return, in order
        (``k`` at most the free count)."""
        free = self._free
        return free[len(free) - k:][::-1]

    def take(self, times: np.ndarray) -> list[int]:
        """Allocate one index per entry of ``times``, stamped with it:
        the indices ``len(times)`` calls of :meth:`allocate` return, in
        order (at most the free count)."""
        free = self._free
        cut = len(free) - len(times)
        cells = free[cut:][::-1]
        del free[cut:]
        np.frombuffer(self._allocated, dtype=np.bool_)[cells] = True
        np.frombuffer(self._touched, dtype=np.float64)[cells] = times
        return cells

    def is_allocated(self, index: int) -> bool:
        return 0 <= index < self.capacity and self._allocated[index] == 1

    def flags(self, cells: np.ndarray) -> np.ndarray:
        """:meth:`is_allocated` of every cell, as a new bool array."""
        inside = (cells >= 0) & (cells < self.capacity)
        flags = np.frombuffer(self._allocated, dtype=np.bool_)
        return flags[np.where(inside, cells, 0)] & inside

    def rejuvenate(self, index: int, now: float) -> bool:
        """Refresh the timestamp of an allocated index."""
        if 0 <= index < self.capacity and self._allocated[index]:
            self._touched[index] = now
            return True
        return False

    def stamp(self, cells: np.ndarray, times: np.ndarray) -> None:
        """Set the timestamp of each of the distinct, in-range ``cells``
        to the matching ``times`` entry (a batch of rejuvenations whose
        allocation checks the caller already made)."""
        np.frombuffer(self._touched, dtype=np.float64)[cells] = times

    def last_touched(self, index: int) -> float:
        return self._touched[index]

    def free_index(self, index: int) -> bool:
        if 0 <= index < self.capacity and self._allocated[index]:
            self._allocated[index] = 0
            self._free.append(index)
            return True
        return False

    def expire(self, threshold: float) -> list[int]:
        """Free every index last touched strictly before ``threshold``;
        returns them ascending, the order they go on the free stack."""
        flags = np.frombuffer(self._allocated, dtype=np.bool_)
        touched = np.frombuffer(self._touched, dtype=np.float64)
        stale = np.flatnonzero(flags & (touched < threshold))
        flags[stale] = False
        expired = stale.tolist()
        self._free.extend(expired)
        return expired


class Sketch:
    """Count-min sketch [Cormode & Muthukrishnan] (paper §6.1, CL).

    ``depth`` independent hash rows (the paper's Connection Limiter uses 5)
    of ``width`` counters each.  Memory-efficient approximate counting:
    ``fetch`` returns the minimum across rows, an upper bound on the true
    count.
    """

    def __init__(self, capacity: int, depth: int = 5):
        if capacity <= 0 or depth <= 0:
            raise StateModelError("sketch capacity and depth must be positive")
        self.capacity = capacity
        self.depth = depth
        self.width = max(4, capacity // depth)
        self._rows: list[list[int]] = [[0] * self.width for _ in range(depth)]

    def _buckets(self, key: Hashable) -> list[int]:
        material = repr(key).encode()
        out = []
        for row in range(self.depth):
            digest = hashlib.blake2b(
                material, digest_size=8, salt=row.to_bytes(4, "little") + b"\0" * 12
            ).digest()
            out.append(int.from_bytes(digest, "little") % self.width)
        return out

    def touch(self, key: Hashable, amount: int = 1) -> None:
        """Increment every row's counter for ``key``."""
        for row, bucket in enumerate(self._buckets(key)):
            self._rows[row][bucket] += amount

    def fetch(self, key: Hashable) -> int:
        """Estimated count for ``key`` (min across rows; never undercounts)."""
        return min(
            self._rows[row][bucket] for row, bucket in enumerate(self._buckets(key))
        )

    def reset(self) -> None:
        """Clear all counters (time-window rotation)."""
        for row in self._rows:
            for i in range(len(row)):
                row[i] = 0
