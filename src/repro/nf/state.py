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
from array import array
from typing import Hashable, Iterator

import numpy as np

from repro.errors import StateModelError

__all__ = ["Map", "Vector", "DChain", "Sketch"]


class Map:
    """A bounded map from arbitrary hashable keys to integers.

    Mirrors Vigor's ``map``: ``put`` fails (returns ``False``) when the map
    is at capacity, matching the sequential semantics that the paper's
    state-sharding discussion (§4) builds on: a "full" shard behaves
    locally like the full sequential map behaves globally.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise StateModelError(f"map capacity must be positive: {capacity}")
        self.capacity = capacity
        self._data: dict[Hashable, int] = {}

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
        return True

    def put_many(self, keys: list, values: list[int]) -> None:
        """``put`` each key in order, when the map has room for every
        new one among them (so each put succeeds)."""
        self._data.update(zip(keys, values))

    def erase(self, key: Hashable) -> bool:
        """Remove ``key``; returns whether it was present."""
        return self._data.pop(key, None) is not None

    def keys(self) -> Iterator[Hashable]:
        return iter(list(self._data.keys()))


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

    def reach(self, k: int) -> list[int]:
        """Every index the next ``k`` allocations can return when nothing
        is freed between them: the top ``k`` cells of the free stack,
        plus 0 (a failed allocation's index) when fewer are free."""
        free = self._free
        return free[len(free) - k:] if k <= len(free) else free + [0]

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
