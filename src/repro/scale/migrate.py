"""Live state migration: bucket-granular re-sharding of a running NF.

Elastic scaling re-programs the RSS indirection table while traffic is
in flight.  Under shared-nothing (paper §4, *State sharding*), every
keyed state entry lives on exactly the core its flow's hash bucket steers
to — so moving a bucket to another core means moving the state those
flows own, or established connections break the moment the table flips.

The protocol here is the classic two-phase handoff (cf. the consistent-
hashing live-migration exemplars and State-Compute Replication's
state-as-transferable-delta framing):

1. **prepare** — the donor core stops accepting the bucket's packets
   (in the discrete simulator, rescales happen between packets, so the
   quiesce is implicit; the race sanitizer still checks the epoch);
2. **extract** — every map key, vector row, and dchain index the bucket
   owns is pulled out of the donor's shard as a :class:`ShardDelta`,
   using the write-time :class:`BucketIndex` so extraction is
   proportional to the bucket's state, not the shard capacity;
3. **install** — the delta lands in the receiver's shard.  DChain
   indices are re-allocated there (per-core allocators mean the old
   index may be taken), and the paired map values / vector rows are
   rewritten through the old->new index remap;
4. **commit** — the table entry flips to the receiver and the steering
   generation bumps (steering reads the table afresh for every packet,
   and the compiled dataplane caches nothing across runs, so nothing
   needs invalidating).

Every handoff is reported to an installed :class:`RaceMonitor` so the
MAE103 ownership checker transfers ownership atomically at the commit
position and the MAE105 checker proves no packet was served inside the
unowned epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.core.codegen import CoreInstance, ParallelNF, Strategy
from repro.errors import SimulationError
from repro.nf.api import StateKind
from repro.nf.runtime import ConcreteContext, StateStore
from repro.rs3.indirection import IndirectionTable

__all__ = [
    "BucketIndex",
    "ShardDelta",
    "MigrationStats",
    "plan_rescale",
    "extract_bucket",
    "install_bucket",
    "rescale_parallel",
    "QUIESCE_US_PER_BUCKET",
    "MIGRATE_US_PER_ENTRY",
]

#: Modeled cost constants for the ``scale.quiesce_us`` counter: draining
#: a bucket's in-flight packets costs a fixed window, and each moved
#: entry pays a copy across the core interconnect.  The absolute values
#: are calibration knobs (the benchmark gate tracks the *per-entry*
#: migration cost, which is measured, not modeled).
QUIESCE_US_PER_BUCKET = 5.0
MIGRATE_US_PER_ENTRY = 0.25


class BucketIndex:
    """Which indirection-table bucket owns each state entry of one core.

    Maintained incrementally by the runtime's stateful-op wrappers
    (:class:`~repro.nf.runtime.ConcreteContext` tags every successful
    ``map_put`` / ``vector_put`` / ``dchain_allocate`` with the bucket
    that steered the creating packet).  Extraction then enumerates a
    migrating bucket's entries directly instead of scanning the whole
    shard — the property that keeps migration cost proportional to the
    moved state.
    """

    def __init__(self) -> None:
        # obj -> key/index -> bucket.  Keyed (tuple) and indexed (int)
        # namespaces are separate because a map and a vector may share a
        # name prefix but never an address space.
        self._keys: dict[str, dict[Any, int]] = {}
        self._indices: dict[str, dict[int, int]] = {}

    # Write-time tagging (runtime hot path) ------------------------- #
    def note_key(self, obj: str, key: Any, bucket: int) -> None:
        self._keys.setdefault(obj, {})[key] = bucket

    def drop_key(self, obj: str, key: Any) -> None:
        keys = self._keys.get(obj)
        if keys is not None:
            keys.pop(key, None)

    def note_index(self, obj: str, index: int, bucket: int) -> None:
        self._indices.setdefault(obj, {})[int(index)] = bucket

    def drop_index(self, obj: str, index: int) -> None:
        indices = self._indices.get(obj)
        if indices is not None:
            indices.pop(int(index), None)

    # Extraction-time queries --------------------------------------- #
    def keys_in(self, obj: str, bucket: int) -> list[Any]:
        """Keys of ``obj`` owned by ``bucket``, deterministically ordered."""
        keys = self._keys.get(obj, {})
        return sorted(k for k, b in keys.items() if b == bucket)

    def indices_in(self, obj: str, bucket: int) -> list[int]:
        indices = self._indices.get(obj, {})
        return sorted(i for i, b in indices.items() if b == bucket)

    def bucket_of_key(self, obj: str, key: Any) -> int | None:
        return self._keys.get(obj, {}).get(key)

    def entry_count(self) -> int:
        return sum(len(d) for d in self._keys.values()) + sum(
            len(d) for d in self._indices.values()
        )


@dataclass
class ShardDelta:
    """One bucket's extracted state, in transferable form.

    ``chains`` carries ``(old_index, last_touched)`` pairs; ``vectors``
    carries ``(old_index, record)``; ``maps`` carries ``(key, value)``.
    Old dchain indices are donor-local — installation re-allocates them
    in the receiver's chain and remaps the paired values/rows.
    """

    bucket: int
    maps: dict[str, list[tuple[Any, int]]] = field(default_factory=dict)
    vectors: dict[str, list[tuple[int, dict[str, int]]]] = field(
        default_factory=dict
    )
    chains: dict[str, list[tuple[int, float]]] = field(default_factory=dict)

    @property
    def n_entries(self) -> int:
        return (
            sum(len(v) for v in self.maps.values())
            + sum(len(v) for v in self.vectors.values())
            + sum(len(v) for v in self.chains.values())
        )


@dataclass
class MigrationStats:
    """Aggregate outcome of one rescale."""

    action: str = "hold"
    n_cores_before: int = 0
    n_cores_after: int = 0
    buckets_moved: int = 0
    entries_moved: int = 0
    #: entries dropped because the receiving shard had no room (receiver
    #: map/chain at capacity) — the shard-full behaviour the sequential
    #: semantics already exhibit globally, surfaced per migration.
    refused: int = 0
    #: (obj, key) map entries among the refusals — consumers (the
    #: equivalence checker's capacity tainting) treat those flows like
    #: capacity-refused ones.
    refused_keys: list[tuple[str, Any]] = field(default_factory=list)
    quiesce_us: float = 0.0
    generation_before: int = 0
    generation_after: int = 0

    def to_json(self) -> dict:
        return {
            "action": self.action,
            "cores": [self.n_cores_before, self.n_cores_after],
            "buckets_moved": self.buckets_moved,
            "entries_moved": self.entries_moved,
            "refused": self.refused,
            "quiesce_us": round(self.quiesce_us, 3),
            "generation": [self.generation_before, self.generation_after],
        }


def plan_rescale(
    table: IndirectionTable, n_new: int
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Minimal-move reassignment of table entries onto ``n_new`` cores.

    Returns ``(new_entries, moves)`` where ``moves`` is a deterministic
    list of ``(slot, src_core, dst_core)``.  Only surplus slots move:
    retired cores (id >= ``n_new``) donate everything; survivors donate
    down to their fair share ``size // n_new`` (+1 for the remainder
    cores); receivers fill up to theirs in core order.  A no-op rescale
    (``n_new`` equals the current queue count) moves nothing.  Growing
    past the bucket count is legal — the surplus cores simply own zero
    buckets.
    """
    if n_new <= 0:
        raise SimulationError(f"cannot rescale to {n_new} cores")
    entries = table.entries.copy()
    if n_new == table.n_queues:
        return entries, []
    size = table.size
    base, extra = divmod(size, n_new)
    target = [base + (1 if c < extra else 0) for c in range(n_new)]
    counts = [0] * n_new
    for slot in range(size):
        owner = int(entries[slot])
        if owner < n_new:
            counts[owner] += 1
    moves: list[tuple[int, int, int]] = []
    receiver = 0
    for slot in range(size):
        owner = int(entries[slot])
        if owner < n_new and counts[owner] <= target[owner]:
            continue
        while receiver < n_new and counts[receiver] >= target[receiver]:
            receiver += 1
        if receiver >= n_new:  # pragma: no cover - surplus always = deficit
            raise SimulationError("rescale plan ran out of receivers")
        if owner < n_new:
            counts[owner] -= 1
        counts[receiver] += 1
        entries[slot] = receiver
        moves.append((slot, owner, receiver))
    return entries, moves


def extract_bucket(
    donor: CoreInstance, bucket: int, decls
) -> ShardDelta:
    """Pull every entry ``bucket`` owns out of the donor's shard.

    The donor's state is left as if those flows had expired: map keys
    erased, vector rows reset to the template, dchain indices freed.
    """
    ctx: ConcreteContext = donor.ctx
    index = ctx.bucket_index
    if index is None:
        raise SimulationError(
            f"core {donor.core_id} has no bucket index — elastic mode was "
            "never enabled, so bucket ownership is unknown"
        )
    store: StateStore = ctx.store
    delta = ShardDelta(bucket=bucket)
    for decl in decls:
        if decl.read_only:
            continue
        name = decl.name
        if decl.kind is StateKind.MAP:
            moved: list[tuple[Any, int]] = []
            for key in index.keys_in(name, bucket):
                found, value = store[name].get(key)
                if not found:
                    index.drop_key(name, key)
                    continue
                store[name].erase(key)
                store.note_erase(name, key)
                index.drop_key(name, key)
                moved.append((key, value))
            if moved:
                delta.maps[name] = moved
        elif decl.kind is StateKind.VECTOR:
            rows: list[tuple[int, dict[str, int]]] = []
            vector = store[name]
            for idx in index.indices_in(name, bucket):
                rows.append((idx, vector.borrow(idx)))
                vector.reset(idx)
                index.drop_index(name, idx)
            if rows:
                delta.vectors[name] = rows
        elif decl.kind is StateKind.DCHAIN:
            chain = store[name]
            slots: list[tuple[int, float]] = []
            for idx in index.indices_in(name, bucket):
                if chain.is_allocated(idx):
                    slots.append((idx, chain.last_touched(idx)))
                    chain.free_index(idx)
                index.drop_index(name, idx)
            if slots:
                delta.chains[name] = slots
        # SKETCH: count-min sketches have no per-key extraction (counts
        # are folded into shared rows), so sketch contents stay behind.
        # Approximate counters may split across cores after a rescale —
        # an over-count-only error, same direction as the sketch itself.
    return delta


def _common_prefix(a: str, b: str) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _paired_chain(
    name: str, old_index: int, chain_domains: dict[str, set[int]]
) -> str | None:
    """Which migrated chain's index space does this value/row belong to?

    NFs pair a map (flow key -> index) and vector (index -> record) with
    the dchain that allocated the index, but the pairing is a naming
    convention, not a declared relation.  Heuristic: candidate chains in
    this delta whose moved-index set contains ``old_index``; a unique
    candidate wins, ties go to the longest common name prefix, then
    lexicographically.  Values outside every chain's moved set are plain
    integers and stay untouched.
    """
    candidates = [
        chain for chain, dom in chain_domains.items() if old_index in dom
    ]
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    best = max(_common_prefix(name, c) for c in candidates)
    return sorted(c for c in candidates if _common_prefix(name, c) == best)[0]


def install_bucket(
    receiver: CoreInstance, delta: ShardDelta, decls
) -> tuple[list[tuple[str, Any]], int, int, list[tuple[str, Any]]]:
    """Land a :class:`ShardDelta` in the receiver's shard.

    Returns ``(keyed, installed, refused, refused_keys)``: the
    ``(obj, key)`` map entries whose ownership transferred (for the race
    monitor), the number of entries installed, the number refused for
    lack of room, and the ``(obj, key)`` map entries among the refusals.
    Ownership transfers for *every* migrated key, refused or not — the
    bucket now steers to the receiver, so any later touch of a refused
    key legitimately happens there (it re-establishes, exactly as a
    capacity-refused flow would).  DChain indices are re-allocated in
    the receiver's chain with their original timestamps; map values and
    vector rows that referred to a moved index are rewritten through the
    old->new remap.
    """
    ctx: ConcreteContext = receiver.ctx
    index = ctx.bucket_index
    if index is None:
        raise SimulationError(
            f"core {receiver.core_id} has no bucket index — cannot receive "
            "a migrated bucket"
        )
    store: StateStore = ctx.store
    bucket = delta.bucket
    installed = 0
    refused = 0
    # Phase 1: chains.  Build the old->new index remap; refusals poison
    # the old index so paired entries are dropped consistently.
    remaps: dict[str, dict[int, int]] = {}
    chain_domains: dict[str, set[int]] = {}
    for name, slots in delta.chains.items():
        chain = store[name]
        remap: dict[int, int] = {}
        domain: set[int] = set()
        for old_idx, stamp in slots:
            domain.add(old_idx)
            ok, new_idx = chain.allocate(stamp)
            if not ok:
                refused += 1
                continue
            remap[old_idx] = new_idx
            index.note_index(name, new_idx, bucket)
            installed += 1
        remaps[name] = remap
        chain_domains[name] = domain
    # Phase 2: vectors, rows remapped through their paired chain.
    for name, rows in delta.vectors.items():
        vector = store[name]
        for old_idx, record in rows:
            chain = _paired_chain(name, old_idx, chain_domains)
            if chain is not None:
                new_idx = remaps[chain].get(old_idx)
                if new_idx is None:  # paired allocation was refused
                    refused += 1
                    continue
            else:
                new_idx = old_idx
                if not 0 <= new_idx < vector.capacity:
                    refused += 1
                    continue
            vector.put(new_idx, record)
            index.note_index(name, new_idx, bucket)
            installed += 1
    # Phase 3: maps, values remapped through their paired chain.
    keyed: list[tuple[str, Any]] = []
    refused_keys: list[tuple[str, Any]] = []
    for name, pairs in delta.maps.items():
        flow_map = store[name]
        for key, value in pairs:
            keyed.append((name, key))
            chain = _paired_chain(name, value, chain_domains)
            if chain is not None:
                new_value = remaps[chain].get(value)
                if new_value is None:
                    refused += 1
                    refused_keys.append((name, key))
                    continue
            else:
                new_value = value
            if not flow_map.put(key, new_value):
                refused += 1
                refused_keys.append((name, key))
                continue
            store.note_put(name, key, new_value)
            index.note_key(name, key, bucket)
            installed += 1
    return keyed, installed, refused, refused_keys


def _revive_core(parallel: ParallelNF, core_id: int) -> CoreInstance:
    """A fresh worker core for a grow: new shard, setup, bucket index."""
    template = parallel.cores[0].ctx
    decls = parallel.nf.state()
    store = StateStore(decls, scale=template.store.scale)
    ctx = ConcreteContext(parallel.nf, store)
    parallel.nf.setup(ctx)
    # Bucket tagging attaches *after* setup: setup-time state (static
    # tables, vector fills) is replicated on every core, never migrated.
    ctx.bucket_index = BucketIndex()
    return CoreInstance(core_id=core_id, ctx=ctx)


def _monitor_of(parallel: ParallelNF):
    """The installed RaceMonitor, if any, discovered via core 0's probe."""
    if not parallel.cores:
        return None
    probe = parallel.cores[0].ctx.access_probe
    return getattr(probe, "_monitor", None)


def rescale_parallel(
    parallel: ParallelNF,
    n_new: int,
    *,
    torn_hook: Callable[[int, int, int], None] | None = None,
) -> MigrationStats:
    """Rescale a live elastic :class:`ParallelNF` to ``n_new`` cores.

    The full protocol: plan the minimal bucket moves, revive/create the
    receiving cores, migrate each moving bucket's state (two-phase, each
    handoff reported to the race monitor when one is installed), then
    commit every port's table with exactly **one** reprogram — so the
    steering generation bumps once per rescale.

    ``torn_hook(slot, src, dst)`` is a fault-injection point between
    extract and install (the unowned epoch); tests use it to prove the
    MAE105 checker catches packets served mid-handoff.
    """
    if not parallel.elastic:
        raise SimulationError(
            "rescale requires elastic mode — call "
            "repro.scale.enable_elastic(parallel) first"
        )
    if parallel.strategy is not Strategy.SHARED_NOTHING:
        raise SimulationError(
            f"elastic rescaling only applies to shared-nothing plans, "
            f"not {parallel.strategy.value}"
        )
    tables = [config.table for config in parallel.rss.ports.values()]
    reference = tables[0]
    for other in tables[1:]:
        if not np.array_equal(other.entries, reference.entries):
            raise SimulationError(
                "elastic rescale needs lockstep port tables — a port "
                "drifted (was one port's table rebalanced or reprogrammed "
                "on its own after enable_elastic?)"
            )
    current = reference.n_queues
    stats = MigrationStats(
        action=("grow" if n_new > current else "shrink" if n_new < current else "hold"),
        n_cores_before=current,
        n_cores_after=n_new,
        generation_before=parallel.rss.steering_generation,
    )
    new_entries, moves = plan_rescale(reference, n_new)
    if not moves:
        stats.n_cores_after = current
        stats.generation_after = stats.generation_before
        return stats

    nf_name = parallel.nf.name
    monitor = _monitor_of(parallel)
    with obs.span("scale.rescale", nf=nf_name, action=stats.action):
        # Bring receiving cores online before any state moves.
        while len(parallel.cores) < n_new:
            core = _revive_core(parallel, len(parallel.cores))
            parallel.cores.append(core)
            if monitor is not None:
                monitor.attach_core(core)
        parallel.n_cores = max(parallel.n_cores, len(parallel.cores))

        # Migrate every moving bucket, two-phase.
        decls = parallel.nf.state()
        for slot, src, dst in moves:
            prepare = len(monitor.packets) if monitor is not None else 0
            delta = extract_bucket(parallel.cores[src], slot, decls)
            if torn_hook is not None:
                torn_hook(slot, src, dst)
            keyed, installed, refused, refused_keys = install_bucket(
                parallel.cores[dst], delta, decls
            )
            stats.buckets_moved += 1
            stats.entries_moved += installed
            stats.refused += refused
            stats.refused_keys.extend(refused_keys)
            # Every move is reported, even when no bytes moved: bucket
            # ownership transfers regardless (a sketch-only bucket
            # migrates zero entries, yet its keys now live on dst).
            if monitor is not None:
                monitor.note_migration(
                    slot, src, dst, tuple(keyed), prepare_position=prepare
                )

        # Commit: one reprogram per port table, all in lockstep.
        for table in tables:
            table.reprogram(new_entries)
            table.retarget(n_new)

    stats.quiesce_us = (
        stats.buckets_moved * QUIESCE_US_PER_BUCKET
        + stats.entries_moved * MIGRATE_US_PER_ENTRY
    )
    stats.generation_after = parallel.rss.steering_generation
    obs.counter("scale.events", 1, nf=nf_name, action=stats.action)
    obs.counter("scale.migrated_entries", stats.entries_moved, nf=nf_name)
    obs.counter("scale.quiesce_us", int(round(stats.quiesce_us)), nf=nf_name)
    return stats
