"""The Code Generator (§3.6): build runnable parallel NFs.

The paper's code generator emits DPDK C; here it produces a
:class:`ParallelNF` — per-core state instances (with capacities divided
across cores, §4 *State sharding*), the RSS configuration installed on
every port, and the coordination strategy:

* ``SHARED_NOTHING`` — each core owns a full state shard; RSS guarantees
  packets needing the same state reach the same core.
* ``LOCKS`` — one shared state store guarded by the optimized per-core
  read/write lock (§3.6); RSS gets a random key over all fields.
* ``TM`` — one shared store accessed in hardware transactions (§6,
  Intel RTM baseline).

A C-like rendering of the generated program (mirroring Appendix A.1) is
available through :mod:`repro.core.emit_c`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import SimulationError
from repro.core.sharding import ShardingSolution, Verdict
from repro.nf.api import NF
from repro.nf.packet import Packet
from repro.nf.runtime import ConcreteContext, PacketResult, StateStore
from repro.rs3.config import RssConfiguration
from repro.traffic.generator import TraceColumns

if TYPE_CHECKING:
    from repro.symbex.tree import ExecutionTree

__all__ = ["Strategy", "LockPlan", "CoreInstance", "ParallelNF"]


class Strategy(enum.Enum):
    """How the generated implementation coordinates state."""

    SHARED_NOTHING = "shared-nothing"
    LOCKS = "locks"
    TM = "tm"

    @classmethod
    def default_for(cls, verdict: Verdict) -> "Strategy":
        if verdict is Verdict.LOCKS:
            return cls.LOCKS
        return cls.SHARED_NOTHING


@dataclass(frozen=True)
class LockPlan:
    """The lock assignment a LOCKS/TM implementation commits to (§3.6).

    ``locked`` names every stateful object guarded by a read/write lock
    (TM uses the same set as its abort-fallback locks); ``order`` is the
    single global acquisition order all cores follow, which is what makes
    the generated code deadlock-free.  Shared-nothing plans are empty.
    The parallelization-safety auditor (:mod:`repro.analysis`) checks both
    properties against the execution tree independently of this builder.
    """

    strategy: Strategy
    locked: frozenset[str]
    order: tuple[str, ...]

    @classmethod
    def build(cls, nf: NF, strategy: Strategy) -> "LockPlan":
        if strategy is Strategy.SHARED_NOTHING:
            return cls(strategy=strategy, locked=frozenset(), order=())
        # Read-only tables are replicated, never locked; everything else
        # gets one lock, acquired in declaration order on every core.
        names = tuple(
            decl.name for decl in nf.state() if not decl.read_only
        )
        return cls(strategy=strategy, locked=frozenset(names), order=names)

    def covers(self, obj: str) -> bool:
        return obj in self.locked

    def position(self, obj: str) -> int:
        """Rank of ``obj`` in the global acquisition order."""
        try:
            return self.order.index(obj)
        except ValueError:
            raise SimulationError(
                f"{obj!r} has no position in the lock acquisition order "
                f"(order covers: {', '.join(self.order) or 'nothing'})"
            ) from None

    def acquisition_sequence(self, objs: Iterable[str]) -> tuple[str, ...]:
        """The order in which a packet touching ``objs`` takes its locks.

        Each lock appears at most once (at its first position), even if a
        corrupted ``order`` names an object repeatedly — re-acquiring a
        held lock would self-deadlock.
        """
        needed = {obj for obj in objs if obj in self.locked}
        return tuple(
            obj for obj in dict.fromkeys(self.order) if obj in needed
        )


@dataclass
class CoreInstance:
    """One worker core and its context.

    The context owns the core's lifetime counters
    (:meth:`~repro.nf.runtime.ConcreteContext.stat_snapshot`).
    """

    core_id: int
    ctx: ConcreteContext


@dataclass
class ParallelNF:
    """A generated parallel implementation, runnable in the simulator."""

    nf: NF
    n_cores: int
    strategy: Strategy
    solution: ShardingSolution
    rss: RssConfiguration
    cores: list[CoreInstance] = field(default_factory=list)
    shared_store: StateStore | None = None
    lock_plan: LockPlan = field(
        default_factory=lambda: LockPlan(
            strategy=Strategy.SHARED_NOTHING, locked=frozenset(), order=()
        )
    )
    #: Set by :func:`repro.scale.elastic.enable_elastic`.  Elastic mode
    #: tags every packet with its indirection-table bucket (so live
    #: migration knows which keys each bucket owns) and allows the active
    #: core count to change at runtime.  ``cores`` then holds the
    #: high-water set; only the first :attr:`active_cores` receive traffic.
    elastic: bool = False
    #: The analysis's execution tree (set by ``Maestro.parallelize``):
    #: the compiled dataplane lowers it instead of re-exploring the NF.
    symbex_tree: ExecutionTree | None = None

    @property
    def active_cores(self) -> int:
        """Cores currently receiving traffic (= RSS queue count).

        Equal to :attr:`n_cores` for static plans; under elastic scaling
        it follows the indirection table as the controller grows/shrinks.
        """
        return self.rss.n_queues

    @classmethod
    def generate(
        cls,
        nf: NF,
        solution: ShardingSolution,
        rss: RssConfiguration,
        n_cores: int,
        strategy: Strategy | None = None,
    ) -> "ParallelNF":
        """Instantiate per-core (or shared) state and worker contexts."""
        if n_cores <= 0:
            raise SimulationError(f"n_cores must be positive: {n_cores}")
        if strategy is None:
            strategy = Strategy.default_for(solution.verdict)
        if (
            strategy is Strategy.SHARED_NOTHING
            and solution.verdict is Verdict.LOCKS
        ):
            raise SimulationError(
                f"{nf.name}: analysis ruled out shared-nothing "
                f"({'; '.join(solution.explanation[:1])})"
            )

        decls = nf.state()
        shared_store: StateStore | None = None
        cores: list[CoreInstance] = []
        if strategy is Strategy.SHARED_NOTHING:
            for core_id in range(n_cores):
                store = StateStore(decls, scale=n_cores)
                ctx = ConcreteContext(nf, store)
                nf.setup(ctx)
                cores.append(CoreInstance(core_id=core_id, ctx=ctx))
        else:
            shared_store = StateStore(decls, scale=1)
            for core_id in range(n_cores):
                ctx = ConcreteContext(nf, shared_store)
                if core_id == 0:
                    nf.setup(ctx)
                cores.append(CoreInstance(core_id=core_id, ctx=ctx))
        return cls(
            nf=nf,
            n_cores=n_cores,
            strategy=strategy,
            solution=solution,
            rss=rss,
            cores=cores,
            shared_store=shared_store,
            lock_plan=LockPlan.build(nf, strategy),
        )

    # -------------------------------------------------------------- #
    # Functional execution
    # -------------------------------------------------------------- #
    def process(self, port: int, pkt: Packet) -> tuple[int, PacketResult]:
        """Steer one packet through RSS and process it on its core."""
        config = self.rss.port_config(port)
        slot = config.hash(pkt) & (config.table.size - 1)
        core_id = int(config.table.entries[slot])
        core = self.cores[core_id]
        if self.elastic:
            # The table slot is the bucket the packet's new state is
            # tagged with — the bookkeeping live migration depends on.
            core.ctx.current_bucket = slot
        return core_id, core.ctx.run(port, pkt)

    # -------------------------------------------------------------- #
    # Introspection used by the performance model
    # -------------------------------------------------------------- #
    def core_shares(self, trace: list[tuple[int, Packet]]) -> np.ndarray:
        """Fraction of ``trace`` RSS steers to each core (no processing)."""
        cores, _ = self.rss.steer_trace(TraceColumns(trace))
        counts = np.bincount(cores, minlength=self.n_cores).astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts
