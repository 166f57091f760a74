"""Race sanitizer: dynamic lockset/ownership checking of parallel NFs.

The linter (:mod:`repro.analysis.lint`) audits the *inputs* to code
generation; this module audits the *output*: it replays a trace through a
generated :class:`~repro.core.codegen.ParallelNF` while the runtime's
op-record machinery streams every state access (object, key/index,
read/write, core) to an installed probe, then runs Eraser-style checker
passes over the event log (Savage et al., "Eraser: a dynamic data race
detector"; the lockset discipline here is the plan-driven variant):

* **lockset** (MAE101) — under LOCKS/TM, every dynamic access to shared
  written state must be covered by the :class:`LockPlan`;
* **lock order** (MAE102) — the acquisition sequence each packet performs
  (``plan.acquisition_sequence`` of its footprint, taken upfront along
  the single global order) must actually be realizable: a locked object
  with no position in the order, or an order that re-acquires a held
  lock, is deadlock potential;
* **shard ownership** (MAE103) — under shared-nothing, no keyed state
  entry may be touched by two different cores.  The R5/writer-colocation
  excusals of :mod:`repro.analysis.tree_passes` are honored: read-only
  (or never-written) tables, allocator-index-addressed state (per-core
  index spaces), and objects whose writes the sharding audit justifies by
  the writer-colocation argument are excused, not flagged;
* **footprint cross-validation** (MAE104) — every packet's dynamic
  access set must be a subset of some symbex path footprint for its
  ingress port, i.e. the static model that justified the plan actually
  over-approximates this trace;
* **migration epochs** (MAE105) — when a live rescale
  (:mod:`repro.scale`) migrates a bucket, the migrator reports each move
  through :meth:`RaceMonitor.note_migration` with its two-phase prepare
  and commit positions.  No packet steered by that bucket may be
  processed inside the unowned epoch (after prepare, before commit), and
  the MAE103 ownership map transfers the moved entries to the receiving
  core exactly at the commit position — a donor-side touch after commit
  (or receiver-side touch before prepare) still flags.

Violations carry stable MAE1xx codes, render as text or JSON, honor the
line-scoped ``# maestro: waive[MAE1xx]`` syntax, and are counted through
``repro.obs`` (``race.events``, ``race.violations``).  Entry points:
``python -m repro.analysis race <nf|--all>``, :func:`sanitize_nf`,
:func:`sanitize_parallel`, and ``check_equivalence(..., sanitize=True)``
(which runs its parallel side on ``run_functional(..., fastpath=False)``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro import obs
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.source import NfSource, gather_sources
from repro.analysis.tree_passes import _exprs_footprint, _path_write_union
from repro.core.codegen import ParallelNF, Strategy
from repro.core.sharding import ShardingSolution
from repro.nf.api import NF, StateDecl
from repro.symbex.tree import ExecutionTree

__all__ = [
    "AccessEvent",
    "MigrationRecord",
    "PacketAccessLog",
    "RaceMonitor",
    "RaceReport",
    "analyze_monitor",
    "sanitize_parallel",
    "sanitize_nf",
]

#: Maintenance ops the symbolic model excludes from path footprints
#: (see ``SymbolicContext``): the expiry sweep and timestamp
#: rejuvenation only ever touch the core's own shard (or run under the
#: full lockset), so the dynamic checkers exclude them the same way.
_MAINTENANCE_OPS = frozenset({"expire", "dchain_rejuvenate"})


class AccessEvent(NamedTuple):
    """One stateful operation, as streamed by the runtime probe."""

    obj: str
    op: str
    write: bool
    #: concrete key (tuple) for map/sketch ops, int index for
    #: vector/dchain ops, None for key-less ops (allocate, fill, expire)
    key: Any


@dataclass
class PacketAccessLog:
    """Ordered accesses of one packet, tagged with its port and core."""

    index: int
    port: int
    core: int
    accesses: list[AccessEvent] = field(default_factory=list)
    #: Indirection-table slot that steered this packet (elastic runs
    #: only; -1 when bucket tagging is off).  The MAE105 checker uses it
    #: to catch packets served during a bucket's unowned epoch.
    bucket: int = -1


class MigrationRecord(NamedTuple):
    """One bucket's ownership handoff, as reported by the migrator.

    ``prepare_position``/``position`` are packet-log positions (lengths
    of :attr:`RaceMonitor.packets` at prepare/commit time): the unowned
    epoch spans ``packets[prepare_position:position]``.  ``keyed`` lists
    the ``(obj, key)`` map entries whose ownership transferred; indexed
    state (vectors/dchains) moves too but is excused from per-entry
    ownership just like in the static case.
    """

    position: int
    bucket: int
    src: int
    dst: int
    keyed: tuple[tuple[str, Any], ...]
    prepare_position: int


class _CoreProbe:
    """The per-context tap installed as ``ConcreteContext.access_probe``."""

    __slots__ = ("_monitor", "core")

    def __init__(self, monitor: "RaceMonitor", core: int) -> None:
        self._monitor = monitor
        self.core = core

    def begin(self, port: int, bucket: int = -1) -> None:
        self._monitor._begin_packet(self.core, port, bucket)

    def access(self, obj: str, op: str, write: bool, key: Any) -> None:
        self._monitor._on_access(obj, op, write, key)


class RaceMonitor:
    """Event collector over one :class:`ParallelNF`'s core contexts.

    Use as a context manager around a strict-order run
    (``run_functional(..., fastpath=False)``, ``run_elastic(...,
    fastpath=False)`` or ``run_chain``): probes install on entry,
    uninstall on exit, and the ordered per-packet logs are left in
    :attr:`packets` for :func:`analyze_monitor`.
    """

    def __init__(self, parallel: ParallelNF) -> None:
        self.parallel = parallel
        self.packets: list[PacketAccessLog] = []
        self.migrations: list[MigrationRecord] = []
        self.n_events = 0
        self._current: PacketAccessLog | None = None
        self._installed = False

    def install(self) -> "RaceMonitor":
        for core in self.parallel.cores:
            core.ctx.access_probe = _CoreProbe(self, core.core_id)
        self._installed = True
        return self

    def attach_core(self, core) -> None:
        """Probe a core added after install (elastic grow mid-run)."""
        if self._installed:
            core.ctx.access_probe = _CoreProbe(self, core.core_id)

    def note_migration(
        self,
        bucket: int,
        src: int,
        dst: int,
        keyed: tuple[tuple[str, Any], ...],
        *,
        prepare_position: int | None = None,
    ) -> None:
        """Record one bucket handoff at the current log position.

        Called by the migrator at commit time; ``prepare_position`` is
        the log position at which the donor stopped owning the bucket
        (defaults to the commit position, i.e. an empty unowned epoch).
        """
        position = len(self.packets)
        self.migrations.append(
            MigrationRecord(
                position=position,
                bucket=bucket,
                src=src,
                dst=dst,
                keyed=tuple(keyed),
                prepare_position=(
                    position if prepare_position is None else prepare_position
                ),
            )
        )

    def remove(self) -> None:
        if self._installed:
            for core in self.parallel.cores:
                core.ctx.access_probe = None
            self._installed = False

    def __enter__(self) -> "RaceMonitor":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.remove()

    # Probe callbacks ------------------------------------------------ #
    def _begin_packet(self, core: int, port: int, bucket: int = -1) -> None:
        log = PacketAccessLog(
            index=len(self.packets), port=port, core=core, bucket=bucket
        )
        self.packets.append(log)
        self._current = log

    def _on_access(self, obj: str, op: str, write: bool, key: Any) -> None:
        current = self._current
        if current is None:  # access outside run() (e.g. setup): ignore
            return
        current.accesses.append(AccessEvent(obj, op, write, key))
        self.n_events += 1


# ------------------------------------------------------------------ #
# Checker passes
# ------------------------------------------------------------------ #
def _written_objects(packets: list[PacketAccessLog]) -> set[str]:
    return {
        ev.obj
        for log in packets
        for ev in log.accesses
        if ev.write
    }


def _check_lockset(
    packets: list[PacketAccessLog],
    plan,
    decls: dict[str, StateDecl],
    nf_name: str,
    written: set[str],
) -> list[Diagnostic]:
    """MAE101: every access to shared written state holds a plan lock."""
    out: list[Diagnostic] = []
    flagged: set[str] = set()
    for log in packets:
        for ev in log.accesses:
            obj = ev.obj
            if obj in flagged or obj not in written or plan.covers(obj):
                continue
            decl = decls.get(obj)
            if decl is not None and decl.read_only:
                continue
            flagged.add(obj)
            out.append(
                Diagnostic.of(
                    "MAE101",
                    f"{ev.op}({obj}) on core {log.core} (packet "
                    f"#{log.index}) touches shared written state, but "
                    f"{obj!r} is not covered by the lock plan "
                    f"{sorted(plan.locked)}",
                    nf=nf_name,
                )
            )
    return out


def _check_lock_order(
    packets: list[PacketAccessLog], plan, nf_name: str
) -> list[Diagnostic]:
    """MAE102: the per-packet acquisition sequence must be realizable.

    The generated code takes its locks upfront, walking ``plan.order``
    and acquiring every lock the packet's footprint needs.  That
    discipline deadlocks (or under-locks) when a needed lock has no
    position in the order, or when the order names an object twice —
    re-acquiring a held rwlock self-deadlocks.
    """
    out: list[Diagnostic] = []
    seen_missing: set[str] = set()
    seen_dupe: set[str] = set()
    checked: set[frozenset[str]] = set()
    for log in packets:
        needed = frozenset(
            ev.obj for ev in log.accesses if plan.covers(ev.obj)
        )
        if not needed or needed in checked:
            continue
        checked.add(needed)
        raw = [obj for obj in plan.order if obj in needed]
        for obj in sorted(needed - set(plan.order)):
            if obj in seen_missing:
                continue
            seen_missing.add(obj)
            out.append(
                Diagnostic.of(
                    "MAE102",
                    f"packet #{log.index} (core {log.core}) needs the lock "
                    f"on {obj!r}, which has no position in the acquisition "
                    f"order {list(plan.order)} — it would be accessed "
                    "without ever being acquired",
                    nf=nf_name,
                )
            )
        for obj in sorted({obj for obj in raw if raw.count(obj) > 1}):
            if obj in seen_dupe:
                continue
            seen_dupe.add(obj)
            out.append(
                Diagnostic.of(
                    "MAE102",
                    f"the acquisition order takes the lock on {obj!r} "
                    f"more than once for packet #{log.index} — "
                    "re-acquiring a held lock self-deadlocks",
                    nf=nf_name,
                )
            )
    return out


def _colocation_excused(
    tree: ExecutionTree | None,
    solution: ShardingSolution | None,
    decls: dict[str, StateDecl],
) -> set[str]:
    """Objects the sharding audit excuses by writer colocation (R5).

    Mirrors :class:`~repro.analysis.tree_passes.ShardingAuditPass`: a
    write whose key is not contained in the port's shard fields is still
    safe when the path's write union (keys + stored packet fields + R5
    guards) covers the shard fields — every flow that can reach that
    state is pinned to the writer's core.  Such objects are excused from
    strict per-entry ownership: a cross-"key" contact on them is exactly
    the mismatch-behaves-like-a-miss case R5 reasons about.
    """
    excused: set[str] = set()
    if tree is None or solution is None:
        return excused
    skip_ro = frozenset(n for n, d in decls.items() if d.read_only)
    for path in tree.paths():
        shard = frozenset(solution.per_port.get(path.port, ()))
        if not shard:
            continue
        union: frozenset[str] | None = None
        union_known = False
        for entry in path.stateful_entries():
            if not entry.write or entry.obj in skip_ro:
                continue
            if entry.key is None:
                continue
            fields = _exprs_footprint(entry.key, path)
            if fields is not None and fields <= shard:
                continue  # keyed inside the shard fields: strictly owned
            if not union_known:
                union = _path_write_union(path, skip_ro)
                union_known = True
            if union is not None and shard <= union:
                excused.add(entry.obj)
    return excused


def _check_ownership(
    packets: list[PacketAccessLog],
    decls: dict[str, StateDecl],
    nf_name: str,
    written: set[str],
    excused_objs: set[str],
    excused_counts: dict[str, int],
    migrations: list[MigrationRecord] | None = None,
) -> list[Diagnostic]:
    """MAE103: under shared-nothing, one core owns each keyed entry.

    Ownership is established by the first write to a ``(obj, key)``
    entry; any later touch from a different core — read or write — is a
    violation.  Index-addressed state (vectors, dchains) is excused:
    under sharding each core draws indices from its own allocator, so
    equal indices on different cores are different entries (the
    writer-colocation/derived-key argument of the static audit).

    Reported ``migrations`` legally re-home keyed entries: at each
    record's commit position the moved entries' owner becomes the
    receiving core — atomically, so a donor touch after commit (or a
    receiver touch before it) is still a violation.  Ownership follows
    the *bucket*, so the transfer covers every entry last steered
    through the migrating bucket (tracked per access log), not only the
    entries whose bytes moved — sketch rows stay behind by design
    (over-count-only error) yet their logical ownership still re-homes.
    """
    out: list[Diagnostic] = []
    flagged: set[tuple[str, str]] = set()
    owners: dict[tuple[str, Any], int] = {}
    entry_bucket: dict[tuple[str, Any], int] = {}
    pending = sorted(migrations or (), key=lambda rec: rec.position)
    mig_i = 0
    for log in packets:
        while mig_i < len(pending) and pending[mig_i].position <= log.index:
            rec = pending[mig_i]
            for entry in rec.keyed:
                owners[entry] = rec.dst
            for entry, bucket in entry_bucket.items():
                if bucket == rec.bucket and owners.get(entry) == rec.src:
                    owners[entry] = rec.dst
            mig_i += 1
        core = log.core
        for ev in log.accesses:
            obj = ev.obj
            if ev.op in _MAINTENANCE_OPS:
                continue
            if not isinstance(ev.key, tuple):
                # int index or key-less op: per-core address space.
                if obj in written:
                    excused_counts["index_state"] = (
                        excused_counts.get("index_state", 0) + 1
                    )
                continue
            decl = decls.get(obj)
            if (decl is not None and decl.read_only) or obj not in written:
                excused_counts["read_only"] = (
                    excused_counts.get("read_only", 0) + 1
                )
                continue
            if obj in excused_objs:
                excused_counts["writer_colocation"] = (
                    excused_counts.get("writer_colocation", 0) + 1
                )
                continue
            entry = (obj, ev.key)
            if log.bucket >= 0:
                entry_bucket[entry] = log.bucket
            owner = owners.get(entry)
            if ev.write:
                if owner is None:
                    owners[entry] = core
                    continue
                if owner == core:
                    continue
            elif owner is None or owner == core:
                continue
            if (obj, ev.op) in flagged:
                continue
            flagged.add((obj, ev.op))
            kind = "writes" if ev.write else "reads"
            out.append(
                Diagnostic.of(
                    "MAE103",
                    f"core {core} {kind} {obj}[{_short_key(ev.key)}] via "
                    f"{ev.op} (packet #{log.index}), but core {owner} owns "
                    "that entry — two cores share one logical state entry "
                    "under a shared-nothing plan",
                    nf=nf_name,
                )
            )
    return out


def _short_key(key: Any, limit: int = 48) -> str:
    text = repr(key)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _check_migrations(
    packets: list[PacketAccessLog],
    migrations: list[MigrationRecord],
    nf_name: str,
) -> list[Diagnostic]:
    """MAE105: no packet may be served inside a bucket's unowned epoch.

    The two-phase handoff quiesces a bucket between *prepare* (donor
    stops accepting) and *commit* (receiver owns the entries and the
    reprogrammed table steers to it).  A packet whose steering bucket
    matches a migrating bucket inside that window was processed while
    neither core legitimately owned the state — a torn handoff.
    """
    out: list[Diagnostic] = []
    for rec in migrations:
        if rec.prepare_position >= rec.position:
            continue  # empty unowned epoch: the common, correct case
        for log in packets[rec.prepare_position : rec.position]:
            if log.bucket != rec.bucket:
                continue
            out.append(
                Diagnostic.of(
                    "MAE105",
                    f"packet #{log.index} (core {log.core}, port "
                    f"{log.port}) was processed during the unowned epoch "
                    f"of migrating bucket {rec.bucket} (prepare at "
                    f"position {rec.prepare_position}, commit at "
                    f"{rec.position}, core {rec.src} -> {rec.dst})",
                    nf=nf_name,
                )
            )
    return out


def _check_footprints(
    packets: list[PacketAccessLog], tree: ExecutionTree, nf_name: str
) -> list[Diagnostic]:
    """MAE104: dynamic access sets must fit inside a symbex footprint."""
    out: list[Diagnostic] = []
    port_profiles: dict[int, list[frozenset[tuple[str, str]]]] = {}
    port_union: dict[int, frozenset[tuple[str, str]]] = {}
    for port in tree.ports:
        profiles = [
            frozenset(
                (entry.obj, entry.op) for entry in path.stateful_entries()
            )
            for path in tree.paths(port)
        ]
        port_profiles[port] = profiles
        port_union[port] = frozenset().union(*profiles) if profiles else frozenset()
    verdicts: dict[tuple[int, frozenset[tuple[str, str]]], bool] = {}
    for log in packets:
        profile = frozenset(
            (ev.obj, ev.op)
            for ev in log.accesses
            if ev.op not in _MAINTENANCE_OPS
        )
        memo_key = (log.port, profile)
        covered = verdicts.get(memo_key)
        if covered is None:
            covered = any(
                profile <= candidate
                for candidate in port_profiles.get(log.port, ())
            )
            verdicts[memo_key] = covered
        if covered:
            continue
        extra = sorted(profile - port_union.get(log.port, frozenset()))
        if extra:
            detail = "accesses the model never saw on this port: " + ", ".join(
                f"{op}({obj})" for obj, op in extra
            )
        else:
            detail = (
                "every access is known individually, but no single path "
                "performs this combination"
            )
        out.append(
            Diagnostic.of(
                "MAE104",
                f"packet #{log.index} on port {log.port} has dynamic "
                f"footprint {{{', '.join(f'{op}({obj})' for obj, op in sorted(profile))}}} "
                f"not contained in any symbex path footprint — {detail}",
                nf=nf_name,
                path_id=f"port{log.port}",
            )
        )
    return out


# ------------------------------------------------------------------ #
# Source attribution (waiver support)
# ------------------------------------------------------------------ #
_OP_PREFIXES = ("map_", "vector_", "dchain_", "sketch_", "expire_flows")


def _locate_access(
    source: NfSource, obj: str, op: str | None
) -> tuple[str | None, int | None]:
    """(file, line) of the first ``ctx.<op>("<obj>", ...)`` call.

    Gives dynamic findings a source anchor so the PR-2 line-scoped
    waiver syntax applies to them; findings whose object name is not a
    string literal in the source simply stay location-less (and thus
    unwaivable by line — the conservative direction).
    """
    fallback: tuple[str | None, int | None] = (None, None)
    for method in source.methods:
        for node in ast.walk(method.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if op is not None and func.attr != op:
                if not func.attr.startswith(_OP_PREFIXES):
                    continue
            elif op is None and not func.attr.startswith(_OP_PREFIXES):
                continue
            names = [arg for arg in node.args] + [
                kw.value for kw in node.keywords
            ]
            literal = any(
                isinstance(arg, ast.Constant) and arg.value == obj
                for arg in names
            )
            if not literal:
                continue
            location = (method.file, method.line_of(node))
            if op is None or func.attr == op:
                return location
            if fallback == (None, None):
                fallback = location
    return fallback


#: checker-emitted op the diagnostic anchors to, parsed from messages via
#: the event that produced it — attached in analyze_monitor.
def _attach_locations(
    diagnostics: list[Diagnostic],
    ops: dict[int, tuple[str, str | None]],
    source: NfSource,
) -> list[Diagnostic]:
    located: list[Diagnostic] = []
    for i, diag in enumerate(diagnostics):
        anchor = ops.get(i)
        if anchor is None:
            located.append(diag)
            continue
        obj, op = anchor
        file, line = _locate_access(source, obj, op)
        if file is None:
            located.append(diag)
            continue
        located.append(
            Diagnostic(
                code=diag.code,
                message=diag.message,
                nf=diag.nf,
                severity=diag.severity,
                file=file,
                line=line,
                path_id=diag.path_id,
            )
        )
    return located


_LOCKSET_ANCHOR = re.compile(r"^(?P<op>\w+)\((?P<obj>\w+)\)")
_OWNERSHIP_ANCHOR = re.compile(r"(?P<obj>\w+)\[.*\] via (?P<op>\w+)")


def _anchors_for(diagnostics: list[Diagnostic]) -> dict[int, tuple[str, str | None]]:
    """Best-effort (obj, op) anchor per diagnostic, from its message.

    MAE101/MAE103 messages are generated by the checkers above with the
    op and object up front (``op(obj)`` / ``obj[key] via op``); this
    keeps the parsing trivial and local to this module.
    """
    out: dict[int, tuple[str, str | None]] = {}
    for i, diag in enumerate(diagnostics):
        if diag.code == "MAE101":
            match = _LOCKSET_ANCHOR.match(diag.message)
        elif diag.code == "MAE103":
            match = _OWNERSHIP_ANCHOR.search(diag.message)
        else:
            continue
        if match is not None:
            out[i] = (match.group("obj"), match.group("op"))
    return out


# ------------------------------------------------------------------ #
# Reports and drivers
# ------------------------------------------------------------------ #
@dataclass
class RaceReport:
    """Outcome of sanitizing one parallel NF over one trace."""

    nf_name: str
    strategy: Strategy
    n_packets: int
    n_events: int
    diagnostics: list[Diagnostic] = field(default_factory=list)
    waived: list[Diagnostic] = field(default_factory=list)
    #: excusal tallies: how many accesses each excusal absorbed
    excused: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)

    def describe(self) -> str:
        verdict = "clean" if self.clean else (
            f"{sum(1 for d in self.diagnostics if d.is_error)} violation(s)"
        )
        waived = f", {len(self.waived)} waived" if self.waived else ""
        excused = (
            ", excused: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.excused.items()))
            if self.excused
            else ""
        )
        return (
            f"{self.nf_name} [{self.strategy.value}]: {verdict} over "
            f"{self.n_packets} packets / {self.n_events} state accesses"
            f"{waived}{excused}"
        )

    def to_json(self) -> dict:
        return {
            "nf": self.nf_name,
            "strategy": self.strategy.value,
            "packets": self.n_packets,
            "events": self.n_events,
            "clean": self.clean,
            "excused": dict(sorted(self.excused.items())),
            "diagnostics": (
                [{**d.to_json(), "waived": False} for d in self.diagnostics]
                + [{**d.to_json(), "waived": True} for d in self.waived]
            ),
        }


def analyze_monitor(
    monitor: RaceMonitor,
    *,
    tree: ExecutionTree | None = None,
    source: NfSource | None = None,
) -> RaceReport:
    """Run every checker pass over a collected event log."""
    parallel = monitor.parallel
    nf = parallel.nf
    plan = parallel.lock_plan
    decls = {decl.name: decl for decl in nf.state()}
    packets = monitor.packets
    written = _written_objects(packets)
    excused_counts: dict[str, int] = {}
    diagnostics: list[Diagnostic] = []

    with obs.span("race.check", nf=nf.name, strategy=parallel.strategy.value):
        if parallel.strategy in (Strategy.LOCKS, Strategy.TM):
            diagnostics.extend(
                _check_lockset(packets, plan, decls, nf.name, written)
            )
            diagnostics.extend(_check_lock_order(packets, plan, nf.name))
        else:
            excused_objs = _colocation_excused(tree, parallel.solution, decls)
            diagnostics.extend(
                _check_ownership(
                    packets, decls, nf.name, written, excused_objs,
                    excused_counts, monitor.migrations,
                )
            )
            if monitor.migrations:
                diagnostics.extend(
                    _check_migrations(packets, monitor.migrations, nf.name)
                )
        if tree is not None:
            diagnostics.extend(_check_footprints(packets, tree, nf.name))

    nf_source = source if source is not None else gather_sources(nf)
    diagnostics = _attach_locations(
        diagnostics, _anchors_for(diagnostics), nf_source
    )
    active: list[Diagnostic] = []
    waived: list[Diagnostic] = []
    for diag in diagnostics:
        if nf_source.waived(diag.code, diag.file, diag.line):
            waived.append(diag)
        else:
            active.append(diag)

    obs.counter("race.events", monitor.n_events, nf=nf.name)
    obs.counter("race.violations", len(active), nf=nf.name)
    return RaceReport(
        nf_name=nf.name,
        strategy=parallel.strategy,
        n_packets=len(packets),
        n_events=monitor.n_events,
        diagnostics=active,
        waived=waived,
        excused=excused_counts,
    )


def sanitize_parallel(
    parallel: ParallelNF,
    trace,
    *,
    tree: ExecutionTree | None = None,
    source: NfSource | None = None,
) -> RaceReport:
    """Replay ``trace`` under the sanitizer and check it against the plan.

    The replay always takes the strict-order reference path
    (``run_functional(..., fastpath=False)``): batched steering and
    per-core grouped execution are bypassed so the event log carries the
    exact global access order.  Passing the analysis ``tree`` enables
    the MAE104 footprint cross-validation and the R5 excusals.
    """
    from repro.sim.functional import run_functional

    with RaceMonitor(parallel) as monitor:
        run_functional(parallel, trace, fastpath=False)
    return analyze_monitor(monitor, tree=tree, source=source)


def sanitize_nf(
    nf: NF,
    *,
    n_cores: int = 4,
    packets: int = 1024,
    n_flows: int = 256,
    seed: int = 12345,
    strategy: Strategy | None = None,
    result=None,
) -> RaceReport:
    """Analyze ``nf``, generate its parallel NF, and sanitize a trace.

    ``result`` reuses an existing :class:`MaestroResult`; otherwise the
    full pipeline runs with a ``Maestro(seed=seed)``.  The replayed trace
    is the NF's deterministic benchmark workload
    (:func:`repro.hw.cpu.benchmark_trace`).
    """
    from repro.core.pipeline import Maestro
    from repro.hw.cpu import benchmark_trace

    with obs.span("race.sanitize", nf=nf.name):
        if result is None:
            result = Maestro(seed=seed).analyze(nf)
        parallel = ParallelNF.generate(
            nf,
            result.solution,
            result.rss_configuration(n_cores),
            n_cores,
            strategy=strategy,
        )
        trace = benchmark_trace(nf, n_flows=n_flows, packets=packets, seed=seed)
        return sanitize_parallel(parallel, trace, tree=result.tree)
