"""Chain analysis pass manager: whole-chain parallelization verdicts.

Composes the per-hop Maestro pipeline outputs (symbex execution trees,
sharding solutions, lock plans) over a :class:`repro.chain.dsl.Chain`
and decides whether one RSS steering at the chain ingress can keep
every flow on one core end-to-end:

1. **Reachability** — walk the chain's wire map from every chain
   ingress, following each hop's *actual* forwarding behaviour (the
   integer FORWARD ports of its execution tree; symbolic ports
   propagate conservatively along every mapped wire), accumulating the
   header fields rewritten upstream.  Dead hops, dead wires, and
   dangling forward ports are ``MAE204``.
2. **Shard compatibility** — per chain port, intersect the reachable
   hops' sharding field sets (sound by the generalized R2 rule: any
   non-empty subset of a port's active set is a valid coarser
   sharding), dropping fields rewritten upstream (the chain hashes
   pre-rewrite values).  Hops whose pair maps are the src↔dst swap
   bijection (firewall/NAT-like symmetry) admit *both* key
   orientations; the search tries every orientation assignment before
   declaring ``MAE201``.  Hop pair maps are lifted to chain ports and
   narrowed to the joint fields.
3. **Verdict conflicts** — a reachable LOCKS hop rules out end-to-end
   shared-nothing: ``MAE203``.  Two LOCKS hops traversed in opposite
   orders on different routes have no single global lock acquisition
   order: ``MAE202``.
4. **Joint key search** — when compatible, the composed constraints go
   to :mod:`repro.rs3.joint` (the existing GF(2) solver over the chain
   ingress ports), the keys are property-checked, and the installed
   configuration passes the batch-hash steering check.  Otherwise the
   chain falls back to per-hop steering and the handoff cost is priced
   by :mod:`repro.sim.perf`.
5. **Differential validation** — every analyzed chain runs a benchmark
   trace through both the parallel chain and the sequential reference
   (``check_chain_equivalence``) with the race sanitizer installed on
   every hop's generated ParallelNF.

Diagnostics use the same text/JSON/waiver/exit-code machinery as the
per-NF MAE0xx codes; ``# maestro: waive[...]`` comments in the
``.chain`` file are line-scoped waivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from repro import obs
from repro.analysis.diagnostics import (
    SCHEMA_VERSION,
    Diagnostic,
    sort_diagnostics,
)
from repro.chain.dsl import Chain, default_registry
from repro.chain.runtime import (
    ParallelChain,
    benchmark_chain_trace,
    instantiate_hops,
    run_chain,
)
from repro.core.codegen import Strategy
from repro.core.pipeline import Maestro, MaestroResult
from repro.core.sharding import PairMap, Verdict
from repro.errors import ReproError, RssUnsatisfiableError
from repro.hw.cpu import profile_for
from repro.nf.api import ActionKind
from repro.rs3.config import RssConfiguration
from repro.rs3.fields import E810, NicModel
from repro.rs3.joint import compile_joint, solve_joint, verify_joint_steering
from repro.rs3.solver import KeySearchStats
from repro.sim.equivalence import EquivalenceReport, check_chain_equivalence
from repro.sim.perf import chain_handoff_cost, chain_handoff_slowdown

__all__ = ["HopAnalysis", "ChainReport", "analyze_chain"]

#: The src<->dst swap bijection NAT-like pair maps encode.
_SWAP = {
    "src_ip": "dst_ip",
    "dst_ip": "src_ip",
    "src_port": "dst_port",
    "dst_port": "src_port",
}

#: Canonical field presentation order.
_FIELD_ORDER = {"src_ip": 0, "dst_ip": 1, "src_port": 2, "dst_port": 3}


def _sorted_fields(fields) -> tuple[str, ...]:
    return tuple(sorted(fields, key=lambda f: (_FIELD_ORDER.get(f, 99), f)))


@dataclass
class HopAnalysis:
    """Per-hop pipeline artifacts plus forwarding behaviour."""

    alias: str
    nf_name: str
    line: int
    result: MaestroResult
    #: ingress port -> integer FORWARD targets (None marks a symbolic port)
    out_ports: dict[int, set] = field(default_factory=dict)
    #: ingress port -> header fields any path from it rewrites
    mods_by_port: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def verdict(self) -> Verdict:
        return self.result.solution.verdict

    def admits_swap(self) -> bool:
        """NAT-like both-orientation identity: every pair map entry is
        the src<->dst swap, so the hop colocates either orientation."""
        pairs = self.result.solution.pairs
        if not pairs:
            return False
        return all(
            _SWAP.get(name_a) == name_b
            for pair in pairs
            for name_a, name_b in pair.field_map
        )

    def oriented_fields(self, port: int, swapped: bool) -> frozenset[str]:
        names = self.result.solution.per_port.get(port, ())
        if swapped:
            names = tuple(_SWAP.get(name, name) for name in names)
        return frozenset(names)

    def oriented_pairs(self, swapped: bool) -> list[PairMap]:
        pairs = self.result.solution.pairs
        if not swapped:
            return list(pairs)
        return [
            PairMap(
                port_a=pair.port_a,
                port_b=pair.port_b,
                field_map=tuple(
                    (_SWAP.get(a, a), _SWAP.get(b, b))
                    for a, b in pair.field_map
                ),
            )
            for pair in pairs
        ]


@dataclass
class ChainReport:
    """Everything the chain analysis produced."""

    chain: Chain
    hops: dict[str, HopAnalysis] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    waived: list[Diagnostic] = field(default_factory=list)
    #: "joint" | "fallback" | "invalid"
    mode: str = "invalid"
    #: chain ingress port -> joint sharding fields (joint mode)
    joint_fields: dict[int, tuple[str, ...]] = field(default_factory=dict)
    joint_keys: dict[int, bytes] | None = None
    key_stats: KeySearchStats | None = None
    #: lifted pair maps over chain ports (joint mode)
    lifted_pairs: list[PairMap] = field(default_factory=list)
    #: hop alias -> "swapped" for hops solved in the reverse orientation
    orientation: dict[str, str] = field(default_factory=dict)
    #: fallback mode: measured fraction of hop boundaries changing core
    handoff_fraction: float | None = None
    handoff_cycles: float | None = None
    handoff_slowdown: float | None = None
    equivalence: EquivalenceReport | None = None

    @property
    def clean(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)

    def describe(self) -> str:
        name = self.chain.name
        lines = [f"{name}: {self.mode} ({len(self.hops)} hop(s))"]
        for alias, hop in self.hops.items():
            orient = (
                f", {self.orientation[alias]}"
                if alias in self.orientation
                else ""
            )
            lines.append(
                f"  hop {alias}: {hop.nf_name} [{hop.verdict.value}{orient}]"
            )
        if self.mode == "joint" and self.joint_keys is not None:
            for port in sorted(self.joint_keys):
                fields = ", ".join(self.joint_fields.get(port, ())) or "free"
                lines.append(
                    f"  chain port {port}: key over ({fields}) "
                    f"{self.joint_keys[port].hex()}"
                )
        if self.mode == "fallback" and self.handoff_fraction is not None:
            lines.append(
                f"  per-hop steering: {self.handoff_fraction:.0%} of hop "
                f"boundaries change core "
                f"(+{self.handoff_cycles:.0f} cycles/pkt, "
                f"x{self.handoff_slowdown:.2f} throughput)"
            )
        if self.equivalence is not None:
            lines.append(f"  equivalence: {self.equivalence.describe()}")
        status = "clean" if self.clean else "errors"
        lines.append(
            f"  diagnostics: {len(self.diagnostics)} active "
            f"({status}), {len(self.waived)} waived"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        payload: dict = {
            "schema": SCHEMA_VERSION,
            "chain": self.chain.name,
            "file": self.chain.file,
            "mode": self.mode,
            "clean": self.clean,
            "hops": {
                alias: {
                    "nf": hop.nf_name,
                    "verdict": hop.verdict.value,
                    "orientation": self.orientation.get(alias, "identity"),
                }
                for alias, hop in self.hops.items()
            },
            "joint_fields": {
                str(port): list(fields)
                for port, fields in sorted(self.joint_fields.items())
            },
            "joint_keys": (
                {str(p): k.hex() for p, k in sorted(self.joint_keys.items())}
                if self.joint_keys is not None
                else None
            ),
            "handoff_fraction": self.handoff_fraction,
            "handoff_slowdown": self.handoff_slowdown,
            "diagnostics": [
                d.to_json() for d in sort_diagnostics(self.diagnostics)
            ],
            "waived": [d.to_json() for d in sort_diagnostics(self.waived)],
        }
        if self.equivalence is not None:
            payload["equivalence"] = {
                "packets": self.equivalence.n_packets,
                "equivalent": self.equivalence.equivalent,
                "mismatches": len(self.equivalence.mismatches),
                "capacity_divergences": self.equivalence.capacity_divergences,
                "race_violations": len(self.equivalence.race_diagnostics),
            }
        return payload


# ------------------------------------------------------------------ #
# Reachability over the wire map
# ------------------------------------------------------------------ #
@dataclass
class _Reach:
    """Reachability facts for one chain."""

    #: chain port -> (alias, hop port) -> fields rewritten upstream
    by_port: dict[int, dict[tuple[str, int], frozenset[str]]] = field(
        default_factory=dict
    )
    #: (alias_a, alias_b): a precedes b on some route
    precedence: set[tuple[str, str]] = field(default_factory=set)
    #: (alias, port) pairs a hop forwards to with no wire/egress mapped
    dangling: set[tuple[str, int]] = field(default_factory=set)

    def reached_hops(self) -> set[str]:
        return {
            alias
            for reach in self.by_port.values()
            for alias, _ in reach
        }

    def ports_reaching(self, alias: str, port: int) -> list[int]:
        return sorted(
            chain_port
            for chain_port, reach in self.by_port.items()
            if (alias, port) in reach
        )


def _mapped_out_ports(chain: Chain, alias: str) -> set[int]:
    ports = {w.src_port for w in chain.wires if w.src == alias}
    ports.update(e.port for e in chain.egresses if e.hop == alias)
    return ports


def _hop_behaviour(hop: HopAnalysis, chain: Chain, port: int) -> set[int]:
    """Concrete forward targets out of ``port`` (symbolic -> all mapped)."""
    outs = hop.out_ports.get(port, set())
    if None in outs:
        return _mapped_out_ports(chain, hop.alias)
    return {p for p in outs if isinstance(p, int)}


def _compute_reach(chain: Chain, hops: dict[str, HopAnalysis]) -> _Reach:
    reach = _Reach()
    for ing in chain.ingresses:
        seen: dict[tuple[str, int], frozenset[str]] = {}
        work: list[tuple[str, int, frozenset[str], tuple[str, ...]]] = [
            (ing.hop, ing.port, frozenset(), (ing.hop,))
        ]
        while work:
            alias, port, rewritten, path = work.pop()
            key = (alias, port)
            previous = seen.get(key)
            if previous is not None and rewritten <= previous:
                continue
            seen[key] = rewritten | (previous or frozenset())
            for upstream in path[:-1]:
                reach.precedence.add((upstream, alias))
            hop = hops[alias]
            downstream = rewritten | hop.mods_by_port.get(port, frozenset())
            for out_port in _hop_behaviour(hop, chain, port):
                nxt = chain.next_of(alias, out_port)
                if nxt is None:
                    reach.dangling.add((alias, out_port))
                    continue
                if hasattr(nxt, "dst"):  # a Wire
                    work.append(
                        (nxt.dst, nxt.dst_port, downstream, path + (nxt.dst,))
                    )
        reach.by_port[ing.chain_port] = seen
    return reach


# ------------------------------------------------------------------ #
# Shard-compatibility composition
# ------------------------------------------------------------------ #
@dataclass
class _Composition:
    """A successful orientation assignment's composed constraints."""

    joint_fields: dict[int, tuple[str, ...]]
    lifted_pairs: list[PairMap]
    orientation: dict[str, str]


def _constrained_entries(
    reach: _Reach, hops: dict[str, HopAnalysis]
) -> dict[int, list[tuple[str, int, frozenset[str]]]]:
    """Chain port -> [(alias, hop port, rewritten-upstream)] for hops
    that impose sharding constraints there."""
    out: dict[int, list[tuple[str, int, frozenset[str]]]] = {}
    for chain_port, seen in reach.by_port.items():
        entries = []
        for (alias, port), rewritten in sorted(seen.items()):
            hop = hops[alias]
            if hop.verdict is not Verdict.SHARED_NOTHING:
                continue
            if not hop.result.solution.per_port.get(port):
                continue
            entries.append((alias, port, rewritten))
        out[chain_port] = entries
    return out


def _try_orientation(
    chain: Chain,
    hops: dict[str, HopAnalysis],
    reach: _Reach,
    constrained: dict[int, list[tuple[str, int, frozenset[str]]]],
    swapped: dict[str, bool],
) -> tuple[_Composition | None, str | None]:
    """Compose joint field sets under one orientation assignment.

    Returns ``(composition, None)`` on success or ``(None, reason)``
    naming the first conflict.
    """
    joint: dict[int, set[str]] = {}
    for chain_port, entries in constrained.items():
        for alias, port, rewritten in entries:
            hop = hops[alias]
            fields = hop.oriented_fields(port, swapped.get(alias, False))
            allowed = fields - rewritten
            if not allowed:
                lost = _sorted_fields(fields & rewritten)
                return None, (
                    f"chain port {chain_port}: hop {alias!r} shards on "
                    f"({', '.join(_sorted_fields(fields))}) but upstream "
                    f"hops rewrite ({', '.join(lost)})"
                )
            if chain_port not in joint:
                joint[chain_port] = set(allowed)
            else:
                joint[chain_port] &= allowed
            if not joint[chain_port]:
                shards = "; ".join(
                    f"{a}@{p} shards on "
                    f"({', '.join(_sorted_fields(hops[a].oriented_fields(p, swapped.get(a, False)) - rw))})"
                    for a, p, rw in entries
                )
                return None, (
                    f"chain port {chain_port}: empty field intersection "
                    f"({shards})"
                )

    # Lift hop pair maps to chain ports, restricted to the joint sets,
    # then narrow to a fixpoint: a joint field survives only if its
    # mapped partner is joint on the other chain port.
    lifted: list[tuple[int, int, dict[str, str]]] = []
    for alias, hop in hops.items():
        for pair in hop.oriented_pairs(swapped.get(alias, False)):
            fmap = dict(pair.field_map)
            for port_a in reach.ports_reaching(alias, pair.port_a):
                for port_b in reach.ports_reaching(alias, pair.port_b):
                    if port_a in joint and port_b in joint:
                        lifted.append((port_a, port_b, fmap))

    changed = True
    while changed:
        changed = False
        for port_a, port_b, fmap in lifted:
            inverse = {b: a for a, b in fmap.items()}
            keep_a = {
                f for f in joint[port_a] if fmap.get(f) in joint[port_b]
            }
            keep_b = {
                f for f in joint[port_b] if inverse.get(f) in joint[port_a]
            }
            if keep_a != joint[port_a]:
                joint[port_a] = keep_a
                changed = True
            if keep_b != joint[port_b]:
                joint[port_b] = keep_b
                changed = True
    for chain_port, fields in joint.items():
        if not fields:
            return None, (
                f"chain port {chain_port}: pair-map narrowing emptied the "
                "joint field set (hops' cross-port symmetries are "
                "inconsistent)"
            )

    pairs: list[PairMap] = []
    seen_pairs: set[tuple[int, int, tuple[tuple[str, str], ...]]] = set()
    for port_a, port_b, fmap in lifted:
        restricted = tuple(
            sorted(
                (a, b)
                for a, b in fmap.items()
                if a in joint[port_a] and b in joint[port_b]
            )
        )
        if not restricted:
            continue
        key = (port_a, port_b, restricted)
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        pairs.append(
            PairMap(port_a=port_a, port_b=port_b, field_map=restricted)
        )

    orientation = {
        alias: "swapped" for alias, is_swapped in swapped.items() if is_swapped
    }
    return (
        _Composition(
            joint_fields={
                port: _sorted_fields(fields) for port, fields in joint.items()
            },
            lifted_pairs=pairs,
            orientation=orientation,
        ),
        None,
    )


def _compose(
    chain: Chain, hops: dict[str, HopAnalysis], reach: _Reach
) -> tuple[_Composition | None, str]:
    """Search orientation assignments; identity first, swaps after."""
    constrained = _constrained_entries(reach, hops)
    swappable = [
        alias
        for alias, hop in hops.items()
        if hop.verdict is Verdict.SHARED_NOTHING and hop.admits_swap()
    ]
    identity_reason = ""
    for bits in product((False, True), repeat=len(swappable)):
        swapped = dict(zip(swappable, bits))
        composition, reason = _try_orientation(
            chain, hops, reach, constrained, swapped
        )
        if composition is not None:
            return composition, ""
        if not any(bits):
            identity_reason = reason or ""
    return None, identity_reason or "no key orientation satisfies all hops"


# ------------------------------------------------------------------ #
# The analysis entry point
# ------------------------------------------------------------------ #
def _analyze_hops(
    chain: Chain,
    registry: dict[str, type] | None,
    nic: NicModel,
    seed: int,
) -> dict[str, HopAnalysis]:
    maestro = Maestro(nic, seed=seed)
    nfs = instantiate_hops(chain, registry)
    hops: dict[str, HopAnalysis] = {}
    for alias, nf in nfs.items():
        decl = chain.hops[alias]
        result = maestro.analyze(nf)
        out_ports: dict[int, set] = {}
        mods_by_port: dict[int, frozenset[str]] = {}
        for port in result.tree.ports:
            outs: set = set()
            mods: set[str] = set()
            for path in result.tree.paths(port):
                action = path.action
                if action.kind is ActionKind.FORWARD:
                    outs.add(
                        action.port if isinstance(action.port, int) else None
                    )
                mods.update(name for name, _ in action.mods)
            out_ports[port] = outs
            mods_by_port[port] = frozenset(mods)
        hops[alias] = HopAnalysis(
            alias=alias,
            nf_name=decl.nf_name,
            line=decl.line,
            result=result,
            out_ports=out_ports,
            mods_by_port=mods_by_port,
        )
    return hops


def _port_map_diagnostics(
    chain: Chain, hops: dict[str, HopAnalysis], reach: _Reach
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    reached = reach.reached_hops()
    for alias, hop in hops.items():
        if alias not in reached:
            out.append(
                Diagnostic.of(
                    "MAE204",
                    f"hop {alias!r} ({hop.nf_name}) is unreachable from "
                    "every chain ingress",
                    nf=chain.name,
                    file=chain.file,
                    line=hop.line,
                )
            )
    for wire in chain.wires:
        if wire.src not in reached:
            continue  # the hop-level finding already covers it
        possible: set[int] = set()
        for chain_port in reach.by_port:
            for (alias, port) in reach.by_port[chain_port]:
                if alias == wire.src:
                    possible |= _hop_behaviour(hops[alias], chain, port)
        if wire.src_port not in possible:
            out.append(
                Diagnostic.of(
                    "MAE204",
                    f"dead wire: hop {wire.src!r} never forwards out of "
                    f"port {wire.src_port} "
                    f"(observed forward ports: "
                    f"{', '.join(map(str, sorted(possible))) or 'none'})",
                    nf=chain.name,
                    file=chain.file,
                    line=wire.line,
                )
            )
    for alias, port in sorted(reach.dangling):
        out.append(
            Diagnostic.of(
                "MAE204",
                f"hop {alias!r} forwards out of port {port} but no wire "
                "or egress is attached to it",
                nf=chain.name,
                file=chain.file,
                line=hops[alias].line,
            )
        )
    return out


def _lock_diagnostics(
    chain: Chain, hops: dict[str, HopAnalysis], reach: _Reach
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    reached = reach.reached_hops()
    locks_hops = [
        alias
        for alias in hops
        if alias in reached and hops[alias].verdict is Verdict.LOCKS
    ]
    for alias in locks_hops:
        out.append(
            Diagnostic.of(
                "MAE203",
                f"hop {alias!r} ({hops[alias].nf_name}) has a LOCKS "
                "verdict: no RSS key shards its state, so the chain "
                "falls back to per-hop steering",
                nf=chain.name,
                file=chain.file,
                line=hops[alias].line,
            )
        )
    for i, first in enumerate(locks_hops):
        for second in locks_hops[i + 1 :]:
            if (first, second) in reach.precedence and (
                second,
                first,
            ) in reach.precedence:
                out.append(
                    Diagnostic.of(
                        "MAE202",
                        f"LOCKS hops {first!r} and {second!r} are "
                        "traversed in opposite orders on different chain "
                        "routes: no single global lock acquisition order "
                        "covers the composed pipeline",
                        nf=chain.name,
                        file=chain.file,
                        line=hops[second].line,
                    )
                )
    return out


def analyze_chain(
    chain: Chain,
    *,
    registry: dict[str, type] | None = None,
    nic: NicModel = E810,
    seed: int = 12345,
    n_cores: int = 4,
    packets: int = 512,
    n_flows: int = 128,
    validate: bool = True,
) -> ChainReport:
    """Run the whole-chain analysis and (optionally) validate the result.

    ``validate=True`` runs a benchmark trace through the generated
    parallel chain and the sequential reference with the race sanitizer
    installed on every hop; equivalence violations and active sanitizer
    findings land in the report's diagnostics.
    """
    report = ChainReport(chain=chain)
    diagnostics: list[Diagnostic] = []
    with obs.span("analysis.chain", chain=chain.name):
        try:
            hops = _analyze_hops(chain, registry, nic, seed)
        except ReproError as exc:
            diagnostics.append(
                Diagnostic.of(
                    "MAE200",
                    f"hop analysis failed: {exc}",
                    nf=chain.name,
                    file=chain.file,
                    line=1,
                )
            )
            report.diagnostics = diagnostics
            _apply_waivers(report)
            return report
        report.hops = hops

        reach = _compute_reach(chain, hops)
        diagnostics.extend(_port_map_diagnostics(chain, hops, reach))
        diagnostics.extend(_lock_diagnostics(chain, hops, reach))

        composition, reason = _compose(chain, hops, reach)
        verdict_conflict = any(d.code == "MAE203" for d in diagnostics)
        if composition is None:
            first_ing = chain.ingresses[0]
            diagnostics.append(
                Diagnostic.of(
                    "MAE201",
                    f"no common shard key orientation: {reason}",
                    nf=chain.name,
                    file=chain.file,
                    line=first_ing.line,
                )
            )

        rng = np.random.default_rng(seed)
        mode = "fallback"
        joint_rss: RssConfiguration | None = None
        if composition is not None and not verdict_conflict:
            report.joint_fields = composition.joint_fields
            report.lifted_pairs = composition.lifted_pairs
            report.orientation = composition.orientation
            try:
                compilation = compile_joint(
                    chain.ingress_ports(),
                    composition.joint_fields,
                    composition.lifted_pairs,
                    nic,
                    label=chain.name,
                )
                stats = KeySearchStats()
                keys = solve_joint(
                    compilation, nic, n_queues=n_cores, rng=rng, stats=stats
                )
                joint_rss = RssConfiguration.build(
                    keys, compilation.port_options, n_cores
                )
                verify_joint_steering(
                    joint_rss, composition.lifted_pairs, seed=seed
                )
                report.joint_keys = keys
                report.key_stats = stats
                mode = "joint"
            except RssUnsatisfiableError as exc:
                diagnostics.append(
                    Diagnostic.of(
                        "MAE201",
                        f"joint key search failed: {exc}",
                        nf=chain.name,
                        file=chain.file,
                        line=chain.ingresses[0].line,
                    )
                )
                joint_rss = None

        if any(d.is_error for d in diagnostics):
            report.mode = "invalid"
            report.diagnostics = diagnostics
            _apply_waivers(report)
            return report
        report.mode = mode

        def deploy() -> ParallelChain:
            # A fresh deployment of per-hop generated NFs (their own RSS
            # keys steer in fallback mode); generation is deterministic.
            maestro = Maestro(nic, seed=seed)
            nfs = instantiate_hops(chain, registry)
            parallels = {
                alias: maestro.parallelize(
                    nfs[alias], n_cores,
                    strategy=Strategy.default_for(hop.verdict),
                    result=hop.result,
                )
                for alias, hop in hops.items()
            }
            return ParallelChain(chain, parallels, mode, joint_rss)

        trace = benchmark_chain_trace(
            chain, n_flows=n_flows, packets=packets, seed=seed
        )
        if validate:
            equivalence = check_chain_equivalence(
                chain,
                deploy(),
                trace,
                registry=registry,
                sanitize=True,
                trees={a: h.result.tree for a, h in hops.items()},
            )
            report.equivalence = equivalence
            if not equivalence.equivalent:
                diagnostics.append(
                    Diagnostic.of(
                        "MAE200",
                        "differential validation failed: "
                        + equivalence.describe().splitlines()[0],
                        nf=chain.name,
                        file=chain.file,
                        line=1,
                    )
                )
            diagnostics.extend(equivalence.race_diagnostics)

        if mode == "fallback":
            run = run_chain(deploy(), trace)
            report.handoff_fraction = run.handoff_fraction
            handoffs_per_packet = run.handoffs / len(trace) if trace else 0.0
            packet_cycles = sum(
                profile_for(hop.nf).base_cycles
                for hop in run.parallel.hops.values()
            )
            report.handoff_cycles = chain_handoff_cost(handoffs_per_packet)
            report.handoff_slowdown = chain_handoff_slowdown(
                handoffs_per_packet, packet_cycles
            )

    report.diagnostics = diagnostics
    _apply_waivers(report)
    return report


def _apply_waivers(report: ChainReport) -> None:
    """Partition diagnostics into active and waived via the chain file's
    line-scoped ``# maestro: waive[...]`` comments."""
    active: list[Diagnostic] = []
    waived: list[Diagnostic] = []
    for diag in report.diagnostics:
        if diag.file == report.chain.file and report.chain.waived(
            diag.code, diag.line
        ):
            waived.append(diag)
        else:
            active.append(diag)
    report.diagnostics = sort_diagnostics(active)
    report.waived = sort_diagnostics(waived)
