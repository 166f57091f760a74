"""Differential oracle: sequential reference vs. every parallel build.

For one generated NF and a set of workloads the oracle runs the full
pipeline (``Maestro.analyze`` with lint) and then checks, per
applicable strategy and per trace:

* **equivalence** — :func:`repro.sim.check_equivalence` with
  ``sanitize=True``: observable behaviour must match the sequential
  reference packet-for-packet, modulo the allowed capacity
  divergences;
* **static vs. dynamic cross-check** — a sharding verdict the race
  sanitizer refutes (any active MAE10x finding on an untampered build)
  is a pipeline bug, not a test failure, and is reported as such;
* **certification vs. observed kernels** — the plan certifier
  (:func:`repro.analysis.certify_nf`, MAE3xx) must pass on the
  untampered NF, and the compiled leg is cross-checked against it:
  every lane the dispatcher stamped as kernel-executed must carry a
  path id the certifier proved fully lowered, and a certificate with
  lowered paths (and no uncompiled port) must actually yield a
  dispatcher with supported paths.  The converse per-lane direction is
  deliberately *not* a finding — a certified lane may still fall back
  dynamically (hazard demotion, out-of-bounds keys), which is the
  runtime exercising exactly the fallback set the certifier proved
  sound;
* **reference vs. batched vs. compiled** — the same trace through the
  packet-at-a-time reference path, the batched interpreter (kernels
  pinned off), and the compiled batch dataplane (kernels on) must
  yield identical per-packet (core, action) sequences, per-core
  counters and per-core final state
  (:meth:`~repro.nf.runtime.ConcreteContext.state_diff`); the report
  keeps the last compiled leg's coverage stats and sums every compiled
  leg's kernel and fallback lanes.

Fault injection (``fault=``) seeds known pipeline bugs so the oracle
and shrinker can be validated end to end:

* ``drop-lock`` — remove one object from the generated
  :class:`~repro.core.codegen.LockPlan` (the sanitizer must raise
  MAE101/MAE102);
* ``forge-shared-nothing`` — force a shared-nothing build from a
  forged ``Verdict.SHARED_NOTHING`` solution when the analysis said
  LOCKS (the equivalence check or MAE103 must trip);
* ``skew-kernel`` — flip the action of the compiled leg's first
  kernel-executed packet before the comparison, as a kernel emitting a
  wrong action would (the compiled leg must diverge from the
  reference);
* ``stale-index`` — the compiled leg's map indexes never drain the keys
  their maps logged, so kernel lanes probe a map as it was when the
  index was last rebuilt, missing every put and erase since (the
  compiled leg probes every chunk through its indexes);
* ``drop-key-dirt`` — the compiled leg's conflict table drops every
  map aspect an interpreter lane touches, so a kernel lane keeps a key
  an earlier interpreter lane of the same chunk wrote;
* ``no-multi-touch``, ``drop-reach``, ``stale-rank`` — the compiled
  leg's conflict table skips its rule between kernel lanes (a kernel
  lane keeps a key or cell an earlier kernel lane writes), finds no
  cell in an allocation's reach, or skips its node rule, so the lanes
  of two tree nodes that rank allocations or inserts on one shard of a
  chain or map stay on kernels;
* ``pop-order`` — the compiled leg applies each shard's kernel
  allocations in reverse lane order, so a cell's timestamp (and bucket
  tag) is another lane's;
* ``late-apply`` — the compiled leg runs each chunk's interpreter lanes
  before it applies the kernel writes, so an interpreter lane misses
  the write of an earlier kernel lane, which the lane-ordered rule
  left on kernels.

The last eight are dispatcher faults (:func:`inject_dispatcher_fault`):
each is patched onto the compiled leg only, and every trace runs the
fast-path check under them.  ``stale-rank`` survives the fuzz
campaigns: their workloads do put two nodes' ranked lanes on one
shard, but the other rules already send nearly every such lane to the
interpreter, and the few left on kernels end in the reference's
state; its hand-built case and the small-scope check
(``tests/sim/test_smallscope.py``) catch it.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core.codegen import LockPlan, ParallelNF, Strategy
from repro.core.pipeline import Maestro
from repro.core.sharding import Verdict
from repro.fuzz.generator import NfSpec, build_nf
from repro.fuzz.workloads import WorkloadSpec, materialize_workload
from repro.nf.api import ActionKind
from repro.nf.runtime import PacketResult
from repro.nf.state import DChain
from repro.obs.flight import FlightRecorder
from repro.sim.equivalence import check_equivalence
from repro.sim.functional import _get_dispatcher, run_functional

__all__ = ["FAULTS", "FuzzFailure", "OracleReport", "run_oracle"]

#: Known fault-injection modes (see module docstring).
FAULTS: tuple[str, ...] = (
    "drop-lock",
    "forge-shared-nothing",
    "skew-kernel",
    "stale-index",
    "drop-key-dirt",
    "no-multi-touch",
    "drop-reach",
    "stale-rank",
    "pop-order",
    "late-apply",
)
#: Faults in the compiled leg's dispatcher.
DISPATCHER_FAULTS = FAULTS[2:]


@dataclass(frozen=True)
class FuzzFailure:
    """One oracle check that did not come back clean."""

    kind: str  #: lint | certify | equivalence | race | rescale | fastpath | crash
    detail: str
    strategy: str | None = None
    workload: dict | None = None
    fault: str | None = None
    codes: tuple[str, ...] = ()
    mismatches: int = 0
    #: last-N-packets flight-recorder snapshot (tuple of event dicts)
    #: captured at the moment the check tripped; rides into the saved
    #: reproducer via :meth:`to_dict`.
    flight: tuple = ()

    @property
    def signature(self) -> str:
        """Stable identity for shrinking: same bug ⟺ same signature.

        Deliberately excludes the workload (trace bisection must keep
        matching) and the mismatch count (shrinking reduces it).
        """
        return f"{self.kind}/{self.strategy}/{','.join(sorted(set(self.codes)))}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "strategy": self.strategy,
            "workload": self.workload,
            "fault": self.fault,
            "codes": list(self.codes),
            "mismatches": self.mismatches,
            "signature": self.signature,
            "flight": [dict(event) for event in self.flight],
        }


@dataclass
class OracleReport:
    """Everything one (NF, workloads[, fault]) oracle pass observed."""

    spec: NfSpec
    fault: str | None = None
    verdict: str = ""
    strategies: tuple[str, ...] = ()
    checks: int = 0
    #: sanitized equivalence runs that applied a mid-trace grow+shrink
    #: (``rescale`` workloads under a shared-nothing verdict).
    rescale_checks: int = 0
    capacity_divergences: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    #: the last compiled leg's coverage stats
    compiled_stats: dict | None = None
    #: lanes every compiled leg ran on kernels and on the interpreter
    kernel_packets: int = 0
    fallback_packets: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "fault": self.fault,
            "verdict": self.verdict,
            "strategies": list(self.strategies),
            "checks": self.checks,
            "rescale_checks": self.rescale_checks,
            "capacity_divergences": self.capacity_divergences,
            "failures": [f.to_dict() for f in self.failures],
            "compiled_stats": self.compiled_stats,
            "kernel_packets": self.kernel_packets,
            "fallback_packets": self.fallback_packets,
        }


def _crash_detail(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:] if exc.__traceback__ else []
    where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {exc}{where}"


def _guard_values(spec: NfSpec) -> tuple[int, ...]:
    return tuple(
        guard.value for group in spec.groups for guard in group.guards
    )


#: Header-field swaps for the reply orientation of a flow key.
_SWAPPED = {
    "src_ip": "dst_ip",
    "dst_ip": "src_ip",
    "src_port": "dst_port",
    "dst_port": "src_port",
    "src_mac": "dst_mac",
    "dst_mac": "src_mac",
}


def _spec_flow_keys(spec: NfSpec):
    """Per-group tagged flow-key extractor for capacity tainting.

    The generated NF's key structure is known exactly, so the
    equivalence checker can taint capacity-refused flows at the right
    granularity — a partial key (e.g. src_port only) aliases many
    header tuples onto one state entry, which the default full-header
    taint cannot see.
    """
    keyed = [
        (group.prefix, group.key_fields)
        for group in spec.groups
        if group.key_fields
    ]

    def flow_keys(port: int, pkt) -> list[tuple]:
        out = []
        for tag, fields in keyed:
            out.append((tag, tuple(getattr(pkt, f) for f in fields)))
            out.append(
                (tag, tuple(getattr(pkt, _SWAPPED.get(f, f)) for f in fields))
            )
        return out

    return flow_keys


def _drop_one_lock(parallel: ParallelNF) -> str | None:
    """Remove the first locked object from the plan; return its name."""
    plan = parallel.lock_plan
    if not plan.locked:
        return None
    victim = sorted(plan.locked)[0]
    parallel.lock_plan = LockPlan(
        strategy=plan.strategy,
        locked=plan.locked - {victim},
        order=tuple(name for name in plan.order if name != victim),
    )
    return victim


def run_oracle(
    spec: NfSpec,
    workloads: Sequence[WorkloadSpec],
    *,
    n_cores: int = 4,
    maestro_seed: int = 0,
    fault: str | None = None,
    check_fastpath: bool = True,
    traces: Sequence[tuple[WorkloadSpec | None, list]] | None = None,
) -> OracleReport:
    """Differentially test ``spec`` against every applicable strategy.

    ``traces`` pins pre-materialized ``(workload, trace)`` pairs and
    skips workload materialization entirely — the shrinker and corpus
    replay use this so a reproducer exercises its exact packets.
    """
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r} (known: {FAULTS})")
    report = OracleReport(spec=spec, fault=fault)

    def make_nf():
        return build_nf(spec)

    maestro = Maestro(seed=maestro_seed)
    try:
        result = maestro.analyze(make_nf(), lint=True)
    except Exception as exc:  # noqa: BLE001 — any pipeline crash is a finding
        report.failures.append(
            FuzzFailure(kind="crash", detail=_crash_detail(exc), fault=fault)
        )
        return report
    verdict = result.solution.verdict
    report.verdict = verdict.value

    lint_errors = [d for d in result.diagnostics if d.is_error]
    if lint_errors:
        report.failures.append(
            FuzzFailure(
                kind="lint",
                detail="; ".join(str(d) for d in lint_errors[:3]),
                codes=tuple(d.code for d in lint_errors),
                fault=fault,
            )
        )

    # Static certification of the untampered NF: a lowering the plan
    # certifier cannot prove equivalent is a pipeline bug regardless of
    # whether any dynamic check later trips.  The certificate is kept so
    # the compiled leg can cross-check observed kernel lanes against it.
    from repro.analysis.plan_passes import certify_nf

    try:
        certificate = certify_nf(
            make_nf(), tree=result.tree, solution=result.solution
        )
    except Exception as exc:  # noqa: BLE001 — certifier crash is a finding
        certificate = None
        report.failures.append(
            FuzzFailure(kind="crash", detail=_crash_detail(exc), fault=fault)
        )
    if certificate is not None and not certificate.clean:
        cert_errors = [d for d in certificate.diagnostics if d.is_error]
        report.failures.append(
            FuzzFailure(
                kind="certify",
                detail="; ".join(str(d) for d in cert_errors[:3]),
                codes=tuple(d.code for d in cert_errors),
                fault=fault,
            )
        )

    strategies = (
        [Strategy.LOCKS, Strategy.TM]
        if verdict is Verdict.LOCKS
        else [Strategy.SHARED_NOTHING, Strategy.LOCKS, Strategy.TM]
    )
    forged_solution = None
    if fault == "forge-shared-nothing" and verdict is Verdict.LOCKS:
        # Bypass generate()'s guard with a forged analysis verdict: this
        # is the build a wrong Constraints Generator answer would emit.
        forged_solution = replace(result.solution, verdict=Verdict.SHARED_NOTHING)
        strategies.insert(0, Strategy.SHARED_NOTHING)
    report.strategies = tuple(s.value for s in strategies)

    if traces is None:
        guard_values = _guard_values(spec)
        min_capacity = min(group.capacity for group in spec.groups)
        traces = [
            (
                workload,
                materialize_workload(
                    workload,
                    guard_values=guard_values,
                    min_capacity=min_capacity,
                    rss=result.rss_configuration(n_cores),
                ),
            )
            for workload in workloads
        ]

    def make_parallel(strategy: Strategy) -> ParallelNF:
        solution = result.solution
        if strategy is Strategy.SHARED_NOTHING and forged_solution is not None:
            solution = forged_solution
        parallel = ParallelNF.generate(
            build_nf(spec),
            solution,
            result.rss_configuration(n_cores),
            n_cores,
            strategy=strategy,
        )
        if fault == "drop-lock":
            _drop_one_lock(parallel)
        return parallel

    for strategy in strategies:
        for index, (workload, trace) in enumerate(traces):
            failed = _check_one(
                report, spec, make_nf, make_parallel, strategy, workload,
                trace, result.tree, fault,
            )
            if (
                strategy is Strategy.SHARED_NOTHING
                and forged_solution is None
                and workload is not None
                and workload.kind == "rescale"
            ):
                _check_rescale(
                    report, spec, make_nf, make_parallel, workload,
                    trace, result.tree, n_cores, fault,
                )
            if check_fastpath and (
                failed
                or index == 0
                or fault in DISPATCHER_FAULTS
            ):
                _check_fastpath(
                    report, make_nf, make_parallel, strategy, workload,
                    trace, result.tree, fault, certificate,
                )
    return report


def _check_one(
    report, spec, make_nf, make_parallel, strategy, workload, trace, tree, fault
) -> bool:
    """One sanitized equivalence run; returns True if it failed."""
    recorder = FlightRecorder()
    try:
        parallel = make_parallel(strategy)
        eq = check_equivalence(
            make_nf,
            parallel,
            trace,
            sanitize=True,
            tree=tree,
            flow_keys=_spec_flow_keys(spec),
            flight=recorder,
        )
    except Exception as exc:  # noqa: BLE001
        report.failures.append(
            FuzzFailure(
                kind="crash",
                detail=_crash_detail(exc),
                strategy=strategy.value,
                workload=workload.to_dict() if workload else None,
                fault=fault,
            )
        )
        return True
    report.checks += 1
    report.capacity_divergences += eq.capacity_divergences
    codes = tuple(d.code for d in eq.race_diagnostics)
    if eq.mismatches:
        report.failures.append(
            FuzzFailure(
                kind="equivalence",
                detail=eq.describe(),
                strategy=strategy.value,
                workload=workload.to_dict() if workload else None,
                fault=fault,
                codes=codes,
                mismatches=len(eq.mismatches),
                flight=tuple(eq.flight_snapshot),
            )
        )
        return True
    if codes:
        # Behaviour matched but the sanitizer refuted the build: the
        # static analysis promised an isolation the runtime broke.
        report.failures.append(
            FuzzFailure(
                kind="race",
                detail="; ".join(
                    str(d) for d in eq.race_diagnostics[:3]
                ),
                strategy=strategy.value,
                workload=workload.to_dict() if workload else None,
                fault=fault,
                codes=codes,
                flight=tuple(eq.flight_snapshot),
            )
        )
        return True
    return False


def _check_rescale(
    report, spec, make_nf, make_parallel, workload, trace, tree, n_cores,
    fault,
) -> bool:
    """Sanitized equivalence with a mid-trace grow *and* shrink.

    Exercises live re-sharding (``repro.scale``) under adversarial
    generated NFs: the table is re-programmed bucket-by-bucket twice
    while state churns, and the run must stay equivalent to the
    sequential reference with no MAE10x finding — MAE103 proves every
    ownership handoff committed atomically, MAE105 that no packet was
    served inside a migration's unowned epoch.  Migration refusals
    (receiver shard full) are the capacity story and taint like it.
    """
    from repro.scale.elastic import enable_elastic

    n = len(trace)
    # run_elastic takes one event per position, inside the trace: when a
    # short trace makes ``n // 3`` and ``2 * n // 3`` coincide, the
    # shrink replaces the grow, and an empty trace gets no rescale.
    schedule = {n // 3: n_cores * 2}
    schedule[2 * n // 3] = max(1, n_cores - 1)
    events = [(at, cores) for at, cores in schedule.items() if at < n]
    try:
        parallel = enable_elastic(make_parallel(Strategy.SHARED_NOTHING))
        eq = check_equivalence(
            make_nf,
            parallel,
            trace,
            sanitize=True,
            tree=tree,
            flow_keys=_spec_flow_keys(spec),
            rescale_events=events,
        )
    except Exception as exc:  # noqa: BLE001
        report.failures.append(
            FuzzFailure(
                kind="crash",
                detail=_crash_detail(exc),
                strategy=Strategy.SHARED_NOTHING.value,
                workload=workload.to_dict() if workload else None,
                fault=fault,
            )
        )
        return True
    report.checks += 1
    report.rescale_checks += 1
    report.capacity_divergences += eq.capacity_divergences
    codes = tuple(d.code for d in eq.race_diagnostics)
    if eq.mismatches or codes:
        report.failures.append(
            FuzzFailure(
                kind="rescale",
                detail=eq.describe(),
                strategy=Strategy.SHARED_NOTHING.value,
                workload=workload.to_dict() if workload else None,
                fault=fault,
                codes=codes,
                mismatches=len(eq.mismatches),
                flight=tuple(eq.flight_snapshot),
            )
        )
        return True
    return False


class _MapDirtDropped:
    """A conflict table that drops every map aspect an interpreter lane
    touches."""

    def __init__(self, table):
        self._table = table

    def __getattr__(self, name):
        return getattr(self._table, name)

    def add(self, aspect, obj, entry, kernel=False):
        if kernel or not aspect.startswith("map_"):
            self._table.add(aspect, obj, entry, kernel)

    def add_reach(self, aspect, obj, *reach):
        if not aspect.startswith("map_"):
            self._table.add_reach(aspect, obj, *reach)


def inject_dispatcher_fault(dispatcher, fault: str) -> None:
    """Patch dispatcher fault ``fault`` onto one compiled dispatcher
    (``skew-kernel`` corrupts results instead, see :func:`_flipped`)."""
    if fault == "stale-index":
        for index in dispatcher._indexes.values():
            index.drain = lambda: None
    elif fault == "drop-key-dirt":
        footprint = dispatcher._footprint
        dispatcher._footprint = lambda table, groups, fresh: footprint(
            _MapDirtDropped(table), groups, fresh
        )
    elif fault == "no-multi-touch":
        footprint = dispatcher._footprint

        def unordered(table, groups, fresh):
            table.ordered = False
            footprint(table, groups, fresh)

        dispatcher._footprint = unordered
    elif fault == "drop-reach":
        dispatcher._reach = lambda shard, chain, aspect: np.zeros(0, np.int64)
    elif fault == "stale-rank":
        dispatcher._node_rule = lambda: ()
    elif fault == "late-apply":
        commit = dispatcher._commit

        def late(groups, k_flag, f_lanes, results):
            dispatcher._run_fallback(f_lanes, results)
            return commit(groups, k_flag, f_lanes[:0], results)

        dispatcher._commit = late
    elif fault == "pop-order":
        # Kernel allocations are the only callers of ``DChain.take``: one
        # call per shard and chain.  A shared store is patched once.
        stores = {id(c.ctx.store): c.ctx.store
                  for c in dispatcher.parallel.cores}
        for store in stores.values():
            for obj in store.objects.values():
                if isinstance(obj, DChain):
                    obj.take = _reversed(obj.take)


def _reversed(take):
    """The ``pop-order`` corruption of one chain's ``take``: the cells go
    to the allocating lanes in reverse lane order."""
    return lambda times: take(times[::-1])[::-1]


def _flipped(result: PacketResult) -> PacketResult:
    """The ``skew-kernel`` corruption: a DROP becomes a FORWARD to port
    0, anything else a DROP."""
    if result.kind is ActionKind.DROP:
        return PacketResult(ActionKind.FORWARD, 0)
    return PacketResult(ActionKind.DROP)


def _check_fastpath(
    report, make_nf, make_parallel, strategy, workload, trace, tree,
    fault, certificate=None,
) -> None:
    """Reference vs. batched interpreter vs. compiled kernels.

    The batched leg is pinned ``kernels=False`` so each leg isolates one
    mechanism: batched steering with grouped execution, and the compiled
    batch dataplane (kernels on).  Under the ``skew-kernel`` fault the
    compiled leg's first kernel lane is compared with its action
    flipped.  When a ``certificate``
    (:class:`repro.analysis.CertifyReport`) is supplied, the compiled
    leg is cross-checked against it: kernel-executed lanes must carry
    certified path ids, and a certificate with lowered paths must
    produce a dispatcher.
    """
    try:
        ref_parallel = make_parallel(strategy)
        reference = run_functional(ref_parallel, trace, fastpath=False)
        bat_parallel = make_parallel(strategy)
        batched = run_functional(
            bat_parallel, trace, fastpath=True, kernels=False
        )
        comp_parallel = make_parallel(strategy)
        # The analysis already explored this NF; reuse its tree so the
        # compiled leg lowers the exact paths the oracle verified.
        comp_parallel.symbex_tree = tree
        dispatcher = _get_dispatcher(comp_parallel)
        # Fuzz traces make chunks below INDEX_MIN_LANES, which probe the
        # dicts as the reference does: probe every chunk through the map
        # indexes instead, the reads this leg is here to check.
        dispatcher.index_min_lanes = 1
        if fault in DISPATCHER_FAULTS:
            inject_dispatcher_fault(dispatcher, fault)
        compiled = run_functional(
            comp_parallel, trace, fastpath=True, kernels=True
        )
    except Exception as exc:  # noqa: BLE001
        report.failures.append(
            FuzzFailure(
                kind="crash",
                detail=_crash_detail(exc),
                strategy=strategy.value,
                workload=workload.to_dict() if workload else None,
                fault=fault,
            )
        )
        return
    report.checks += 1
    report.compiled_stats = compiled.compiled
    report.kernel_packets += compiled.compiled["kernel_packets"]
    report.fallback_packets += compiled.compiled["fallback_packets"]
    if certificate is not None:
        certified = set(certificate.supported_pids)
        path_ids = compiled.compiled_path_ids
        observed = (
            sorted({int(p) for p in path_ids.tolist() if p >= 0})
            if path_ids is not None
            else []
        )
        rogue = [p for p in observed if p not in certified]
        if rogue:
            # A kernel executed a path the certifier did not prove
            # lowered — the dispatcher and the certificate disagree
            # about which plans are trusted.  (The converse — a
            # certified lane falling back — is legitimate demotion.)
            report.failures.append(
                FuzzFailure(
                    kind="certify",
                    detail=(
                        f"kernel lanes executed path id(s) {rogue} that the "
                        f"plan certifier did not certify as lowered "
                        f"(certified: {sorted(certified)})"
                    ),
                    strategy=strategy.value,
                    workload=workload.to_dict() if workload else None,
                    fault=fault,
                    codes=("certify-lanes",),
                )
            )
        elif certified and not certificate.uncompiled and (
            _get_dispatcher(comp_parallel).supported_paths == 0
        ):
            report.failures.append(
                FuzzFailure(
                    kind="certify",
                    detail=(
                        f"certifier proved {len(certified)} path(s) lowered "
                        f"with no uncompiled port, but compile_parallel "
                        f"built a dispatcher with no supported path"
                    ),
                    strategy=strategy.value,
                    workload=workload.to_dict() if workload else None,
                    fault=fault,
                    codes=("certify-compile",),
                )
            )
    skewed = -1
    if fault == "skew-kernel":
        kernel = np.flatnonzero(compiled.compiled_path_ids >= 0)
        skewed = int(kernel[0]) if kernel.size else -1
    for label, run, parallel in (
        ("batched", batched, bat_parallel),
        ("compiled", compiled, comp_parallel),
    ):
        detail = None
        for i, ((ref_core, ref_res), (run_core, run_res)) in enumerate(
            zip(reference.results, run.results)
        ):
            if run is compiled and i == skewed:
                run_res = _flipped(run_res)
            want = (ref_core, *ref_res.observable())
            got = (run_core, *run_res.observable())
            if want != got:
                detail = (
                    f"{label} fast path diverges from reference at "
                    f"packet #{i}: {want} != {got}"
                )
                break
        else:
            # Same packets, so the per-core lifetime counters (reads,
            # writes, new flows, locked writes) and every core's final
            # state must agree as well.
            cores = zip(ref_parallel.cores, parallel.cores)
            for c, (ref, core) in enumerate(cores):
                a, b = ref.ctx.stat_snapshot(), core.ctx.stat_snapshot()
                if a != b:
                    detail = (
                        f"{label} fast path's core {c} counters diverge "
                        f"from reference: {a} != {b}"
                    )
                elif what := ref.ctx.state_diff(core.ctx):
                    detail = (
                        f"{label} fast path's core {c} state diverges "
                        f"from reference: {what}"
                    )
                else:
                    continue
                break
        if detail is not None:
            report.failures.append(
                FuzzFailure(
                    kind="fastpath",
                    detail=detail,
                    strategy=strategy.value,
                    workload=workload.to_dict() if workload else None,
                    fault=fault,
                    codes=(f"fastpath-{label}",),
                )
            )
