"""Differential oracle: clean pipeline passes, seeded bugs are caught."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.pipeline import Maestro
from repro.fuzz.generator import build_nf, random_spec
from repro.fuzz.oracle import run_oracle
from repro.fuzz.workloads import WorkloadSpec, materialize_workload
from repro.sim import compiled

UNIFORM = WorkloadSpec("uniform", 11, n_packets=64, n_flows=16)


def _verdict(seed: int) -> str:
    spec = random_spec(seed, shape="small")
    return Maestro(seed=0).analyze(build_nf(spec)).solution.verdict.value


#: seed 1 is LOCKS via keyed state (two src_mac flow tables); seed 2 is
#: shared-nothing.  Guarded by assertions so a generator change that
#: reshuffles seeds fails loudly instead of silently testing nothing.
LOCKS_SEED = 1
SN_SEED = 2


def test_seed_assumptions_hold() -> None:
    assert _verdict(LOCKS_SEED) == "locks"
    assert _verdict(SN_SEED) == "shared-nothing"


def test_clean_pipeline_passes_all_strategies() -> None:
    spec = random_spec(SN_SEED, shape="small")
    report = run_oracle(spec, [UNIFORM], n_cores=4, maestro_seed=7)
    assert report.ok, [f.to_dict() for f in report.failures]
    assert set(report.strategies) == {"shared-nothing", "locks", "tm"}
    assert report.checks > 0
    assert "cache_stats" not in report.to_dict()


def test_locks_verdict_skips_shared_nothing() -> None:
    spec = random_spec(LOCKS_SEED, shape="small")
    report = run_oracle(spec, [UNIFORM], n_cores=4, maestro_seed=7)
    assert report.ok, [f.to_dict() for f in report.failures]
    assert "shared-nothing" not in report.strategies


def test_drop_lock_fault_raises_mae101() -> None:
    spec = random_spec(LOCKS_SEED, shape="small")
    report = run_oracle(
        spec, [UNIFORM], n_cores=4, maestro_seed=7, fault="drop-lock"
    )
    assert not report.ok
    assert any(
        f.kind == "race" and "MAE101" in f.codes for f in report.failures
    )


def test_forged_shared_nothing_verdict_is_refuted() -> None:
    """The static-vs-dynamic cross-check: a forged sharding verdict must
    be caught by the race sanitizer (MAE103 shard ownership)."""
    spec = random_spec(LOCKS_SEED, shape="small")
    report = run_oracle(
        spec, [UNIFORM], n_cores=4, maestro_seed=7, fault="forge-shared-nothing"
    )
    assert "shared-nothing" in report.strategies
    assert any(
        f.strategy == "shared-nothing" and "MAE103" in f.codes
        for f in report.failures
    )


def test_clean_pipeline_reports_compiled_stats() -> None:
    """The third oracle leg runs the compiled dataplane and attaches
    its kernel-coverage accounting to the report."""
    spec = random_spec(SN_SEED, shape="small")
    report = run_oracle(spec, [UNIFORM], n_cores=4, maestro_seed=7)
    assert report.ok, [f.to_dict() for f in report.failures]
    assert report.compiled_stats is not None
    assert 0.0 <= report.compiled_stats["coverage"] <= 1.0


def test_skew_kernel_fault_diverges_compiled_leg() -> None:
    """A corrupted scatter mask flips one kernel lane's action; the
    compiled leg must catch it against the reference."""
    spec = random_spec(SN_SEED, shape="small")
    report = run_oracle(
        spec, [UNIFORM], n_cores=4, maestro_seed=7, fault="skew-kernel"
    )
    hits = [
        f for f in report.failures
        if f.kind == "fastpath" and "fastpath-compiled" in f.codes
    ]
    assert hits, [f.to_dict() for f in report.failures]
    assert all("compiled" in f.detail for f in hits)


def test_unknown_fault_rejected() -> None:
    with pytest.raises(ValueError, match="unknown fault"):
        run_oracle(random_spec(0, shape="small"), [UNIFORM], fault="nope")


def test_capacity_exhaustion_is_excused_not_failed() -> None:
    """Per-core shards refuse earlier than the sequential NF — the §4
    capacity divergence must be classified, not reported as a bug."""
    spec = random_spec(SN_SEED, shape="small")
    exhaust = WorkloadSpec("exhaust", 5, n_packets=256, n_flows=64)
    report = run_oracle(spec, [exhaust], n_cores=4, maestro_seed=7)
    assert report.ok, [f.to_dict() for f in report.failures]


def test_signature_is_stable_and_workload_free() -> None:
    spec = random_spec(LOCKS_SEED, shape="small")
    churn = WorkloadSpec("churn", 13, n_packets=64, n_flows=16)
    a = run_oracle(spec, [UNIFORM], n_cores=4, maestro_seed=7, fault="drop-lock")
    b = run_oracle(spec, [churn], n_cores=4, maestro_seed=7, fault="drop-lock")
    sigs_a = {f.signature for f in a.failures if f.kind == "race"}
    sigs_b = {f.signature for f in b.failures if f.kind == "race"}
    assert sigs_a and sigs_a == sigs_b


#: A small-shape seed with a flow group whose allocation lowers.
EXPIRY_SEED = 8


def _expiring_exhaust():
    """``exhaust`` traffic against 16-entry flow tables with expiry on.

    Packets 0.25 s apart span two 60 s expiry horizons, so sweeps free
    cells of full chains at chunk boundaries and the tables refill.
    """
    spec = random_spec(EXPIRY_SEED, shape="small")
    groups = tuple(
        replace(g, capacity=16) if g.kind == "flow" else g
        for g in spec.groups
    )
    spec = replace(spec, expire=True, groups=groups)
    workload = WorkloadSpec("exhaust", EXPIRY_SEED, n_packets=512, n_flows=64)
    trace = [
        (port, replace(pkt, timestamp=i * 0.25))
        for i, (port, pkt) in enumerate(
            materialize_workload(workload, min_capacity=16)
        )
    ]
    return spec, [(workload, trace)]


def test_exhaust_with_expiry_cycles_full_chains(monkeypatch) -> None:
    """Chains go full and free again across chunk boundaries: kernel
    allocations fail on full chains and pop cells of free ones, and all
    three oracle legs stay green."""
    seen = {"full": 0, "free": 0}
    read = compiled._Alloc.read

    def spy(self, disp, group, env, cache, steps, alive):
        art = read(self, disp, group, env, cache, steps, alive)
        seen["full"] += bool((alive & ~art["exposed"]).any())
        seen["free"] += bool(art["ok"].any())
        return art

    monkeypatch.setattr(compiled._Alloc, "read", spy)
    spec, traces = _expiring_exhaust()
    report = run_oracle(
        spec, [w for w, _ in traces], n_cores=4, maestro_seed=7,
        traces=traces,
    )
    assert report.ok, [f.to_dict() for f in report.failures]
    assert report.compiled_stats["kernel_packets"] > 0
    assert seen["full"] > 0 and seen["free"] > 0


def test_skew_kernel_fault_caught_on_expiring_exhaust() -> None:
    spec, traces = _expiring_exhaust()
    report = run_oracle(
        spec, [w for w, _ in traces], n_cores=4, maestro_seed=7,
        traces=traces, fault="skew-kernel",
    )
    assert any(
        f.kind == "fastpath" and "fastpath-compiled" in f.codes
        for f in report.failures
    ), [f.to_dict() for f in report.failures]


# ------------------------------------------------------------------ #
# Dispatcher faults: each must change an observable on a hand-built
# case.  The connection limiter opens a flow on the interpreter (its
# new-flow path touches a sketch, which never lowers), and its replies
# run on kernels: a reply probes the key the opening packet inserted.
# ------------------------------------------------------------------ #
CLIENT = 0x0A000001
SERVER = 0x08080808


def _cl_pair():
    from repro.nf.nfs.cl import ConnectionLimiter

    def build():
        return Maestro(seed=7).parallelize(ConnectionLimiter(), n_cores=2)

    return build(), build()


def _open(t, i=0):
    from repro.nf.packet import Packet

    return (0, Packet(src_ip=CLIENT + i, dst_ip=SERVER, src_port=4000 + i,
                      dst_port=53, timestamp=t))


def _reply(t, i=0):
    from repro.nf.packet import Packet

    return (1, Packet(src_ip=SERVER, dst_ip=CLIENT + i, src_port=53,
                      dst_port=4000 + i, timestamp=t))


def _runs(fault, batches):
    """The reference's and the faulted compiled leg's results, batch by
    batch (one ``run_functional`` call each, on one plan per leg)."""
    from repro.fuzz.oracle import inject_dispatcher_fault
    from repro.sim.functional import _get_dispatcher, run_functional

    par_ref, par_comp = _cl_pair()
    dispatcher = _get_dispatcher(par_comp)
    # One-lane chunks: probe the map index all the same.
    dispatcher.index_min_lanes = 1
    if fault is not None:
        inject_dispatcher_fault(dispatcher, fault)
    out = []
    for batch in batches:
        ref = run_functional(par_ref, batch, fastpath=False)
        comp = run_functional(par_comp, batch)
        out.append((
            [(c, r.observable()) for c, r in ref.results],
            [(c, r.observable()) for c, r in comp.results],
            comp.compiled,
        ))
    return out


# Flows 1-8 make every core sweep at t=0, alone on the interpreter.
_WARM = [_open(0.0, i) for i in range(1, 9)]


@pytest.mark.parametrize("fault", [None, "stale-index"])
def test_stale_index_fault_misses_an_interpreter_insert(fault) -> None:
    """The opening packet inserts its key on the interpreter; a reply in
    a later run probes the map index, which must have drained the key
    from the map's log."""
    runs = _runs(fault, [_WARM, [_open(0.1)], [_reply(0.2)]])
    ref, comp, stats = runs[-1]
    assert stats["kernel_packets"] == 1
    assert stats["map_index"]["reconciled"] == (1 if fault is None else 0)
    assert ref[0][1][0].name == "FORWARD"
    assert (comp == ref) is (fault is None)


@pytest.mark.parametrize("fault", [None, "drop-key-dirt"])
def test_drop_key_dirt_fault_keeps_a_stale_reply(fault) -> None:
    """The opening packet and its reply share a chunk: the interpreter
    lane's map dirt must demote the reply, which read the key absent."""
    runs = _runs(fault, [_WARM, [_open(0.1), _reply(0.2)]])
    ref, comp, stats = runs[-1]
    assert ref[1][1][0].name == "FORWARD"
    assert stats["kernel_packets"] == (0 if fault is None else 1)
    assert (comp == ref) is (fault is None)


def _leg_runs(factory, n_cores, fault, batches):
    """Per batch: the reference's and the faulted compiled leg's results
    and per-core counters (one plan per leg, fed the batches in order)."""
    from repro.fuzz.oracle import inject_dispatcher_fault
    from repro.sim.functional import _get_dispatcher, run_functional

    par_ref, par_comp = (
        Maestro(seed=7).parallelize(factory(), n_cores=n_cores)
        for _ in range(2)
    )
    if fault is not None:
        inject_dispatcher_fault(_get_dispatcher(par_comp), fault)
    out = []
    for batch in batches:
        ref = run_functional(par_ref, batch, fastpath=False)
        comp = run_functional(par_comp, batch)
        out.append((
            (list(ref.results), [c.ctx.stat_snapshot() for c in par_ref.cores]),
            (list(comp.results), [c.ctx.stat_snapshot() for c in par_comp.cores]),
        ))
    return out, par_ref, par_comp


def _same_key_twice():
    """A firewall's chunk that opens one new key twice (lanes 3 and 6)
    among ten new flows; packet 0 sweeps, alone on the interpreter."""
    from repro.nf.nfs.firewall import Firewall
    from tests.sim.test_compiled_establish import _lan

    trace = [_lan(99, 0.0)] + [_lan(i, 1e-3 * (i + 1)) for i in range(10)]
    trace.insert(6, _lan(2, 5.5e-3))
    return Firewall, [trace]


@pytest.mark.parametrize("fault", [None, "no-multi-touch"])
def test_no_multi_touch_fault_opens_one_flow_twice(fault) -> None:
    """Both lanes of the repeated key insert it on kernels without the
    conflict pass, so the second reports a new flow and the core counts
    one flow too many."""
    factory, batches = _same_key_twice()
    runs, _, _ = _leg_runs(factory, 1, fault, batches)
    (ref, ref_stats), (comp, comp_stats) = runs[-1]
    assert not ref[6][1].new_flow
    assert comp[6][1].new_flow is (fault is not None)
    assert (comp_stats == ref_stats) is (fault is None)


@pytest.mark.parametrize("fault", [None, "drop-reach"])
def test_drop_reach_fault_splits_a_shards_allocations(fault) -> None:
    """The demoted lanes of the repeated key allocate on the interpreter;
    without their reach the other allocations of the shard stay on
    kernels, which the dispatcher refuses to apply (the oracle reports
    the crash)."""
    factory, batches = _same_key_twice()
    if fault is None:
        runs, _, _ = _leg_runs(factory, 1, fault, batches)
        assert all(ref == comp for ref, comp in runs)
        return
    with pytest.raises(RuntimeError, match="split between kernel and"):
        _leg_runs(factory, 1, fault, batches)


@pytest.mark.parametrize("fault", [None, "stale-rank"])
def test_stale_rank_fault_renumbers_psd_pairs(fault) -> None:
    """``test_psd_opens_a_source_and_a_pair_in_one_lane``'s trace: new
    and known sources alternate, so two tree nodes allocate on the pair
    chain's one shard, each ranking its lanes from 0.  Left on kernels,
    both nodes' k-th lanes claim the same cell, so pairs map to other
    cells than the reference's.  Results and counters agree (PSD never
    shows a cell); the pair map does not."""
    from repro.nf.nfs.psd import PortScanDetector
    from tests.sim.test_compiled_establish import _lan, _psd_alternating

    runs, par_ref, par_comp = _leg_runs(
        PortScanDetector, 1, fault,
        [[_lan(i, 1e-4 * i) for i in range(4)],
         _psd_alternating(range(10, 14), range(4))],
    )
    assert all(ref == comp for ref, comp in runs)
    diff = par_ref.cores[0].ctx.state_diff(par_comp.cores[0].ctx)
    assert diff == (None if fault is None else "psd_touched")


@pytest.mark.parametrize("fault", [None, "pop-order"])
def test_pop_order_fault_expires_the_wrong_flow(fault) -> None:
    """Two flows open on kernels in one chunk, 0.5 s apart.  Popped in
    reverse lane order, each one's cell carries the other's timestamp,
    so the sweep at 1.3 s (1 s expiry) frees the later flow instead of
    the earlier one: a reply to the earlier flow is forwarded instead of
    dropped, and one to the later flow dropped."""
    from repro.nf.nfs.firewall import Firewall
    from repro.nf.packet import Packet
    from tests.sim.test_compiled_establish import SERVER, _lan

    def reply(i, t):
        return (1, Packet(src_ip=SERVER, dst_ip=0x0A000000 + i, src_port=53,
                          dst_port=4000 + i, timestamp=t))

    runs, _, _ = _leg_runs(
        lambda: Firewall(expiration_time=1.0), 1, fault,
        [[_lan(99, 0.0), _lan(0, 0.1), _lan(1, 0.6)],
         [reply(0, 1.3), reply(1, 1.31)]],
    )
    (ref, _), (comp, _) = runs[-1]
    assert [r.kind.name for _, r in ref] == ["DROP", "FORWARD"]
    assert (comp == ref) is (fault is None)


@pytest.mark.parametrize("fault", [None, "late-apply"])
def test_late_apply_fault_opens_one_flow_twice(fault) -> None:
    """Two packets of one new flow share a chunk: the first opens it on
    kernels, and the second runs interpreted, after the kernel writes,
    and finds it.  Run before them, the second opens the flow again."""
    from repro.nf.nfs.firewall import Firewall
    from tests.sim.test_compiled_establish import _lan

    trace = [_lan(99, 0.0), _lan(1, 1e-3), _lan(1, 2e-3)]
    runs, _, _ = _leg_runs(Firewall, 1, fault, [trace])
    (ref, ref_stats), (comp, comp_stats) = runs[-1]
    assert not ref[2][1].new_flow
    assert comp[2][1].new_flow is (fault is not None)
    assert (comp_stats == ref_stats) is (fault is None)


def test_campaign_totals_its_oracles_kernel_lanes(monkeypatch) -> None:
    """The fuzz JSON's kernel and fallback lanes are the sums over the
    campaign's oracle reports, so a clean campaign that ran no kernel
    lane reads differently from one that did."""
    from repro.fuzz import runner

    reports = []

    def spy(*args, **kwargs):
        reports.append(run_oracle(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(runner, "run_oracle", spy)
    out = runner.FuzzSession(
        seed=0, runs=2, replay=False, save=False, shrink=False
    ).run().to_dict()
    assert out["clean"] and len(reports) == 2
    assert out["kernel_packets"] == sum(r.kernel_packets for r in reports)
    assert out["fallback_packets"] == sum(r.fallback_packets for r in reports)
    assert out["kernel_packets"] > 0
    for report in reports:
        assert report.to_dict()["kernel_packets"] == report.kernel_packets


def test_ci_fuzz_smoke_runs_every_dispatcher_fault() -> None:
    """CI's dispatcher-fault loop names every fault in
    ``DISPATCHER_FAULTS`` but ``stale-rank``, which the campaigns miss
    (its hand-built case above and ``tests/sim/test_smallscope.py``
    catch it), so a new fault cannot skip the gate."""
    import re
    from pathlib import Path

    from repro.fuzz.oracle import DISPATCHER_FAULTS

    ci = Path(__file__).resolve().parents[2] / ".github/workflows/ci.yml"
    loops = re.findall(r"for fault in ([^;\n]+); do", ci.read_text())
    assert len(loops) == 1
    assert loops[0].split() == [
        f for f in DISPATCHER_FAULTS if f != "stale-rank"
    ]
