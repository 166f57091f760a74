"""Compiled dataplane properties: kernels == interpreter, per path.

The packet-at-a-time interpreter is the oracle for the compiled batch
kernels (:mod:`repro.sim.compiled`): every compiled run must be
bit-identical to the reference — results, core ids, per-core lifetime
counters — across the corpus NFs, both execution strategies,
adversarial workloads (collide / boundary / exhaust), warm and cold
state, and steering-table churn.  ``fastpath=False``
(the path the race sanitizer replays under) must bypass the kernels
entirely, exactly as it bypasses batched steering.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.core.codegen import Strategy
from repro.core.pipeline import Maestro
from repro.fuzz.workloads import WorkloadSpec, materialize_workload
from repro.nf.api import ActionKind
from repro.nf.nfs import ALL_NFS
from repro.nf.nfs.firewall import Firewall
from repro.obs.collect import MemoryCollector
from repro.sim.functional import run_functional

CORPUS = sorted(ALL_NFS)


@pytest.fixture()
def make_pair(analyses):
    """Two independently generated ParallelNFs off one shared analysis,
    so both sides steer with identical RSS keys."""

    def build(name, n_cores=4, strategy=None):
        def one():
            return analyses.maestro.parallelize(
                ALL_NFS[name](),
                n_cores=n_cores,
                result=analyses[name],
                strategy=strategy,
            )

        return one(), one()

    return build


def assert_runs_identical(run_ref, run_comp, par_ref, par_comp):
    assert list(run_ref.results) == list(run_comp.results)
    assert np.array_equal(run_ref.core_ids, run_comp.core_ids)
    assert np.array_equal(run_ref.action_codes, run_comp.action_codes)
    assert run_ref.action_counts() == run_comp.action_counts()
    for ref_core, comp_core in zip(par_ref.cores, par_comp.cores):
        assert ref_core.packets == comp_core.packets
        assert ref_core.reads == comp_core.reads
        assert ref_core.writes == comp_core.writes
        assert ref_core.new_flows == comp_core.new_flows


class TestPerPathIdentity:
    """Bit-identity holds for every compiled path individually, not just
    in aggregate: group packets by the kernel path that executed them and
    compare each group against the oracle."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_nf_per_path(self, make_pair, generator, name):
        trace, _ = generator.uniform_trace(
            1200, 90, in_port=0, reply_port=1, reply_fraction=0.35
        )
        par_ref, par_comp = make_pair(name)
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)

        pids = run_comp.compiled_path_ids
        assert pids.shape == (len(trace),)
        assert int((pids >= 0).sum()) == run_comp.compiled["kernel_packets"]
        ref_results = list(run_ref.results)
        comp_results = list(run_comp.results)
        for pid in np.unique(pids):
            idx = np.flatnonzero(pids == pid)
            assert [comp_results[i] for i in idx] == [
                ref_results[i] for i in idx
            ], f"{name}: divergence within path {pid}"

    def test_locks_strategy_per_path(self, make_pair, generator):
        trace, _ = generator.uniform_trace(
            800, 70, in_port=0, reply_port=1, reply_fraction=0.3
        )
        par_ref, par_comp = make_pair("fw", strategy=Strategy.LOCKS)
        assert par_comp.strategy is Strategy.LOCKS
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        pids = run_comp.compiled_path_ids
        assert int((pids >= 0).sum()) == run_comp.compiled["kernel_packets"]

    @pytest.mark.parametrize("name", CORPUS)
    def test_no_corpus_nf_is_all_fallback(self, make_pair, generator, name):
        """Every corpus NF must get at least one packet through a kernel;
        100% interpreter fallback means the compiler regressed."""
        trace, _ = generator.uniform_trace(
            600, 40, in_port=0, reply_port=1, reply_fraction=0.3
        )
        _, par_comp = make_pair(name)
        run = run_functional(par_comp, trace)
        assert run.compiled["coverage"] > 0.0, (
            f"{name}: compiled dataplane fell back for every packet"
        )


class TestAdversarialWorkloads:
    def test_collide_workload(self, make_pair):
        par_ref, par_comp = make_pair("fw")
        spec = WorkloadSpec("collide", 17, n_packets=900, n_flows=64)
        trace = materialize_workload(spec, rss=par_comp.rss)
        # Cold pass: every flow's first packet allocates, so the hazard
        # fixpoint demotes the whole (single-chunk) trace — identity must
        # hold even at 100% fallback.
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        # Warm pass: all flows exist, the rejuvenate path kernels, and
        # every colliding lane lands on one core in large groups.
        run_ref2 = run_functional(par_ref, trace, fastpath=False)
        run_comp2 = run_functional(par_comp, trace)
        assert_runs_identical(run_ref2, run_comp2, par_ref, par_comp)
        assert run_comp2.compiled["kernel_packets"] > 0

    def test_boundary_workload(self, make_pair):
        par_ref, par_comp = make_pair("policer")
        spec = WorkloadSpec("boundary", 23, n_packets=700, n_flows=48)
        trace = materialize_workload(spec, guard_values=(0, 1, 65535))
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)

    def test_exhaust_workload_tiny_capacity(self):
        """Capacity exhaustion: allocations on a chain with a free index
        run interpreted and allocation failures on a full chain run on
        kernels, so the run mixes kernels and fallbacks heavily — the
        seam between the two is where scatter bugs hide."""

        def build():
            return Maestro(seed=7).parallelize(
                Firewall(capacity=32), n_cores=4
            )

        par_ref, par_comp = build(), build()
        spec = WorkloadSpec("exhaust", 29, n_packets=800, n_flows=32)
        trace = materialize_workload(spec, min_capacity=32)
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        assert run_comp.compiled["fallback_packets"] > 0


class TestCacheTemperature:
    def test_warm_cache_runs_identical(self, make_pair, generator):
        """Three rounds over one trace: every round must match a fresh
        oracle round on the same state evolution."""
        trace, _ = generator.uniform_trace(
            700, 60, in_port=0, reply_port=1, reply_fraction=0.3
        )
        par_ref, par_comp = make_pair("fw")
        for round_no in range(3):
            run_ref = run_functional(par_ref, trace, fastpath=False)
            run_comp = run_functional(par_comp, trace)
            assert_runs_identical(run_ref, run_comp, par_ref, par_comp)

    def test_cold_vs_warm_same_results(self, make_pair, generator):
        """Same state, one dispatcher built cold and one a compiled
        prefix warmed: identical results."""
        trace, _ = generator.uniform_trace(500, 40, in_port=0)
        prefix, rest = trace[:250], trace[250:]
        par_cold, par_warm = make_pair("nat")
        run_functional(par_cold, prefix, fastpath=False)
        run_functional(par_warm, prefix)
        run_cold = run_functional(par_cold, rest)
        run_warm = run_functional(par_warm, rest)
        assert_runs_identical(run_cold, run_warm, par_cold, par_warm)


class TestSteeringGenerationInvalidation:
    """A steering_generation bump moves flows between shards; the next
    run reads the new shards and stays bit-identical."""

    def test_rebalance_flushes_kernel_memo_and_stays_identical(
        self, make_pair
    ):
        spec = WorkloadSpec("churn", 31, n_packets=1200, n_flows=80)
        trace = materialize_workload(spec)
        par_ref, par_comp = make_pair("fw")

        run_functional(par_ref, trace, fastpath=False)
        run_functional(par_comp, trace)
        assert par_comp._compiled_dispatcher is not None

        # Re-key mid-run: rebalance both sides' tables from the same
        # sample (balance_tables is deterministic given the sample), so
        # the oracle sees the same steering the compiled side does.
        par_ref.rss.balance_tables(trace)
        par_comp.rss.balance_tables(trace)
        assert par_ref.rss.steering_generation == (
            par_comp.rss.steering_generation
        )

        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)


class TestSanitizeBypass:
    def test_sanitize_bypasses_kernels(self, make_pair, generator):
        """fastpath=False must not build, consult, or warm the compiled
        dispatcher — the checkers need the raw packet-at-a-time path."""
        trace, _ = generator.uniform_trace(400, 30, in_port=0)
        par_ref, par_san = make_pair("fw")
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_san = run_functional(par_san, trace, fastpath=False, kernels=True)
        assert_runs_identical(run_ref, run_san, par_ref, par_san)
        # No kernel accounting on a reference run, and no dispatcher was
        # ever instantiated for it.
        assert not hasattr(run_san, "compiled")
        assert getattr(par_san, "_compiled_dispatcher", None) is None

    def test_sanitize_after_warm_kernels_leaves_counters_alone(
        self, make_pair, generator
    ):
        trace, _ = generator.uniform_trace(300, 25, in_port=0)
        _, par = make_pair("fw")
        run_functional(par, trace)  # warm: dispatcher now exists
        disp = par._compiled_dispatcher
        kernel_before = disp.kernel_packets
        fallback_before = disp.fallback_packets
        run_san = run_functional(par, trace, fastpath=False)
        assert not hasattr(run_san, "compiled")
        assert disp.kernel_packets == kernel_before
        assert disp.fallback_packets == fallback_before

    def test_kernels_false_runs_no_kernels(self, make_pair, generator):
        """kernels=False is the batched executor with no programs: every
        lane runs on the interpreter and nothing is compiled or cached."""
        trace, _ = generator.uniform_trace(300, 25, in_port=0)
        par_ref, par_fast = make_pair("fw")
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_fast = run_functional(par_fast, trace, kernels=False)
        assert_runs_identical(run_ref, run_fast, par_ref, par_fast)
        assert run_fast.compiled["kernel_packets"] == 0
        assert run_fast.compiled["fallback_packets"] == len(trace)
        assert run_fast.compiled["supported_paths"] == 0
        assert getattr(par_fast, "_compiled_dispatcher", None) is None


class TestRefusedNF:
    def test_uncompilable_nf_runs_on_empty_dispatcher(self, generator):
        """dns_guard's expiry cannot be hoisted to chunk boundaries, so
        compile_parallel builds no programs; the default kernels=True run
        must still match the reference lane for lane."""
        from repro.analysis.__main__ import _example_nfs

        cls = _example_nfs()["dns_guard"]
        maestro = Maestro(seed=0)
        result = maestro.analyze(cls())
        trace, _ = generator.uniform_trace(
            1200, 8, in_port=0, reply_port=1, reply_fraction=0.6
        )
        # Replies become DNS responses, so the stateful budget path runs.
        trace = [
            (port, replace(pkt, src_port=53) if port == 1 else pkt)
            for port, pkt in trace
        ]
        par_ref, par_dp = (
            maestro.parallelize(cls(), n_cores=4, result=result)
            for _ in range(2)
        )
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_dp = run_functional(par_dp, trace)
        assert_runs_identical(run_ref, run_dp, par_ref, par_dp)
        assert ActionKind.DROP in run_dp.action_counts()
        assert run_dp.compiled["supported_paths"] == 0
        assert run_dp.compiled["kernel_packets"] == 0
        assert par_dp._compiled_dispatcher.supported_paths == 0


class TestObservability:
    def test_compiled_counters_exported(self, make_pair, generator):
        """A compiled run exports compiled.paths / hits / fallbacks to
        any attached collector; hits + fallbacks account for every
        packet in the trace."""
        trace, _ = generator.uniform_trace(400, 30, in_port=0)
        _, par = make_pair("fw")
        mem = MemoryCollector()
        with obs.attached(mem):
            run = run_functional(par, trace)
        assert hasattr(run, "compiled")
        assert mem.counter_total("compiled.paths") == run.compiled[
            "supported_paths"
        ]
        assert mem.counter_total("compiled.hits") == run.compiled[
            "kernel_packets"
        ]
        assert (
            mem.counter_total("compiled.hits")
            + mem.counter_total("compiled.fallbacks")
            == len(trace)
        )
