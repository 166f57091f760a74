"""Fast-path equivalence: batched steering must match the oracle exactly.

``run_functional``'s fast path (column extraction, vectorized hashing of
every packet, grouped execution) is only admissible because it is
bit-identical to the seed packet-at-a-time reference path.  These tests
pin that contract for both execution strategies, across flow churn,
re-runs, and table rebalancing, plus the array-backed ``FunctionalRun``
storage itself.
"""

import numpy as np
import pytest

from repro.core.codegen import Strategy
from repro.nf.nfs import ALL_NFS
from repro.nf.runtime import PacketResult
from repro.sim.functional import run_functional
from repro.traffic import TraceColumns


@pytest.fixture()
def make_fw(analyses):
    def build(n_cores=8):
        return analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=n_cores, result=analyses["fw"]
        )

    return build


@pytest.fixture()
def make_lb(analyses):
    def build(n_cores=8):
        return analyses.maestro.parallelize(
            ALL_NFS["lb"](), n_cores=n_cores, result=analyses["lb"]
        )

    return build


def assert_runs_identical(run_ref, run_fast, par_ref, par_fast):
    assert list(run_ref.results) == list(run_fast.results)
    assert run_ref.results == run_fast.results
    assert np.array_equal(run_ref.core_ids, run_fast.core_ids)
    assert np.array_equal(run_ref.action_codes, run_fast.action_codes)
    assert run_ref.action_counts() == run_fast.action_counts()
    assert run_ref.write_fraction() == run_fast.write_fraction()
    assert np.array_equal(run_ref.core_counts(), run_fast.core_counts())
    for ref_core, fast_core in zip(par_ref.cores, par_fast.cores):
        assert ref_core.ctx.stat_snapshot() == fast_core.ctx.stat_snapshot()
        assert ref_core.ctx.state_diff(fast_core.ctx) is None


class TestEquivalence:
    def test_shared_nothing_matches_reference(self, make_fw, generator):
        trace, _ = generator.uniform_trace(
            1500, 120, in_port=0, reply_port=1, reply_fraction=0.4
        )
        par_ref, par_fast = make_fw(), make_fw()
        assert par_fast.strategy is Strategy.SHARED_NOTHING
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_fast = run_functional(par_fast, trace)
        assert_runs_identical(run_ref, run_fast, par_ref, par_fast)

    def test_locks_strategy_matches_reference(self, make_lb, generator):
        """The LB's shared backend map forces the strict-order path."""
        trace, _ = generator.uniform_trace(800, 60, in_port=0)
        par_ref, par_fast = make_lb(), make_lb()
        assert par_fast.strategy is Strategy.LOCKS
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_fast = run_functional(par_fast, trace)
        assert_runs_identical(run_ref, run_fast, par_ref, par_fast)

    def test_churn_trace_every_packet_a_new_flow(self, make_fw, generator):
        """All-unique flows: every packet allocates."""
        flows = generator.make_flows(500)
        trace = [(0, flow.packet()) for flow in flows]
        par_ref, par_fast = make_fw(), make_fw()
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_fast = run_functional(par_fast, trace)
        assert_runs_identical(run_ref, run_fast, par_ref, par_fast)
        assert run_ref.write_fraction() > 0.9  # churn: every flow allocates

    def test_empty_trace(self, make_fw):
        run = run_functional(make_fw(), [])
        assert run.n_packets == 0
        assert list(run.results) == []
        assert run.action_counts() == {}
        assert run.write_fraction() == 0.0

    def test_balanced_tables_still_identical(self, make_fw, generator):
        trace, _ = generator.zipf_trace(1200, 300, in_port=0)
        par_ref, par_fast = make_fw(), make_fw()
        run_ref = run_functional(
            par_ref, trace, balance_tables_with=trace, fastpath=False
        )
        run_fast = run_functional(par_fast, trace, balance_tables_with=trace)
        assert_runs_identical(run_ref, run_fast, par_ref, par_fast)


class TestSteering:
    def test_steer_trace_matches_scalar_lookup(self, make_fw, generator):
        """Every packet is hashed: cores and slots equal the per-packet
        scalar hash and table lookup, on both ingress ports."""
        trace, _ = generator.uniform_trace(
            300, 40, in_port=0, reply_port=1, reply_fraction=0.4
        )
        rss = make_fw().rss
        cores, slots = rss.steer_trace(TraceColumns(trace))
        for i, (port, pkt) in enumerate(trace):
            config = rss.port_config(port)
            assert slots[i] == config.hash(pkt) & (config.table.size - 1)
            assert cores[i] == rss.core_for(port, pkt)

    def test_rerun_is_identical(self, make_fw, generator):
        """Running a trace twice on one plan matches the oracle both times."""
        trace, _ = generator.uniform_trace(600, 50, in_port=0)
        par_fast, par_ref = make_fw(), make_fw()
        first = run_functional(par_fast, trace)
        second = run_functional(par_fast, trace)
        assert np.array_equal(first.core_ids, second.core_ids)
        ref1 = run_functional(par_ref, trace, fastpath=False)
        ref2 = run_functional(par_ref, trace, fastpath=False)
        assert list(first.results) == list(ref1.results)
        assert list(second.results) == list(ref2.results)

    def test_rebalance_resteers(self, make_fw, generator):
        """Steering reads the tables afresh: a rebalance between runs
        moves flows exactly as a plan balanced up front would."""
        trace, _ = generator.zipf_trace(800, 200, in_port=0)
        parallel = make_fw()
        run_functional(parallel, trace)
        generation = parallel.rss.steering_generation
        parallel.rss.balance_tables(trace)
        assert parallel.rss.steering_generation > generation
        fresh = run_functional(make_fw(), trace, balance_tables_with=trace)
        rerun = run_functional(parallel, trace)
        assert np.array_equal(rerun.core_ids, fresh.core_ids)


class TestFunctionalRunStorage:
    def test_results_view_list_api(self, make_fw, generator):
        trace, _ = generator.uniform_trace(20, 4, in_port=0)
        parallel = make_fw()
        run = run_functional(parallel, trace)
        view = run.results
        assert len(view) == 20
        first = view[0]
        assert isinstance(first, tuple) and isinstance(first[1], PacketResult)
        assert view[-1] == view[19]
        assert view[5:8] == list(view)[5:8]
        with pytest.raises(IndexError):
            view[20]
        with pytest.raises(IndexError):
            view[-21]
        assert view == list(view)
        assert not (view == list(view)[:-1])

    def test_array_views_read_only(self, make_fw, generator):
        trace, _ = generator.uniform_trace(10, 2, in_port=0)
        run = run_functional(make_fw(), trace)
        with pytest.raises(ValueError):
            run.core_ids[0] = 7
        with pytest.raises(ValueError):
            run.action_codes[0] = 3


class TestSanitizeMode:
    """The reference path the sanitizer replays under (``fastpath=False``)
    must bypass batched steering and the kernels, not change results."""

    def test_sanitize_matches_warm_cache_run(self, make_fw, generator):
        """A second batch over the state and kernels the first one
        warmed matches a sanitized run of the same two batches."""
        trace, _ = generator.uniform_trace(
            900, 90, in_port=0, reply_port=1, reply_fraction=0.3
        )
        first, second = trace[:450], trace[450:]
        par_fast, par_san = make_fw(), make_fw()
        run_functional(par_fast, first)
        run_functional(par_san, first, fastpath=False)
        run_fast = run_functional(par_fast, second)
        run_san = run_functional(par_san, second, fastpath=False)
        # Bypass is real: the sanitized plan never built a dispatcher.
        assert getattr(par_san, "_compiled_dispatcher", None) is None
        assert_runs_identical(run_fast, run_san, par_fast, par_san)

    def test_warm_cache_and_sanitize_agree_on_race_verdicts(self, analyses, generator):
        """Satellite regression: sanitizing after a warm-cache run reaches
        the same verdict as sanitizing a fresh NF — warm kernels change
        performance, never what the checkers see."""
        from repro.analysis.race import sanitize_parallel

        trace, _ = generator.uniform_trace(
            400, 60, in_port=0, reply_port=1, reply_fraction=0.3
        )
        warmed = analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=8, result=analyses["fw"]
        )
        run_functional(warmed, trace)  # warm state and kernels
        warm_report = sanitize_parallel(
            warmed, trace, tree=analyses["fw"].tree
        )
        fresh = analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=8, result=analyses["fw"]
        )
        fresh_report = sanitize_parallel(fresh, trace, tree=analyses["fw"].tree)
        assert warm_report.clean and fresh_report.clean
        assert [d.code for d in warm_report.diagnostics] == [
            d.code for d in fresh_report.diagnostics
        ]
        assert warm_report.n_packets == fresh_report.n_packets
