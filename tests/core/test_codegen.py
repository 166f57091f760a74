"""Code Generator: parallel NF construction and C emission (§3.6)."""

import numpy as np
import pytest

from repro.core import Strategy, Verdict, emit_c
from repro.errors import SimulationError
from repro.nf.nfs import ALL_NFS, Firewall
from repro.nf.packet import Packet
from repro.traffic import TrafficGenerator


def make_parallel(analyses, name, n_cores=4, strategy=None):
    result = analyses[name]
    return analyses.maestro.parallelize(
        ALL_NFS[name](), n_cores=n_cores, result=result, strategy=strategy
    )


class TestGeneration:
    def test_shared_nothing_gets_per_core_state(self, analyses):
        parallel = make_parallel(analyses, "fw", n_cores=4)
        assert parallel.strategy is Strategy.SHARED_NOTHING
        stores = {id(core.ctx.store) for core in parallel.cores}
        assert len(stores) == 4
        assert parallel.shared_store is None

    def test_state_capacity_divided(self, analyses):
        parallel = make_parallel(analyses, "fw", n_cores=8)
        nf_capacity = Firewall().capacity
        for core in parallel.cores:
            assert core.ctx.store["fw_flows"].capacity == nf_capacity // 8

    def test_locks_share_one_store(self, analyses):
        parallel = make_parallel(analyses, "lb", n_cores=4)
        assert parallel.strategy is Strategy.LOCKS
        assert parallel.shared_store is not None
        stores = {id(core.ctx.store) for core in parallel.cores}
        assert len(stores) == 1

    def test_strategy_override_to_locks(self, analyses):
        parallel = make_parallel(analyses, "fw", strategy=Strategy.LOCKS)
        assert parallel.strategy is Strategy.LOCKS
        assert parallel.shared_store is not None

    def test_strategy_override_to_tm(self, analyses):
        parallel = make_parallel(analyses, "fw", strategy=Strategy.TM)
        assert parallel.strategy is Strategy.TM

    def test_shared_nothing_cannot_be_forced(self, analyses):
        with pytest.raises(SimulationError):
            make_parallel(analyses, "lb", strategy=Strategy.SHARED_NOTHING)

    def test_invalid_core_count(self, analyses):
        with pytest.raises(SimulationError):
            make_parallel(analyses, "fw", n_cores=0)

    def test_default_strategy_follows_verdict(self, analyses):
        assert make_parallel(analyses, "fw").strategy is Strategy.SHARED_NOTHING
        assert make_parallel(analyses, "dbridge").strategy is Strategy.LOCKS


class TestProcessing:
    def test_process_returns_core_and_result(self, analyses):
        parallel = make_parallel(analyses, "fw")
        core, result = parallel.process(0, Packet(1, 2, 3, 4))
        assert 0 <= core < parallel.n_cores
        assert result.port == 1

    def test_stats_accumulate(self, analyses):
        parallel = make_parallel(analyses, "fw")
        before = [core.ctx.stat_snapshot() for core in parallel.cores]
        steered = [parallel.process(0, Packet(i, 2, 3, 4))[0] for i in range(10)]
        new_flows = [
            core.ctx.stat_snapshot()[2] - snap[2]
            for core, snap in zip(parallel.cores, before)
        ]
        # every packet is a new flow, counted on the core it was steered to
        assert new_flows == np.bincount(steered, minlength=parallel.n_cores).tolist()

    def test_core_shares_sum_to_one(self, analyses):
        parallel = make_parallel(analyses, "fw", n_cores=8)
        trace = [(0, Packet(i, i + 1, 10, 20)) for i in range(200)]
        shares = parallel.core_shares(trace)
        assert abs(shares.sum() - 1.0) < 1e-9
        assert len(shares) == 8

    def test_core_shares_match_scalar_steering(self, analyses):
        parallel = make_parallel(analyses, "fw", n_cores=8)
        trace, _ = TrafficGenerator(seed=3).zipf_trace(
            800, 120, reply_port=1, reply_fraction=0.4
        )
        assert {port for port, _ in trace} == {0, 1}
        counts = np.bincount(
            [parallel.rss.core_for(port, pkt) for port, pkt in trace],
            minlength=8,
        )
        np.testing.assert_array_equal(
            parallel.core_shares(trace), counts / counts.sum()
        )


class TestEmitC:
    def test_keys_embedded(self, analyses):
        parallel = make_parallel(analyses, "fw")
        code = emit_c(parallel)
        assert "RSS_KEY_PORT_0[52]" in code
        assert "RSS_KEY_PORT_1[52]" in code
        key0 = parallel.rss.ports[0].key
        assert f"0x{key0[0]:02x}" in code

    def test_shared_nothing_skeleton(self, analyses):
        code = emit_c(make_parallel(analyses, "fw"))
        assert "shard on" in code
        assert "no" in code and "synchronization" in code

    def test_locks_warning_present(self, analyses):
        code = emit_c(make_parallel(analyses, "dbridge"))
        assert "read/write locks" in code
        assert "Maestro warning" in code

    def test_per_core_state_init(self, analyses):
        code = emit_c(make_parallel(analyses, "fw", n_cores=4))
        assert "map_init(&fw_flows[core_id]" in code
        assert "/* per core */" in code

    def test_tm_skeleton(self, analyses):
        code = emit_c(make_parallel(analyses, "fw", strategy=Strategy.TM))
        assert "_xbegin" in code


class TestLockPlan:
    """The plan's introspection API: position, dedup, coverage edges."""

    def make_plan(self, **overrides):
        from repro.core.codegen import LockPlan

        defaults = dict(
            strategy=Strategy.LOCKS,
            locked=frozenset({"alpha", "beta"}),
            order=("alpha", "beta"),
        )
        defaults.update(overrides)
        return LockPlan(**defaults)

    def test_position_follows_order(self):
        plan = self.make_plan()
        assert plan.position("alpha") == 0
        assert plan.position("beta") == 1

    def test_position_of_unordered_object_raises_clear_error(self):
        plan = self.make_plan()
        with pytest.raises(SimulationError, match="no position"):
            plan.position("gamma")
        with pytest.raises(SimulationError, match="alpha, beta"):
            plan.position("gamma")

    def test_position_error_on_empty_plan_names_the_gap(self):
        plan = self.make_plan(
            strategy=Strategy.SHARED_NOTHING, locked=frozenset(), order=()
        )
        with pytest.raises(SimulationError, match="nothing"):
            plan.position("alpha")

    def test_acquisition_sequence_follows_global_order(self):
        plan = self.make_plan()
        assert plan.acquisition_sequence(["beta", "alpha"]) == ("alpha", "beta")

    def test_acquisition_sequence_deduplicates_corrupt_order(self):
        plan = self.make_plan(order=("alpha", "beta", "alpha"))
        assert plan.acquisition_sequence(["alpha", "beta"]) == ("alpha", "beta")
        assert plan.acquisition_sequence(["alpha", "alpha"]) == ("alpha",)

    def test_acquisition_sequence_ignores_uncovered_objects(self):
        plan = self.make_plan()
        assert plan.acquisition_sequence(["alpha", "gamma"]) == ("alpha",)
        assert plan.acquisition_sequence([]) == ()
        assert plan.acquisition_sequence(["gamma"]) == ()

    def test_covers_edge_cases(self):
        plan = self.make_plan()
        assert plan.covers("alpha") and plan.covers("beta")
        assert not plan.covers("gamma")
        assert not plan.covers("")
        empty = self.make_plan(
            strategy=Strategy.SHARED_NOTHING, locked=frozenset(), order=()
        )
        assert not empty.covers("alpha")

    def test_build_excludes_read_only_tables(self):
        from repro.core.codegen import LockPlan

        plan = LockPlan.build(ALL_NFS["sbridge"](), Strategy.LOCKS)
        assert not plan.covers("sbr_macs")
