"""Satellite: *dynamic* ``rebalance()`` must invalidate every consumer.

The static ``balance_tables`` path is covered in ``test_compiled.py``;
this suite pins the incremental RSS++ rebalancer (bounded entry moves on
a live table): the next run must steer every packet by the new table,
one call must bump ``steering_generation`` — and compiled results must
stay bit-identical to a sequential oracle that saw the same re-steering.
"""

import numpy as np
import pytest

from repro.nf.nfs import ALL_NFS
from repro.sim.functional import run_functional


@pytest.fixture()
def make_pair(analyses):
    def build(name, n_cores=4):
        def one():
            return analyses.maestro.parallelize(
                ALL_NFS[name](), n_cores=n_cores, result=analyses[name]
            )

        return one(), one()

    return build


def skewed_loads(table):
    """Per-entry loads that pile onto one queue, forcing entry moves."""
    loads = np.ones(table.size, dtype=np.float64)
    hot_queue = int(table.entries[0])
    hot_slots = np.flatnonzero(table.entries == hot_queue)[:8]
    loads[hot_slots] = 1000.0
    return loads


def rebalance_all_ports(parallel):
    """Apply a deterministic dynamic rebalance to every port table."""
    moved = 0
    for config in parallel.rss.ports.values():
        moved += config.table.rebalance(skewed_loads(config.table))
    return moved


class TestGenerationBump:
    def test_dynamic_rebalance_bumps_generation(self, make_pair):
        _, parallel = make_pair("fw")
        gen = parallel.rss.steering_generation
        moved = rebalance_all_ports(parallel)
        assert moved > 0
        assert parallel.rss.steering_generation > gen

    def test_zero_move_rebalance_keeps_generation(self, make_pair):
        _, parallel = make_pair("fw")
        table = parallel.rss.port_config(0).table
        gen = parallel.rss.steering_generation
        # Perfectly uniform loads on a round-robin table: nothing to move.
        moved = table.rebalance(np.ones(table.size, dtype=np.float64))
        assert moved == 0
        assert parallel.rss.steering_generation == gen


class TestSteeringAfterRebalance:
    def test_rebalance_resteers_every_packet(self, make_pair, generator):
        _, parallel = make_pair("fw")
        trace, _ = generator.uniform_trace(400, 48, in_port=0)
        before = run_functional(parallel, trace, kernels=False).core_ids
        assert rebalance_all_ports(parallel) > 0
        after = run_functional(parallel, trace, kernels=False).core_ids
        # Every decision follows the rebalanced table, packet by packet.
        truth = [parallel.rss.core_for(port, pkt) for port, pkt in trace]
        assert after.tolist() == truth
        assert not np.array_equal(before, after)


class TestCompiledMemoInvalidation:
    def test_rebalance_flushes_kernel_memo_and_stays_identical(
        self, make_pair, generator
    ):
        trace, _ = generator.uniform_trace(
            1000, 64, in_port=0, reply_port=1, reply_fraction=0.3
        )
        par_ref, par_comp = make_pair("fw")

        run_functional(par_ref, trace, fastpath=False)
        run_functional(par_comp, trace)
        assert par_comp._compiled_dispatcher is not None

        # Same dynamic rebalance on both sides (deterministic given the
        # same loads), so oracle and compiled steer identically after.
        assert rebalance_all_ports(par_ref) > 0
        assert rebalance_all_ports(par_comp) > 0
        assert (
            par_ref.rss.steering_generation
            == par_comp.rss.steering_generation
        )

        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert list(run_ref.results) == list(run_comp.results)
        assert np.array_equal(run_ref.core_ids, run_comp.core_ids)
