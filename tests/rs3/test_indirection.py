"""Indirection table: lookup and static RSS++ rebalancing."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.rs3.indirection import IndirectionTable


class TestLookup:
    def test_round_robin_default(self):
        table = IndirectionTable(n_queues=4, size=8)
        assert [table.lookup(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_lookup_uses_low_bits(self):
        table = IndirectionTable(n_queues=4, size=8)
        assert table.lookup(0x12345678) == table.lookup(0x12345678 & 7)

    def test_steer_batch_matches_scalar(self):
        table = IndirectionTable(n_queues=5, size=16)
        hashes = np.arange(100, dtype=np.int64) * 7919
        vector = table.steer_batch(hashes)
        assert all(vector[i] == table.lookup(int(h)) for i, h in enumerate(hashes))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(SimulationError):
            IndirectionTable(n_queues=0)
        with pytest.raises(SimulationError):
            IndirectionTable(n_queues=4, size=100)  # not a power of two


class TestBalance:
    def test_balance_flattens_skewed_loads(self):
        rng = np.random.default_rng(2)
        table = IndirectionTable(n_queues=4, size=64)
        # Zipf-ish entry loads: a few heavy entries.
        loads = rng.pareto(1.2, size=64) + 0.01
        before = table.queue_loads(loads)
        imbalance_before = before.max() / before.mean()
        table.balance(loads)
        after = table.queue_loads(loads)
        imbalance_after = after.max() / after.mean()
        assert imbalance_after <= imbalance_before
        assert imbalance_after < 1.5

    def test_balance_preserves_total_load(self):
        rng = np.random.default_rng(3)
        table = IndirectionTable(n_queues=8, size=128)
        loads = rng.random(128)
        table.balance(loads)
        assert abs(table.queue_loads(loads).sum() - loads.sum()) < 1e-9

    def test_balance_keeps_all_queues_used(self):
        table = IndirectionTable(n_queues=4, size=64)
        table.balance(np.ones(64))
        assert set(table.entries.tolist()) == {0, 1, 2, 3}

    def test_shape_validated(self):
        table = IndirectionTable(n_queues=4, size=64)
        with pytest.raises(SimulationError):
            table.balance(np.ones(32))
        with pytest.raises(SimulationError):
            table.queue_loads(np.ones(32))
