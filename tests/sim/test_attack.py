"""§5: attacking state sharding, and the key-randomization defense."""

import numpy as np
import pytest

from repro.core import Maestro
from repro.nf.nfs import Firewall
from repro.sim.attack import AttackSet, evaluate_attack, find_colliding_flows
from repro.traffic import TrafficGenerator


@pytest.fixture(scope="module")
def deployment():
    maestro = Maestro(seed=500)
    result = maestro.analyze(Firewall())
    parallel = maestro.parallelize(Firewall(), n_cores=8, result=result)
    return maestro, result, parallel


class TestAttack:
    def test_attacker_finds_colliding_flows(self, deployment):
        _, _, parallel = deployment
        attack = find_colliding_flows(
            parallel.rss.ports[0], 20, rng=np.random.default_rng(1)
        )
        assert len(attack) == 20
        # Collisions are ~1/512: the search needs thousands, not millions.
        assert attack.probes < 100_000

    def test_attack_concentrates_on_one_core(self, deployment):
        _, _, parallel = deployment
        attack = find_colliding_flows(
            parallel.rss.ports[0], 20, rng=np.random.default_rng(2)
        )
        outcome = evaluate_attack(parallel, attack)
        assert outcome.concentrated
        assert outcome.max_core_share == 1.0
        assert outcome.entries_hit == 1

    def test_rebalancing_cannot_split_the_attack(self, deployment):
        """'Colliding flows end up on the same entry within the RSS
        indirection table and thus cannot be split apart.'"""
        _, _, parallel = deployment
        attack = find_colliding_flows(
            parallel.rss.ports[0], 20, rng=np.random.default_rng(3)
        )
        sample = [(0, flow.packet()) for flow in attack.flows]
        parallel.rss.balance_tables(sample * 5)
        outcome = evaluate_attack(parallel, attack)
        assert outcome.cores_hit == 1  # moved, perhaps, but still together

    def test_shard_exhaustion(self, deployment):
        """The attack's payoff: the victim core's shard fills with far
        fewer flows than the sequential table would need."""
        maestro, result, _ = deployment
        small = Firewall(capacity=64)
        small_result = maestro.analyze(small)
        parallel = maestro.parallelize(small, n_cores=8, result=small_result)
        attack = find_colliding_flows(
            parallel.rss.ports[0], 16, rng=np.random.default_rng(4)
        )
        for flow in attack.flows:
            parallel.process(0, flow.packet())
        victim = parallel.rss.core_for(0, attack.flows[0].packet())
        store = parallel.cores[victim].ctx.store
        # 8 entries per shard, 16 colliding flows: the shard is full.
        assert store["fw_chain"].allocated_count() == store["fw_chain"].capacity


    @pytest.mark.parametrize("port", [0, 1])
    def test_outcome_matches_scalar_recount(self, deployment, port):
        """The batched outcome equals a per-flow scalar hash and lookup,
        for a colliding set and for random flows spread over the table."""
        _, _, parallel = deployment
        config = parallel.rss.ports[port]
        mask = config.table.size - 1
        colliding = find_colliding_flows(
            config, 12, rng=np.random.default_rng(7)
        )
        spread = AttackSet(
            port=port,
            target_entry=0,
            flows=TrafficGenerator(seed=8).make_flows(300),
            probes=300,
        )
        for attack in (colliding, spread):
            hashes = [config.hash(flow.packet()) for flow in attack.flows]
            counts = np.bincount(
                [config.table.lookup(h) for h in hashes],
                minlength=parallel.n_cores,
            )
            outcome = evaluate_attack(parallel, attack)
            assert outcome.n_flows == len(attack.flows)
            assert outcome.entries_hit == len({h & mask for h in hashes})
            assert outcome.cores_hit == int((counts > 0).sum())
            assert outcome.max_core_share == counts.max() / counts.sum()


class TestDefense:
    def test_fresh_key_disperses_attack(self, deployment):
        """Key randomization: the same attack set, replayed against a
        deployment whose keys were re-drawn (same constraints), spreads
        over many cores — the attacker must re-do the search per victim."""
        maestro, _, parallel = deployment
        attack = find_colliding_flows(
            parallel.rss.ports[0], 24, rng=np.random.default_rng(5)
        )
        assert evaluate_attack(parallel, attack).concentrated

        fresh_maestro = Maestro(seed=501)  # different key randomness
        fresh_result = fresh_maestro.analyze(Firewall())
        fresh = fresh_maestro.parallelize(
            Firewall(), n_cores=8, result=fresh_result
        )
        outcome = evaluate_attack(fresh, attack)
        assert not outcome.concentrated
        assert outcome.cores_hit >= 4
        assert outcome.max_core_share < 0.6

    def test_fresh_key_preserves_flow_symmetry(self, deployment):
        """The defense cannot break correctness: re-drawn keys still
        satisfy the sharding constraints (replies colocate)."""
        fresh_maestro = Maestro(seed=502)
        result = fresh_maestro.analyze(Firewall())
        parallel = fresh_maestro.parallelize(Firewall(), n_cores=8, result=result)
        rng = np.random.default_rng(6)
        from repro.nf.flow import FiveTuple

        for _ in range(100):
            flow = FiveTuple(
                int(rng.integers(1, 2**32)), int(rng.integers(1, 2**32)),
                int(rng.integers(1, 2**16)), int(rng.integers(1, 2**16)),
            )
            assert parallel.rss.core_for(0, flow.packet()) == parallel.rss.core_for(
                1, flow.inverted().packet()
            )
