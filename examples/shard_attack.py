#!/usr/bin/env python3
"""Attacking state sharding — and why key randomization helps (§5).

Plays the attacker against a shared-nothing firewall: brute-force flows
whose RSS hashes collide into one indirection-table entry, exhaust the
victim core's (smaller) flow shard, and show legitimate flows on that
core being denied — then replay the same attack set against a deployment
with freshly randomized keys and watch it scatter.

    python examples/shard_attack.py
"""

import numpy as np

from repro import Maestro
from repro.nf.api import ActionKind
from repro.nf.flow import FiveTuple
from repro.nf.nfs import Firewall
from repro.sim.attack import evaluate_attack, find_colliding_flows

N_CORES = 8
CAPACITY = 64  # small table to make exhaustion visible


def main() -> None:
    maestro = Maestro(seed=1000)
    result = maestro.analyze(Firewall(capacity=CAPACITY))
    parallel = maestro.parallelize(
        Firewall(capacity=CAPACITY), n_cores=N_CORES, result=result
    )
    per_core = CAPACITY // N_CORES

    print(f"firewall: {CAPACITY}-flow table sharded over {N_CORES} cores "
          f"({per_core} flows per shard)\n")

    print("=== attacker: searching for hash-colliding flows ===")
    attack = find_colliding_flows(
        parallel.rss.ports[0], per_core * 2, rng=np.random.default_rng(13)
    )
    outcome = evaluate_attack(parallel, attack)
    print(f"found {len(attack)} colliding flows after {attack.probes} probes "
          f"(~1 in {attack.probes // max(1, len(attack))})")
    print(f"all on one core: {outcome.concentrated}\n")

    print("=== attack: exhausting the victim shard ===")
    for flow in attack.flows:
        parallel.process(0, flow.packet())
    victim_core = parallel.rss.core_for(0, attack.flows[0].packet())

    # A legitimate new flow that happens to hash to the victim core...
    rng = np.random.default_rng(99)
    while True:
        legit = FiveTuple(
            int(rng.integers(1, 2**32)), int(rng.integers(1, 2**32)),
            int(rng.integers(1, 2**16)), int(rng.integers(1, 2**16)),
        )
        if parallel.rss.core_for(0, legit.packet()) == victim_core:
            break
    parallel.process(0, legit.packet())           # untracked (shard full)
    _, reply = parallel.process(1, legit.inverted().packet())
    print(f"victim core {victim_core}: shard full; a legitimate flow's "
          f"reply is now *{reply.kind.value}ped* — "
          f"{per_core * 2} attack flows sufficed "
          f"(sequential NF would need {CAPACITY})\n")

    print("=== defense: redeploy with freshly randomized keys ===")
    fresh_maestro = Maestro(seed=2000)
    fresh_result = fresh_maestro.analyze(Firewall(capacity=CAPACITY))
    fresh = fresh_maestro.parallelize(
        Firewall(capacity=CAPACITY), n_cores=N_CORES, result=fresh_result
    )
    dispersed = evaluate_attack(fresh, attack)
    print(f"the same attack set now hits {dispersed.cores_hit} cores "
          f"(max share {dispersed.max_core_share * 100:.0f}%) — the "
          "precomputed collisions are worthless against the new key, while "
          "flow symmetry (and thus correctness) is preserved by the "
          "sharding constraints.")


if __name__ == "__main__":
    main()
