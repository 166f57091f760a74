"""Determinism and freshness checks for the benchmark itself.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import pytest

from perfbench import bench
from perfbench.workloads import (
    WORKLOADS,
    FreshnessGuard,
    StaleBatchError,
    digest,
    fresh_copy,
    generate,
)

#: Counts a later change may claim a gain on; they must repeat exactly.
EXACT_COUNTS = (
    "sim.compiled.fallback_frac",
    "rs3.solver.attempts",
    "nf.state.expired_entries",
    "sim.functional.unique_flow_frac",
    "traffic.new_flow_frac",
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_per_seed_and_change_across_seeds(name):
    spec = WORKLOADS[name]
    first = generate(spec, 3, 2)
    assert digest(first) == digest(generate(spec, 3, 2))
    assert digest(first) != digest(generate(spec, 4, 2))


def _traced_counts(seed: int):
    traffic, tracer, results = bench.measure("churn_expiry", seed, 2, traced=True, nfs=("fw", "nat"))
    metrics, gap = bench.per_layer(results, traffic, tracer)
    assert sum(r.failed for r in results) == 0
    assert gap <= bench.STAGE_SUM_TOL
    return {key: metrics[key] for key in EXACT_COUNTS}, digest(traffic)


def test_exact_counts_repeat_per_seed():
    counts, inputs = _traced_counts(5)
    assert _traced_counts(5) == (counts, inputs)
    assert counts["nf.state.expired_entries"] > 0
    assert _traced_counts(6)[1] != inputs


def test_guard_admits_only_fresh_batches():
    traffic = generate(WORKLOADS["fresh_uniform"], 1, 3)
    guard = FreshnessGuard()
    guard.admit(traffic.cold)
    guard.admit(traffic.timed[0])
    with pytest.raises(StaleBatchError, match="replayed"):
        guard.admit(traffic.timed[0])
    with pytest.raises(StaleBatchError, match="reused"):
        guard.admit(list(traffic.timed[0]))
    with pytest.raises(StaleBatchError, match="not after"):
        guard.admit(fresh_copy(traffic.timed[0]))
    guard.admit(traffic.timed[1])


def test_leg_refuses_a_replayed_batch_before_running_it():
    traffic = generate(WORKLOADS["fresh_uniform"], 1, 2)
    leg = bench.Leg(plan=None)
    leg.guard.admit(traffic.cold)
    with pytest.raises(StaleBatchError):
        leg.run(traffic.cold)
