"""Per-core shares under skew, checked against the scalar RSS hash."""

import numpy as np
import pytest

from repro.eval.skew import flow_core_shares
from repro.rs3.fields import IPV4_ONLY, IPV4_TCP
from repro.rs3.indirection import IndirectionTable
from repro.rs3.toeplitz import hash_packet
from repro.traffic import TrafficGenerator
from repro.traffic.distributions import paper_zipf_weights


def scalar_shares(key, option, flows, weights, n_cores, balanced):
    """The same measurement, one ``hash_packet`` call per flow."""
    loads = np.zeros(512, dtype=np.float64)
    for flow, weight in zip(flows, weights, strict=True):
        loads[hash_packet(key, flow.packet(), option) & 511] += weight
    table = IndirectionTable(n_cores, size=512)
    if balanced:
        table.balance(loads)
    shares = table.queue_loads(loads)
    return shares / shares.sum()


@pytest.mark.parametrize("balanced", [False, True])
@pytest.mark.parametrize("option", [IPV4_TCP, IPV4_ONLY])
def test_flow_core_shares_match_scalar_hashing(option, balanced):
    key = bytes(np.random.default_rng(11).integers(0, 256, 52, dtype=np.uint8))
    flows = TrafficGenerator(seed=4).make_flows(400)
    weights = paper_zipf_weights(len(flows))
    shares = flow_core_shares(key, option, flows, weights, 6, balanced=balanced)
    np.testing.assert_array_equal(
        shares, scalar_shares(key, option, flows, weights, 6, balanced)
    )
