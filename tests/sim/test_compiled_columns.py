"""The compiled dataplane over columnar dchain state.

Kernel lanes read allocation flags with one masked gather
(:meth:`DChain.flags`) and write rejuvenation timestamps with one
scatter per chunk (:meth:`DChain.stamp`).  A NAT reply's chain index is
``dst_port - port_base``, so replies can name cells outside the chain,
and several replies in one chunk can rejuvenate the same cell, also
from the LAN side.  Runs must be bit-identical to ``fastpath=False``,
and so must every chain's flags and timestamps afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import Maestro
from repro.nf.nfs.nat import Nat
from repro.nf.packet import Packet
from repro.sim.functional import run_functional
from tests.sim.test_compiled import assert_runs_identical

SERVER = 0x08080808
NAT_IP = 0xC0A80101  # Nat's default external address
PORT_BASE = 1024
CAPACITY = 16


def _lan(i, t):
    return (0, Packet(src_ip=0x0A000000 + i, dst_ip=SERVER,
                      src_port=4000 + i, dst_port=53, timestamp=t))


def _reply(dst_port, t):
    return (1, Packet(src_ip=SERVER, dst_ip=NAT_IP, src_port=53,
                      dst_port=dst_port, timestamp=t))


def _chain_state(parallel):
    chain = parallel.cores[0].ctx.store["nat_chain"]
    cells = np.arange(chain.capacity)
    return (
        chain.flags(cells).tolist(),
        [chain.last_touched(i) for i in range(chain.capacity)],
    )


def test_out_of_range_flags_and_repeated_stamps_match_reference():
    def build():
        return Maestro(seed=7).parallelize(
            Nat(capacity=CAPACITY), n_cores=1
        )

    par_ref, par_comp = build(), build()
    opened = [_lan(i, 0.01 * i) for i in range(5)]
    for parallel in (par_ref, par_comp):
        run_functional(parallel, opened, fastpath=False)
    cells = {
        i: par_ref.cores[0].ctx.store["nat_flows"].get(
            (0x0A000000 + i, 4000 + i, SERVER, 53)
        )[1]
        for i in range(5)
    }
    assert _chain_state(par_ref) == _chain_state(par_comp)

    # One chunk (inside the first second after the opening sweep):
    # replies below the port base and past the chain's end, replies to
    # free in-range cells, and repeated rejuvenations of the same cells
    # from both ports with timestamps out of trace order, so the last
    # write per cell is not its largest timestamp.
    trace = [
        _reply(PORT_BASE - 3, 0.20),
        _reply(PORT_BASE + cells[1], 0.40),
        _reply(PORT_BASE + CAPACITY, 0.21),
        _lan(1, 0.35),
        _reply(PORT_BASE + cells[1], 0.30),
        _reply(PORT_BASE + cells[2], 0.50),
        _reply(PORT_BASE + CAPACITY + 40, 0.22),
        _reply(PORT_BASE + 12, 0.23),
        _lan(2, 0.45),
        _reply(PORT_BASE + cells[2], 0.25),
        _reply(0, 0.24),
        _reply(PORT_BASE + cells[3], 0.60),
        _lan(3, 0.55),
    ]
    run_ref = run_functional(par_ref, trace, fastpath=False)
    run_comp = run_functional(par_comp, trace)
    assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
    assert run_comp.compiled["kernel_packets"] == len(trace)

    flags, touched = _chain_state(par_comp)
    assert (flags, touched) == _chain_state(par_ref)
    # The last write per cell wins, not the latest timestamp.
    assert touched[cells[1]] == 0.30
    assert touched[cells[2]] == 0.25
    assert touched[cells[3]] == 0.55
    dropped = [
        r.port is None for _, r in run_comp.results
    ]
    assert dropped == [True, False, True, False, False, False, True,
                       True, False, False, True, False, False]
