"""Regression: a trace list mutated in place must be steered afresh.

``run_functional`` accepts a plain ``list[(port, Packet)]``.  Callers may
reuse that list: swap its packets for others (``trace[:] = ...``) or
append to it, then run it again.  Steering and the compiled dispatcher
must read the list's *current* packets — nothing may be remembered by
the identity of the list object — so every run matches a
``fastpath=False`` replay of the same packets, with or without kernels
and whether or not the plan had already run other traffic.
"""

import pytest

from repro.nf.nfs import ALL_NFS
from repro.sim.functional import run_functional


@pytest.mark.parametrize("warm", [False, True], ids=["cold-plan", "warm-plan"])
@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "interp"])
def test_mutated_trace_matches_reference(analyses, generator, kernels, warm):
    def plan():
        return analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=8, result=analyses["fw"]
        )

    warmup, _ = generator.uniform_trace(
        400, 60, in_port=0, reply_port=1, reply_fraction=0.3
    )
    first, _ = generator.uniform_trace(
        400, 60, in_port=0, reply_port=1, reply_fraction=0.3
    )
    other, _ = generator.uniform_trace(
        400, 60, in_port=0, reply_port=1, reply_fraction=0.3
    )
    par_fast, par_ref = plan(), plan()
    if warm:
        run_functional(par_fast, warmup, kernels=kernels)
        run_functional(par_ref, warmup, fastpath=False)

    trace = list(first)

    def check():
        run_fast = run_functional(par_fast, trace, kernels=kernels)
        run_ref = run_functional(par_ref, list(trace), fastpath=False)
        assert run_fast.n_packets == len(trace)
        assert list(run_fast.results) == list(run_ref.results)

    check()
    trace[:] = other  # same list object, same length, other packets
    check()
    trace.append(other[0])  # same list object, one packet longer
    check()
