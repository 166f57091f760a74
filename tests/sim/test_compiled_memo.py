"""Expiry-sweep planning for the compiled dataplane.

Each packet where the interpreter's once-per-second ``expire_flows``
gate fires for some chain runs alone in a one-lane chunk, so no expiry
sweep runs mid-chunk.  These tests replay the batched gate
(:func:`repro.nf.runtime.expiry_triggers`) against the interpreter's
scalar rule, for sorted, unsorted and float-edge timestamps.
"""

import numpy as np
import pytest

from repro.core.pipeline import Maestro
from repro.nf.nfs import PortScanDetector
from repro.nf.runtime import expiry_triggers
from repro.sim import compiled
from repro.sim.functional import run_functional
from repro.traffic import TraceColumns
from tests.sim.test_compiled import assert_runs_identical, make_pair  # noqa: F401


def scalar_triggers(ts, last):
    """The interpreter's gate, one timestamp at a time."""
    out = []
    for j, t in enumerate(ts.tolist()):
        if not t - last < 1.0:
            out.append(j)
            last = t
    return out


def float_edge_timestamps(rng, n):
    """Timestamps a few ulps either side of one second after the last
    firing, so float rounding of ``t - last`` decides the gate."""
    out, last = [], 0.1
    for k in rng.integers(-3, 4, size=n).tolist():
        t = last + 1.0
        t = float(t + k * np.spacing(t))
        out.append(t)
        if not t - last < 1.0:
            last = t
    return np.array(out)


class TestExpiryTriggers:
    @pytest.mark.parametrize("case", [
        "sorted", "unsorted", "float_edge", "long_quiet", "nan",
    ])
    @pytest.mark.parametrize("last", [float("-inf"), 0.0, 0.75])
    def test_matches_scalar_replay(self, case, last):
        rng = np.random.default_rng(7)
        if case == "sorted":
            ts = np.sort(rng.random(5000) * 40.0)
        elif case == "unsorted":
            ts = rng.permutation(np.sort(rng.random(5000) * 40.0))
        elif case == "float_edge":
            ts = float_edge_timestamps(rng, 400)
        elif case == "long_quiet":
            ts = np.concatenate([
                np.full(3000, 0.5), [1.75], np.full(1000, 2.0), [3.0],
            ])
        else:
            ts = np.array([0.5, np.nan, 0.7, 2.0, 2.5, 4.0])
        assert expiry_triggers(ts, last) == scalar_triggers(ts, last)

    def test_start_run_splits_unsorted_trace_at_scalar_triggers(
        self, make_pair, generator
    ):
        trace, _ = generator.uniform_trace(
            600, 30, in_port=0, reply_port=1, reply_fraction=0.3,
            rate_pps=60.0,
        )
        order = np.random.default_rng(3).permutation(len(trace))
        trace = [trace[i] for i in order.tolist()]
        par_ref, par_comp = make_pair("fw")
        disp = compiled.compile_parallel(par_comp)
        cols = TraceColumns(trace)
        core_ids, _ = par_comp.rss.steer_trace(cols)
        edges = disp.start_run(cols, core_ids, 0)
        try:
            ts = cols.field("timestamp")
            # The interpreter's gate, one packet at a time: a gate per
            # (context, chain), shared by every port sweeping the chain.
            want = set()
            last = {}
            for i, (port, ci) in enumerate(
                zip(cols.ports.tolist(), core_ids.tolist())
            ):
                t = float(ts[i])
                for chain in disp.ports[port].swept:
                    if not t - last.get((ci, chain), float("-inf")) < 1.0:
                        last[ci, chain] = t
                        want.add(i)
            assert want
            assert disp._sweeps == want
            assert want <= set(edges)
            assert {t + 1 for t in want} <= set(edges)
        finally:
            disp.end_run()
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)


def test_psd_sweeps_both_chains_alone_on_the_interpreter(generator):
    """``psd`` sweeps two chains per packet.  Over a churn trace spanning
    several expiry periods on 8 cores, the reference, the batched
    interpreter and the compiled run agree on every result and every
    core's counters, each sweeping packet sweeps both chains, and none
    runs as a kernel lane."""
    trace, _ = generator.uniform_trace(
        3000, 600, in_port=0, reply_port=1, reply_fraction=0.2,
        rate_pps=400.0,
    )
    analysis = Maestro(seed=5).analyze(PortScanDetector())

    def build():
        return Maestro(seed=5).parallelize(
            PortScanDetector(capacity=4096, expiration_time=2.0),
            n_cores=8, result=analysis,
        )

    par_ref, par_bat, par_comp = build(), build(), build()
    run_ref = run_functional(par_ref, trace, fastpath=False)
    run_bat = run_functional(par_bat, trace, kernels=False)
    run_comp = run_functional(par_comp, trace)
    assert_runs_identical(run_ref, run_bat, par_ref, par_bat)
    assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
    sweeps = [
        i for i, (_, r) in enumerate(run_comp.results)
        if any(op.op == "expire" for op in r.ops)
    ]
    assert len(sweeps) > 8
    for i in sweeps:
        swept = {op.obj for op in run_comp.results[i][1].ops
                 if op.op == "expire"}
        assert swept == {"psd_touched_chain", "psd_srcs_chain"}
    assert run_comp.compiled["kernel_packets"] > 0
    assert (run_comp.compiled_path_ids[sweeps] == -1).all()
