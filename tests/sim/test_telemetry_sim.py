"""Telemetry-enabled simulation: conservation, bit-identity, attribution.

The telemetry plane's central contract: attaching a
:class:`~repro.obs.TelemetrySink` changes *nothing* about a run's results
(both paths stay bit-identical to their unobserved selves) while the
windowed series it collects telescope exactly to the run's aggregate
counters — every packet, read, write, and new flow lands in exactly one
window (the conservation property).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import obs
from repro.core.codegen import Strategy
from repro.nf.nfs import ALL_NFS
from repro.sim.functional import run_functional

WINDOW = 256


@pytest.fixture()
def make_fw(analyses):
    def build(n_cores=8):
        return analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=n_cores, result=analyses["fw"]
        )

    return build


@pytest.fixture()
def make_dbridge(analyses):
    def build(n_cores=8):
        return analyses.maestro.parallelize(
            ALL_NFS["dbridge"](), n_cores=n_cores, result=analyses["dbridge"]
        )

    return build


def snapshots(parallel):
    """Each context's lifetime ``stat_snapshot`` under the plan's locks."""
    locked = parallel.lock_plan.locked
    return [core.ctx.stat_snapshot(locked) for core in parallel.cores]


def assert_conservation(sink, run, before):
    """Window sums must equal the run's per-core aggregates.

    ``before`` is :func:`snapshots` taken just before the run.  Packets,
    reads, writes and new flows are also counted from the packet results,
    independently of the context counters the windows are built from.
    """
    parallel = run.parallel
    counted = np.zeros((parallel.n_cores, 4), dtype=np.int64)
    for core_id, result in run.results:
        counted[core_id] += (1, result.reads, result.writes, result.new_flow)
    after = snapshots(parallel)
    for core_id in range(parallel.n_cores):
        totals = [sink.core_totals(m)[core_id] for m in obs.METRICS]
        deltas = [a - b for a, b in zip(after[core_id], before[core_id])]
        assert totals == [int(run.core_counts()[core_id]), *deltas]
        assert totals[:4] == counted[core_id].tolist()


#: run_functional modes: batched with kernels, reference, batched without.
MODES = [
    pytest.param({"fastpath": True}, id="True"),
    pytest.param({"fastpath": False}, id="False"),
    pytest.param({"kernels": False}, id="kernels_off"),
]


class TestConservation:
    @pytest.mark.parametrize("mode", MODES)
    def test_shared_nothing_fw(self, make_fw, generator, mode):
        trace, _ = generator.uniform_trace(
            1500, 120, in_port=0, reply_port=1, reply_fraction=0.4
        )
        parallel = make_fw()
        assert parallel.strategy is Strategy.SHARED_NOTHING
        sink = obs.TelemetrySink(window_packets=WINDOW)
        before = snapshots(parallel)
        with obs.telemetry(sink):
            run = run_functional(parallel, trace, **mode)
        assert sink.total_packets == len(trace)
        assert sink.windows_recorded == math.ceil(len(trace) / WINDOW)
        assert_conservation(sink, run, before)
        # shared-nothing guards nothing, so no lock waits anywhere
        assert sink.total("lock_waits") == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_locks_strategy_dbridge(self, make_dbridge, generator, mode):
        trace, _ = generator.uniform_trace(900, 80, in_port=0)
        parallel = make_dbridge()
        assert parallel.strategy is Strategy.LOCKS
        sink = obs.TelemetrySink(window_packets=WINDOW)
        before = snapshots(parallel)
        with obs.telemetry(sink):
            run = run_functional(parallel, trace, **mode)
        assert_conservation(sink, run, before)
        # the learning bridge writes through lock-guarded tables
        assert sink.total("lock_waits") > 0

    def test_lock_waits_identical_across_paths(self, make_dbridge, generator):
        trace, _ = generator.uniform_trace(900, 80, in_port=0)
        waits = []
        for fastpath in (True, False):
            parallel = make_dbridge()
            sink = obs.TelemetrySink(window_packets=WINDOW)
            with obs.telemetry(sink):
                run_functional(parallel, trace, fastpath=fastpath)
            waits.append(sink.core_totals("lock_waits"))
        assert waits[0] == waits[1]

    def test_eviction_does_not_break_conservation(self, make_fw, generator):
        """Ring overflow loses windows, never counts."""
        trace, _ = generator.uniform_trace(1500, 120, in_port=0)
        parallel = make_fw()
        sink = obs.TelemetrySink(window_packets=64, max_windows=4)
        before = snapshots(parallel)
        with obs.telemetry(sink):
            run = run_functional(parallel, trace)
        assert len(sink) == 4
        assert sink.windows_recorded == math.ceil(len(trace) / 64)
        assert_conservation(sink, run, before)


class TestBitIdentity:
    """A sink attached to either path must not change any result."""

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_fw_results_unchanged(self, make_fw, generator, fastpath):
        trace, _ = generator.uniform_trace(
            1200, 100, in_port=0, reply_port=1, reply_fraction=0.4
        )
        par_plain, par_obs = make_fw(), make_fw()
        run_plain = run_functional(par_plain, trace, fastpath=fastpath)
        sink = obs.TelemetrySink(window_packets=WINDOW)
        with obs.telemetry(sink):
            run_obs = run_functional(par_obs, trace, fastpath=fastpath)
        assert list(run_plain.results) == list(run_obs.results)
        assert np.array_equal(run_plain.core_ids, run_obs.core_ids)
        assert run_plain.action_counts() == run_obs.action_counts()

    def test_locks_order_preserved_under_telemetry(
        self, make_dbridge, generator
    ):
        """Chunked execution must not reorder the strict-order path."""
        trace, _ = generator.uniform_trace(700, 60, in_port=0)
        par_plain, par_obs = make_dbridge(), make_dbridge()
        run_plain = run_functional(par_plain, trace)
        with obs.telemetry(obs.TelemetrySink(window_packets=128)):
            run_obs = run_functional(par_obs, trace)
        assert list(run_plain.results) == list(run_obs.results)


class TestSteeringAttribution:
    def test_reference_path_has_no_steering_metrics(self, make_fw, generator):
        """Steering hashes every packet and keeps no cache, so no path
        has steering hits or misses to report: every window row holds
        exactly the :data:`~repro.obs.telemetry.METRICS` columns, and
        they stay conserved."""
        trace, _ = generator.uniform_trace(600, 50, in_port=0)
        assert not [m for m in obs.METRICS if m.startswith("steer")]
        for mode in ({"fastpath": False}, {"kernels": False}, {}):
            parallel = make_fw()
            sink = obs.TelemetrySink(window_packets=WINDOW)
            before = snapshots(parallel)
            with obs.telemetry(sink):
                run = run_functional(parallel, trace, **mode)
            assert all(
                len(row) == len(obs.METRICS)
                for window in sink.windows
                for row in window.cores
            )
            assert_conservation(sink, run, before)
