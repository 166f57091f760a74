"""Elastic execution: mid-trace rescales stay equivalent and sanitized.

The acceptance property of the elastic-scaling work: a seeded churn
trace with at least one grow and one shrink mid-trace is bit-identical
to the sequential reference, and the race sanitizer reports zero MAE103
(ownership) and zero MAE105 (unowned-epoch) findings — while a
deliberately torn handoff *does* raise MAE105.
"""

import pytest

from repro.analysis.race import RaceMonitor, analyze_monitor
from repro.errors import SimulationError
from repro.nf.nfs import ALL_NFS
from repro.scale import RescaleEvent, enable_elastic, run_elastic
from repro.scale.migrate import rescale_parallel
from repro.sim.equivalence import check_equivalence
from repro.sim.functional import run_functional
from repro.traffic.churn import churn_trace
from repro.traffic.generator import TrafficGenerator


def make_elastic(analyses, name="fw", cores=4):
    parallel = analyses.maestro.parallelize(
        ALL_NFS[name](), n_cores=cores, result=analyses[name]
    )
    return enable_elastic(parallel)


def seeded_churn(n_packets=600, n_flows=64, in_port=0, seed=7):
    return churn_trace(
        TrafficGenerator(seed=seed), n_packets, n_flows, 60_000.0,
        in_port=in_port,
    )


GROW_SHRINK = [RescaleEvent(200, 8), RescaleEvent(400, 3)]


class TestEquivalenceAcrossRescale:
    @pytest.mark.parametrize(
        "name,in_port,ignore",
        [
            ("fw", 0, ()),
            ("policer", 1, ()),
            ("psd", 0, ()),
            ("cl", 0, ()),
            ("nat", 0, ("src_port",)),
        ],
    )
    def test_grow_and_shrink_stay_equivalent(
        self, analyses, name, in_port, ignore
    ):
        parallel = make_elastic(analyses, name)
        trace = seeded_churn(in_port=in_port)
        report = check_equivalence(
            ALL_NFS[name],
            parallel,
            trace,
            ignore_mods=ignore,
            sanitize=True,
            tree=analyses[name].tree,
            rescale_events=[(200, 8), (400, 3)],
        )
        assert report.equivalent, report.describe()
        codes = [d.code for d in report.race_diagnostics]
        assert "MAE103" not in codes, report.describe()
        assert "MAE105" not in codes, report.describe()


class TestBatchParity:
    def test_fastpath_and_compiled_match_reference(self, analyses):
        trace = seeded_churn()
        runs = []
        for fastpath, kernels in ((False, False), (True, False), (True, True)):
            parallel = make_elastic(analyses, "fw")
            out = run_elastic(
                parallel, trace, GROW_SHRINK,
                fastpath=fastpath, kernels=kernels,
            )
            runs.append(list(out.results))
        assert runs[0] == runs[1], "fastpath diverged across rescale"
        assert runs[0] == runs[2], "compiled kernels diverged across rescale"

    def test_rescale_stats_reported_per_event(self, analyses):
        parallel = make_elastic(analyses, "fw")
        out = run_elastic(parallel, seeded_churn(), GROW_SHRINK)
        assert [s.action for s in out.rescales] == ["grow", "shrink"]
        assert out.rescales[0].n_cores_after == 8
        assert out.rescales[1].n_cores_after == 3
        assert len(out.results) == 600

    def test_event_bounds_checked(self, analyses):
        parallel = make_elastic(analyses, "fw")
        with pytest.raises(SimulationError, match="outside"):
            run_elastic(parallel, seeded_churn(), [RescaleEvent(601, 8)])
        with pytest.raises(SimulationError, match="two rescale"):
            run_elastic(
                parallel,
                seeded_churn(),
                [RescaleEvent(100, 8), RescaleEvent(100, 3)],
            )


class TestTornHandoff:
    def test_torn_handoff_raises_mae105(self, analyses):
        """A packet served between extract and install must be caught."""
        parallel = make_elastic(analyses, "fw")
        trace = seeded_churn()
        with RaceMonitor(parallel) as monitor:
            for port, pkt in trace[:200]:
                parallel.process(port, pkt)

            served = []
            config = parallel.rss.port_config(0)
            mask = config.table.size - 1

            def torn(slot, src, dst):
                # Serve one packet steered by the migrating bucket,
                # *inside* its unowned epoch.
                if served:
                    return
                for port, pkt in trace[200:]:
                    if config.hash(pkt) & mask == slot:
                        parallel.process(port, pkt)
                        served.append(slot)
                        return

            rescale_parallel(parallel, 8, torn_hook=torn)
            assert served, "no trace packet hit any migrating bucket"
            for port, pkt in trace[200:]:
                parallel.process(port, pkt)
        report = analyze_monitor(monitor, tree=analyses["fw"].tree)
        codes = [d.code for d in report.diagnostics]
        assert "MAE105" in codes, report.describe()

    def test_clean_handoff_has_no_mae105(self, analyses):
        parallel = make_elastic(analyses, "fw")
        trace = seeded_churn()
        with RaceMonitor(parallel) as monitor:
            for port, pkt in trace[:200]:
                parallel.process(port, pkt)
            rescale_parallel(parallel, 8)
            for port, pkt in trace[200:]:
                parallel.process(port, pkt)
        report = analyze_monitor(monitor, tree=analyses["fw"].tree)
        codes = [d.code for d in report.diagnostics]
        assert "MAE105" not in codes, report.describe()
        assert "MAE103" not in codes, report.describe()


class TestSteeringInvalidation:
    def test_rescale_bumps_generation_and_flushes_cache(self, analyses):
        """A rescale bumps the steering generation; the compiled
        dispatcher caches nothing, so its next run simply reads the new
        shards."""
        parallel = make_elastic(analyses, "fw")
        trace = seeded_churn(n_packets=120)
        run_functional(parallel, trace[:100])
        gen = parallel.rss.steering_generation
        rescale_parallel(parallel, 8)
        assert parallel.rss.steering_generation > gen
        run_functional(parallel, trace[100:])
