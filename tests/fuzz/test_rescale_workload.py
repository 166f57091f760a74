"""The ``rescale`` fuzz workload: live migration under generated NFs.

Satellite of the elastic-scaling PR: the fuzz mutator gained a
``rescale`` workload kind (churn traffic + an oracle-applied mid-trace
grow and shrink), the session can force it campaign-wide, and the CLI
fails loudly when a forced-rescale campaign never actually executed a
rescale check — a silently skipped mutator must not pass as green.
"""

from __future__ import annotations

import json

import pytest

from repro.fuzz.__main__ import main
from repro.fuzz.generator import random_spec
from repro.fuzz.oracle import run_oracle
from repro.fuzz.runner import FuzzSession
from repro.fuzz.workloads import (
    WORKLOAD_KINDS,
    WorkloadSpec,
    materialize_workload,
)

#: pinned in tests/fuzz/test_oracle.py (guarded there): seed 2 draws a
#: shared-nothing verdict, seed 1 a LOCKS one.
SN_SEED = 2
LOCKS_SEED = 1

RESCALE = WorkloadSpec("rescale", 13, n_packets=120, n_flows=24)


class TestWorkloadKind:
    def test_rescale_is_a_known_kind(self):
        assert "rescale" in WORKLOAD_KINDS

    def test_materializes_as_churn(self):
        trace = materialize_workload(RESCALE)
        assert len(trace) == 120
        churn = materialize_workload(
            WorkloadSpec("churn", 13, n_packets=120, n_flows=24)
        )
        assert [(p, pkt.to_bytes()) for p, pkt in trace] == [
            (p, pkt.to_bytes()) for p, pkt in churn
        ]


class TestOracle:
    def test_shared_nothing_case_runs_rescale_check(self):
        spec = random_spec(SN_SEED, shape="small")
        report = run_oracle(spec, [RESCALE], n_cores=4, maestro_seed=7)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.rescale_checks > 0
        assert report.to_dict()["rescale_checks"] == report.rescale_checks

    @pytest.mark.parametrize(
        "n_packets,expected",
        [
            # n // 3 and 2 * n // 3 coincide: the shrink replaces the grow.
            (1, [(0, 3)]),
            (2, [(0, 8), (1, 3)]),
        ],
    )
    def test_short_trace_schedule(self, monkeypatch, n_packets, expected):
        """The grow/shrink schedule stays valid for ``run_elastic`` (one
        event per position, inside the trace) on traces too short to
        hold two distinct positions."""
        import repro.fuzz.oracle as oracle_mod

        schedules = []
        check = oracle_mod.check_equivalence

        def spy(*args, rescale_events=None, **kwargs):
            if rescale_events is not None:
                schedules.append(list(rescale_events))
            return check(*args, rescale_events=rescale_events, **kwargs)

        monkeypatch.setattr(oracle_mod, "check_equivalence", spy)
        spec = random_spec(SN_SEED, shape="small")
        trace = materialize_workload(RESCALE)[:n_packets]
        report = run_oracle(
            spec, [RESCALE], n_cores=4, maestro_seed=7,
            traces=[(RESCALE, trace)],
        )
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.rescale_checks == 1
        assert schedules == [expected]

    def test_locks_case_has_no_rescale_check(self):
        spec = random_spec(LOCKS_SEED, shape="small")
        report = run_oracle(spec, [RESCALE], n_cores=4, maestro_seed=7)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.rescale_checks == 0


class TestSession:
    def test_forced_rescale_campaign_counts_checks(self, tmp_path):
        session = FuzzSession(
            seed=5,
            runs=3,
            shape="small",
            workload_kind="rescale",
            corpus_dir=tmp_path,
            save=False,
            replay=False,
            shrink=False,
        )
        report = session.run()
        assert report.workload_kind == "rescale"
        assert report.rescale_checks > 0
        assert report.to_dict()["rescale_checks"] == report.rescale_checks

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            FuzzSession(runs=0, workload_kind="nosuchkind").run()


class TestCLI:
    def test_rescale_sweep_green(self, tmp_path, capsys):
        code = main(
            [
                "--seed", "5", "--runs", "3", "--shape", "small",
                "--workload", "rescale", "--no-replay", "--no-save",
                "--no-shrink", "--corpus", str(tmp_path),
                "--json", str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["workload_kind"] == "rescale"
        assert payload["rescale_checks"] > 0

    def test_zero_rescale_checks_fails_loudly(self, tmp_path, capsys, monkeypatch):
        # Simulate the silently-skipped mutator: a campaign that ran
        # cases but never executed a rescale check.
        import repro.fuzz.runner as runner_mod

        original = runner_mod.FuzzSession._run_case

        def no_rescale(self, report, index):
            original(self, report, index)
            report.rescale_checks = 0

        monkeypatch.setattr(runner_mod.FuzzSession, "_run_case", no_rescale)
        code = main(
            [
                "--seed", "5", "--runs", "2", "--shape", "small",
                "--workload", "rescale", "--no-replay", "--no-save",
                "--no-shrink", "--corpus", str(tmp_path),
            ]
        )
        assert code == 1
        assert "silently skipped" in capsys.readouterr().err
