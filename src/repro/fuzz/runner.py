"""Fuzz session driver: corpus replay, case loop, shrink-and-save.

A :class:`FuzzSession` is one deterministic campaign:

1. replay every checked-in reproducer (``corpus_dir``) and check its
   ``expect`` semantics — regressions and silent fixes both fail the
   session before any new fuzzing happens;
2. for each case ``i`` derive a case seed from ``(seed, i)``, generate
   an NF spec and a handful of workloads, and run the differential
   oracle across every applicable strategy;
3. on a new failure, shrink it along both axes and (``save=True``)
   write the minimized reproducer into ``corpus_dir``.

Counters: ``fuzz.cases`` per oracle pass, ``fuzz.failures`` per
failing check, ``fuzz.shrink_steps`` per accepted reduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro import obs
from repro.fuzz.corpus import (
    CorpusEntry,
    ReplayOutcome,
    replay_corpus,
    save_reproducer,
)
from repro.fuzz.generator import build_nf, random_spec
from repro.fuzz.oracle import run_oracle
from repro.fuzz.shrink import shrink_case
from repro.fuzz.workloads import materialize_workload, random_workload

__all__ = ["FuzzReport", "FuzzSession"]


@dataclass
class FuzzReport:
    """Everything one fuzz session did, JSON-ready."""

    seed: int
    shape: str
    runs_requested: int
    fault: str | None = None
    workload_kind: str | None = None
    cases_run: int = 0
    checks: int = 0
    rescale_checks: int = 0
    capacity_divergences: int = 0
    #: lanes the cases' compiled legs ran on kernels and on the
    #: interpreter (a clean campaign with no kernel lane tested none)
    kernel_packets: int = 0
    fallback_packets: int = 0
    replay: list[ReplayOutcome] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    reproducers: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    budget_exhausted: bool = False

    @property
    def replay_ok(self) -> bool:
        return all(outcome.ok for outcome in self.replay)

    @property
    def clean(self) -> bool:
        return self.replay_ok and not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def to_dict(self) -> dict:
        return {
            "pipeline_version": repro.__version__,
            "seed": self.seed,
            "shape": self.shape,
            "runs_requested": self.runs_requested,
            "fault": self.fault,
            "workload_kind": self.workload_kind,
            "cases_run": self.cases_run,
            "checks": self.checks,
            "rescale_checks": self.rescale_checks,
            "capacity_divergences": self.capacity_divergences,
            "kernel_packets": self.kernel_packets,
            "fallback_packets": self.fallback_packets,
            "replay": [outcome.to_dict() for outcome in self.replay],
            "failures": self.failures,
            "reproducers": self.reproducers,
            "elapsed_s": round(self.elapsed_s, 3),
            "budget_exhausted": self.budget_exhausted,
            "clean": self.clean,
        }

    def describe(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} shape={self.shape} "
            f"cases={self.cases_run}/{self.runs_requested} "
            f"checks={self.checks} "
            f"rescale_checks={self.rescale_checks} "
            f"capacity_divergences={self.capacity_divergences} "
            f"elapsed={self.elapsed_s:.1f}s"
            + (" (budget exhausted)" if self.budget_exhausted else "")
        ]
        for outcome in self.replay:
            mark = "ok" if outcome.ok else "FAIL"
            lines.append(
                f"  replay [{mark}] {outcome.entry.name}: {outcome.detail}"
            )
        for failure in self.failures:
            lines.append(
                f"  case s{failure['case_seed']} FAILED "
                f"{failure['failure']['signature']}: "
                f"{failure['failure']['detail'][:140]}"
            )
        for path in self.reproducers:
            lines.append(f"  reproducer written: {path}")
        lines.append("clean" if self.clean else "FAILURES FOUND")
        return "\n".join(lines)


@dataclass
class FuzzSession:
    """One deterministic differential-fuzzing campaign."""

    seed: int = 0
    runs: int = 50
    shape: str = "medium"
    time_budget: float | None = None  #: seconds, None = unbounded
    n_cores: int = 4
    corpus_dir: str | Path | None = "tests/fuzz_corpus"
    save: bool = True  #: write shrunk reproducers into ``corpus_dir``
    fault: str | None = None  #: inject a known bug into every case
    #: force every workload to one kind (e.g. ``"rescale"`` in the
    #: nightly elastic-scaling sweep); None keeps the random mix.
    workload_kind: str | None = None
    workloads_per_case: int = 2
    shrink: bool = True
    max_shrink_probes: int = 150
    replay: bool = True

    def case_seed(self, index: int) -> int:
        return int(
            np.random.default_rng(
                np.random.SeedSequence([0xF0CA, self.seed, index])
            ).integers(2**31)
        )

    def run(self) -> FuzzReport:
        from repro.fuzz.workloads import WORKLOAD_KINDS

        if (
            self.workload_kind is not None
            and self.workload_kind not in WORKLOAD_KINDS
        ):
            raise ValueError(
                f"unknown workload kind {self.workload_kind!r} "
                f"(known: {WORKLOAD_KINDS})"
            )
        start = time.monotonic()
        report = FuzzReport(
            seed=self.seed,
            shape=self.shape,
            runs_requested=self.runs,
            fault=self.fault,
            workload_kind=self.workload_kind,
        )
        with obs.span("fuzz.session", seed=self.seed, runs=self.runs):
            if self.replay and self.corpus_dir is not None:
                report.replay = replay_corpus(self.corpus_dir)
            for index in range(self.runs):
                if (
                    self.time_budget is not None
                    and time.monotonic() - start > self.time_budget
                ):
                    report.budget_exhausted = True
                    break
                self._run_case(report, index)
        report.elapsed_s = time.monotonic() - start
        return report

    # -------------------------------------------------------------- #
    def _run_case(self, report: FuzzReport, index: int) -> None:
        case_seed = self.case_seed(index)
        spec = random_spec(case_seed, shape=self.shape)
        wl_rng = np.random.default_rng(
            np.random.SeedSequence([0xF0AD, self.seed, index])
        )
        workloads = [
            random_workload(wl_rng) for _ in range(self.workloads_per_case)
        ]
        if self.workload_kind is not None:
            from dataclasses import replace

            workloads = [
                replace(workload, kind=self.workload_kind)
                for workload in workloads
            ]
        maestro_seed = case_seed % 100_000
        oracle = run_oracle(
            spec,
            workloads,
            n_cores=self.n_cores,
            maestro_seed=maestro_seed,
            fault=self.fault,
        )
        report.cases_run += 1
        report.checks += oracle.checks
        report.rescale_checks += oracle.rescale_checks
        report.capacity_divergences += oracle.capacity_divergences
        report.kernel_packets += oracle.kernel_packets
        report.fallback_packets += oracle.fallback_packets
        if obs.enabled():
            obs.counter("fuzz.cases", 1, seed=case_seed)
        if oracle.ok:
            return
        if obs.enabled():
            obs.counter("fuzz.failures", len(oracle.failures), seed=case_seed)
        for failure in oracle.failures:
            entry = {
                "case_seed": case_seed,
                "maestro_seed": maestro_seed,
                "verdict": oracle.verdict,
                "failure": failure.to_dict(),
            }
            report.failures.append(entry)
        # Shrink (and save) the first failure only: one minimized
        # reproducer per case keeps triage tractable.
        first = oracle.failures[0]
        if not self.shrink:
            return
        trace = self._failing_trace(spec, first, oracle, maestro_seed)
        if trace is None:
            return
        shrunk = shrink_case(
            spec,
            trace,
            first.signature,
            fault=self.fault,
            n_cores=self.n_cores,
            maestro_seed=maestro_seed,
            max_probes=self.max_shrink_probes,
        )
        report.failures[-len(oracle.failures)]["shrink"] = {
            "steps": shrunk.steps,
            "probes": shrunk.probes,
            "n_state_objects": shrunk.n_state_objects,
            "n_packets": len(shrunk.trace),
            "exhausted": shrunk.exhausted,
        }
        if self.save and self.corpus_dir is not None:
            corpus_entry = CorpusEntry(
                name="",
                spec=shrunk.spec,
                trace=shrunk.trace,
                signature=first.signature,
                expect="fail",
                fault=self.fault,
                seed=case_seed,
                n_cores=self.n_cores,
                maestro_seed=maestro_seed,
                failure=first.to_dict(),
                shrink={"steps": shrunk.steps, "probes": shrunk.probes},
            )
            path = save_reproducer(self.corpus_dir, corpus_entry)
            report.reproducers.append(str(path))

    def _failing_trace(self, spec, failure, oracle, maestro_seed):
        """Re-materialize the trace behind ``failure`` for shrinking."""
        from repro.core.pipeline import Maestro
        from repro.fuzz.workloads import WorkloadSpec

        if failure.workload is None:
            return None
        workload = WorkloadSpec.from_dict(failure.workload)
        guard_values = tuple(
            guard.value for group in spec.groups for guard in group.guards
        )
        min_capacity = min(group.capacity for group in spec.groups)
        rss = None
        if workload.kind == "collide":
            result = Maestro(seed=maestro_seed).analyze(build_nf(spec))
            rss = result.rss_configuration(self.n_cores)
        return materialize_workload(
            workload,
            guard_values=guard_values,
            min_capacity=min_capacity,
            rss=rss,
        )
