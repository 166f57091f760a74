"""Static certification vs. observed kernel behaviour.

The acceptance campaign: 100 small and 40 medium fixed-seed generated
NFs must all certify clean, and a subset must survive the oracle's
dynamic cross-check (a kernel lane executing a path the certifier did
not prove lowered is a finding, and a certificate with lowered paths
must yield a dispatcher).
The negative direction is pinned by tampering with the certificate.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.plan_passes import certify_nf
from repro.core.pipeline import Maestro
from repro.fuzz.generator import build_nf, random_spec
from repro.fuzz.oracle import OracleReport, _check_fastpath, run_oracle
from repro.fuzz.workloads import WorkloadSpec, materialize_workload

UNIFORM = WorkloadSpec("uniform", 11, n_packets=64, n_flows=16)

#: Seeds per generated-NF shape: 100 small specs and 40 medium ones,
#: the shape the generated-NF compiler benchmark measures.
CAMPAIGN_SEEDS = {"small": range(100), "medium": range(40)}
DYNAMIC_SEEDS = range(0, 100, 10)


@pytest.mark.parametrize("shape", list(CAMPAIGN_SEEDS))
def test_campaign_every_generated_nf_certifies_clean(shape) -> None:
    """Acceptance: every fixed-seed spec of the shape, zero MAE3xx
    findings."""
    bad = []
    for seed in CAMPAIGN_SEEDS[shape]:
        spec = random_spec(seed, shape=shape)
        report = certify_nf(build_nf(spec))
        if not report.clean:
            bad.append((seed, [str(d) for d in report.diagnostics]))
        elif report.n_proved != report.n_supported:
            bad.append((seed, "supported paths left unproved"))
    assert not bad, bad


def test_campaign_dynamic_crosscheck_is_green() -> None:
    """Oracle runs (which now certify statically and cross-check the
    compiled leg's kernel lanes) stay clean on a seed subsample."""
    for seed in DYNAMIC_SEEDS:
        spec = random_spec(seed, shape="small")
        report = run_oracle(spec, [UNIFORM], n_cores=4, maestro_seed=7)
        assert report.ok, (seed, [f.to_dict() for f in report.failures])


def _fastpath_with_certificate(seed, certificate):
    """Drive the oracle's compiled-leg check under a given certificate."""
    spec = random_spec(seed, shape="small")
    result = Maestro(seed=0).analyze(build_nf(spec))
    report = OracleReport(spec=spec)
    from repro.core.codegen import ParallelNF, Strategy
    from repro.core.sharding import Verdict

    strategy = (
        Strategy.SHARED_NOTHING
        if result.solution.verdict is Verdict.SHARED_NOTHING
        else Strategy.LOCKS
    )

    def make_nf():
        return build_nf(spec)

    def make_parallel(strat):
        return ParallelNF.generate(
            build_nf(spec), result.solution,
            result.rss_configuration(4), 4, strategy=strat,
        )

    guard_values = tuple(
        guard.value for group in spec.groups for guard in group.guards
    )
    trace = materialize_workload(
        UNIFORM,
        guard_values=guard_values,
        min_capacity=min(group.capacity for group in spec.groups),
        rss=result.rss_configuration(4),
    )
    _check_fastpath(
        report, make_nf, make_parallel, strategy, UNIFORM, trace,
        result.tree, None, certificate,
    )
    return report


def test_kernel_lane_outside_certificate_is_a_finding() -> None:
    """Tampered certificate claiming nothing is lowered: any observed
    kernel lane must trip the certify-lanes cross-check."""
    seed = 2  # known kernel-heavy spec (full coverage in the oracle test)
    spec = random_spec(seed, shape="small")
    certificate = certify_nf(build_nf(spec))
    assert certificate.supported_pids, "fixture must have lowered paths"
    hollow = dataclasses.replace(certificate, supported_pids=())
    report = _fastpath_with_certificate(seed, hollow)
    assert any(
        f.kind == "certify" and "certify-lanes" in f.codes
        for f in report.failures
    ), [f.to_dict() for f in report.failures]


def test_truthful_certificate_passes_the_same_run() -> None:
    seed = 2
    spec = random_spec(seed, shape="small")
    certificate = certify_nf(build_nf(spec))
    report = _fastpath_with_certificate(seed, certificate)
    assert not [f for f in report.failures if f.kind == "certify"], [
        f.to_dict() for f in report.failures
    ]


def test_empty_dispatcher_for_certified_nf_is_a_finding(monkeypatch) -> None:
    """A certificate with lowered paths whose compile yields a dispatcher
    with no supported path must trip the certify-compile cross-check."""
    import repro.sim.functional as functional
    from repro.sim.compiled import CompiledDispatcher

    monkeypatch.setattr(
        functional,
        "compile_parallel",
        lambda parallel, tree=None: CompiledDispatcher(parallel, {}, 0),
    )
    seed = 2
    certificate = certify_nf(build_nf(random_spec(seed, shape="small")))
    assert certificate.supported_pids and not certificate.uncompiled
    report = _fastpath_with_certificate(seed, certificate)
    assert any(
        f.kind == "certify" and "certify-compile" in f.codes
        for f in report.failures
    ), [f.to_dict() for f in report.failures]


def test_certifier_crash_does_not_mask_the_oracle(monkeypatch) -> None:
    """A crashing certifier surfaces as a crash finding instead of
    silently skipping the cross-check."""
    import repro.analysis.plan_passes as plan_passes

    def boom(*args, **kwargs):
        raise RuntimeError("certifier exploded")

    monkeypatch.setattr(plan_passes, "certify_nf", boom)
    spec = random_spec(2, shape="small")
    report = run_oracle(spec, [UNIFORM], n_cores=4, maestro_seed=7)
    assert any(
        f.kind == "crash" and "certifier exploded" in f.detail
        for f in report.failures
    )
