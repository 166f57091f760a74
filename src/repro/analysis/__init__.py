"""repro.analysis — NF linter and parallelization-safety auditor.

Two front ends feed one diagnostics core:

* **AST passes** inspect the NF's Python source (``process``/``setup``
  and helpers) for departures from the supported NF class: raw branches
  on symbolic handles, nondeterminism sources, undeclared state names,
  unbounded loops.
* **Tree passes** audit the extracted model and the generated parallel
  plan: an independent sharding audit of shared-nothing verdicts, lock
  coverage/ordering checks for LOCKS code generation, and a determinism
  check replaying each path's decision log.

A third front end is dynamic: the **race sanitizer**
(:mod:`repro.analysis.race`) replays a trace through the *generated*
parallel NF and checks the event log against the plan — lockset,
lock-order, shard-ownership, and footprint cross-validation
(``MAE101``–``MAE104``), via ``python -m repro.analysis race``.

The compiled dataplane is certified statically: the **plan certifier**
(:mod:`repro.analysis.plan_passes`) re-executes every lowered path
program symbolically and proves it equivalent to its source symbex path
(translation validation), then audits hazard demotion and plan/verdict
consistency (``MAE300``–``MAE304``; ``MAE303`` is retired), via
``python -m repro.analysis certify``.

Chains compose: :mod:`repro.analysis.chain_passes` analyzes whole NF
service chains (``.chain`` files) — composed symbex footprints,
cross-NF shard compatibility, a joint RSS key search over the chain's
ingress ports, and differential validation — reporting ``MAE200``–
``MAE204`` through the same machinery, via
``python -m repro.analysis chain``.

Findings carry stable ``MAE`` codes (see
:data:`repro.analysis.diagnostics.DIAGNOSTIC_CODES`) and render as text
or JSON via ``python -m repro.analysis lint <nf-name|--all>``.
"""

from repro.analysis.chain_passes import ChainReport, HopAnalysis, analyze_chain
from repro.analysis.diagnostics import (
    DIAGNOSTIC_CODES,
    SCHEMA_VERSION,
    Diagnostic,
    Severity,
    diagnostics_from_json,
    render_json,
    render_text,
    sort_diagnostics,
)
from repro.analysis.lint import default_passes, lint_nf
from repro.analysis.passes import AnalysisPass, PassContext, PassManager
from repro.analysis.plan_passes import (
    CertifyReport,
    PlanCertifyPass,
    certify_nf,
    prove_equiv,
)
from repro.analysis.race import (
    RaceMonitor,
    RaceReport,
    sanitize_nf,
    sanitize_parallel,
)
from repro.analysis.source import NfSource, collect_waivers, gather_sources

__all__ = [
    "DIAGNOSTIC_CODES",
    "SCHEMA_VERSION",
    "Diagnostic",
    "Severity",
    "diagnostics_from_json",
    "render_json",
    "render_text",
    "sort_diagnostics",
    "ChainReport",
    "HopAnalysis",
    "analyze_chain",
    "default_passes",
    "lint_nf",
    "AnalysisPass",
    "PassContext",
    "PassManager",
    "CertifyReport",
    "PlanCertifyPass",
    "certify_nf",
    "prove_equiv",
    "NfSource",
    "collect_waivers",
    "gather_sources",
    "RaceMonitor",
    "RaceReport",
    "sanitize_nf",
    "sanitize_parallel",
]
