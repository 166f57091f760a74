"""Diagnostics core: stable codes, severities, rendering.

Every analysis pass reports through :class:`Diagnostic`, identified by a
stable ``MAE0xx`` code so CI gates, waivers, and docs can refer to a
finding without parsing prose.  The registry below is the single source
of truth; DESIGN.md renders it for humans and a test keeps the two in
sync with the passes that emit each code.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA_VERSION",
    "Severity",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "render_text",
    "render_json",
    "sort_diagnostics",
    "diagnostics_from_json",
]

#: Version tag stamped into every analysis/race/chain JSON payload so
#: downstream tooling can gate on the format before parsing the rest.
#: Bump the suffix on breaking shape changes.
SCHEMA_VERSION = "repro.analysis/1"


class Severity(enum.Enum):
    """How a finding affects the lint exit code (errors gate CI)."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


#: code -> (default severity, one-line meaning).  Stable: codes are never
#: reused; retired codes stay here marked retired.
DIAGNOSTIC_CODES: dict[str, tuple[Severity, str]] = {
    "MAE001": (
        Severity.ERROR,
        "raw Python branch/comparison on a symbolic handle "
        "(use ctx.cond / ctx.eq / ctx.lt ...)",
    ),
    "MAE002": (
        Severity.ERROR,
        "call to a nondeterminism source (random, time, hash, ...) "
        "inside process/setup",
    ),
    "MAE003": (
        Severity.ERROR,
        "access to a state object not declared in state()",
    ),
    "MAE004": (
        Severity.ERROR,
        "loop not statically bounded (while, or for over a non-static "
        "iterable) — ESE requires bounded loops",
    ),
    "MAE005": (
        Severity.WARNING,
        "iteration over a set: order is unspecified across runs",
    ),
    "MAE006": (
        Severity.WARNING,
        "state object name is not a string literal; the linter cannot "
        "check it against state()",
    ),
    "MAE010": (
        Severity.ERROR,
        "sharding audit: shared-nothing verdict, but a reachable state "
        "write is not covered by the RSS sharding fields",
    ),
    "MAE011": (
        Severity.ERROR,
        "lock coverage: a conflicting state access has no lock in the "
        "generated lock plan",
    ),
    "MAE012": (
        Severity.ERROR,
        "lock ordering: the acquisition order is not one global total "
        "order over the locked objects",
    ),
    "MAE013": (
        Severity.ERROR,
        "determinism: replaying a path with the same decision log "
        "diverged (decision log / trace / action differ)",
    ),
    "MAE014": (
        Severity.ERROR,
        "sharding audit: a forwarding path reads shared state neither "
        "covered by the sharding fields nor guarded R5-style",
    ),
    "MAE020": (
        Severity.ERROR,
        "analysis failure: the pipeline could not analyze this NF",
    ),
    "MAE101": (
        Severity.ERROR,
        "race sanitizer: a dynamic access to shared written state is not "
        "covered by the lock plan (lockset violation)",
    ),
    "MAE102": (
        Severity.ERROR,
        "race sanitizer: a packet's lock acquisition sequence breaks the "
        "plan's global order (deadlock potential)",
    ),
    "MAE103": (
        Severity.ERROR,
        "race sanitizer: under shared-nothing, the same state entry was "
        "touched by two different cores (shard-ownership violation)",
    ),
    "MAE104": (
        Severity.ERROR,
        "race sanitizer: a packet's dynamic access set is not a subset of "
        "any symbex path footprint for its port (static model unsound "
        "for this trace)",
    ),
    "MAE105": (
        Severity.ERROR,
        "race sanitizer: a packet was processed during the unowned epoch "
        "of a migrating bucket (between ownership prepare and commit, "
        "neither donor nor receiver may serve it)",
    ),
    "MAE200": (
        Severity.ERROR,
        "chain analysis failure: the chain could not be parsed or a hop "
        "could not be analyzed",
    ),
    "MAE201": (
        Severity.WARNING,
        "chain shard compatibility: the hops' sharding field-sets admit "
        "no common key orientation on a chain port — no single RSS key "
        "keeps a flow on one core end-to-end (per-hop fallback)",
    ),
    "MAE202": (
        Severity.ERROR,
        "chain lock order: two LOCKS hops are traversed in opposite "
        "orders on different chain routes, so no single global lock "
        "acquisition order covers the composed pipeline",
    ),
    "MAE203": (
        Severity.WARNING,
        "chain verdict conflict: a hop's LOCKS verdict is incompatible "
        "with end-to-end shared-nothing steering (per-hop fallback)",
    ),
    "MAE204": (
        Severity.ERROR,
        "chain port map: a hop or wire is dead — unreachable from every "
        "chain ingress, fed by a port the source hop never forwards to, "
        "or a reachable forward port has no wire/egress attached",
    ),
    "MAE300": (
        Severity.ERROR,
        "plan certifier: a lowered path program is not equivalent to its "
        "source symbex path (predicates, steps, writes, or action differ), "
        "or consumes a packet field or the clock its port does not bind",
    ),
    "MAE301": (
        Severity.ERROR,
        "plan certifier: fallback-set unsoundness — a path uses an op "
        "outside LOWERED_OPS but was not demoted, its unlowered suffix's "
        "accesses are missing from the dirt descriptors, a lowered step "
        "publishes no dirt (or an exact cell derived from an allocation) "
        "for an interpreted lane, or allocation dirt is narrowed for an "
        "NF that may free a dchain index mid-chunk",
    ),
    "MAE302": (
        Severity.ERROR,
        "plan certifier: hazard-demotion incompleteness — a kernel-"
        "visible RAW/WAW interference the frozen-prefix fixpoint's "
        "demote mask would not catch",
    ),
    "MAE303": (
        Severity.ERROR,
        "retired: plan certifier memo-guard check (the classification "
        "memo it guarded is gone); never reused",
    ),
    "MAE304": (
        Severity.ERROR,
        "plan certifier: plan/verdict inconsistency — kernel scatter "
        "groups or LockPlan coverage contradict the sharding verdict's "
        "per-path footprints",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, location, and provenance."""

    code: str
    message: str
    nf: str
    severity: Severity = field(default=Severity.ERROR)
    file: str | None = None
    line: int | None = None
    path_id: str | None = None

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @classmethod
    def of(
        cls,
        code: str,
        message: str,
        *,
        nf: str,
        file: str | None = None,
        line: int | None = None,
        path_id: str | None = None,
    ) -> "Diagnostic":
        """Build a diagnostic with the code's registered severity."""
        severity, _ = DIAGNOSTIC_CODES[code]
        return cls(
            code=code,
            message=message,
            nf=nf,
            severity=severity,
            file=file,
            line=line,
            path_id=path_id,
        )

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def location(self) -> str:
        if self.file is not None and self.line is not None:
            return f"{self.file}:{self.line}"
        if self.path_id is not None:
            return f"path {self.path_id}"
        return "-"

    def render(self) -> str:
        return (
            f"{self.nf}: {self.location()}: "
            f"{self.code} [{self.severity.value}] {self.message}"
        )

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "nf": self.nf,
            "file": self.file,
            "line": self.line,
            "path_id": self.path_id,
        }


_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.NOTE: 2}


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Canonical, fully deterministic ordering.

    Errors first, then by NF/hop name, file, line, code, and finally
    message/path — every field participates so two runs over the same
    inputs render byte-for-byte identical reports regardless of the
    (dict/set-driven) order the passes emitted them in.
    """
    return sorted(
        diagnostics,
        key=lambda d: (
            _SEVERITY_ORDER[d.severity],
            d.nf,
            d.file or "",
            d.line or 0,
            d.code,
            d.message,
            d.path_id or "",
        ),
    )


def render_text(diagnostics: list[Diagnostic]) -> str:
    """Human-readable report, errors first, with a summary line."""
    lines = [d.render() for d in sort_diagnostics(diagnostics)]
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = sum(1 for d in diagnostics if d.severity is Severity.WARNING)
    lines.append(f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def render_json(diagnostics: list[Diagnostic]) -> str:
    """Versioned JSON payload: ``{"schema": ..., "diagnostics": [...]}``."""
    return json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "diagnostics": [d.to_json() for d in sort_diagnostics(diagnostics)],
        },
        indent=2,
    )


def diagnostics_from_json(payload: str | dict) -> list[Diagnostic]:
    """Rebuild :class:`Diagnostic` objects from a ``render_json`` payload.

    Rejects payloads from a different schema generation — the round-trip
    contract downstream tooling gates on.
    """
    data = json.loads(payload) if isinstance(payload, str) else payload
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported analysis schema {schema!r} "
            f"(this build reads {SCHEMA_VERSION!r})"
        )
    return [
        Diagnostic(
            code=entry["code"],
            message=entry["message"],
            nf=entry["nf"],
            severity=Severity(entry["severity"]),
            file=entry.get("file"),
            line=entry.get("line"),
            path_id=entry.get("path_id"),
        )
        for entry in data["diagnostics"]
    ]
