"""Source introspection for the AST front end.

Collects the Python source of every method an NF defines (``process``,
``setup``, and any helper, across the MRO down to — but excluding — the
abstract :class:`repro.nf.api.NF` base), parses it, and extracts inline
waivers.  A waiver comment on a flagged line suppresses that code::

    ctx.map_get(map_name, key)  # maestro: waive[MAE006]

Several codes can share one comment (``waive[MAE001,MAE203]``).  Unknown
codes are rejected with :class:`repro.errors.WaiverError` — a typo'd
waiver would otherwise silently suppress nothing while looking reviewed.
Waivers are line-scoped and code-scoped on purpose: a blanket opt-out
would defeat the point of a safety gate.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from dataclasses import dataclass, field

from repro.analysis.diagnostics import DIAGNOSTIC_CODES
from repro.errors import WaiverError
from repro.nf.api import NF

__all__ = ["MethodSource", "NfSource", "gather_sources", "collect_waivers"]

_WAIVER_RE = re.compile(r"#\s*maestro:\s*waive\[?\s*([A-Z0-9,\s]+?)\s*\]?\s*$")

#: Methods never scanned: declarations, not packet-path logic.
_SKIPPED_METHODS = frozenset({"state"})


@dataclass(frozen=True)
class MethodSource:
    """One NF method, parsed and located."""

    name: str
    qualname: str
    file: str
    first_line: int
    tree: ast.FunctionDef
    #: names of the context / packet parameters ('' when absent)
    ctx_param: str
    pkt_param: str

    def line_of(self, node: ast.AST) -> int:
        """Absolute file line of an AST node inside this method."""
        return self.first_line + getattr(node, "lineno", 1) - 1


@dataclass
class NfSource:
    """Everything the AST passes need to know about one NF's source."""

    nf_name: str
    methods: list[MethodSource] = field(default_factory=list)
    #: absolute (file, line) -> waived codes
    waivers: dict[tuple[str, int], frozenset[str]] = field(default_factory=dict)
    #: methods whose source could not be retrieved (REPL-defined, ...)
    unreadable: list[str] = field(default_factory=list)

    def waived(self, code: str, file: str | None, line: int | None) -> bool:
        if file is None or line is None:
            return False
        return code in self.waivers.get((file, line), frozenset())


def _param_named(fn: ast.FunctionDef, *candidates: str) -> str:
    for arg in fn.args.args:
        if arg.arg in candidates:
            return arg.arg
    return ""


def collect_waivers(
    source: str, file: str, first_line: int = 1
) -> dict[tuple[str, int], frozenset[str]]:
    """Extract ``# maestro: waive[...]`` comments, one entry per line.

    A comment may list several codes separated by commas.  Every code is
    validated against the registry: an unknown code raises
    :class:`WaiverError` naming the file, line, and offending code.
    """
    waivers: dict[tuple[str, int], frozenset[str]] = {}
    for offset, line in enumerate(source.splitlines()):
        match = _WAIVER_RE.search(line)
        if match is None:
            continue
        codes = frozenset(
            code.strip() for code in match.group(1).split(",") if code.strip()
        )
        unknown = sorted(code for code in codes if code not in DIAGNOSTIC_CODES)
        if unknown:
            raise WaiverError(
                f"{file}:{first_line + offset}: unknown waiver code(s) "
                f"{', '.join(unknown)} — known codes are "
                f"{', '.join(sorted(DIAGNOSTIC_CODES))}"
            )
        if codes:
            waivers[(file, first_line + offset)] = codes
    return waivers


def gather_sources(nf: NF) -> NfSource:
    """Collect method sources for ``nf``'s class hierarchy (below NF)."""
    out = NfSource(nf_name=nf.name)
    seen: set[tuple[str, int]] = set()
    for cls in type(nf).__mro__:
        if cls is NF:
            break  # the abstract base and everything above it
        if not issubclass(cls, NF):
            continue  # mixins interleave with NF bases in the MRO
        for name, member in vars(cls).items():
            if name.startswith("__") or name in _SKIPPED_METHODS:
                continue
            if not inspect.isfunction(member):
                continue
            try:
                raw, first_line = inspect.getsourcelines(member)
                file = inspect.getsourcefile(member) or "<unknown>"
            except (OSError, TypeError):
                out.unreadable.append(f"{cls.__name__}.{name}")
                continue
            key = (file, first_line)
            if key in seen:  # same function inherited twice
                continue
            seen.add(key)
            source = textwrap.dedent("".join(raw))
            try:
                module = ast.parse(source)
            except SyntaxError:  # pragma: no cover - getsource artifacts
                out.unreadable.append(f"{cls.__name__}.{name}")
                continue
            fn = next(
                (n for n in module.body if isinstance(n, ast.FunctionDef)), None
            )
            if fn is None:  # pragma: no cover - decorated oddities
                out.unreadable.append(f"{cls.__name__}.{name}")
                continue
            out.methods.append(
                MethodSource(
                    name=name,
                    qualname=f"{cls.__name__}.{name}",
                    file=file,
                    first_line=first_line,
                    tree=fn,
                    ctx_param=_param_named(fn, "ctx", "context"),
                    pkt_param=_param_named(fn, "pkt", "packet"),
                )
            )
            out.waivers.update(collect_waivers(source, file, first_line))
    return out
