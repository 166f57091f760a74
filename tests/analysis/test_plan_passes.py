"""The plan certifier: corpus is green, seeded faults are caught.

Seeded-fault fixtures tamper with *compiled artifacts* — a path program
whose lowered predicate was negated after compilation (MAE300), a
program whose bail would not publish its dirt (MAE302), and more — and
the certifier must catch the damage without re-running the lowering
that produced it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import certify_nf, collect_waivers, lint_nf
from repro.analysis.plan_passes import (
    _OP_ASPECTS,
    _certify_demotion,
    _certify_narrowing,
    _certify_program,
    _locate,
    prove_equiv,
)
from repro.analysis.source import gather_sources
from repro.errors import WaiverError
from repro.nf.api import NF, NfContext, StateDecl, StateKind
from repro.nf.nfs import ALL_NFS
from repro.sim.compiled import (
    _FOOTPRINT,
    _alloc_exact,
    _compile_port,
    _Conflicts,
)
from repro.symbex import expr as E
from repro.symbex.engine import explore_nf
from repro.symbex.tree import ExecutionTree

LAN, WAN = 0, 1


def _compile_nf(nf, port=0):
    tree = explore_nf(nf)
    return _compile_port(
        nf, port, tree.paths_by_port[port], 0, _alloc_exact(tree.paths())
    )


def _supported_program(pp):
    progs = [p for p in pp.programs if p.supported]
    assert progs, "fixture NF must have at least one lowered path"
    return progs[0]


# ------------------------------------------------------------------ #
# Corpus gate
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("name", sorted(ALL_NFS))
def test_corpus_certifies_clean(analyses, name) -> None:
    result = analyses[name]
    report = certify_nf(
        ALL_NFS[name](), tree=result.tree, solution=result.solution
    )
    assert report.clean, [str(d) for d in report.diagnostics]
    assert report.n_proved == report.n_supported
    assert len(report.supported_pids) == report.n_supported


def test_lint_pipeline_includes_certifier(analyses) -> None:
    from repro.analysis.lint import default_passes
    from repro.analysis.plan_passes import PlanCertifyPass

    assert any(isinstance(p, PlanCertifyPass) for p in default_passes())
    diagnostics = lint_nf(ALL_NFS["fw"](), tree=analyses["fw"].tree)
    assert not [d for d in diagnostics if d.code.startswith("MAE3")]


def test_report_json_shape() -> None:
    report = certify_nf(ALL_NFS["fw"]())
    payload = report.to_json()
    assert payload["nf"] == "fw"
    assert payload["clean"] is True
    assert payload["proved"] == payload["supported"]
    assert payload["supported_pids"] == list(report.supported_pids)
    assert "certified" in report.describe()


def test_uncompiled_port_is_not_a_finding() -> None:
    """Non-hoistable expiry: the runtime builds no kernels for the port,
    so wholesale interpreter fallback is sound — recorded, not flagged."""
    from repro.analysis.__main__ import _example_nfs

    report = certify_nf(_example_nfs()["dns_guard"]())
    assert report.clean
    assert report.uncompiled, "dns_guard's expiring port must be uncompiled"
    assert "uncompiled" in report.describe()


# ------------------------------------------------------------------ #
# Seeded fault: mis-lowered predicate (MAE300)
# ------------------------------------------------------------------ #
def test_negated_predicate_is_flagged_mae300() -> None:
    pp = _compile_nf(ALL_NFS["fw"]())
    prog = _supported_program(pp)
    tampered = False
    for i, (kind, payload) in enumerate(prog.items):
        if kind == "c":
            prog.items[i] = ("c", E.Eq(payload, E.Const(1, 0)))
            tampered = True
            break
    assert tampered, "fixture path must carry at least one predicate"
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert {f.code for f in findings} == {"MAE300"}
    assert any("not equivalent" in f.message for f in findings)


def test_dropped_provenance_is_flagged_mae300() -> None:
    pp = _compile_nf(ALL_NFS["fw"]())
    prog = _supported_program(pp)
    prog.source_path = None
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert [f.code for f in findings] == ["MAE300"]
    assert "provenance" in findings[0].message


def test_rogue_trace_op_is_flagged_mae301() -> None:
    """A supported program whose source path turns out to use an op the
    kernels never lowered: the fallback set is unsound."""
    pp = _compile_nf(ALL_NFS["fw"]())
    prog = _supported_program(pp)
    entry = prog.source_path.trace[0]
    rogue = dataclasses.replace(entry, op="sketch_touch")
    prog.source_path = dataclasses.replace(
        prog.source_path, trace=prog.source_path.trace + (rogue,)
    )
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert any(f.code == "MAE301" for f in findings)
    assert any("LOWERED_OPS" in f.message for f in findings)


def test_unpublished_bail_dirt_is_flagged_mae302() -> None:
    """A program that would bail without poisoning the aspects its own
    steps write: sibling kernel lanes could keep stale reads."""
    pp = _compile_nf(ALL_NFS["fw"]())
    prog = _supported_program(pp)
    if not any(s.sig[0] in ("vector_put", "dchain_rejuvenate",
                            "vector_borrow") for s in prog.steps):
        pytest.skip("fixture path has no publishing kernel step")
    prog.wild = type(prog.wild)()
    findings: list = []
    _certify_demotion(pp, findings)
    assert any(
        f.code == "MAE302" and "publish" in f.message for f in findings
    )


# ------------------------------------------------------------------ #
# Seeded faults: allocation narrowing (MAE300-MAE302)
# ------------------------------------------------------------------ #
def _alloc_program(pp, supported=True):
    """A program of ``pp`` crossing a lowered allocation, and that step."""
    for prog in pp.programs:
        if prog.supported is not supported:
            continue
        for step in prog.steps:
            if step.sig[0] == "dchain_allocate":
                return prog, step
    raise AssertionError("fixture port must lower an allocation")


def test_swapped_alloc_binds_are_flagged_mae300() -> None:
    pp = _compile_nf(ALL_NFS["nat"]())
    prog, step = _alloc_program(pp)
    op, obj, ok, index = step.sig
    step.sig = (op, obj, index, ok)
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert any(
        f.code == "MAE300" and "binds" in f.message for f in findings
    )


def _step_pub(prog, op, aspect):
    """Index into ``prog.pubs`` of the ``aspect`` dirt of its ``op`` step."""
    for i, (si, asp, _, _) in enumerate(prog.pubs):
        if asp == aspect and prog.steps[si].sig[0] == op:
            return i
    raise AssertionError(f"no {aspect!r} publication of {op}")


def test_dropped_alloc_publication_is_flagged_mae301() -> None:
    """A lane that runs interpreted after crossing a lowered allocation
    must publish the chain's reach, or kernel lanes keep stale reads of
    the cell it pops."""
    pp = _compile_nf(ALL_NFS["nat"]())
    prog, _ = _alloc_program(pp)
    del prog.pubs[_step_pub(prog, "dchain_allocate", "alloc")]
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert any(
        f.code == "MAE301" and "publishes no 'alloc' dirt" in f.message
        for f in findings
    )


def test_exact_cell_of_allocated_index_is_flagged_mae301() -> None:
    """A vector row written at an allocated index is published as the
    chain's reach: an interpreted lane may pop another cell than its
    kernel rank predicted, so the predicted cell is not its footprint."""
    pp = _compile_nf(ALL_NFS["nat"]())
    prog = next(
        p for p in pp.programs
        if p.supported and any(s.sig[0] == "vector_put" for s in p.steps)
    )
    i = _step_pub(prog, "vector_put", "vec_w")
    si, aspect, obj, src = prog.pubs[i]
    assert src == ("reach", "nat_chain")
    prog.pubs[i] = (si, aspect, obj, "q")
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert any(
        f.code == "MAE301" and "derives from an allocation result"
        in f.message for f in findings
    )


def test_unwithdrawn_narrowing_is_flagged_mae301() -> None:
    """A path op that may free a dchain index inside a chunk breaks the
    reach argument: the NF must fall back to wildcard allocation dirt."""
    nf = ALL_NFS["nat"]()
    tree = explore_nf(nf)
    paths = dict(tree.paths_by_port)
    path = paths[1][0]
    free = dataclasses.replace(path.trace[-1], op="dchain_free")
    paths[1] = [dataclasses.replace(path, trace=path.trace + (free,))] + \
        list(paths[1][1:])
    tree = ExecutionTree(tree.nf_name, paths)

    def certify(exact):
        pps = [
            _compile_port(nf, port, tree.paths_by_port[port], 0, exact)
            for port in tree.ports
        ]
        findings: list = []
        _certify_narrowing(tree, pps, findings)
        return findings

    assert _alloc_exact(tree.paths()) is False
    assert certify(False) == []
    flagged = certify(True)
    assert flagged and {f.code for f in flagged} == {"MAE301"}
    assert all("dchain_free" in f.message for f in flagged)


def test_footprint_rows_are_the_state_api_and_the_certifier_aspects() -> None:
    """The dispatcher's ``_FOOTPRINT`` has one row per ``NfContext`` state
    op, with the aspects the certifier derives for it on its own: a new
    API op cannot silently withdraw allocation lowering, and a wrong row
    shows even for ops no bundled NF leaves in an unlowered suffix
    (``vector_fill``, ``map_erase``)."""
    api = {
        name for name in vars(NfContext)
        if name.split("_")[0] in ("map", "vector", "dchain", "sketch")
    }
    assert set(_FOOTPRINT) == api
    for op, row in _FOOTPRINT.items():
        assert {aspect for aspect, _ in row} == set(_OP_ASPECTS[op] or ()), op
        assert {operand for _, operand in row} <= {
            "key", "value", "index", "reach", None,
        }, op


def test_dropped_alloc_reach_is_flagged_mae302(monkeypatch) -> None:
    """A conflict table that loses an interpreter lane's keyed allocation
    leaves lanes that read a soon-allocated cell's free flag on
    kernels."""
    add = _Conflicts.add

    def lossy(self, aspect, obj, entry, kernel=False):
        if aspect == "alloc" and kernel is False:
            return
        add(self, aspect, obj, entry, kernel)

    monkeypatch.setattr(_Conflicts, "add", lossy)
    pp = _compile_nf(ALL_NFS["nat"](), port=1)
    findings: list = []
    _certify_demotion(pp, findings)
    assert findings and {f.code for f in findings} == {"MAE302"}
    assert any("keyed 'alloc'" in f.message for f in findings)


def test_unpublished_alloc_bail_dirt_is_flagged_mae302() -> None:
    pp = _compile_nf(ALL_NFS["nat"]())
    prog, step = _alloc_program(pp)
    prog.wild = [w for w in prog.wild if w != ("alloc", step.obj)]
    findings: list = []
    _certify_demotion(pp, findings)
    assert any(
        f.code == "MAE302" and "'alloc'" in f.message
        and "publish" in f.message for f in findings
    )


# ------------------------------------------------------------------ #
# Equivalence engine
# ------------------------------------------------------------------ #
def test_prove_equiv_zext_normalization() -> None:
    sym = E.Sym(16, "pkt.src_port")
    widened = E.Concat(32, (E.Const(16, 0), sym))
    assert prove_equiv(sym, widened) == "proved"


def test_prove_equiv_refutes_distinct_constants() -> None:
    assert prove_equiv(E.Const(32, 1), E.Const(32, 2)) == "refuted"


def test_prove_equiv_uses_path_condition() -> None:
    sym = E.Sym(32, "pkt.src_ip")
    five = E.Const(32, 5)
    assert prove_equiv(sym, five) == "refuted"
    assert prove_equiv(sym, five, [E.Eq(sym, five)]) == "proved"


# ------------------------------------------------------------------ #
# Waivers
# ------------------------------------------------------------------ #
class _WaivedHazardNF(NF):
    """Control NF whose single vector write carries an MAE302 waiver."""

    name = "waived_hazard"
    ports = {"lan": LAN, "wan": WAN}

    def state(self) -> list[StateDecl]:
        return [StateDecl(
            "wh_counts", StateKind.VECTOR, 64, value_layout=(("n", 32),)
        )]

    def process(self, ctx: NfContext, port: int, pkt) -> None:
        ctx.vector_put("wh_counts", 0, {"n": 1})  # maestro: waive[MAE302]
        ctx.forward(self.other_port(port))


def test_mae3xx_waiver_suppresses_located_finding() -> None:
    nf = _WaivedHazardNF()
    pp = _compile_nf(nf)
    prog = _supported_program(pp)
    prog.wild = type(prog.wild)()
    findings: list = []
    _certify_demotion(pp, findings)
    assert findings
    source = gather_sources(nf)
    diagnostics = _locate(findings, nf.name, source)
    assert all(d.file and d.line for d in diagnostics)
    active = [
        d for d in diagnostics if not source.waived(d.code, d.file, d.line)
    ]
    assert not active, "the line-scoped waiver must absorb the finding"


def test_mae3xx_codes_flow_through_waiver_collector() -> None:
    waivers = collect_waivers("x  # maestro: waive[MAE300,MAE304]\n", "f.py")
    assert waivers[("f.py", 1)] == frozenset({"MAE300", "MAE304"})


def test_unregistered_mae3xx_waiver_raises() -> None:
    with pytest.raises(WaiverError, match="MAE305"):
        collect_waivers("x  # maestro: waive[MAE305]\n", "f.py")
