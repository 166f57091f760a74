"""Symbolic kernel interpreter: re-run lowered path programs over exprs.

The compiled dataplane (:mod:`repro.sim.compiled`) lowers each execution
-tree path into a column program — an interleaving of branch predicates
and vectorized stateful steps.  Translation validation (the MAE3xx plan
certifier, DESIGN §14) needs the *symbolic* meaning of that lowered
program so it can be proved equivalent to the source path: this module
re-executes a path program over the same symbol environment the engine
used — packet fields and state-read results stay symbolic — and returns
the program's predicates, steps, writes, and bindings as expressions.

Layering: this module deliberately knows nothing about the compiled
dataplane's private step classes.  Steps are dispatched on ``step.sig``,
a plain tuple whose head is the op name and whose tail is the step's
expressions and bound symbol names — so the dependency points from the
analysis layer down to symbex only, never sideways into ``repro.sim``.

The interpreter is also a checker in its own right: a program whose
predicate or key expression consumes a symbol no earlier step bound (a
reordered or truncated lowering) raises :class:`SymKernelError` rather
than producing a bogus outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.symbex import expr as E

__all__ = [
    "SymKernelError",
    "SymStep",
    "SymOutcome",
    "base_symbols",
    "strip_zext",
    "interpret_program",
]

_BASE_SYMBOLS: frozenset | None = None


def base_symbols() -> frozenset:
    """Symbols bound before any stateful op runs — the engine's initial
    environment: packet fields, the wire size, and virtual time.

    Resolved lazily: :mod:`repro.nf.packet` itself imports the expr IR,
    so a module-level import here would be circular.
    """
    global _BASE_SYMBOLS
    if _BASE_SYMBOLS is None:
        from repro.nf.packet import PACKET_FIELDS

        _BASE_SYMBOLS = frozenset(
            {"time", "pkt.wire_size"}
            | {f"pkt.{name}" for name in PACKET_FIELDS}
        )
    return _BASE_SYMBOLS

#: Ops a lowered step may carry, with the shape of its ``sig`` tail.
#: Anything else is an unknown kernel and is rejected conservatively.
_READ_OPS = ("map_get", "vector_borrow", "dchain_is_allocated")
_WRITE_OPS = ("dchain_rejuvenate", "vector_put", "dchain_allocate", "map_put")


class SymKernelError(Exception):
    """The lowered program is not a well-formed symbolic computation."""


def strip_zext(expr: E.Expr) -> E.Expr:
    """Normalize away zero-extensions, recursively.

    The engine widens values with ``Concat(0, x)``; the lowerer passes
    the tail through untouched (its concrete value is unchanged).  Both
    sides of an equivalence check are normalized with this so a source
    predicate ``Eq(k, Concat(0, x))`` and its lowered twin compare
    structurally equal regardless of extension width.
    """
    if isinstance(expr, (E.Const, E.Sym)):
        return expr
    if isinstance(expr, E.Concat):
        if all(
            isinstance(p, E.Const) and p.value == 0 for p in expr.parts[:-1]
        ):
            return strip_zext(expr.parts[-1])
        parts = tuple(strip_zext(p) for p in expr.parts)
        return E.Concat(sum(p.width for p in parts), parts)
    if isinstance(expr, E.Extract):
        inner = strip_zext(expr.expr)
        if expr.lo == 0 and expr.hi >= inner.width - 1:
            # The slice covers the (narrowed) value entirely: identity.
            return inner
        if expr.lo >= inner.width:
            # The slice lies entirely in stripped zero-extension bits.
            return E.Const(expr.width, 0)
        hi = min(expr.hi, inner.width - 1)
        return E.Extract(hi - expr.lo + 1, inner, hi, expr.lo)
    if isinstance(expr, E.Not):
        return E.Not(strip_zext(expr.expr))
    if isinstance(
        expr,
        (E.Eq, E.Ne, E.Ult, E.Ugt, E.And, E.Or),
    ):
        return type(expr)(strip_zext(expr.lhs), strip_zext(expr.rhs))
    if isinstance(expr, (E.Add, E.Sub, E.Mul, E.BitAnd, E.BitOr)):
        lhs, rhs = strip_zext(expr.lhs), strip_zext(expr.rhs)
        if lhs.width != rhs.width:
            # Arithmetic nodes demand equal widths; re-extend the
            # narrower side (zero-extension, the only kind the engine
            # emits) so the node rebuilds.
            wide = max(lhs.width, rhs.width)
            lhs, rhs = _zext_to(lhs, wide), _zext_to(rhs, wide)
        return type(expr)(lhs, rhs)
    if isinstance(expr, E.Uninterp):
        return E.Uninterp(
            expr.width, expr.fn, tuple(strip_zext(a) for a in expr.args)
        )
    return expr


def _zext_to(expr: E.Expr, width: int) -> E.Expr:
    if expr.width >= width:
        return expr
    pad = E.Const(width - expr.width, 0)
    return E.Concat(width, (pad, expr))


@dataclass(frozen=True)
class SymStep:
    """One stateful step of a lowered program, symbolically.

    ``key`` holds the (normalized) key/index expressions the step
    evaluates; ``binds`` the result-symbol names it introduces;
    ``stored`` the (field, expr) writes it performs.
    """

    op: str
    obj: str
    key: tuple
    binds: tuple
    stored: tuple
    write: bool


@dataclass(frozen=True)
class SymOutcome:
    """Everything a lowered program computes, as expressions.

    ``constraints`` and ``steps`` appear in program order (the order the
    classifier evaluates them); ``port`` is an int for constant forwards,
    an :class:`~repro.symbex.expr.Expr` for computed ones, and ``None``
    for drops; ``mods`` are the terminal header rewrites.
    """

    constraints: tuple
    steps: tuple
    kind: object
    port: object
    mods: tuple
    bound: frozenset


def _check_bound(expr: E.Expr, bound: set, what: str) -> None:
    missing = sorted(
        s.name for s in E.free_symbols(expr) if s.name not in bound
    )
    if missing:
        raise SymKernelError(
            f"{what} consumes symbol(s) not bound at this point: "
            f"{', '.join(missing)}"
        )


def _interpret_step(step, bound: set) -> SymStep:
    sig = getattr(step, "sig", None)
    if not isinstance(sig, tuple) or not sig:
        raise SymKernelError(f"step without a sig tuple: {step!r}")
    op = sig[0]
    if op == "map_get":
        _, obj, keys, found, value = sig
        for k in keys:
            _check_bound(k, bound, f"map_get({obj!r}) key")
        bound.add(found)
        bound.add(value)
        return SymStep(
            op, obj, tuple(strip_zext(k) for k in keys),
            (found, value), (), False,
        )
    if op == "vector_borrow":
        _, obj, index, fields = sig
        _check_bound(index, bound, f"vector_borrow({obj!r}) index")
        names = tuple(name for _, name in fields)
        bound.update(names)
        return SymStep(op, obj, (strip_zext(index),), names, (), False)
    if op == "dchain_is_allocated":
        _, obj, index, res = sig
        _check_bound(index, bound, f"dchain_is_allocated({obj!r}) index")
        bound.add(res)
        return SymStep(op, obj, (strip_zext(index),), (res,), (), False)
    if op == "dchain_rejuvenate":
        _, obj, index = sig
        _check_bound(index, bound, f"dchain_rejuvenate({obj!r}) index")
        return SymStep(op, obj, (strip_zext(index),), (), (), True)
    if op == "dchain_allocate":
        # Key-less; binds the allocator's ``ok`` and ``index`` results.
        _, obj, ok, index = sig
        bound.add(ok)
        bound.add(index)
        return SymStep(op, obj, (), (ok, index), (), True)
    if op == "map_put":
        # Binds the insert's ``ok``; stores one ``value``.
        _, obj, keys, value, ok = sig
        for k in keys:
            _check_bound(k, bound, f"map_put({obj!r}) key")
        _check_bound(value, bound, f"map_put({obj!r}) value")
        bound.add(ok)
        return SymStep(
            op, obj, tuple(strip_zext(k) for k in keys), (ok,),
            (("value", strip_zext(value)),), True,
        )
    if op == "vector_put":
        _, obj, index, stored = sig
        _check_bound(index, bound, f"vector_put({obj!r}) index")
        for fname, expr in stored:
            _check_bound(expr, bound, f"vector_put({obj!r}).{fname}")
        return SymStep(
            op, obj, (strip_zext(index),), (),
            tuple((f, strip_zext(e)) for f, e in stored), True,
        )
    raise SymKernelError(f"unknown lowered op {op!r}")


def interpret_program(prog, *, base_syms=None) -> SymOutcome:
    """Symbolically execute a lowered path program.

    ``prog`` is any object with the path-program shape: ``items`` (an
    interleaving of ``("c", expr)`` predicates and ``("op", step)``
    stateful steps), plus the terminal-action fields ``kind`` /
    ``port_const`` / ``port_expr`` / ``mods``.  Raises
    :class:`SymKernelError` when the program consumes an unbound symbol,
    carries an unknown op, or is otherwise malformed.
    """
    bound = set(base_symbols() if base_syms is None else base_syms)
    constraints = []
    steps = []
    for item in prog.items:
        if not (isinstance(item, tuple) and len(item) == 2):
            raise SymKernelError(f"malformed program item: {item!r}")
        tag, payload = item
        if tag == "c":
            _check_bound(payload, bound, "predicate")
            constraints.append(strip_zext(payload))
        elif tag == "op":
            steps.append(_interpret_step(payload, bound))
        else:
            raise SymKernelError(f"unknown program item tag {tag!r}")
    port = None
    mods = ()
    if prog.supported:
        if prog.port_expr is not None:
            _check_bound(prog.port_expr, bound, "port expression")
            port = strip_zext(prog.port_expr)
        else:
            port = prog.port_const
        for fname, expr in prog.mods:
            _check_bound(expr, bound, f"header rewrite {fname!r}")
        mods = tuple((f, strip_zext(e)) for f, e in prog.mods)
    return SymOutcome(
        constraints=tuple(constraints),
        steps=tuple(steps),
        kind=prog.kind,
        port=port,
        mods=mods,
        bound=frozenset(bound),
    )
