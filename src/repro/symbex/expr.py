"""Symbolic bit-vector expression language.

This is the IR shared by the whole Maestro pipeline: the ESE engine traces
packet fields and stateful data as symbols (§3.3 of the paper: "Both the
packet and stateful data are traced as symbols"), the Constraints Generator
reasons about key expressions built from them, and RS3 compiles equalities
between them down to bit-level RSS constraints.

Expressions are immutable, hashable, and structurally comparable.  Widths
are in bits.  Boolean expressions are 1-bit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import SymbolicError

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "Concat",
    "Extract",
    "Eq",
    "Ne",
    "Ult",
    "Ugt",
    "Not",
    "And",
    "Or",
    "Add",
    "Sub",
    "Mul",
    "Uninterp",
    "TRUE",
    "FALSE",
    "bitand",
    "bitor",
    "free_symbols",
    "substitute",
    "evaluate",
    "structurally_equal",
]


@dataclass(frozen=True)
class Expr:
    """Base class for all symbolic expressions."""

    width: int

    def children(self) -> tuple["Expr", ...]:
        return ()

    # Convenience builders so NF code reads naturally.
    def eq(self, other: "Expr | int") -> "Eq":
        return Eq(_coerce(other, self.width), self)

    def ne(self, other: "Expr | int") -> "Ne":
        return Ne(_coerce(other, self.width), self)

    def add(self, other: "Expr | int") -> "Add":
        return Add(self, _coerce(other, self.width))

    def sub(self, other: "Expr | int") -> "Sub":
        return Sub(self, _coerce(other, self.width))

    def extract(self, hi: int, lo: int) -> "Extract":
        return Extract(hi - lo + 1, self, hi, lo)


def _coerce(value: "Expr | int", width: int) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(width, int(value))


@dataclass(frozen=True)
class Const(Expr):
    """A concrete bit-vector constant."""

    value: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise SymbolicError(f"constant width must be positive: {self.width}")
        object.__setattr__(self, "value", self.value & ((1 << self.width) - 1))

    def __repr__(self) -> str:
        return f"0x{self.value:x}:{self.width}"


@dataclass(frozen=True)
class Sym(Expr):
    """A free symbol, e.g. a packet field or a traced state read."""

    name: str

    def __repr__(self) -> str:
        return f"{self.name}:{self.width}"


@dataclass(frozen=True)
class Concat(Expr):
    """Bit concatenation; ``parts[0]`` holds the most significant bits."""

    parts: tuple[Expr, ...]

    @staticmethod
    def of(*parts: Expr) -> "Concat":
        return Concat(sum(p.width for p in parts), tuple(parts))

    def __post_init__(self) -> None:
        if self.width != sum(p.width for p in self.parts):
            raise SymbolicError("Concat width mismatch")
        if not self.parts:
            raise SymbolicError("Concat needs at least one part")

    def children(self) -> tuple[Expr, ...]:
        return self.parts

    def __repr__(self) -> str:
        return "(" + " ++ ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Extract(Expr):
    """Bit slice ``expr[hi:lo]`` (inclusive, LSB-numbered)."""

    expr: Expr
    hi: int
    lo: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo <= self.hi < self.expr.width):
            raise SymbolicError(
                f"Extract [{self.hi}:{self.lo}] out of range for width "
                f"{self.expr.width}"
            )
        if self.width != self.hi - self.lo + 1:
            raise SymbolicError("Extract width mismatch")

    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def __repr__(self) -> str:
        return f"{self.expr!r}[{self.hi}:{self.lo}]"


def _binary_bool(name: str):
    @dataclass(frozen=True, repr=False)
    class _Op(Expr):
        lhs: Expr
        rhs: Expr

        def __init__(self, lhs: Expr, rhs: Expr):
            object.__setattr__(self, "width", 1)
            object.__setattr__(self, "lhs", lhs)
            object.__setattr__(self, "rhs", rhs)

        def children(self) -> tuple[Expr, ...]:
            return (self.lhs, self.rhs)

        def __repr__(self) -> str:
            return f"({self.lhs!r} {name} {self.rhs!r})"

    _Op.__name__ = _Op.__qualname__ = name
    return _Op


class Eq(_binary_bool("Eq")):
    """Bit-vector equality (1-bit result)."""


class Ne(_binary_bool("Ne")):
    """Bit-vector disequality (1-bit result)."""


class Ult(_binary_bool("Ult")):
    """Unsigned less-than."""


class Ugt(_binary_bool("Ugt")):
    """Unsigned greater-than."""


class And(_binary_bool("And")):
    """Boolean conjunction of 1-bit expressions."""


class Or(_binary_bool("Or")):
    """Boolean disjunction of 1-bit expressions."""


@dataclass(frozen=True)
class Not(Expr):
    """Boolean negation of a 1-bit expression."""

    expr: Expr

    def __init__(self, expr: Expr):
        object.__setattr__(self, "width", 1)
        object.__setattr__(self, "expr", expr)

    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def __repr__(self) -> str:
        return f"!{self.expr!r}"


def _binary_arith(name: str):
    @dataclass(frozen=True, repr=False)
    class _Op(Expr):
        lhs: Expr
        rhs: Expr

        def __init__(self, lhs: Expr, rhs: Expr):
            if lhs.width != rhs.width:
                raise SymbolicError(f"{name}: width mismatch {lhs.width} vs {rhs.width}")
            object.__setattr__(self, "width", lhs.width)
            object.__setattr__(self, "lhs", lhs)
            object.__setattr__(self, "rhs", rhs)

        def children(self) -> tuple[Expr, ...]:
            return (self.lhs, self.rhs)

        def __repr__(self) -> str:
            return f"({self.lhs!r} {name} {self.rhs!r})"

    _Op.__name__ = _Op.__qualname__ = name
    return _Op


class Add(_binary_arith("Add")):
    """Modular bit-vector addition."""


class Sub(_binary_arith("Sub")):
    """Modular bit-vector subtraction."""


class Mul(_binary_arith("Mul")):
    """Modular bit-vector multiplication."""


class BitAnd(_binary_arith("BitAnd")):
    """Bitwise AND."""


class BitOr(_binary_arith("BitOr")):
    """Bitwise OR."""


def bitand(lhs: Expr, rhs: Expr | int) -> BitAnd:
    return BitAnd(lhs, _coerce(rhs, lhs.width))


def bitor(lhs: Expr, rhs: Expr | int) -> BitOr:
    return BitOr(lhs, _coerce(rhs, lhs.width))


@dataclass(frozen=True)
class Uninterp(Expr):
    """An uninterpreted function application, e.g. a hash.

    Used for computations whose exact value is irrelevant to sharding but
    whose *dependency set* matters (e.g. the Maglev consistent-hash index).
    Concrete evaluation uses a stable keyed hash so the functional
    simulator still behaves deterministically.
    """

    fn: str
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"{self.fn}({', '.join(map(repr, self.args))})"


TRUE = Const(1, 1)
FALSE = Const(1, 0)


def _walk(expr: Expr) -> Iterator[Expr]:
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def free_symbols(expr: Expr) -> frozenset[Sym]:
    """All :class:`Sym` leaves occurring in ``expr``."""
    return frozenset(node for node in _walk(expr) if isinstance(node, Sym))


def substitute(expr: Expr, mapping: Mapping[Sym, Expr]) -> Expr:
    """Replace symbols per ``mapping``, rebuilding the tree bottom-up."""
    if isinstance(expr, Sym):
        replacement = mapping.get(expr)
        if replacement is None:
            return expr
        if replacement.width != expr.width:
            raise SymbolicError(
                f"substitution width mismatch for {expr!r}: "
                f"{replacement.width} != {expr.width}"
            )
        return replacement
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Concat):
        return Concat(expr.width, tuple(substitute(p, mapping) for p in expr.parts))
    if isinstance(expr, Extract):
        return Extract(expr.width, substitute(expr.expr, mapping), expr.hi, expr.lo)
    if isinstance(expr, Not):
        return Not(substitute(expr.expr, mapping))
    if isinstance(expr, (Eq, Ne, Ult, Ugt, And, Or, Add, Sub, Mul, BitAnd, BitOr)):
        return type(expr)(substitute(expr.lhs, mapping), substitute(expr.rhs, mapping))
    if isinstance(expr, Uninterp):
        return Uninterp(
            expr.width, expr.fn, tuple(substitute(a, mapping) for a in expr.args)
        )
    raise SymbolicError(f"substitute: unsupported node {type(expr).__name__}")


def evaluate(expr: Expr, env: Mapping[str, int]) -> int:
    """Evaluate ``expr`` to an int given concrete values for every symbol.

    ``env`` maps symbol *names* to unsigned integers.  Raises
    :class:`SymbolicError` when a symbol has no binding.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sym):
        if expr.name not in env:
            raise SymbolicError(f"no binding for symbol {expr.name!r}")
        return env[expr.name] & ((1 << expr.width) - 1)
    if isinstance(expr, Concat):
        value = 0
        for part in expr.parts:
            value = (value << part.width) | evaluate(part, env)
        return value
    if isinstance(expr, Extract):
        return (evaluate(expr.expr, env) >> expr.lo) & ((1 << expr.width) - 1)
    if isinstance(expr, Not):
        return 1 - (evaluate(expr.expr, env) & 1)
    if isinstance(expr, Uninterp):
        import hashlib

        material = expr.fn.encode() + b"|".join(
            str(evaluate(arg, env)).encode() for arg in expr.args
        )
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return int.from_bytes(digest, "little") & ((1 << expr.width) - 1)
    lhs = evaluate(expr.lhs, env)
    rhs = evaluate(expr.rhs, env)
    if isinstance(expr, Eq):
        return int(lhs == rhs)
    if isinstance(expr, Ne):
        return int(lhs != rhs)
    if isinstance(expr, Ult):
        return int(lhs < rhs)
    if isinstance(expr, Ugt):
        return int(lhs > rhs)
    if isinstance(expr, And):
        return lhs & rhs & 1
    if isinstance(expr, Or):
        return (lhs | rhs) & 1
    if isinstance(expr, Add):
        return (lhs + rhs) & ((1 << expr.width) - 1)
    if isinstance(expr, Sub):
        return (lhs - rhs) & ((1 << expr.width) - 1)
    if isinstance(expr, Mul):
        return (lhs * rhs) & ((1 << expr.width) - 1)
    if isinstance(expr, BitAnd):
        return lhs & rhs
    if isinstance(expr, BitOr):
        return lhs | rhs
    raise SymbolicError(f"evaluate: unsupported node {type(expr).__name__}")


def structurally_equal(lhs: Expr, rhs: Expr) -> bool:
    """Structural (syntactic) equality; dataclass ``__eq__`` already is."""
    return lhs == rhs
