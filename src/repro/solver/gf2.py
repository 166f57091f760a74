"""Linear algebra over GF(2).

The Toeplitz hash used by RSS (§3.5, Figure 4 of the paper) is linear over
GF(2) in the key bits for any fixed input.  RS3's key-search problem —
Equation (3): *find keys such that all packet pairs satisfying the sharding
constraints collide* — therefore compiles to a homogeneous linear system
over GF(2) for the constraint class emitted by the Constraints Generator
(conjunctions of packet-field equalities).  This module provides the exact
solver for such systems: row reduction, nullspace computation, and random
sampling of the solution space (used by the key-densification loop that
replaces the paper's Partial MaxSAT formulation, see DESIGN.md §2).

Matrices are ``numpy`` arrays of dtype ``uint8`` holding only 0/1 values.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rref",
    "rank",
    "nullspace",
    "solve",
    "random_solution",
    "is_in_span",
]


def _as_gf2(matrix: np.ndarray) -> np.ndarray:
    out = np.asarray(matrix, dtype=np.uint8) & 1
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {out.shape}")
    return out


def rref(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of ``matrix`` over GF(2).

    Returns ``(reduced, pivot_columns)``.  The reduction is performed with
    vectorized XOR row updates, so systems with a few thousand variables
    (52-byte keys for several ports) solve in milliseconds.
    """
    m = _as_gf2(matrix).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        # Find a pivot at or below `row` in this column.
        candidates = np.nonzero(m[row:, col])[0]
        if candidates.size == 0:
            continue
        pivot = row + int(candidates[0])
        if pivot != row:
            m[[row, pivot]] = m[[pivot, row]]
        # Eliminate this column from every other row.
        others = np.nonzero(m[:, col])[0]
        others = others[others != row]
        if others.size:
            m[others] ^= m[row]
        pivots.append(col)
        row += 1
    return m, pivots


def rank(matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over GF(2)."""
    _, pivots = rref(matrix)
    return len(pivots)


def nullspace(matrix: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace of ``matrix`` over GF(2).

    Returns an array of shape ``(dim, n_vars)`` whose rows form a basis of
    ``{x : matrix @ x == 0 (mod 2)}``.  An empty matrix (no constraints)
    yields the identity basis.

    Row *i* sets free column ``free_cols[i]`` to 1; back-substitution
    then sets each pivot variable to that free column's entry in the
    pivot's row of the reduced form.  Both steps are single fancy-index
    assignments over the whole basis.
    """
    m = _as_gf2(matrix)
    n_vars = m.shape[1]
    if m.shape[0] == 0:
        return np.eye(n_vars, dtype=np.uint8)
    reduced, pivots = rref(m)
    free_cols = np.setdiff1d(np.arange(n_vars), pivots)
    basis = np.zeros((free_cols.size, n_vars), dtype=np.uint8)
    basis[np.arange(free_cols.size), free_cols] = 1
    basis[:, pivots] = reduced[: len(pivots)][:, free_cols].T
    return basis


def solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """One particular solution of ``matrix @ x == rhs`` over GF(2).

    Returns ``None`` when the system is inconsistent.
    """
    m = _as_gf2(matrix)
    b = np.asarray(rhs, dtype=np.uint8) & 1
    if b.ndim != 1 or b.shape[0] != m.shape[0]:
        raise ValueError("rhs shape does not match matrix")
    augmented = np.concatenate([m, b[:, None]], axis=1)
    reduced, pivots = rref(augmented)
    n_vars = m.shape[1]
    if n_vars in pivots:
        return None  # A pivot in the RHS column means 0 == 1.
    x = np.zeros(n_vars, dtype=np.uint8)
    for row_idx, pivot_col in enumerate(pivots):
        x[pivot_col] = reduced[row_idx, n_vars]
    return x


def random_solution(
    matrix: np.ndarray,
    rng: np.random.Generator,
    *,
    one_bias: float = 0.5,
) -> np.ndarray:
    """A random element of the nullspace of ``matrix``.

    ``one_bias`` biases the random combination towards solutions with many
    1-bits, mirroring the paper's soft-constraint preference for dense keys
    (§4, *Finding good RSS keys*).  With ``one_bias=0.5`` the solution is
    uniform over the nullspace.
    """
    basis = nullspace(matrix)
    if basis.shape[0] == 0:
        return np.zeros(matrix.shape[1], dtype=np.uint8)
    coeffs = (rng.random(basis.shape[0]) < one_bias).astype(np.uint8)
    return (coeffs @ basis) & 1


def is_in_span(matrix: np.ndarray, vector: np.ndarray) -> bool:
    """True when ``vector`` lies in the row-span of ``matrix``."""
    m = _as_gf2(matrix)
    v = (np.asarray(vector, dtype=np.uint8) & 1)[None, :]
    return rank(m) == rank(np.concatenate([m, v], axis=0))
