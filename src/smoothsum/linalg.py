"""Exact linear algebra over Q(sqrt2).

Matrices are sequences of rows, lists or tuples alike (no entry point
modifies its input).  Every entry is a ``QSqrt2``, and every entry point
returns ``QSqrt2`` entries; a rational matrix is one whose entries all
have a zero sqrt2 part.  Everything is computed by Gaussian elimination
with exact arithmetic, so ranks, kernels and spans are certificates
rather than numerics.  ``integer_determinant`` alone works on plain
integers.
"""

from __future__ import annotations

from typing import List, Sequence

from .numbers import ONE, ZERO

Row = List
Matrix = List[Row]


def mat_vec(a: Matrix, v: Sequence) -> list:
    return [sum((row[k] * v[k] for k in range(len(v))), ZERO) for row in a]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot columns)."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not a[i][c].is_zero), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and not a[i][c].is_zero:
                f = a[i][c]
                a[i] = [a[i][j] - f * a[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> Matrix:
    """Basis of {v : m v = 0}, one vector per free column."""
    if not m:
        return []
    cols = len(m[0])
    a, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(v)
    return basis


def solve(m: Matrix, b: Sequence):
    """One solution of m x = b, or None when inconsistent."""
    if not m:
        return None
    cols = len(m[0])
    aug = [list(row) + [b[i]] for i, row in enumerate(m)]
    a, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, p in enumerate(pivots):
        x[p] = a[r][cols]
    return x


def _identity(n: int) -> Matrix:
    return [[ONE if j == i else ZERO for j in range(n)] for i in range(n)]


def inverse(m: Matrix) -> Matrix | None:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + unit for row, unit in zip(m, _identity(n))]
    a, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in a]


def integer_determinant(m: Matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so all entries stay integers."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def in_span(vectors: Matrix, v: Sequence) -> bool:
    """Is v in the row span of ``vectors``?  One elimination: solve
    ``vectors``ᵀ x = v."""
    if all(x.is_zero for x in v):
        return True
    return solve(list(zip(*vectors)), v) is not None


def span_basis(vectors: Matrix) -> Matrix:
    """Canonical (rref) basis of the row span."""
    if not vectors:
        return []
    a, pivots = rref(vectors)
    return a[: len(pivots)]


def annihilator(vectors: Matrix, dim: int) -> Matrix:
    """Basis of {phi : phi(v) = 0 for all v}, as row vectors in R^dim."""
    if not vectors:
        return _identity(dim)
    return nullspace(vectors)


def pivot_complement(vectors: Matrix, dim: int) -> Matrix:
    """Lowest-index coordinate-subspace complement of span(vectors).

    e_i is taken exactly when it is not in span(vectors) + span(e_j : j < i),
    that is when coordinate i adds no rank to the coordinates after it.  One
    rref with the columns reversed reads this off: i is then not a pivot.
    """
    _, pivots = rref([row[::-1] for row in vectors])
    taken = {dim - 1 - c for c in pivots}
    return [e for i, e in enumerate(_identity(dim)) if i not in taken]
