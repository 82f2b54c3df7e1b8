"""Exact linear algebra over the rationals (and over Q(sqrt2)).

Matrices are sequences of rows, lists or tuples alike (no entry point
modifies its input); entries are Fractions or QSqrt2 elements.
Everything is computed by fraction-free-enough Gaussian elimination with
exact arithmetic, so ranks, kernels and spans are certificates rather
than numerics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .numbers import QSqrt2

Row = List
Matrix = List[Row]


def _is_zero(x) -> bool:
    if isinstance(x, QSqrt2):
        return x.is_zero
    return x == 0


def _zero_like(x):
    return QSqrt2() if isinstance(x, QSqrt2) else Fraction(0)


def mat_copy(m: Matrix) -> Matrix:
    return [list(row) for row in m]


def mat_vec(a: Matrix, v: Sequence) -> list:
    return [sum((a[i][k] * v[k] for k in range(len(v))), _zero_like_vec(a, v)) for i in range(len(a))]


def _zero_like_vec(a, v):
    for x in v:
        return _zero_like(x)
    for row in a:
        for x in row:
            return _zero_like(x)
    return Fraction(0)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot columns)."""
    a = mat_copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not _is_zero(a[i][c])), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = _invert(a[r][c])
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and not _is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [a[i][j] - f * a[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _invert(x):
    if isinstance(x, QSqrt2):
        return x.inverse()
    return Fraction(1) / x


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> Matrix:
    """Basis of {v : m v = 0}, one vector per free column."""
    if not m:
        return []
    cols = len(m[0])
    a, pivots = rref(m)
    one = _one_for(m)
    zero = one - one
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * cols
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(v)
    return basis


def _one_for(m: Matrix):
    for row in m:
        for x in row:
            z = _zero_like(x)
            return z + 1 if not isinstance(z, QSqrt2) else QSqrt2.coerce(1)
    return Fraction(1)


def solve(m: Matrix, b: Sequence):
    """One solution of m x = b, or None when inconsistent."""
    if not m:
        return None
    cols = len(m[0])
    aug = [list(row) + [b[i]] for i, row in enumerate(m)]
    a, pivots = rref(aug)
    if cols in pivots:
        return None
    zero = _zero_like(m[0][0]) if m and m[0] else Fraction(0)
    x = [zero] * cols
    for r, p in enumerate(pivots):
        x[p] = a[r][cols]
    return x


def inverse(m: Matrix) -> Matrix | None:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    one = _one_for(m)
    zero = one - one
    aug = [list(m[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
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
    if all(_is_zero(x) for x in v):
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
        one = Fraction(1)
        return [[one if j == i else Fraction(0) for j in range(dim)] for i in range(dim)]
    return nullspace(vectors)


def pivot_complement(vectors: Matrix, dim: int) -> Matrix:
    """Lowest-index coordinate-subspace complement of span(vectors).

    e_i is taken exactly when it is not in span(vectors) + span(e_j : j < i),
    that is when coordinate i adds no rank to the coordinates after it.  One
    rref with the columns reversed reads this off: i is then not a pivot.
    """
    _, pivots = rref([row[::-1] for row in vectors])
    taken = {dim - 1 - c for c in pivots}
    return [[Fraction(int(j == i)) for j in range(dim)] for i in range(dim) if i not in taken]
