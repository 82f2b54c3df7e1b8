"""Exact linear algebra over Q(sqrt2): QSqrt2 entries in and out."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from smoothsum import linalg
from smoothsum.diffeology import LinearMap, Subspace
from smoothsum.numbers import ONE, ZERO, QSqrt2


def _matmul(a, b):
    """Product of two non-empty matrices with exact entries."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _rand_matrix(rng, rows, cols, field="q"):
    def entry():
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if field == "q":
            return QSqrt2(f)
        return QSqrt2(f, Fraction(rng.randint(-2, 2)))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def test_rref_idempotent_and_rank():
    rng = random.Random(7)
    for _ in range(200):
        m = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        r, pivots = linalg.rref(m)
        r2, pivots2 = linalg.rref(r)
        assert r == r2 and pivots == pivots2
        assert linalg.rank(m) == len(pivots)


def test_nullspace_is_exact_kernel():
    rng = random.Random(8)
    for _ in range(200):
        m = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        ns = linalg.nullspace(m)
        for v in ns:
            assert all(x.is_zero for x in linalg.mat_vec(m, v))
        assert len(ns) == len(m[0]) - linalg.rank(m)


def test_solve_and_inverse():
    rng = random.Random(9)
    solved = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, n, n)
        b = [QSqrt2(rng.randint(-5, 5)) for _ in range(n)]
        x = linalg.solve(m, b)
        if x is not None:
            assert linalg.mat_vec(m, x) == b
            solved += 1
        inv = linalg.inverse(m)
        if inv is not None:
            prod = _matmul(m, inv)
            assert all(prod[i][j] == (ONE if i == j else ZERO) for i in range(n) for j in range(n))
    assert solved > 50


def test_annihilator_duality():
    rng = random.Random(10)
    for _ in range(100):
        dim = rng.randint(1, 5)
        vecs = _rand_matrix(rng, rng.randint(0, dim), dim)
        ann = linalg.annihilator(vecs, dim)
        for a in ann:
            for v in vecs:
                assert sum((a[i] * v[i] for i in range(dim)), ZERO).is_zero
        assert len(ann) == (dim - linalg.rank(vecs) if vecs else dim)
        # double annihilator recovers the span
        back = linalg.annihilator(ann, dim)
        assert linalg.rank(back) == (linalg.rank(vecs) if vecs else 0)
        for v in vecs:
            assert linalg.in_span(back, v)


def _intersect_spans(a, b, dim):
    """Basis of span(a) ∩ span(b) inside R^dim (reference: v = x·a = y·b
    solves [aᵀ | -bᵀ] (x, y)ᵀ = 0)."""
    if not a or not b:
        return []
    stacked = [
        [a[i][d] for i in range(len(a))] + [-b[j][d] for j in range(len(b))]
        for d in range(dim)
    ]
    out = []
    for s in linalg.nullspace(stacked):
        v = [sum((s[i] * a[i][d] for i in range(len(a))), ZERO) for d in range(dim)]
        if any(not t.is_zero for t in v):
            out.append(v)
    return linalg.span_basis(out)


def _greedy_complement(vectors, dim):
    """Reference: take e_0, e_1, ... in turn whenever it is not yet spanned."""
    chosen = [list(row) for row in linalg.span_basis(vectors)]
    out = []
    for i in range(dim):
        e = [ZERO] * dim
        e[i] = ONE
        if not linalg.in_span(chosen, e):
            chosen.append(e)
            out.append(e)
        if len(chosen) == dim:
            break
    return out


def test_intersect_and_complement():
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randint(1, 5)
        a = _rand_matrix(rng, rng.randint(0, dim), dim)
        b = _rand_matrix(rng, rng.randint(0, dim), dim)
        inter = _intersect_spans(a, b, dim)
        for v in inter:
            assert linalg.in_span(a, v) or not a
            assert linalg.in_span(b, v) or not b
        # dim(A) + dim(B) = dim(A+B) + dim(A∩B)
        ab = linalg.span_basis([*a, *b])
        assert linalg.rank(a) + linalg.rank(b) == len(ab) + len(inter)
        comp = linalg.pivot_complement(a, dim)
        assert len(comp) == dim - linalg.rank(a)
        assert linalg.rank([*a, *comp]) == dim


def _sparse_matrix(rng, rows, cols, rank):
    """A rows x cols rational matrix of rank at most ``rank``, with zero
    columns and repeated rows likely, as tuples."""
    if rank == 0:
        return [tuple(ZERO for _ in range(cols)) for _ in range(rows)]
    basis = [
        [QSqrt2(Fraction(rng.choice((0, 0, 0, 1, -1, 2)), rng.randint(1, 3))) for _ in range(cols)]
        for _ in range(rank)
    ]
    return [
        tuple(sum((QSqrt2(rng.randint(-2, 2)) * b[c] for b in basis), ZERO) for c in range(cols))
        for _ in range(rows)
    ]


def test_pivot_complement_matches_greedy():
    rng = random.Random(14)
    cases = [([], 1), ([], 4), ([(ZERO,) * 3], 3), ([(ZERO,) * 3] * 2, 3)]
    for _ in range(600):
        dim = rng.randint(1, 7)
        rows = rng.randint(1, dim + 2)
        cases.append((_sparse_matrix(rng, rows, dim, rng.randint(0, min(rows, dim))), dim))
    kinds = set()
    for m, dim in cases:
        r = linalg.rank(m) if m else 0
        kinds.add("empty" if not m else "zero" if r == 0 else "full" if r == dim else "deficient")
        assert linalg.pivot_complement(m, dim) == _greedy_complement(m, dim)
    assert kinds == {"empty", "zero", "deficient", "full"}


def test_pivot_complement_and_in_span_are_one_rref(monkeypatch):
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(1) or rref(m))
    m = _sparse_matrix(random.Random(15), 5, 8, 3)
    linalg.pivot_complement(m, 8)
    assert len(calls) == 1
    calls.clear()
    linalg.in_span(m, m[0])
    assert len(calls) == 1


def test_in_span_matches_rank():
    rng = random.Random(16)
    for field in ("q", "s"):
        seen = set()
        for _ in range(300):
            dim = rng.randint(1, 4)
            vs = _rand_matrix(rng, rng.randint(0, 3), dim, field)
            if vs and rng.random() < 0.5:
                # a combination of the rows, so that both answers occur
                v = [sum((rng.randint(-2, 2) * row[d] for row in vs), ZERO) for d in range(dim)]
            else:
                v = _rand_matrix(rng, 1, dim, field)[0]
            expected = linalg.rank(vs + [v]) == linalg.rank(vs)
            got = linalg.in_span(vs, v)
            assert got == expected
            assert linalg.in_span([tuple(row) for row in vs], tuple(v)) == expected
            seen.add(got)
        assert seen == {True, False}


def test_qsqrt2_field_supported():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = _rand_matrix(rng, n, n, field="s")
        inv = linalg.inverse(m)
        if inv is not None:
            prod = _matmul(m, inv)
            assert all(
                prod[i][j] == (ONE if i == j else ZERO) for i in range(n) for j in range(n)
            )


def _leibniz_determinant(m) -> int:
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def test_integer_determinant_matches_leibniz():
    rng = random.Random(13)
    assert linalg.integer_determinant([]) == 1
    for _ in range(300):
        n = rng.randint(1, 5)
        # small entries with many zeros, so pivots vanish and rows swap
        m = [[rng.choice((0, 0, 0, -2, -1, 1, 2, 7)) for _ in range(n)] for _ in range(n)]
        det = linalg.integer_determinant(m)
        assert det == _leibniz_determinant(m)
        assert (det == 0) == (linalg.inverse([[QSqrt2(x) for x in row] for row in m]) is None)


def _entries(x):
    """Every scalar in a nested list or tuple result."""
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _entries(y)
    else:
        yield x


def test_every_entry_point_returns_qsqrt2_entries():
    rng = random.Random(17)
    zero_rows = [[ZERO] * 3, [ZERO] * 3]
    for m in [_rand_matrix(rng, 3, 3), _rand_matrix(rng, 2, 4, "s"), zero_rows, _sparse_matrix(rng, 4, 3, 2)]:
        cols = len(m[0])
        k = min(len(m), cols)
        square = [row[:k] for row in m[:k]]
        results = [
            linalg.mat_vec(m, [ONE] * cols),
            linalg.rref(m)[0],
            linalg.nullspace(m),
            linalg.solve(m, [ZERO] * len(m)),
            linalg.span_basis(m),
            linalg.annihilator(m, cols),
            linalg.annihilator([], cols),
            linalg.pivot_complement(m, cols),
            linalg.inverse(square) or [],
        ]
        for result in results:
            assert all(type(x) is QSqrt2 for x in _entries(result))
    assert linalg.inverse([[QSqrt2(2), ONE], [ONE, ONE]]) == [[ONE, -ONE], [-ONE, QSqrt2(2)]]


def test_subspace_and_map_entries_are_rational_qsqrt2():
    forms = ([[1, 2]], [[Fraction(1), Fraction(2)]], [[ONE, QSqrt2(2)]], [["1", "2"]])
    spaces = {Subspace.from_vectors(2, v) for v in forms}
    assert len(spaces) == 1
    (w,) = spaces
    assert w.basis == ((ONE, QSqrt2(2)),)
    assert w.contains([Fraction(1, 2), 1]) and w.contains([QSqrt2(3), QSqrt2(6)])
    assert LinearMap.from_rows([[1, Fraction(1, 2)]]).matrix == ((ONE, QSqrt2(Fraction(1, 2))),)
    for bad in (
        lambda: Subspace.from_vectors(2, [[1, QSqrt2.sqrt2()]]),
        lambda: w.contains([QSqrt2.sqrt2(), 2 * QSqrt2.sqrt2()]),
        lambda: LinearMap.from_rows([[QSqrt2(1, 1)]]),
    ):
        with pytest.raises(ValueError, match="irrational entry"):
            bad()
