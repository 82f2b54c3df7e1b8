"""Exact linear algebra over Fraction (and Q(sqrt2) by duck typing)."""

import itertools
import math
import random
from fractions import Fraction

from smoothsum import linalg
from smoothsum.numbers import QSqrt2


def _matmul(a, b):
    """Product of two non-empty matrices with exact entries."""
    zero = a[0][0] - a[0][0]
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _rand_matrix(rng, rows, cols, field="q"):
    def entry():
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if field == "q":
            return f
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
            assert all(x == 0 for x in linalg.mat_vec(m, v))
        assert len(ns) == len(m[0]) - linalg.rank(m)


def test_solve_and_inverse():
    rng = random.Random(9)
    solved = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, n, n)
        b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        x = linalg.solve(m, b)
        if x is not None:
            assert linalg.mat_vec(m, x) == b
            solved += 1
        inv = linalg.inverse(m)
        if inv is not None:
            prod = _matmul(m, inv)
            assert all(prod[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))
    assert solved > 50


def test_annihilator_duality():
    rng = random.Random(10)
    for _ in range(100):
        dim = rng.randint(1, 5)
        vecs = _rand_matrix(rng, rng.randint(0, dim), dim)
        ann = linalg.annihilator(vecs, dim)
        for a in ann:
            for v in vecs:
                assert sum(a[i] * v[i] for i in range(dim)) == 0
        assert len(ann) == (dim - linalg.rank(vecs) if vecs else dim)
        # double annihilator recovers the span
        back = linalg.annihilator(ann, dim)
        assert linalg.rank(back) == (linalg.rank(vecs) if vecs else 0)
        for v in vecs:
            assert linalg.in_span(back, v)


def test_intersect_and_complement():
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randint(1, 5)
        a = _rand_matrix(rng, rng.randint(0, dim), dim)
        b = _rand_matrix(rng, rng.randint(0, dim), dim)
        inter = linalg.intersect_spans(a, b, dim)
        for v in inter:
            assert linalg.in_span(a, v) or not a
            assert linalg.in_span(b, v) or not b
        # dim(A) + dim(B) = dim(A+B) + dim(A∩B)
        ab = linalg.span_basis([*a, *b])
        assert linalg.rank(a) + linalg.rank(b) == len(ab) + len(inter)
        comp = linalg.pivot_complement(a, dim)
        assert len(comp) == dim - linalg.rank(a)
        assert linalg.rank([*a, *comp]) == dim


def test_qsqrt2_field_supported():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = _rand_matrix(rng, n, n, field="s")
        inv = linalg.inverse(m)
        if inv is not None:
            prod = _matmul(m, inv)
            one = QSqrt2.coerce(1)
            zero = QSqrt2.coerce(0)
            assert all(
                prod[i][j] == (one if i == j else zero) for i in range(n) for j in range(n)
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
        assert (det == 0) == (linalg.inverse([[Fraction(x) for x in row] for row in m]) is None)
