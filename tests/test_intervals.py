"""Exact interval arithmetic over Q(sqrt2)."""

import random
from fractions import Fraction

from smoothsum.intervals import Interval, certify_positive, poly_product_derivative
from smoothsum.numbers import QSqrt2


def poly_product_eval(roots, iv):
    """Interval enclosure of prod (t - a_k) over the interval."""
    out = Interval.point(1)
    for a in roots:
        out = out * (iv - Interval.point(a))
    return out


def _q(a, b=0):
    return QSqrt2(Fraction(a), Fraction(b))


def _rand_interval(rng):
    lo = Fraction(rng.randint(-8, 7), rng.randint(1, 5))
    hi = lo + Fraction(rng.randint(0, 6), rng.randint(1, 5))
    return Interval(QSqrt2.coerce(lo), QSqrt2.coerce(hi))


def test_interval_arithmetic_containment():
    rng = random.Random(3)
    for _ in range(300):
        a, b = _rand_interval(rng), _rand_interval(rng)
        xa = a.lo if rng.random() < 0.5 else a.hi
        xb = b.lo if rng.random() < 0.5 else b.hi
        assert (a + b).contains(xa + xb)
        assert (a * b).contains(xa * xb)
        assert (a - b).contains(xa - xb)
        assert (-a).contains(-xa)


def test_split_and_midpoint():
    iv = Interval(_q(0), _q(1))
    left, right = iv.split()
    assert left.hi == right.lo == iv.midpoint()
    assert left.lo == iv.lo and right.hi == iv.hi
    assert iv.width() == left.width() + right.width()


def test_poly_product_eval_encloses():
    rng = random.Random(4)
    for _ in range(100):
        roots = [QSqrt2.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(3)]
        iv = _rand_interval(rng)
        box = poly_product_eval(roots, iv)
        for t in (iv.lo, iv.hi, iv.midpoint()):
            value = QSqrt2.coerce(1)
            for r in roots:
                value = value * (t - r)
            assert box.contains(value)


def test_poly_product_derivative_encloses():
    # derivative of (t-r1)(t-r2) is 2t - r1 - r2; check enclosure at endpoints
    roots = [_q(0), _q(1)]
    iv = Interval(_q(0), _q(1, 0))
    box = poly_product_derivative(roots, iv)
    for t in (iv.lo, iv.hi):
        exact = t + t - roots[0] - roots[1]
        assert box.contains(exact)


def _leave_one_out_reference(roots, iv):
    """Sum over k of the product of all factors but the k-th, each
    product formed factor by factor."""
    out = Interval.point(0)
    for k in range(len(roots)):
        term = Interval.point(1)
        for j, a in enumerate(roots):
            if j != k:
                term = term * (iv - Interval.point(a))
        out = out + term
    return out


def test_poly_product_derivative_matches_quadratic_reference():
    rng = random.Random(5)
    for _ in range(200):
        roots = []
        for _ in range(rng.randint(0, 9)):
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            b = Fraction(rng.randint(-2, 2), rng.randint(1, 4)) if rng.random() < 0.3 else 0
            roots.append(QSqrt2(a, b))
        iv = _rand_interval(rng)
        assert poly_product_derivative(roots, iv) == _leave_one_out_reference(roots, iv)


def test_certify_positive():
    # 2t - 1 is not positive on [0,1] but t^2 + 1/10 is
    assert not certify_positive(
        lambda iv: iv + iv - Interval.point(_q(1)), Interval(_q(0), _q(1)), max_depth=8
    )
    assert certify_positive(
        lambda iv: iv * iv + Interval.point(QSqrt2.coerce(Fraction(1, 10))),
        Interval(_q(0), _q(1)),
    )
    # positivity on an interval bounded away from the sign change
    assert certify_positive(
        lambda iv: iv + iv - Interval.point(_q(1)),
        Interval(QSqrt2.coerce(Fraction(51, 100)), _q(1)),
    )
