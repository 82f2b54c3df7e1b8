"""Exact interval arithmetic with endpoints in Q(sqrt2).

Used to certify strict positivity of derivatives of the matching
function: all bounds are field-exact, so a certified sign is a proof,
not a numeric estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .numbers import QSqrt2, common_denominator


@dataclass(frozen=True)
class Interval:
    lo: QSqrt2
    hi: QSqrt2

    def __post_init__(self):
        lo = QSqrt2.coerce(self.lo)
        hi = QSqrt2.coerce(self.hi)
        if lo > hi:
            raise ValueError("empty interval")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def point(x) -> "Interval":
        x = QSqrt2.coerce(x)
        return Interval(x, x)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(*_hull_product((self.lo, self.hi), (other.lo, other.hi)))

    def contains(self, x) -> bool:
        x = QSqrt2.coerce(x)
        return self.lo <= x <= self.hi

    def width(self) -> QSqrt2:
        return self.hi - self.lo

    def midpoint(self) -> QSqrt2:
        return (self.lo + self.hi) * QSqrt2.coerce(Fraction(1, 2))

    def split(self) -> tuple:
        mid = self.midpoint()
        return Interval(self.lo, mid), Interval(mid, self.hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _hull_product(p: tuple, q: tuple) -> tuple:
    """(min, max) of the products of the endpoints of p and q."""
    products = (p[0] * q[0], p[0] * q[1], p[1] * q[0], p[1] * q[1])
    return min(products), max(products)


def poly_product_derivative(roots: Sequence, iv: Interval) -> Interval:
    """Interval enclosure of d/dt prod (t - a_k): sum over k of the
    product with the k-th factor removed.

    Each leave-one-out product is a prefix product times a suffix
    product.  Exact interval multiplication is associative and commutes
    with scaling by positive numbers, so this is the same interval as
    multiplying the other factors in order.  When the box is rational and
    the roots are Fractions, as under ``certify_positive``'s rational
    bisection of a matching map, the box is put over one denominator B
    and each factor t - n/m over its own scale m B, as the integer
    interval m t - n; the product without factor k, weighted by m_k, is
    then over the one scale prod m * B^(K-1), and the sum is reduced
    once.  Otherwise the arithmetic stays in Q(sqrt2).
    """
    lo, hi = iv.lo, iv.hi
    if not (lo.is_rational and hi.is_rational and all(type(r) is Fraction for r in roots)):
        rs = [QSqrt2.coerce(r) for r in roots]
        return Interval(*_leave_one_out_sum([(lo - a, hi - a) for a in rs], [1] * len(rs)))
    box_d, ((lo_n, _), (hi_n, _)) = common_denominator((lo, hi))
    weights = [r.denominator for r in roots]
    out_lo, out_hi = _leave_one_out_sum(
        [(m * lo_n - r.numerator * box_d, m * hi_n - r.numerator * box_d) for r, m in zip(roots, weights)], weights
    )
    scale = math.prod(weights) * box_d ** max(len(roots) - 1, 0)
    return Interval(QSqrt2.from_ints(out_lo, 0, scale), QSqrt2.from_ints(out_hi, 0, scale))


def _leave_one_out_sum(factors: list, weights: list) -> tuple:
    """(lo, hi) of the sum over k of weights[k] > 0 times the hull product
    of every factor (lo, hi) but the k-th."""
    prefix = [(1, 1)]
    for f in factors:
        prefix.append(_hull_product(prefix[-1], f))
    suffix = [(1, 1)]
    for f in reversed(factors):
        suffix.append(_hull_product(suffix[-1], f))
    suffix.reverse()
    out_lo = out_hi = 0
    for k, m in enumerate(weights):
        term_lo, term_hi = _hull_product(prefix[k], suffix[k + 1])
        if m != 1:
            term_lo, term_hi = m * term_lo, m * term_hi
        out_lo, out_hi = out_lo + term_lo, out_hi + term_hi
    return out_lo, out_hi


def certify_positive(fn, iv: Interval, max_depth: int = 40) -> bool:
    """Certify fn(iv') > 0 on all of iv by adaptive bisection.

    ``fn`` maps an Interval to an Interval enclosure.  Returns True only
    when a finite bisection tree establishes a strictly positive lower
    bound everywhere; returns False when the depth budget runs out.
    """
    stack = [(iv, 0)]
    while stack:
        cur, depth = stack.pop()
        enclosure = fn(cur)
        if enclosure.lo.sign() > 0:
            continue
        if depth >= max_depth:
            return False
        a, b = cur.split()
        stack.append((a, depth + 1))
        stack.append((b, depth + 1))
    return True
