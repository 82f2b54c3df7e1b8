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

from .numbers import QSqrt2


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

    def scale(self, c) -> "Interval":
        c = QSqrt2.coerce(c)
        if c.sign() >= 0:
            return Interval(c * self.lo, c * self.hi)
        return Interval(c * self.hi, c * self.lo)

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


def poly_product_derivative(roots: Sequence[QSqrt2], iv: Interval) -> Interval:
    """Interval enclosure of d/dt prod (t - a_k): sum over k of the
    product with the k-th factor removed.

    Each leave-one-out product is a prefix product times a suffix
    product.  Exact interval multiplication is associative, so this is
    the same interval as multiplying the other factors in order.  When
    the box and the roots are rational, as under ``certify_positive``'s
    rational bisection, all of them are scaled by the common denominator
    D to integers, and each (k-1)-fold product is divided by D^(k-1) at
    the end; an irrational one keeps the arithmetic in Q(sqrt2).
    """
    points = [QSqrt2.coerce(x) for x in (iv.lo, iv.hi, *roots)]
    den = 1
    if all(x.is_rational for x in points):
        den = math.lcm(*(x.d for x in points))
        points = [x.p * (den // x.d) for x in points]
    lo, hi, *rs = points
    factors = [(lo - a, hi - a) for a in rs]
    prefix = [(1, 1)]
    for f in factors:
        prefix.append(_hull_product(prefix[-1], f))
    suffix = [(1, 1)]
    for f in reversed(factors):
        suffix.append(_hull_product(suffix[-1], f))
    suffix.reverse()
    out_lo = out_hi = 0
    for k in range(len(factors)):
        term = _hull_product(prefix[k], suffix[k + 1])
        out_lo, out_hi = out_lo + term[0], out_hi + term[1]
    scale = Fraction(1, den ** max(len(factors) - 1, 0))
    return Interval(out_lo * scale, out_hi * scale)


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
