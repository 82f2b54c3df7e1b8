"""Exact interval arithmetic with endpoints in Q(sqrt2).

Used to certify strict positivity of derivatives of the matching
function: all bounds are field-exact, so a certified sign is a proof,
not a numeric estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Interval(min(products), max(products))

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
        from fractions import Fraction

        return (self.lo + self.hi) * QSqrt2.coerce(Fraction(1, 2))

    def split(self) -> tuple:
        mid = self.midpoint()
        return Interval(self.lo, mid), Interval(mid, self.hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def poly_product_eval(roots: Sequence[QSqrt2], iv: Interval) -> Interval:
    """Interval enclosure of prod (t - a_k) over the interval."""
    out = Interval.point(1)
    for a in roots:
        out = out * (iv - Interval.point(a))
    return out


def poly_product_derivative(roots: Sequence[QSqrt2], iv: Interval) -> Interval:
    """Interval enclosure of d/dt prod (t - a_k): sum over k of the
    product with the k-th factor removed.

    Each leave-one-out product is a prefix product times a suffix
    product.  Exact interval multiplication is associative, so this is
    the same interval as multiplying the other factors in order.
    """
    factors = [iv - Interval.point(a) for a in roots]
    prefix = [Interval.point(1)]
    for f in factors:
        prefix.append(prefix[-1] * f)
    suffix = [Interval.point(1)]
    for f in reversed(factors):
        suffix.append(suffix[-1] * f)
    suffix.reverse()
    out = Interval.point(0)
    for k in range(len(roots)):
        out = out + prefix[k] * suffix[k + 1]
    return out


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
