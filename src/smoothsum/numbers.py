"""Exact arithmetic in Q and Q(sqrt2), with three-valued rationality tags.

Nothing on a certificate path ever goes through floating point: every
certified value is an element of Q(sqrt2) held exactly as an integer
triple (p, q, d) standing for (p + q*sqrt2)/d, and this module alone
computes on that form, reduced or not.  A :class:`TaggedReal`
carries, in addition to its value, a rationality tag (Rational /
Irrational / Unknown) that makes the indicator of the irrationals
evaluable wherever the tag is decided.  Tag propagation is sound but
deliberately incomplete: Unknown is an honest answer.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Optional, Union

_TERM_RE = re.compile(r"[+-]?[^+-]+")


class DomainError(ArithmeticError):
    """Raised for domain violations (inverting zero, sqrt of a negative)."""


def _square_exceeds_twice(x: int, y: int) -> bool:
    """x^2 > 2 y^2 for positive integers, from their leading 64 bits
    when those settle it, else by squaring."""
    shift = max(x.bit_length(), y.bit_length()) - 64
    if shift > 0:
        # x, y lie in [xs, xs+1) and [ys, ys+1) times 2^shift
        xs, ys = x >> shift, y >> shift
        if xs * xs > 2 * (ys + 1) ** 2:
            return True
        if (xs + 1) ** 2 <= 2 * ys * ys:
            return False
    return x * x > 2 * y * y


def sign_of_parts(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt2 for integers p and q."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p >= 0 and q > 0:
        return 1
    if p <= 0 and q < 0:
        return -1
    # Opposite signs: compare p^2 with 2 q^2; they differ because sqrt2
    # is irrational.
    p_wins = _square_exceeds_twice(abs(p), abs(q))
    return 1 if p_wins == (p > 0) else -1


class QSqrt2:
    """An element a + b*sqrt(2) of the field Q(sqrt2).

    It is held as three integers (p, q, d) standing for (p + q*sqrt2)/d,
    in canonical form: d > 0 and gcd(p, q, d) = 1.  Two values are equal
    iff their triples are, and the value is rational iff q == 0.  ``a``
    and ``b`` read the two rational parts as Fractions.  The value is
    immutable.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        if type(a) is int and type(b) is int:
            p, q, d = a, b, 1
        else:
            a = a if isinstance(a, Fraction) else Fraction(a)
            b = b if isinstance(b, Fraction) else Fraction(b)
            # coprime parts over the lcm of their denominators share no
            # factor with it
            d = math.lcm(a.denominator, b.denominator)
            p = a.numerator * (d // a.denominator)
            q = b.numerator * (d // b.denominator)
        _SET_P(self, p)
        _SET_Q(self, q)
        _SET_D(self, d)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return QSqrt2, (self.a, self.b)

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt2(cls) -> "QSqrt2":
        return _triple(0, 1, 1)

    @staticmethod
    def from_ints(p: int, q: int, d: int) -> "QSqrt2":
        """(p + q*sqrt2)/d for integers with d > 0, in canonical form."""
        return _reduced(p, q, d)

    @classmethod
    def coerce(cls, x: Union["QSqrt2", Fraction, int]) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        if type(x) is int:
            return _triple(x, 0, 1)
        x = x if isinstance(x, Fraction) else Fraction(x)
        return _triple(x.numerator, 0, x.denominator)

    # -- parts and predicates ------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def as_rational(self) -> Fraction:
        if self.q != 0:
            raise DomainError(f"{self} is not rational")
        return Fraction(self.p, self.d)

    def __eq__(self, other):
        if type(other) is not QSqrt2:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        # hash((a, b)), without building the Fractions: a numeric hash
        # depends on the value alone, so p/d and q/d hash as Fraction's
        # __hash__ would hash them reduced, with d's inverse shared
        try:
            dinv = pow(self.d, -1, sys.hash_info.modulus)
        except ValueError:  # d is a multiple of the modulus
            return hash((self.a, self.b))
        parts = (hash(hash(abs(n)) * dinv) * (1 if n >= 0 else -1) for n in (self.p, self.q))
        return hash(tuple(-2 if h == -1 else h for h in parts))

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other):
        o = other if type(other) is QSqrt2 else QSqrt2.coerce(other)
        return _sum(self.p, self.q, self.d, o.p, o.q, o.d)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = other if type(other) is QSqrt2 else QSqrt2.coerce(other)
        return _sum(self.p, self.q, self.d, -o.p, -o.q, o.d)

    def __rsub__(self, other):
        return QSqrt2.coerce(other) - self

    def __mul__(self, other):
        return _reduced(*mul_parts(self, other if type(other) is QSqrt2 else QSqrt2.coerce(other)))

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        # d/(p+q*sqrt2) = d(p-q*sqrt2)/(p^2-2q^2); the norm vanishes only
        # at 0 because sqrt2 is irrational.
        p, q, d = self.p, self.q, self.d
        if q == 0:
            if p == 0:
                raise DomainError("inversion of zero in Q(sqrt2)")
            return _triple(d, 0, p) if p > 0 else _triple(-d, 0, -p)
        norm = p * p - 2 * q * q
        if norm < 0:
            return _reduced(-d * p, d * q, -norm)
        return _reduced(d * p, -d * q, norm)

    def __truediv__(self, other):
        return self * QSqrt2.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QSqrt2.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QSqrt2.coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact order ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt2 (d > 0 does not change it)."""
        return sign_of_parts(self.p, self.q)

    def _cmp(self, other) -> int:
        """Sign of self - other, from the cross-multiplied triples."""
        return cmp_parts(self, other if type(other) is QSqrt2 else QSqrt2.coerce(other))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if sign_of_parts(self.p, self.q) < 0 else self

    def __float__(self):
        # int / int is correctly rounded, like float(Fraction)
        if self.q == 0:
            return self.p / self.d
        return self.p / self.d + (self.q / self.d) * math.sqrt(2)

    # -- text form -------------------------------------------------------
    # Canonical form `a+b*sqrt2`, rationals as `p/q` or `p`; bit-exact
    # round trip through parse_qsqrt2.

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        bpart = f"{abs(b)}*sqrt2" if abs(b) != 1 else "sqrt2"
        if a == 0:
            return bpart if b > 0 else "-" + bpart
        sign = "+" if b > 0 else "-"
        return f"{a}{sign}{bpart}"

    def __repr__(self):
        return f"QSqrt2({self.a!r}, {self.b!r})"


_SET_P = QSqrt2.p.__set__
_SET_Q = QSqrt2.q.__set__
_SET_D = QSqrt2.d.__set__
_new = object.__new__


def _triple(p: int, q: int, d: int) -> QSqrt2:
    """The QSqrt2 (p + q*sqrt2)/d of a triple already in canonical form."""
    v = _new(QSqrt2)
    _SET_P(v, p)
    _SET_Q(v, q)
    _SET_D(v, d)
    return v


def _sum(p1: int, q1: int, d1: int, p2: int, q2: int, d2: int) -> QSqrt2:
    """The sum of two canonical triples, over the lcm of d1 and d2.

    With g = gcd(d1, d2), a prime of d1/g or of d2/g cannot divide both
    numerator parts of the sum (it would divide p, q and d of one
    summand), so only their gcd with g is left to cancel.
    """
    if d1 == d2:
        return _reduced(p1 + p2, q1 + q2, d1)
    g = math.gcd(d1, d2)
    s, t = d1 // g, d2 // g
    p, q = p1 * t + p2 * s, q1 * t + q2 * s
    if g != 1:
        g = math.gcd(p, q, g)
        if g != 1:
            return _triple(p // g, q // g, s * (d2 // g))
    return _triple(p, q, s * d2)


def _reduced(p: int, q: int, d: int) -> QSqrt2:
    """(p + q*sqrt2)/d for d > 0, divided by gcd(p, q, d)."""
    if d != 1:
        g = math.gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    return _triple(p, q, d)


ZERO = QSqrt2()
ONE = QSqrt2.coerce(1)


# -- many values at once ---------------------------------------------------
# Linear combinations of products of values on the integer triples, over
# one denominator, tested for zero without reducing or building a value.


def zero_prefix(terms: Iterable[tuple], count: int, start: int = 0) -> int:
    """The first point i from ``start`` up to ``count`` where the sum
    over ``terms`` of c times the product of column[i] over the term's
    columns is nonzero, else ``count``.  A term is (c, column, ...), a
    coefficient and the columns of its factors: (c, column) is c times
    column[i], and (c,) the constant c.  Each column[i] read must hold
    one exact ``TaggedReal``.  A sum over one denominator is zero iff both
    parts of its numerator are, so nothing is reduced and no value is
    built; the scan stops at the first nonzero point."""
    rows = [(c.p, c.q, c.d, columns) for c, *columns in terms if c.p or c.q]
    for i in range(start, count):
        p = q = 0
        d = 1
        for tp, tq, td, columns in rows:
            for column in columns:
                v = column[i][0].value
                vp, vq = v.p, v.q
                if vq:
                    tp, tq = tp * vp + 2 * tq * vq, tp * vq + tq * vp
                else:
                    tp *= vp
                    tq *= vp
                td *= v.d
            if td == d:
                p += tp
                q += tq
            else:
                p, q, d = p * td + tp * d, q * td + tq * d, d * td
        if p or q:
            return i
    return count


def dot_is_zero(phi: Iterable[QSqrt2], vals: Iterable[QSqrt2]) -> bool:
    """Whether the sum of phi[i] * vals[i] is 0: ``zero_prefix`` at one
    point."""
    return zero_prefix([(c, [(TaggedReal.exact(v),)]) for c, v in zip(phi, vals)], 1) == 1


SQRT2 = QSqrt2.sqrt2()
INV_SQRT2 = QSqrt2(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2


def parse_qsqrt2(text: str) -> QSqrt2:
    """Parse the canonical `a+b*sqrt2` text form (either part optional)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Q(sqrt2) literal")
    a = Fraction(0)
    b = Fraction(0)
    for term in _TERM_RE.findall(s):
        if term.endswith("sqrt2"):
            coef = term[: -len("sqrt2")].rstrip("*")
            if coef in ("", "+"):
                b += 1
            elif coef == "-":
                b -= 1
            else:
                b += Fraction(coef)
        else:
            a += Fraction(term)
    return QSqrt2(a, b)


def floor_qsqrt2(v, k: int = 0) -> int:
    """Exact floor of v * 2^k for an element v of Q(sqrt2), given as a
    number or as parts, and k >= 0, in integer arithmetic: the parts are
    shifted, and nothing is reduced."""
    v = v if type(v) in (tuple, QSqrt2) else QSqrt2.coerce(v)
    p, q, d = v if type(v) is tuple else (v.p, v.q, v.d)
    return floor_parts(p << k, q << k, d)


# floor_parts keeps this many bits of d above the bits of q it drops, so
# that its bracket of q*sqrt2 is narrow enough to settle all but near ties.
FLOOR_GUARD_BITS = 64


def floor_parts(p: int, q: int, d: int) -> int:
    """Exact floor of (p + q*sqrt2)/d for integers p, q and d > 0, in
    lowest terms or not.

    When d has more than FLOOR_GUARD_BITS bits and q != 0, |q| sqrt2 is
    first bracketed from the top bits of q: with s = bitlen(d) -
    FLOOR_GUARD_BITS, qt = |q| >> s and r0 = isqrt(2 qt^2),

        r0 2^s <= |q| sqrt2 < (r0 + 3) 2^s,

    since qt 2^s <= |q| < (qt + 1) 2^s and qt sqrt2 < r0 + 1.  Add p to
    both ends, with the sign of q, and floor each by d: the floor sought
    lies between the two, so when they agree it is their common value.
    They differ only when a multiple of d lies inside the bracket, which
    is below 3 / 2^63 of d wide.  Such a near tie, and a d of at most
    FLOOR_GUARD_BITS bits, is settled by ``_floor_exact``, one isqrt at
    full width.
    """
    if not q:
        return p // d
    s = d.bit_length() - FLOOR_GUARD_BITS
    if s > 0:
        r0 = math.isqrt(2 * (abs(q) >> s) ** 2)
        if q > 0:
            lo, hi = p + (r0 << s), p + ((r0 + 3) << s)
        else:
            lo, hi = p - ((r0 + 3) << s), p - (r0 << s)
        lo //= d
        if lo == hi // d:
            return lo
    return _floor_exact(p, q, d)


def _floor_exact(p: int, q: int, d: int) -> int:
    """floor_parts at full width: F = floor(q*sqrt2) comes from
    ``math.isqrt(2 q^2)``, which is never exact unless q = 0.  As 0 <=
    q*sqrt2 - F < 1, the floor is (p + F) // d."""
    root = math.isqrt(2 * q * q)  # floor(|q| sqrt2)
    f = root if q >= 0 else -root - 1
    return (p + f) // d


# -- values as parts: a QSqrt2, or a tuple (p, q, d) of integers with
# d > 0 standing for (p + q*sqrt2)/d, in lowest terms or not, for a
# caller that reduces once at the end.  Only what returns a QSqrt2
# reduces.


def cmp_parts(x, y) -> int:
    """The sign of x - y, from the cross-multiplied parts."""
    p1, q1, d1 = x if type(x) is tuple else (x.p, x.q, x.d)
    p2, q2, d2 = y if type(y) is tuple else (y.p, y.q, y.d)
    return sign_of_parts(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1)


def sub_parts(x, y, d: Optional[int] = None) -> tuple:
    """x - y as parts over d, a common multiple of the denominators of x
    and y, by default their product."""
    p1, q1, d1 = x if type(x) is tuple else (x.p, x.q, x.d)
    p2, q2, d2 = y if type(y) is tuple else (y.p, y.q, y.d)
    if d is None:
        return p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2
    k1, k2 = d // d1, d // d2
    return p1 * k1 - p2 * k2, q1 * k1 - q2 * k2, d


def mul_parts(x, y) -> tuple:
    """x * y as parts over the product of the denominators."""
    p1, q1, d1 = x if type(x) is tuple else (x.p, x.q, x.d)
    p2, q2, d2 = y if type(y) is tuple else (y.p, y.q, y.d)
    if not q2:
        return p1 * p2, q1 * p2, d1 * d2
    if not q1:
        return p1 * p2, p1 * q2, d1 * d2
    return p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, d1 * d2


def common_denominator(values) -> tuple:
    """(D, [(p_1, q_1), ...]) with values[i] = (p_i + q_i sqrt2) / D for
    QSqrt2 values, D the lcm of their denominators."""
    den = math.lcm(*[v.d for v in values])
    return den, [(v.p * (den // v.d), v.q * (den // v.d)) for v in values]


def dot_exact(xs: tuple, ys: tuple) -> QSqrt2:
    """sum x_i y_i for two lists of values, each put over one denominator
    by ``common_denominator`` (once, by a caller that reuses it), reduced
    once."""
    (dx, xs), (dy, ys) = xs, ys
    p = q = 0
    for (xp, xq), (yp, yq) in zip(xs, ys):
        p += xp * yp + 2 * xq * yq
        q += xp * yq + xq * yp
    return _reduced(p, q, dx * dy)


@dataclass(frozen=True)
class QSqrt2Poly:
    """(sum p[i] t^i + sqrt2 * sum q[i] t^i) / d with integer coefficient
    vectors of equal length, lowest degree first, and d > 0, not reduced:
    ``plus`` puts a new term over the lcm of the denominators, and only
    what returns a QSqrt2 reduces."""

    p: tuple
    q: tuple
    d: int

    def plus(self, c: QSqrt2, basis: tuple) -> "QSqrt2Poly":
        """This polynomial plus c * B(t) / M for integer coefficients B,
        lowest degree first, and M > 0, given as basis = (B, M)."""
        prod, scale = basis
        # c * B / M = (c.p + c.q sqrt2) * B / (c.d * M), put over the
        # common denominator d
        d = math.lcm(self.d, scale * c.d)
        us, ue = d // self.d, d // (scale * c.d)
        ka, kb = c.p * ue, c.q * ue
        p = tuple(x * us + ka * y for x, y in zip_longest(self.p, prod, fillvalue=0))
        q = tuple(x * us + kb * y for x, y in zip_longest(self.q, prod, fillvalue=0))
        return type(self)(p, q, d)

    def horner(self, u: int, v: int) -> tuple:
        """The value at u/v, v > 0, as parts (hp, hq, den), by homogenised
        Horner in integers, not reduced."""
        hp, hq = self.p[-1], self.q[-1]
        vk = 1
        for cp, cq in zip(reversed(self.p[:-1]), reversed(self.q[:-1])):
            vk *= v
            hp = hp * u + cp * vk
            hq = hq * u + cq * vk
        return hp, hq, self.d * vk

    def at(self, t: QSqrt2) -> QSqrt2:
        if t.is_rational:
            return _reduced(*self.horner(t.p, t.d))
        out = ZERO
        for cp, cq in zip(reversed(self.p), reversed(self.q)):
            out = out * t + QSqrt2(cp, cq)
        return _reduced(out.p, out.q, out.d * self.d)

    def floors(self, k: int) -> tuple:
        """floor(2^k c_i) for each coefficient c_i, highest degree first."""
        return tuple(floor_parts(cp << k, cq << k, self.d) for cp, cq in zip(self.p[::-1], self.q[::-1]))

    def derivative(self) -> list:
        """The coefficients of the derivative, lowest degree first, reduced."""
        return [_reduced(i * cp, i * cq, self.d) for i, (cp, cq) in enumerate(zip(self.p, self.q)) if i]


# ---------------------------------------------------------------------
# Rationality tags
# ---------------------------------------------------------------------


class Tag(str, Enum):
    RATIONAL = "Rational"
    IRRATIONAL = "Irrational"
    UNKNOWN = "Unknown"


@dataclass(frozen=True, slots=True)
class TaggedReal:
    """A real number with a sound rationality tag.

    ``value`` is an exact QSqrt2, an approximate float (diagnostics only),
    or None when the number is opaque (for instance the value of an axiom
    function) or when no float is formed.  ``transcendental`` is set only
    when the value is certified transcendental by the axiom table; it
    strengthens the Irrational tag.

    No tag is ever decided from a float.  So a float that cannot be formed
    (out of the float range) becomes None and the tag stays as it is, and
    a caller that reads only the tag may ask for no float at all: an
    ``expr.Plan`` does so for an H1, exp or barGamma node that only tags
    are read from (the demand rule in ``Plan``).
    """

    value: Union[QSqrt2, float, None]
    tag: Tag
    transcendental: bool = False

    def __post_init__(self):
        if isinstance(self.value, (int, Fraction)):
            object.__setattr__(self, "value", QSqrt2.coerce(self.value))
        if isinstance(self.value, QSqrt2):
            expected = Tag.RATIONAL if self.value.is_rational else Tag.IRRATIONAL
            if self.tag != expected:
                raise ValueError(f"tag {self.tag} inconsistent with exact value {self.value}")
            if self.transcendental:
                raise ValueError("exact Q(sqrt2) values are algebraic")
        if self.transcendental and self.tag != Tag.IRRATIONAL:
            raise ValueError("transcendental values are irrational")

    # -- constructors ---------------------------------------------------

    @classmethod
    def exact(cls, v) -> "TaggedReal":
        # the tag is read off the value, so there is nothing to validate
        if type(v) is not QSqrt2:
            v = QSqrt2.coerce(v)
        t = _new(cls)
        _SET_VALUE(t, v)
        _SET_TAG(t, _RATIONAL if v.q == 0 else _IRRATIONAL)
        _SET_TRANSCENDENTAL(t, False)
        return t

    @classmethod
    def certified_transcendental(cls, approx: Optional[float]) -> "TaggedReal":
        # Irrational and transcendental, so there is nothing to validate;
        # without a float it is one shared value
        if approx is None:
            return _TRANSCENDENTAL_T
        t = _new(cls)
        _SET_VALUE(t, approx)
        _SET_TAG(t, _IRRATIONAL)
        _SET_TRANSCENDENTAL(t, True)
        return t

    @classmethod
    def approx(cls, x: float, tag: Tag = Tag.UNKNOWN, transcendental: bool = False) -> "TaggedReal":
        return cls(float(x), tag, transcendental)

    @classmethod
    def opaque(cls) -> "TaggedReal":
        return _OPAQUE_T

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, QSqrt2)

    def float_value(self) -> Optional[float]:
        """The value as a float; None when opaque or out of the float range."""
        if self.value is None:
            return None
        try:
            return float(self.value)
        except OverflowError:
            return None

    def sign(self) -> Optional[int]:
        """Exact sign when available, else None."""
        if self.is_exact:
            return self.value.sign()
        return None

    def __str__(self):
        if self.is_exact:
            return f"{self.value} [{self.tag.value}]"
        return f"~{self.value} [{self.tag.value}]"


_SET_VALUE = TaggedReal.value.__set__
_SET_TAG = TaggedReal.tag.__set__
_SET_TRANSCENDENTAL = TaggedReal.transcendental.__set__
# read per value on hot paths: a member read off the Enum class costs a
# descriptor call (about 0.1 us on Python 3.11)
_RATIONAL = Tag.RATIONAL
_IRRATIONAL = Tag.IRRATIONAL
# A TaggedReal is immutable, so the values without a float that tag-only
# callers get most often are shared
_OPAQUE_T = TaggedReal(None, Tag.UNKNOWN)
_TRANSCENDENTAL_T = TaggedReal(None, Tag.IRRATIONAL, transcendental=True)


def _approx_value(x: TaggedReal, y: TaggedReal, op) -> Optional[float]:
    fx, fy = x.float_value(), y.float_value()
    if fx is None or fy is None:
        return None
    return op(fx, fy)


def add_tagged(x: TaggedReal, y: TaggedReal) -> TaggedReal:
    if x.is_exact and y.is_exact:
        return TaggedReal.exact(x.value + y.value)
    value = _approx_value(x, y, lambda p, q: p + q)
    tx, ty = x.tag, y.tag
    if tx == Tag.RATIONAL and ty == Tag.RATIONAL:
        tag = Tag.RATIONAL
    elif {tx, ty} == {Tag.RATIONAL, Tag.IRRATIONAL}:
        tag = Tag.IRRATIONAL
    else:
        tag = Tag.UNKNOWN
    # transcendental + certified-algebraic stays transcendental
    trans = False
    if x.transcendental and (y.is_exact or (ty == Tag.RATIONAL and not y.transcendental)):
        trans = True
    if y.transcendental and (x.is_exact or (tx == Tag.RATIONAL and not x.transcendental)):
        trans = True
    if trans:
        tag = Tag.IRRATIONAL
    return TaggedReal(value, tag, trans)


def mul_tagged(x: TaggedReal, y: TaggedReal) -> TaggedReal:
    if x.is_exact and y.is_exact:
        return TaggedReal.exact(x.value * y.value)
    # exact zero annihilates even an opaque factor
    if (x.is_exact and x.value.is_zero) or (y.is_exact and y.value.is_zero):
        return TaggedReal.exact(0)
    value = _approx_value(x, y, lambda p, q: p * q)
    tag = Tag.UNKNOWN
    trans = False
    for u, v in ((x, y), (y, x)):
        # nonzero exact rational times irrational is irrational; the
        # nonzero witness must be exact, a float is not a proof.
        if u.is_exact and u.value.is_rational and not u.value.is_zero:
            if v.tag == Tag.IRRATIONAL:
                tag = Tag.IRRATIONAL
                trans = trans or v.transcendental
            elif v.tag == Tag.RATIONAL:
                tag = Tag.RATIONAL
        elif u.is_exact and not u.value.is_rational and v.transcendental:
            tag = Tag.IRRATIONAL
            trans = True
    if x.tag == Tag.RATIONAL and y.tag == Tag.RATIONAL:
        tag = Tag.RATIONAL
    return TaggedReal(value, tag, trans)


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def sqrt_tagged(x: TaggedReal) -> TaggedReal:
    """Square root with a sound tag.

    For exact rationals p/q the tag is decided by the perfect-square test;
    the square root of a rational is rational iff numerator and denominator
    are both perfect squares, and lands in Q(sqrt2) exactly when p/q is
    twice a rational square.

    Only an exact negative value is a domain error.  A float below 0 may
    be a rounded 0 or a rounded positive number (sqrt(3)*sqrt(3) - 3 is
    0), so it gives an indeterminate value, not an error.
    """
    s = x.sign()
    if s is not None and s < 0:
        raise DomainError("sqrt of a negative number")
    if x.is_exact and x.value.is_rational:
        r = x.value.as_rational()
        p, q = r.numerator, r.denominator
        if _is_perfect_square(p) and _is_perfect_square(q):
            return TaggedReal.exact(Fraction(math.isqrt(p), math.isqrt(q)))
        half = r / 2
        if _is_perfect_square(half.numerator) and _is_perfect_square(half.denominator):
            root = Fraction(math.isqrt(half.numerator), math.isqrt(half.denominator))
            return TaggedReal.exact(QSqrt2(Fraction(0), root))
    value = x.float_value()
    if value is not None and value < 0:
        return TaggedReal.opaque()
    # the square root of an irrational number is irrational, and so is
    # that of a rational that is neither a square nor twice one
    tag = Tag.IRRATIONAL if x.is_exact or x.tag == Tag.IRRATIONAL else Tag.UNKNOWN
    return TaggedReal(None if value is None else math.sqrt(value), tag)


# ---------------------------------------------------------------------
# The transcendence axiom table
# ---------------------------------------------------------------------
#
# All irrationality facts about transcendental function values that the
# toolkit is allowed to use live in this one table so that the trusted
# base stays auditable.  Everything else returns Unknown.

AXIOM_TABLE = [
    {
        "form": "exp",
        "argument": "nonzero rational",
        "tag": Tag.IRRATIONAL.value,
        "strength": "transcendental",
        "provenance": "axiom:exp-rational-transcendental "
        "(e^q is transcendental for every nonzero rational q)",
    },
    {
        "form": "exp",
        "argument": "zero",
        "tag": Tag.RATIONAL.value,
        "strength": "exact",
        "provenance": "exp(0) = 1",
    },
]


_TAG_BY_VALUE = {t.value: t for t in Tag}


def axiom_tag(form: str, argument: str) -> Tag:
    """The tag that the axiom table's row for `form` of an argument of
    kind ``argument`` ("zero", "nonzero rational") gives; Unknown when no
    row covers it.

    This is the one place that reads the table, and it reads it on every
    call, so the table is the rule that runs.
    """
    for row in AXIOM_TABLE:
        if row["form"] == form and row["argument"] == argument:
            return _TAG_BY_VALUE[row["tag"]]
    return Tag.UNKNOWN


def transcendence_axiom_lookup(form: str, arg: TaggedReal) -> Tag:
    """Look up the rationality tag of `form(arg)` in the axiom table.

    Returns Unknown for every shape the table does not cover.
    """
    if not (arg.is_exact and arg.value.is_rational):
        return Tag.UNKNOWN
    return axiom_tag(form, "zero" if arg.value.is_zero else "nonzero rational")


def _exp_result(tag: Tag, value: Optional[float]) -> TaggedReal:
    """exp of an argument that is not an exact 0, with the table's tag
    for it and its float (or None)."""
    if tag is _IRRATIONAL:
        return TaggedReal.certified_transcendental(value)
    return _OPAQUE_T if value is None else TaggedReal(value, Tag.UNKNOWN)


def exp_tagged(x: TaggedReal, approx: bool = True) -> TaggedReal:
    """exp with tag decided by the axiom table where possible.

    The tag never depends on the float.  With ``approx`` false an inexact
    result carries no float (value None), for a caller that reads only
    the tag; a float past the float range is None too.
    """
    if x.is_exact and x.value.is_zero:
        return TaggedReal.exact(1)
    value = x.float_value() if approx else None
    if value is not None:
        try:
            value = math.exp(value)
        except OverflowError:
            value = None
    return _exp_result(transcendence_axiom_lookup("exp", x), value)


def exp_of_nonzero_rational() -> TaggedReal:
    """exp(r) without its float, for a nonzero rational r that the caller
    need not form: ``exp_tagged(r, approx=False)`` for every such r, with
    the tag the axiom table gives the row (exp, nonzero rational)."""
    return _exp_result(axiom_tag("exp", "nonzero rational"), None)
