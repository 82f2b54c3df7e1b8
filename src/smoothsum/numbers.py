"""Exact arithmetic in Q and Q(sqrt2), with three-valued rationality tags.

Nothing on a certificate path ever goes through floating point: every
certified value is an element of Q(sqrt2) held exactly as a pair of
fractions.  A :class:`TaggedReal` carries, in addition to its value, a
rationality tag (Rational / Irrational / Unknown) that makes the indicator
of the irrationals evaluable wherever the tag is decided.  Tag propagation
is sound but deliberately incomplete: Unknown is an honest answer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

#: Exact rational numbers; stdlib fractions are stored coprime with a
#: positive denominator, which is exactly the canonical form we need.
Rational = Fraction

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


@dataclass(frozen=True)
class QSqrt2:
    """An element a + b*sqrt(2) of the field Q(sqrt2).

    The (a, b) pair is canonical: two values are equal iff their pairs are.
    The value is rational iff b == 0.
    """

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", Fraction(self.a))
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", Fraction(self.b))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, r) -> "QSqrt2":
        return cls(Fraction(r), Fraction(0))

    @classmethod
    def sqrt2(cls) -> "QSqrt2":
        return cls(Fraction(0), Fraction(1))

    @classmethod
    def coerce(cls, x: Union["QSqrt2", Fraction, int]) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        return cls.from_rational(x)

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def as_rational(self) -> Fraction:
        if self.b != 0:
            raise DomainError(f"{self} is not rational")
        return self.a

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other):
        o = QSqrt2.coerce(other)
        if o.b == 0:
            return QSqrt2(self.a + o.a, self.b)
        if self.b == 0:
            return QSqrt2(self.a + o.a, o.b)
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-QSqrt2.coerce(other))

    def __rsub__(self, other):
        return (-self) + QSqrt2.coerce(other)

    def __mul__(self, other):
        o = QSqrt2.coerce(other)
        if o.b == 0:
            return QSqrt2(self.a * o.a, self.b * o.a)
        if self.b == 0:
            return QSqrt2(self.a * o.a, self.a * o.b)
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        # 1/(a+b*sqrt2) = (a-b*sqrt2)/(a^2-2b^2); the norm vanishes only at 0
        # because sqrt2 is irrational.
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise DomainError("inversion of zero in Q(sqrt2)")
        return QSqrt2(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * QSqrt2.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QSqrt2.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QSqrt2.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact order ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt2."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: compare a^2 with 2 b^2, cross-multiplied to
        # integers; they differ because sqrt2 is irrational.
        x = abs(a.numerator) * b.denominator
        y = abs(b.numerator) * a.denominator
        a_wins = _square_exceeds_twice(x, y)
        return 1 if a_wins == (a > 0) else -1

    def __lt__(self, other):
        return (self - QSqrt2.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - QSqrt2.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QSqrt2.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - QSqrt2.coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2)

    # -- text form -------------------------------------------------------
    # Canonical form `a+b*sqrt2`, rationals as `p/q` or `p`; bit-exact
    # round trip through parse_qsqrt2.

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bpart = f"{abs(self.b)}*sqrt2" if abs(self.b) != 1 else "sqrt2"
        if self.a == 0:
            return bpart if self.b > 0 else "-" + bpart
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{bpart}"

    def __repr__(self):
        return f"QSqrt2({self.a!r}, {self.b!r})"


ZERO = QSqrt2()
ONE = QSqrt2.from_rational(1)
SQRT2 = QSqrt2.sqrt2()
INV_SQRT2 = QSqrt2(Fraction(0), Fraction(1, 2))  # 1/sqrt2 = sqrt2/2


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


def floor_qsqrt2(v: QSqrt2) -> int:
    """Exact floor of an element of Q(sqrt2), in integer arithmetic.

    Write v = (A + B*sqrt2)/D with integers A, B and D > 0.  F =
    floor(B*sqrt2) comes from ``math.isqrt(2 B^2)``, which is never exact
    unless B = 0.  As 0 <= B*sqrt2 - F < 1, floor(v) = (A + F) // D.
    """
    v = QSqrt2.coerce(v)
    d = math.lcm(v.a.denominator, v.b.denominator)
    a = v.a.numerator * (d // v.a.denominator)
    b = v.b.numerator * (d // v.b.denominator)
    root = math.isqrt(2 * b * b)  # floor(|B| sqrt2)
    f = root if b >= 0 else -root - 1
    return (a + f) // d


# ---------------------------------------------------------------------
# Rationality tags
# ---------------------------------------------------------------------


class Tag(str, Enum):
    RATIONAL = "Rational"
    IRRATIONAL = "Irrational"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class TaggedReal:
    """A real number with a sound rationality tag.

    ``value`` is an exact QSqrt2, an approximate float (diagnostics only),
    or None when the number is opaque (for instance the value of an axiom
    function).  ``transcendental`` is set only when the value is certified
    transcendental by the axiom table; it strengthens the Irrational tag.
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
        v = QSqrt2.coerce(v)
        return cls(v, Tag.RATIONAL if v.is_rational else Tag.IRRATIONAL)

    @classmethod
    def approx(cls, x: float, tag: Tag = Tag.UNKNOWN, transcendental: bool = False) -> "TaggedReal":
        return cls(float(x), tag, transcendental)

    @classmethod
    def opaque(cls) -> "TaggedReal":
        return cls(None, Tag.UNKNOWN)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, QSqrt2)

    def float_value(self) -> Optional[float]:
        if self.value is None:
            return None
        return float(self.value)

    def sign(self) -> Optional[int]:
        """Exact sign when available, else None."""
        if self.is_exact:
            return self.value.sign()
        return None

    def __str__(self):
        if self.is_exact:
            return f"{self.value} [{self.tag.value}]"
        return f"~{self.value} [{self.tag.value}]"


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


def neg_tagged(x: TaggedReal) -> TaggedReal:
    if x.is_exact:
        return TaggedReal.exact(-x.value)
    value = None if x.value is None else -x.value
    return TaggedReal(value, x.tag, x.transcendental)


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
        return TaggedReal.approx(math.sqrt(float(r)), Tag.IRRATIONAL)
    if x.is_exact:
        # the square root of an irrational number is irrational
        return TaggedReal.approx(math.sqrt(float(x.value)), Tag.IRRATIONAL)
    if x.tag == Tag.IRRATIONAL:
        value = x.float_value()
        approx = None if value is None else math.sqrt(value)
        return TaggedReal(approx, Tag.IRRATIONAL)
    value = x.float_value()
    if value is not None and value < 0:
        raise DomainError("sqrt of a negative number")
    return TaggedReal.approx(math.sqrt(value), Tag.UNKNOWN) if value is not None else TaggedReal.opaque()


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


def transcendence_axiom_lookup(form: str, arg: TaggedReal) -> Tag:
    """Look up the rationality tag of `form(arg)` in the axiom table.

    Returns Unknown for every shape the table does not cover.
    """
    if not (arg.is_exact and arg.value.is_rational):
        return Tag.UNKNOWN
    argument = "zero" if arg.value.is_zero else "nonzero rational"
    for row in AXIOM_TABLE:
        if row["form"] == form and row["argument"] == argument:
            return Tag(row["tag"])
    return Tag.UNKNOWN


def exp_tagged(x: TaggedReal) -> TaggedReal:
    """exp with tag decided by the axiom table where possible."""
    tag = transcendence_axiom_lookup("exp", x)
    if x.is_exact and x.value.is_rational and x.value.is_zero:
        return TaggedReal.exact(1)
    value = x.float_value()
    approx = math.exp(value) if value is not None else None
    if tag == Tag.IRRATIONAL:
        return TaggedReal(approx, Tag.IRRATIONAL, transcendental=True)
    return TaggedReal(approx, Tag.UNKNOWN)
