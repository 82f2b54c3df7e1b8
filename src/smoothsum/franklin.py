"""Constructive back-and-forth matching of rational points.

Builds a strictly increasing smooth-by-certificate polynomial-series map
f: [0,1] -> [0,1] with f(0) = 0, f(1) = 1 that matches an initial
segment of the rationals in (0,1) with points b = w^{-1}(q), where
w(t) = ((sqrt2-1)/sqrt2) t + 1/sqrt2 and q ranges over the rationals in
(1/sqrt2, 1).  Matching a to b makes w(f(a)) = q exactly rational, which
is what the rationality link between the bump function H1 and its
composite H2 = w(f(H1)) needs.

Everything is exact: corrections live in Q(sqrt2), monotonicity is
certified both by an a-priori derivative budget and by interval
arithmetic, and every matched pair is replayable as a field identity.
No decision is steered by floats; each runs on plain integers.  Targets
are chosen by ``simplest_in_interval``, which brackets an irrational
window between dyadic rationals, runs the Stern-Brocot descent on
integer pairs and confirms the answer by one exact comparison.  What one
step leaves is carried into the next: the integer basis prod (m t - n)
over the roots n/m, the matched points (a, f(a)) sorted by a, the
collapsed polynomial of f, and the derivative budget 1 - sum |c_k|
deg_k over that polynomial's denominator.  This bookkeeping stays in
unreduced parts, with the arithmetic ``numbers`` provides for them: a
step reduces only what leaves it, its correction c and the two ends of
its target window.  The backward bisection keeps its window as integers
over one dyadic denominator and is steered by a preimage bracket l < t*
< h: integer Newton steps on f's floored coefficients estimate the
preimage t* of the target, and two exact sign tests, f(l) < b < f(h),
certify the bracket.  As f is certified increasing, only a midpoint
inside (l, h) is tested; a bracket that fails its tests is replaced by
[0, 1].  Each sign and admissibility test is read off a fixed-point
enclosure of f, a proven integer interval, and is answered by exact
evaluation whenever that interval cannot settle it (an exact tie, a
point outside [0,1], a margin below its width).  So Newton and the
enclosure change what is computed, never what is decided.

    f_n = f_{n-1} + c_n * p_n,   p_n(t) = t (t-1) prod (t - a_k)

where the roots are 0, 1 and all previously matched rational points, so
earlier matches are never disturbed.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import itemgetter
from typing import Iterator, Optional

from .expr import (
    App,
    Const,
    Expr,
    ONE_E,
    W_OFFSET,
    W_SLOPE,
    X,
    eval_tagged,
    make_pow,
    make_prod,
    make_sum,
    make_neg,
    replay_zero_forms,
    to_text,
)
from .intervals import Interval, certify_positive, poly_product_derivative
from .numbers import (
    INV_SQRT2,
    ONE,
    ZERO,
    QSqrt2,
    QSqrt2Poly,
    Tag,
    TaggedReal,
    cmp_parts,
    common_denominator,
    dot_exact,
    floor_qsqrt2,
    mul_parts,
    sub_parts,
)

# ---------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------


def enumerate_unit_rationals() -> Iterator[Fraction]:
    """The rationals in (0,1), breadth-first by denominator then numerator."""
    den = 2
    while True:
        for num in range(1, den):
            if math.gcd(num, den) == 1:
                yield Fraction(num, den)
        den += 1


def w_value(t: QSqrt2) -> QSqrt2:
    return W_SLOPE * QSqrt2.coerce(t) + W_OFFSET


def w_inverse(q) -> QSqrt2:
    """Exact inverse of w at a rational: w^{-1}(q) = (2q-1) + (q-1) sqrt2."""
    q = Fraction(q)
    return QSqrt2(2 * q - 1, q - 1)


def target_rationals() -> Iterator[Fraction]:
    """The rationals q in (1/sqrt2, 1), in the same breadth-first order."""
    one = QSqrt2.coerce(1)
    for q in enumerate_unit_rationals():
        qq = QSqrt2.coerce(q)
        if INV_SQRT2 < qq < one:
            yield q


# ---------------------------------------------------------------------
# Simplest rational in an open interval (Stern-Brocot descent)
# ---------------------------------------------------------------------


def simplest_in_interval(lo: QSqrt2, hi: QSqrt2) -> Fraction:
    """The rational with the smallest denominator (then smallest absolute
    numerator) in the open interval (lo, hi) with exact endpoints.

    An irrational endpoint is rounded outward to a multiple of 2^-k, so
    the rational window (lo', hi') contains (lo, hi); a rational one is
    kept, so two rational endpoints end the loop on its first pass.  Its
    simplest rational, once it lies in (lo, hi), is the simplest one there
    too; otherwise k doubles.  Only finitely many simpler rationals lie near
    the window, each at a positive distance from it, so the loop ends.
    """
    lo = QSqrt2.coerce(lo)
    hi = QSqrt2.coerce(hi)
    if not lo < hi:
        raise ValueError("empty open interval")
    k = 64
    while True:
        scale = 1 << k
        lo_n, lo_d = (lo.p, lo.d) if lo.is_rational else (floor_qsqrt2(lo, k), scale)
        hi_n, hi_d = (hi.p, hi.d) if hi.is_rational else (floor_qsqrt2(hi, k) + 1, scale)
        s = Fraction(*_simplest_rational(lo_n, lo_d, hi_n, hi_d))
        if lo < s < hi:
            return s
        k *= 2


def _simplest_rational(ln: int, ld: int, hn: int, hd: int) -> tuple:
    """simplest_in_interval for rational ln/ld < hn/hd with ld, hd > 0,
    as a pair (num, den) in lowest terms with den > 0: the Stern-Brocot
    descent x = fl + 1/y, one continued-fraction term per pass, on
    integer pairs."""
    if ln < 0 < hn:
        return 0, 1
    if hn <= 0:
        num, den = _simplest_rational(-hn, hd, -ln, ld)
        return -num, den
    terms = []
    while True:
        fl, r = divmod(ln, ld)  # lo = fl + r/ld
        top = hn - fl * hd  # hi = fl + top/hd, 0 < top <= hd unless fl + 1 < hi
        if top > hd:
            num, den = fl + 1, 1
            break
        if r == 0:
            k = hd // top + 1  # floor(1/(hi - fl)) + 1
            num, den = fl * k + 1, k
            break
        terms.append(fl)
        ln, ld, hn, hd = hd, top, ld, r  # (1/(hi - fl), 1/(lo - fl))
    for fl in reversed(terms):
        num, den = fl * num + den, num
    return num, den


# ---------------------------------------------------------------------
# The matching map
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class MatchStep:
    index: int
    a: Fraction
    q: Fraction
    b: QSqrt2  # w^{-1}(q), the exact matched value f(a)
    c: QSqrt2  # correction coefficient
    roots: tuple  # roots of the correction polynomial, all rational
    direction: str  # "forward" (a chosen first) or "backward" (q chosen first)


def _times_root(basis: tuple, r) -> tuple:
    """A correction basis times one more factor (t - r) for a rational r.

    The basis of rational roots r_k is the pair (B, M) with prod (t -
    r_k) = B(t) / M: B the integer coefficients of prod (m_k t - n_k),
    lowest degree first, and M = prod m_k, for r_k = n_k / m_k.  The
    empty product is ((1,), 1).
    """
    n, m = r.numerator, r.denominator
    vec, scale = basis
    out = [0] + [m * x for x in vec]
    for i, x in enumerate(vec):
        out[i] -= n * x
    return tuple(out), scale * m


def _root_basis(roots) -> tuple:
    """The correction basis of ``roots``, one factor at a time."""
    return reduce(_times_root, roots, ((1,), 1))


class _CollapsedPoly(QSqrt2Poly):
    """A matching map f as one polynomial, not reduced (its d has 5 586
    bits at n = 24, 138 more than reduced), with the construction's
    tests: sign(f(t) - b), |f(t) - b| <= x and a bracket of f^-1(b), each
    read off f's coefficients floored to 2^-FIX_BITS, a fixed-point
    enclosure of f on [0, 1], or from exact Horner integers when it
    cannot settle the test."""

    @cached_property
    def _fixed(self) -> tuple:
        """floor(2^FIX_BITS c_i) per coefficient c_i, highest degree first."""
        return self.floors(FIX_BITS)

    def _gap(self, u: int, v: int, bw: int) -> Optional[int]:
        """g with g - 1 < 2^FIX_BITS (f(u/v) - b) < g + 2 len(p), for
        0 <= u/v <= 1 (v > 0) and bw = floor(2^FIX_BITS b); None
        elsewhere.

        Horner on the floored coefficients, flooring each product by
        t = u/v, gives h <= 2^FIX_BITS f(t) < h + 2 deg + 1: each step
        adds below 1 for its coefficient and below 1 for its floor, and
        multiplying by t in [0, 1] does not grow what came before.  Then
        g = h - bw.
        """
        if not 0 <= u <= v:
            return None
        fixed = iter(self._fixed)
        h = next(fixed)
        for c in fixed:
            h = h * u // v + c
        return h - bw

    def sign_minus(self, u: int, v: int, b: QSqrt2, bw: Optional[int] = None) -> int:
        """The sign of f(u/v) - b for integers u and v > 0: from the
        fixed-point enclosure when it excludes 0, else exactly from the
        unreduced Horner integers (both denominators are positive).  A
        caller that tests one b many times passes bw = ``_fixed_floor(b)``,
        floored once."""
        g = self._gap(u, v, _fixed_floor(b) if bw is None else bw)
        if g is not None:
            if g > 0:
                return 1
            if g + 2 * len(self.p) <= 0:
                return -1
        return cmp_parts(self.horner(u, v), b)

    def within(self, u: int, v: int, b: QSqrt2, x, bw: Optional[int] = None) -> bool:
        """|f(u/v) - b| <= x for integers u and v > 0 and x >= 0, a QSqrt2
        or parts: from the fixed-point enclosure when it settles the
        comparison, else exactly from the unreduced Horner integers.  bw
        is as for ``sign_minus``."""
        g = self._gap(u, v, _fixed_floor(b) if bw is None else bw)
        if g is not None:
            xw = floor_qsqrt2(x, FIX_BITS)
            if -xw <= g - 1 and g + 2 * len(self.p) <= xw:
                return True
            if g - 1 > xw or g + 2 * len(self.p) <= -xw - 1:
                return False
        f = self.horner(u, v)
        return cmp_parts(sub_parts(f, b), x) <= 0 and cmp_parts(sub_parts(b, f), x) <= 0

    def _newton(self, target: int) -> Optional[int]:
        """An estimate of 2^FIX_BITS t for the root t of 2^FIX_BITS f(t) =
        target: Newton steps on the floored coefficients ``_fixed`` and
        on i * c_i for f', in integers, from t = target (f is close to
        the identity).  Nothing is certified here; None when a step
        leaves [0, 1] or meets f' <= 0."""
        one = 1 << FIX_BITS
        fixed = self._fixed
        top = len(fixed) - 1
        slopes = [c * (top - i) for i, c in enumerate(fixed[:-1])]
        t = target
        for _ in range(NEWTON_STEPS):
            if not 0 <= t <= one:
                return None
            h = fixed[0]
            for c in fixed[1:]:
                h = (h * t >> FIX_BITS) + c
            dh = slopes[0]
            for c in slopes[1:]:
                dh = (dh * t >> FIX_BITS) + c
            if dh <= 0:
                return None
            step = ((h - target) << FIX_BITS) // dh
            t -= step
            if abs(step) < 1 << (BRACKET_BITS // 2):
                break
        return t

    def bracket(self, b: QSqrt2, bw: Optional[int] = None) -> tuple:
        """(l, h) with f(l / 2^FIX_BITS) < b < f(h / 2^FIX_BITS) and 0 <= l
        < h <= 2^FIX_BITS, for 0 < b < 1 and f increasing on [0, 1]: two
        exact sign tests certify the window of half-width
        2^-(FIX_BITS - BRACKET_BITS) around the Newton estimate of the
        preimage.  When Newton fails or a sign test does not hold, (0,
        2^FIX_BITS), which f(0) = 0 and f(1) = 1 certify.  bw is as for
        ``sign_minus``."""
        one = 1 << FIX_BITS
        if bw is None:
            bw = _fixed_floor(b)
        t = self._newton(bw)
        if t is not None:
            lo, hi = t - (1 << BRACKET_BITS), t + (1 << BRACKET_BITS)
            if 0 <= lo and hi <= one and (
                    self.sign_minus(lo, one, b, bw) < 0 < self.sign_minus(hi, one, b, bw)):
                return lo, hi
        return 0, one


def _fixed_floor(b: QSqrt2) -> int:
    """floor(2^FIX_BITS b), the fixed-point target of the enclosure tests."""
    return floor_qsqrt2(b, FIX_BITS)


_IDENTITY = _CollapsedPoly((0, 1), (0, 0), 1)

# Fractional bits of the fixed-point enclosure in _CollapsedPoly._gap and
# of the Newton estimate behind _CollapsedPoly.bracket.  Only speed
# depends on them: a sign or comparison the enclosure cannot settle is
# decided exactly, and a bracket that its two sign tests do not certify
# is dropped.  At 320 bits no sign or admissibility test of
# build_franklin(n) for n <= 32 needs the exact path (the smallest
# |f(t) - b| met there is about 2^-112, at n = 32), and the certified
# brackets, 2^-255 wide, are narrower than every bisection window, so
# each backward step makes just their two sign tests.
FIX_BITS = 320
# The bracket's half-width is 2^BRACKET_BITS units of 2^-FIX_BITS, far
# above Newton's error of a few units.  Newton stops after NEWTON_STEPS
# steps, or once a step moves the estimate by less than
# 2^(BRACKET_BITS/2) units: the next error is about that step squared.
BRACKET_BITS = 64
NEWTON_STEPS = 40


@dataclass(eq=False)
class FranklinMap:
    """f(t) = t + sum_n c_n * prod_k (t - r_{n,k}), with exact data.

    ``steps`` is the construction record.  Exact evaluation reads the
    same f collapsed into one unreduced polynomial, which ``extended``
    updates one correction at a time from the correction basis that
    ``build_franklin`` carries forward; a map made from its steps alone
    rebuilds each basis from the step's roots, through the same
    ``_times_root``.  ``derivative_budget`` recomputes the budget that
    ``build_franklin`` carries, for the report.  The float evaluator
    keeps the product form, and so does the derivative enclosure, whose
    ends are summed over one denominator.
    """

    steps: tuple = ()
    _float_cache: Optional[list] = field(default=None, repr=False)
    _poly: Optional[_CollapsedPoly] = field(default=None, repr=False)

    def __post_init__(self):
        if self._poly is None:
            poly = _IDENTITY
            for s in self.steps:
                poly = poly.plus(s.c, _root_basis(s.roots))
            self._poly = poly

    def extended(self, step: MatchStep, basis: tuple) -> "FranklinMap":
        """The map with one more correction step, whose roots have the
        correction basis ``basis``."""
        return FranklinMap(self.steps + (step,), _poly=self._poly.plus(step.c, basis))

    # -- evaluation ----------------------------------------------------

    def eval_exact(self, t) -> QSqrt2:
        return self._poly.at(QSqrt2.coerce(t))

    def eval_float(self, t: float) -> float:
        if self._float_cache is None:
            self._float_cache = [
                (float(s.c), [float(r) for r in s.roots]) for s in self.steps
            ]
        out = t
        for c, roots in self._float_cache:
            p = 1.0
            for r in roots:
                p *= t - r
            out += c * p
        return out

    def _one_plus(self, values) -> QSqrt2:
        """1 + sum c_n * values[n], over one denominator, reduced once."""
        return ONE + dot_exact(self._corrections, common_denominator(values))

    @cached_property
    def _corrections(self) -> tuple:
        return common_denominator([s.c for s in self.steps])

    def derivative_interval(self, iv: Interval) -> Interval:
        """Enclosure of f' = 1 + sum c_n p_n' over ``iv``: c_n takes one
        end of the enclosure of p_n' to the low end of its product and
        the other to the high end."""
        lows, highs = [], []
        for s in self.steps:
            box = poly_product_derivative(s.roots, iv)
            lows.append(box.lo if s.c.sign() >= 0 else box.hi)
            highs.append(box.hi if s.c.sign() >= 0 else box.lo)
        return Interval(self._one_plus(lows), self._one_plus(highs))

    def derivative_expr(self, arg: Expr) -> Expr:
        """f'(arg) as an expression tree (for chain-rule use): the sum of
        i c_i arg^(i-1) over the collapsed coefficients c_i of f."""
        return make_sum(
            make_prod([Const(c), make_pow(arg, i) if i else ONE_E])
            for i, c in enumerate(self._poly.derivative())
            if not c.is_zero
        )

    # -- certified properties -------------------------------------------

    @property
    def matched(self) -> list:
        return [(s.a, s.q, s.b) for s in self.steps]

    def check_matches(self) -> bool:
        """Replay every match as a field identity: f(a) = w^{-1}(q), with
        f(a) from the unreduced Horner integers, compared by
        cross-multiplying."""
        for s in self.steps:
            if cmp_parts(self._poly.horner(s.a.numerator, s.a.denominator), s.b):
                return False
            if w_value(s.b) != QSqrt2.coerce(s.q):
                return False
        return True

    def check_decay(self) -> bool:
        """|c_n| <= 2^{-n} for every step."""
        for s in self.steps:
            if abs(s.c) > QSqrt2.coerce(Fraction(1, 2 ** s.index)):
                return False
        return True

    @cached_property
    def derivative_budget(self) -> QSqrt2:
        """Exact lower bound for f' on [0,1]: 1 - sum |c_n| * deg(p_n).

        On [0,1] every factor |t - r| is at most 1, so |p_n'| is at most
        the number of roots of p_n.
        """
        return self._one_plus([QSqrt2.coerce(-s.c.sign() * len(s.roots)) for s in self.steps])

    def certify_monotonic(self) -> bool:
        """Strict monotonicity on [0,1], certified twice over: by the
        exact derivative budget and by adaptive interval bisection."""
        if self.derivative_budget.sign() <= 0:
            return False
        iv = Interval(QSqrt2.coerce(0), QSqrt2.coerce(1))
        return certify_positive(self.derivative_interval, iv)

    def check_order_isomorphism(self) -> bool:
        """Matched pairs in the same order on both sides."""
        pairs = sorted((s.a, s.b) for s in self.steps)
        bs = [b for _, b in pairs]
        return all(bs[i] < bs[i + 1] for i in range(len(bs) - 1))

    def to_dict(self) -> dict:
        return {
            "steps": [
                {
                    "index": s.index,
                    "direction": s.direction,
                    "a": str(s.a),
                    "q": str(s.q),
                    "b": str(s.b),
                    "c": str(s.c),
                    "degree": len(s.roots),
                }
                for s in self.steps
            ],
            "derivative_lower_bound": str(self.derivative_budget),
        }


class ConstructionError(RuntimeError):
    pass


def _root_product(u: int, v: int, roots) -> tuple:
    """(N, M) with prod (u/v - n/m) = N/M over the roots (n, m), m > 0,
    for v > 0: prod (u m - n v) / (v^deg prod m), in integers, not
    reduced; M > 0."""
    num, den = 1, 1
    for n, m in roots:
        num *= u * m - n * v
        den *= m
    return num, den * v ** len(roots)


def _far_outside(cn: int, cd: int, pn: int, pd: int, low: int, high: int, b_lo: int, x_hi: int) -> bool:
    """Whether budget dist(a, (low, high) / 2^FIX_BITS) > bound |p(a)| for a = cn / cd and
    p(a) = pn / pd (cd, pd > 0), given b_lo <= 2^FIX_BITS budget and x_hi > 2^FIX_BITS
    bound.  As f' >= budget on [0, 1], an a this far from f^-1(b)'s bracket fails ``within``."""
    scaled = cn << FIX_BITS
    gap = max(low * cd - scaled, scaled - high * cd)  # <= 0 inside the bracket
    return b_lo * gap * pd > x_hi * abs(pn) * (cd << FIX_BITS)


def _neighbors(points: list, side: int, value) -> Optional[tuple]:
    """The consecutive points (a, f(a)) of ``points``, sorted by a, whose
    coordinate ``side`` (0 for a, 1 for f(a)) brackets ``value``
    strictly, or None.  f is certified increasing, so the points sorted
    by a are sorted by f(a) too, and one bisection finds them."""
    i = bisect.bisect_left(points, value, key=itemgetter(side))
    if 0 < i < len(points) and value != points[i][side]:
        return points[i - 1], points[i]
    return None


def _step_bound(budget: tuple, deg: int, n: int) -> tuple:
    """The bound min(2^-n, budget / (2 deg)) on the correction of step n,
    as parts, not reduced, for the budget > 0 given as parts."""
    cap, share = (1, 0, 1 << n), mul_parts(budget, (1, 0, 2 * deg))
    return cap if cmp_parts(share, cap) > 0 else share


def _spent(budget: tuple, c_abs: QSqrt2, deg: int, d: int) -> tuple:
    """The budget, as parts, minus c_abs * deg, as parts over d, a
    multiple of both denominators: rescaled, not reduced."""
    return sub_parts(budget, mul_parts(c_abs, (deg, 0, 1)), d)


def _w_end(end: tuple, clip: QSqrt2, side: int) -> QSqrt2:
    """w(t) for t given as parts, or w(clip) when t lies past ``clip`` on
    ``side`` (-1 below, 1 above), reduced once."""
    if cmp_parts(end, clip) == side:
        end = clip
    return QSqrt2.from_ints(*sub_parts(mul_parts(end, W_SLOPE), -W_OFFSET))


def _correction(b: QSqrt2, v: QSqrt2, pn: int, pd: int) -> QSqrt2:
    """(b - v) / p for p = pn / pd, pn != 0 and pd > 0: the value a step
    reports, formed over one denominator and reduced once."""
    if pn < 0:
        pn, pd = -pn, -pd
    return QSqrt2.from_ints(*mul_parts(sub_parts(b, v), (pd, 0, pn)))


def build_franklin(n_steps: int) -> FranklinMap:
    """Run ``n_steps`` rounds of the back-and-forth construction.

    Odd rounds match the next unmatched rational a (breadth-first order)
    to the simplest admissible target; even rounds take the next
    unmatched target q and locate a rational preimage by exact bisection.
    Every round keeps |c_n| <= 2^{-n} and spends at most half of the
    remaining derivative budget, so f stays certifiably increasing.
    """
    fm = FranklinMap()
    # 1 - sum |c_k| deg_k, a certified lower bound for f' so far, as
    # parts over the denominator of fm._poly
    budget = (1, 0, 1)
    a_stream = enumerate_unit_rationals()
    q_stream = target_rationals()
    # the roots 0, 1 and the matched a's, their correction basis, the
    # matched q's, and the points (a, f(a)) sorted by a, all carried from
    # step to step
    roots = [Fraction(0), Fraction(1)]
    basis = _root_basis(roots)
    matched_q = set()
    points = [(Fraction(0), QSqrt2.coerce(0)), (Fraction(1), QSqrt2.coerce(1))]

    for n in range(1, n_steps + 1):
        deg = len(roots)
        bound = _step_bound(budget, deg, n)
        # the roots as integer pairs (num, den), read once per step
        pairs = [(r.numerator, r.denominator) for r in roots]

        if n % 2 == 1:
            a = next(x for x in a_stream if (x.numerator, x.denominator) not in pairs)
            v = fm.eval_exact(a)
            pn, pd = _root_product(a.numerator, a.denominator, pairs)
            # v -/+ bound |p(a)|, unreduced, clipped to the neighbours'
            # f(a); those lie in [0, 1], where w runs from 1/sqrt2 to 1, so
            # the window's image needs no clip of its own
            (_, left), (_, right) = _neighbors(points, 0, a)
            q_lo = _w_end(sub_parts(v, mul_parts(bound, (abs(pn), 0, pd))), left, -1)
            q_hi = _w_end(sub_parts(v, mul_parts(bound, (-abs(pn), 0, pd))), right, 1)
            if not q_lo < q_hi:
                raise ConstructionError(f"step {n}: empty target window")
            q = simplest_in_interval(q_lo, q_hi)
            while q in matched_q:
                q = simplest_in_interval(q_lo, QSqrt2.coerce(q))
            b = w_inverse(q)
            c = _correction(b, v, pn, pd)
            direction = "forward"
        else:
            q = next(x for x in q_stream if x not in matched_q)
            b = w_inverse(q)
            bw = _fixed_floor(b)
            # locate the bracket of the preimage among matched points
            around = _neighbors(points, 1, b)
            if around is None:
                raise ConstructionError(f"step {n}: target {q} outside the matched range")
            (lo_a, _), (hi_a, _) = around
            poly = fm._poly
            # f' >= budget > 0 on [0, 1], so f(t) < b at every t <= low / 2^FIX_BITS
            # and f(t) > b at every t >= high / 2^FIX_BITS: a midpoint outside (low,
            # high) needs no sign test, and a candidate far outside it no ``within``
            low, high = poly.bracket(b, bw)
            b_lo, x_hi = floor_qsqrt2(budget, FIX_BITS), floor_qsqrt2(bound, FIX_BITS) + 1
            # the window (lo, hi) / den, halved by exact dyadic steps
            den = lo_a.denominator * hi_a.denominator
            lo, hi = lo_a.numerator * hi_a.denominator, hi_a.numerator * lo_a.denominator
            a = None
            cn, cd = 0, 1  # no candidate yet: 0 lies outside every window
            for _ in range(200):
                # a rejected candidate still inside the halved window is
                # still its simplest rational, and still rejected.  A
                # candidate lies strictly between two consecutive matched
                # points, so it is never one of them.
                if not lo * cd < cn * den < hi * cd:
                    cn, cd = _simplest_rational(lo, den, hi, den)
                    # admissible when |f(a) - b| <= bound |p(a)|
                    pn, pd = _root_product(cn, cd, pairs)
                    if not _far_outside(cn, cd, pn, pd, low, high, b_lo, x_hi) and poly.within(
                            cn, cd, b, mul_parts(bound, (abs(pn), 0, pd)), bw):
                        a = Fraction(cn, cd)
                        break
                mid = lo + hi
                den *= 2
                scaled = mid << FIX_BITS
                if scaled <= low * den or (scaled < high * den and poly.sign_minus(mid, den, b, bw) < 0):
                    lo, hi = mid, 2 * hi
                else:
                    lo, hi = 2 * lo, mid
            if a is None:
                raise ConstructionError(f"step {n}: no admissible preimage found")
            c = _correction(b, fm.eval_exact(a), pn, pd)
            direction = "backward"

        c_abs = abs(c)
        if cmp_parts(c_abs, bound) > 0:
            raise ConstructionError(f"step {n}: correction exceeds its bound")
        fm = fm.extended(MatchStep(n, a, q, b, c, tuple(roots), direction), basis)
        budget = _spent(budget, c_abs, deg, fm._poly.d)
        if cmp_parts(budget, ZERO) <= 0:
            raise ConstructionError(f"step {n}: derivative budget exhausted")
        roots.append(a)
        basis = _times_root(basis, a)
        matched_q.add(q)
        bisect.insort(points, (a, b), key=itemgetter(0))

    return fm


# ---------------------------------------------------------------------
# The rationality link and the |x| identity
# ---------------------------------------------------------------------

AXIOM_EXP_TRANSCENDENCE = "exp-transcendence"


@dataclass(eq=False)
class RationalityLink:
    """Certificate that deltaQ(H1(x)) = deltaQ(H2(x)) for x > 0, with
    both inner maps constant (0 and 1/sqrt2) for x <= 0."""

    franklin: FranklinMap
    expr_a: Expr = field(init=False)
    expr_b: Expr = field(init=False)
    region: str = "x>0"
    complement_region: str = "x<=0"
    axioms_used: tuple = (AXIOM_EXP_TRANSCENDENCE,)

    def __post_init__(self):
        self.expr_a = App("H1", X)
        self.expr_b = App("barGamma", App("H1", X), self.franklin)

    @property
    def constant_branch(self) -> dict:
        return {self.expr_a: QSqrt2.coerce(0), self.expr_b: INV_SQRT2}


# Seeded rational points x > 0 at which clause (iii) of the link is replayed.
RATIONAL_SAMPLES = 25


def certify_rationality_link(link: RationalityLink) -> dict:
    """Replay the three clauses of the link with exact arithmetic.

    (i) on x <= 0 both inner maps are the stated constants;
    (ii) at every matched point a the composite w(f(a)) is exactly the
         rational target, so both indicator values are 0 there;
    (iii) at rational x > 0 the value H1(x) = exp(-1/x^2) is
          transcendental (exponential of a nonzero rational), and a
          nonconstant polynomial-then-affine image of a transcendental
          number is transcendental, so both indicator values are 1.
    """
    fm = link.franklin
    failures = []

    # (i) constants on the complement region
    for x in (Fraction(0), Fraction(-1), Fraction(-7, 3), QSqrt2(Fraction(-1), Fraction(-1))):
        va = eval_tagged(link.expr_a, TaggedReal.exact(x))
        vb = eval_tagged(link.expr_b, TaggedReal.exact(x))
        if not (va.is_exact and va.value.is_zero):
            failures.append(f"H1({x}) != 0")
        if not (vb.is_exact and vb.value == INV_SQRT2):
            failures.append(f"H2-composite({x}) != 1/sqrt2")

    # (ii) matched points: f(a) = b and w(b) = q, exact field identities,
    # so w(f(a)) = q
    if not fm.check_matches():
        failures.append("matched-pair replay failed")

    # (iii) transcendence clause on rational x > 0
    rng = random.Random(0)
    for _ in range(RATIONAL_SAMPLES):
        x = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        va = eval_tagged(link.expr_a, TaggedReal.exact(x))
        vb = eval_tagged(link.expr_b, TaggedReal.exact(x))
        if not (va.tag == Tag.IRRATIONAL and va.transcendental):
            failures.append(f"H1({x}) not certified transcendental")
        if not (vb.tag == Tag.IRRATIONAL and vb.transcendental):
            failures.append(f"H2-composite({x}) not certified transcendental")

    return {
        "ok": not failures,
        "failures": failures,
        "matched_pairs": [(str(a), str(q)) for a, q, _ in fm.matched],
        "monotone": fm.certify_monotonic(),
        "decay": fm.check_decay(),
        "order_isomorphism": fm.check_order_isomorphism(),
        "axioms_used": list(link.axioms_used),
    }


def abs_identity_terms(link: RationalityLink) -> tuple:
    """The |x| identity |x| = 2x deltaQ(H1(x)) - 2x deltaQ(H2(x)) + x, as
    its (scalar, inner map) pairs and its tail: |x| is the sum of
    scalar * deltaQ(inner map) over the pairs, plus the tail."""
    two_x = make_prod([Const(QSqrt2.coerce(2)), X])
    return ((two_x, link.expr_a), (make_neg(two_x), link.expr_b)), X


def abs_identity_expr(link: RationalityLink) -> Expr:
    """2x deltaQ(H1(x)) - 2x deltaQ(H2(x)) + x, pointwise equal to |x|."""
    terms, tail = abs_identity_terms(link)
    return make_sum([make_prod([h, App("deltaQ", inner)]) for h, inner in terms] + [tail])


# The most points a grid may have; a larger spec exits 2.  At the bound,
# `verify-identity --n 32 --grid zero,rationals:90000,negatives:9000,quadratic:999`
# takes 0.77-1.15 s wall, best of 3 in each of 5 rounds (interpreter
# start-up included), and peaks at 36.5-36.6 MB RSS, on a 2-vCPU VM,
# Python 3.11.  Alternated with it, the replay that called each function
# step at every point took 0.93-1.37 s and peaked at 36.4-36.5 MB.  Most
# of the peak above a one-point grid (23 MB) is the list of all the
# points that `parse_grid` returns before the first block.
MAX_GRID_POINTS = 100_000

# A grid replay evaluates its plan on this many points at a time, each
# plan step once over the block (``expr.Plan.columns``), so the columns
# it holds stay small whatever the grid's size.
GRID_BLOCK = 256


def parse_grid(spec: str) -> list:
    """Grid specification "zero,rationals:N,negatives:M,quadratic:K" ->
    exact sample points, from one fixed seed, so a spec always gives the
    same points.  A family given without a count has 10 points; ``zero`` is
    the one point 0 and takes no count."""
    bits = random.Random(0).getrandbits
    pts: list = []
    total = 0
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, count = (s.strip() for s in part.partition(":"))
        if name not in ("zero", "rationals", "negatives", "quadratic"):
            raise ValueError(f"unknown grid family {name!r}")
        if name == "zero":
            if sep:
                raise ValueError(
                    f"grid family 'zero' is the one point 0 and takes no count: {part!r} in grid {spec!r}"
                )
            count = 1
        elif not sep:
            count = 10
        elif count.isascii() and count.isdigit():
            count = int(count)
        else:
            raise ValueError(
                f"the point count of grid family {name!r} must be a non-negative integer, "
                f"got {count!r} in grid {spec!r}"
            )
        total += count
        if total > MAX_GRID_POINTS:
            raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
        if name == "zero":
            pts.append(QSqrt2.coerce(0))
            continue
        # each point is built from two integers m, k, drawn in that order
        ints = _draws(bits, 30 if name == "quadratic" else 1000, 2 * count)
        pairs = zip(ints[::2], ints[1::2])
        if name == "rationals":
            pts.extend(QSqrt2.from_ints(m, 0, k) for m, k in pairs)
        elif name == "negatives":
            pts.extend(QSqrt2.from_ints(-m, 0, k) for m, k in pairs)
        else:
            # sqrt2-multiples: x = m*sqrt2/k has rational square
            pts.extend(QSqrt2.from_ints(0, m, k) for m, k in pairs)
    return pts


def grid_blocks(points: list):
    """``points`` in consecutive blocks of at most ``GRID_BLOCK``, each
    beside its points as exact tagged values."""
    for start in range(0, len(points), GRID_BLOCK):
        block = points[start : start + GRID_BLOCK]
        yield block, [TaggedReal.exact(x) for x in block]


def _draws(bits, n: int, count: int) -> list:
    """``count`` integers drawn uniformly from 1..n with the random-bit
    source ``bits``: k = bitlen(n) bits, drawn again while they reach n.
    This is how ``random.Random.randint(1, n)`` draws on Python 3.11, so
    the points are that method's, and they do not depend on how another
    Python version implements ``randrange``."""
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(r + 1)
    return out


# The grid `verify-identity` and scenario thm-2.3 replay the identity on:
# 1101 points, 100 of them x < 0, and x = 0.
IDENTITY_GRID = "zero,rationals:1000,negatives:100"


def verify_abs_identity(link: RationalityLink, grid: str = IDENTITY_GRID) -> dict:
    """Check 2x dQ(H1) - 2x dQ(H2) + x = |x| exactly on the whole grid.

    Every grid point has a decided rationality pattern, so each side
    evaluates to a single exact value and the comparison is equality in
    Q(sqrt2), not a tolerance.  The identity minus |x| is one linear form
    in x, |x|, dQ(H1(x)) and dQ(H2(x)), which ``expr.replay_zero_forms``
    tests for zero on integer parts; the identity's value is assembled
    only at a point where that test cannot decide or fails, and each
    such point is reported.  ``checked`` counts the points where the
    identity has one exact value, and ``failures`` lists the first 10
    failing points in grid order.  A grid without points raises
    ValueError: an identity checked nowhere is not certified.
    """
    points = parse_grid(grid)
    if not points:
        raise ValueError(f"grid {grid!r} has no points to check the identity on")
    expr = abs_identity_expr(link)
    failures = []
    undecided = 0

    def judge(_, x: QSqrt2, outcomes: list) -> None:
        nonlocal undecided
        (cands,) = outcomes
        if isinstance(cands, Exception):
            raise cands
        lhs = cands[0]
        if len(cands) != 1 or not lhs.is_exact:
            failures.append(f"indeterminate at {x}")
            undecided += 1
        elif lhs.value != abs(x):
            failures.append(f"mismatch at {x}: {lhs.value} != {abs(x)}")
        # no result: the scan goes on past every failing point

    replay_zero_forms([([expr], [[(expr, ONE), (App("abs", X), -ONE)]])], grid_blocks(points), judge)
    checked = len(points) - undecided
    # symbolic check at matched points: if H1 took a matched value a at
    # some x > 0, both indicators would be 0 and the identity would read
    # x = |x|, which holds on the region.
    symbolic = all(
        eval_tagged(App("deltaQ", Const(QSqrt2.coerce(a))), TaggedReal.exact(0)).value.is_zero
        and eval_tagged(App("deltaQ", Const(QSqrt2.coerce(q))), TaggedReal.exact(0)).value.is_zero
        for a, q, _ in link.franklin.matched
    )
    return {
        "ok": not failures and symbolic,
        "checked": checked,
        "failures": failures[:10],
        "matched_branch_consistent": symbolic,
        "expression": to_text(expr),
    }
