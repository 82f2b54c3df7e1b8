"""The rational-matching construction and the |x| identity."""

import dataclasses
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from smoothsum.expr import (
    W_SLOPE,
    App,
    Const,
    X,
    differentiate,
    eval_candidates,
    eval_exact,
    make_neg,
    make_prod,
    make_sum,
    to_text,
)
from smoothsum.decompose import DEFAULT_GRID
from smoothsum.franklin import (
    BRACKET_BITS,
    FIX_BITS,
    IDENTITY_GRID,
    FranklinMap,
    RationalityLink,
    _CollapsedPoly,
    _neighbors,
    _root_basis,
    _root_product,
    _simplest_rational,
    abs_identity_expr,
    build_franklin,
    certify_rationality_link,
    enumerate_unit_rationals,
    parse_grid,
    simplest_in_interval,
    target_rationals,
    verify_abs_identity,
    w_inverse,
    w_value,
)
from smoothsum.intervals import Interval, certify_positive, poly_product_derivative
from smoothsum import expr as expr_module
from smoothsum import franklin as franklin_module
from smoothsum import numbers
from smoothsum.numbers import (
    FLOOR_GUARD_BITS,
    INV_SQRT2,
    SQRT2,
    QSqrt2,
    TaggedReal,
    floor_qsqrt2,
    mul_parts,
    parse_qsqrt2,
)


def test_enumerations():
    first = list(itertools.islice(enumerate_unit_rationals(), 3))
    assert first == [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]
    targets = list(itertools.islice(target_rationals(), 4))
    assert targets == [Fraction(3, 4), Fraction(4, 5), Fraction(5, 6), Fraction(5, 7)]


def test_w_inverse_examples():
    assert w_inverse(Fraction(3, 4)) == parse_qsqrt2("1/2-1/4*sqrt2")
    # w_inverse is a two-sided inverse of w on Q(sqrt2)
    for q in (Fraction(3, 4), Fraction(5, 6), Fraction(7, 9)):
        assert w_value(w_inverse(q)) == QSqrt2.coerce(q)
    assert w_value(QSqrt2()) == INV_SQRT2


def test_simplest_in_interval():
    assert simplest_in_interval(QSqrt2.coerce(Fraction(1, 3)), QSqrt2.coerce(Fraction(2, 3))) == Fraction(1, 2)
    assert simplest_in_interval(QSqrt2.coerce(Fraction(3, 2)), QSqrt2.coerce(3)) == Fraction(2)
    # irrational endpoints
    lo = parse_qsqrt2("1/2-1/4*sqrt2")  # about 0.146
    hi = parse_qsqrt2("1/4*sqrt2")  # about 0.354
    q = simplest_in_interval(lo, hi)
    assert lo < QSqrt2.coerce(q) < hi
    assert q == Fraction(1, 3)
    # integer lower endpoint (regression: inverse of zero)
    q2 = simplest_in_interval(QSqrt2.coerce(0), QSqrt2.coerce(Fraction(1, 7)))
    assert QSqrt2.coerce(0) < QSqrt2.coerce(q2) < QSqrt2.coerce(Fraction(1, 7))


def _simplest_rational_fraction(lo: Fraction, hi: Fraction) -> Fraction:
    """The Stern-Brocot descent on Fractions that _simplest_rational ran
    before it moved to integer pairs: the oracle it must agree with."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_rational_fraction(-hi, -lo)
    terms = []
    while True:
        fl = math.floor(lo)
        if fl + 1 < hi:
            out = Fraction(fl + 1)
            break
        if lo == fl:
            out = fl + 1 / Fraction(math.floor(1 / (hi - fl)) + 1)
            break
        terms.append(fl)
        lo, hi = 1 / (hi - fl), 1 / (lo - fl)
    for fl in reversed(terms):
        out = fl + 1 / out
    return out


_narrow = st.builds(
    lambda lo, k, w: (lo, lo + Fraction(w, 2**k)),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
    st.integers(min_value=100, max_value=400),
    st.integers(min_value=1, max_value=7),
)
_wide = st.tuples(
    st.one_of(st.integers(min_value=-12, max_value=12).map(Fraction), st.fractions(min_value=-12, max_value=12)),
    st.one_of(st.integers(min_value=-12, max_value=12).map(Fraction), st.fractions(min_value=-12, max_value=12)),
).filter(lambda w: w[0] != w[1]).map(sorted)


@given(st.one_of(_wide, _narrow), st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_simplest_rational_on_integers_matches_fraction_descent(window, k, m):
    # negative windows, windows across 0, integer ends, windows down to
    # 2^-400 wide; the pairs need not be in lowest terms
    lo, hi = window
    num, den = _simplest_rational(lo.numerator * k, lo.denominator * k, hi.numerator * m, hi.denominator * m)
    assert den > 0 and math.gcd(num, den) == 1
    got = Fraction(num, den)
    assert got == _simplest_rational_fraction(lo, hi)
    assert lo < got < hi


@given(
    st.fractions(min_value=-2, max_value=3, max_denominator=10**9),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=200), max_size=12),
)
def test_root_product_is_the_fraction_product(t, roots):
    num, den = _root_product(t.numerator, t.denominator, [(r.numerator, r.denominator) for r in roots])
    assert den > 0
    assert Fraction(num, den) == math.prod((t - r for r in roots), start=Fraction(1))


def _brute_force_simplest(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest denominator in (lo, hi), then smallest absolute numerator."""
    den = 1
    while True:
        first = math.floor(lo * den) + 1
        last = math.ceil(hi * den) - 1
        if first <= last:
            num = 0 if first <= 0 <= last else min(first, last, key=abs)
            return Fraction(num, den)
        den += 1


_endpoints = st.one_of(
    st.integers(min_value=-12, max_value=12).map(Fraction),
    st.fractions(min_value=-12, max_value=12, max_denominator=40),
)


@given(_endpoints, _endpoints)
def test_simplest_in_interval_rational_matches_brute_force(x, y):
    if x == y:
        return
    lo, hi = min(x, y), max(x, y)
    got = simplest_in_interval(QSqrt2.coerce(lo), QSqrt2.coerce(hi))
    assert got == _brute_force_simplest(lo, hi)


def _simplest_by_recursion(lo: QSqrt2, hi: QSqrt2) -> Fraction:
    """The Q(sqrt2) continued-fraction recursion that simplest_in_interval
    used before its dyadic brackets: the oracle they must agree with."""
    if lo.sign() < 0 and hi.sign() > 0:
        return Fraction(0)
    if hi.sign() <= 0:
        return -_simplest_by_recursion(-hi, -lo)
    fl = floor_qsqrt2(lo)
    if QSqrt2.coerce(fl + 1) < hi:
        return Fraction(fl + 1)
    flq = QSqrt2.coerce(fl)
    if lo == flq:
        inner = Fraction(floor_qsqrt2((hi - flq).inverse()) + 1)
    else:
        inner = _simplest_by_recursion((hi - flq).inverse(), (lo - flq).inverse())
    return fl + 1 / inner


_small = st.fractions(min_value=-6, max_value=6, max_denominator=30)
_points = st.one_of(
    _small.map(QSqrt2.coerce),
    st.builds(QSqrt2, _small, _small.filter(bool)),
)
_widths = st.one_of(
    _points.filter(lambda w: w.sign() > 0),
    st.builds(
        lambda k, w: w * QSqrt2.coerce(Fraction(1, 2**k)),
        st.integers(min_value=1, max_value=200),
        st.sampled_from([QSqrt2(Fraction(0), Fraction(1)), QSqrt2(Fraction(-1), Fraction(1)), QSqrt2.coerce(1)]),
    ),
)


@given(_points, _widths, st.sampled_from(["from", "to", "around-zero"]))
def test_simplest_in_interval_matches_recursion(p, width, anchor):
    # windows with rational or irrational ends (either one), around 0, on
    # either side of it, and down to 2^-200 wide
    if anchor == "from":
        lo, hi = p, p + width
    elif anchor == "to":
        lo, hi = p - width, p
    else:
        lo = -width * QSqrt2.coerce(Fraction(1, 3))
        hi = lo + width
    got = simplest_in_interval(lo, hi)
    assert got == _simplest_by_recursion(lo, hi)
    assert lo < QSqrt2.coerce(got) < hi


def test_simplest_in_interval_tiny_window_near_one():
    # floor(1/(lo-1)) is about 2^73 here: a float guess of it is off by
    # about 2^20, too far for a step-by-step fix-up
    e = QSqrt2(Fraction(-1, 2**72), Fraction(1, 2**72))  # 2^-72 (sqrt2 - 1)
    lo, hi = 1 + e, 1 + 3 * e
    got = simplest_in_interval(lo, hi)
    assert got == _simplest_by_recursion(lo, hi)
    assert lo < QSqrt2.coerce(got) < hi


def test_simplest_in_interval_deep_continued_fraction():
    # a 2^-2999-wide window around sqrt2 needs about 1180 continued-fraction
    # terms (convergents of sqrt2), past Python's default recursion limit
    e = QSqrt2(Fraction(0), Fraction(1, 2**3000))
    lo, hi = SQRT2 - e, SQRT2 + e
    got = simplest_in_interval(lo, hi)
    assert lo < QSqrt2.coerce(got) < hi
    assert abs(got.numerator**2 - 2 * got.denominator**2) == 1  # a convergent
    assert got.denominator.bit_length() == 1501


def _product_form(steps, t) -> QSqrt2:
    """f(t) = t + sum c_n * prod (t - r), one correction at a time: the
    reference that eval_exact must agree with exactly."""
    t = QSqrt2.coerce(t)
    out = t
    for s in steps:
        p = QSqrt2.coerce(1)
        for r in s.roots:
            p = p * (t - QSqrt2.coerce(r))
        out = out + s.c * p
    return out


def _sample_points(rng, n_rational: int, n_irrational: int) -> list:
    pts = []
    for _ in range(n_rational):
        # inside [0,1] and out to [-3, 4]
        lo, hi = (0, 1) if rng.random() < 0.5 else (-3, 4)
        den = rng.randint(1, 10**6)
        pts.append(Fraction(rng.randint(lo * den, hi * den), den))
    for _ in range(n_irrational):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 50))
        pts.append(QSqrt2(a, b))
    return pts


def test_eval_exact_matches_product_form(fm16):
    rng = random.Random(16)
    points = [s.a for s in fm16.steps] + _sample_points(rng, 200, 20)
    assert sum(1 for t in points if not QSqrt2.coerce(t).is_rational) == 20
    for t in points:
        assert fm16.eval_exact(t) == _product_form(fm16.steps, t)


def test_intermediate_maps_match_product_form(fm16):
    rng = random.Random(17)
    points = [s.a for s in fm16.steps] + _sample_points(rng, 10, 4)
    for k in range(len(fm16.steps) + 1):
        fm = FranklinMap(fm16.steps[:k])
        for t in points:
            assert fm.eval_exact(t) == _product_form(fm.steps, t)


def _sign_minus(fm, t: Fraction, b: QSqrt2) -> int:
    return fm._poly.sign_minus(t.numerator, t.denominator, b)


def test_sign_minus_is_the_sign_of_the_exact_difference(fm16, fm24):
    # the backward bisection asks only for sign(f(t) - b)
    rng = random.Random(9)
    for fm in (fm16, fm24):
        for _ in range(200):
            t = Fraction(rng.randint(-3000, 3000), rng.randint(1, 1000))
            b = QSqrt2(
                Fraction(rng.randint(-40, 40), rng.randint(1, 30)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 30)),
            )
            assert _sign_minus(fm, t, b) == (fm.eval_exact(t) - b).sign()
        # at a matched point the difference is exactly 0, and a nudge of
        # 2^-200 either way is seen; so is one of 2^-(FIX_BITS + 64),
        # far inside the enclosure, which only the exact path can see
        for tiny in (Fraction(1, 2**200), Fraction(1, 2 ** (FIX_BITS + 64))):
            for s in fm.steps:
                assert _sign_minus(fm, s.a, s.b) == 0
                assert _sign_minus(fm, s.a, s.b + tiny) == -1
                assert _sign_minus(fm, s.a, s.b - tiny * SQRT2) == 1
    # unmatched points of [0, 1], unreduced, nudged the same way
    for _ in range(20):
        den = rng.randint(1, 10**6)
        t = Fraction(rng.randint(0, den), den)
        v = fm24.eval_exact(t)
        tiny = Fraction(1, 2 ** (FIX_BITS + 64))
        u3, v3 = 3 * t.numerator, 3 * t.denominator
        assert fm24._poly.sign_minus(u3, v3, v + tiny) == -1
        assert fm24._poly.sign_minus(u3, v3, v - tiny) == 1
        assert fm24._poly.sign_minus(u3, v3, v) == 0


def test_within_is_the_exact_comparison(fm24):
    # the backward admissibility test |f(t) - b| <= x, at and around ties
    poly = fm24._poly
    rng = random.Random(10)
    tiny = Fraction(1, 2 ** (FIX_BITS + 64))
    for _ in range(100):
        den = rng.randint(1, 10**4)
        t = Fraction(rng.randint(-den, 2 * den), den)
        b = QSqrt2(Fraction(rng.randint(0, 40), 40), Fraction(rng.randint(-40, 40), 80))
        gap = abs(fm24.eval_exact(t) - b)
        for x in (gap, gap + tiny, gap - tiny, gap * 2, gap / 2, QSqrt2()):
            if x.sign() >= 0:
                assert poly.within(t.numerator, t.denominator, b, x) == (gap <= x)


def _count_horner(monkeypatch) -> list:
    calls = []
    exact = _CollapsedPoly.horner

    def counted(self, u, v):
        calls.append((u, v))
        return exact(self, u, v)

    monkeypatch.setattr(_CollapsedPoly, "horner", counted)
    return calls


def test_enclosure_falls_back_to_exact_horner(fm16, monkeypatch):
    calls = _count_horner(monkeypatch)
    poly = fm16._poly
    s = fm16.steps[3]
    # far from a tie the enclosure decides alone
    assert poly.sign_minus(s.a.numerator, s.a.denominator, s.b + Fraction(1, 2**40)) == -1
    assert poly.within(s.a.numerator, s.a.denominator, s.b, (1, 0, 2**40))
    assert calls == []
    # an exact tie: f(a) - b = 0 lies inside every enclosure
    assert poly.sign_minus(s.a.numerator, s.a.denominator, s.b) == 0
    assert not poly.within(s.a.numerator, s.a.denominator, s.b + Fraction(1, 2**400), QSqrt2())
    assert len(calls) == 2
    # t = 3/2 and -1/2 lie outside [0, 1], where the enclosure's error
    # bound fails
    sign_at = (fm16.eval_exact(Fraction(3, 2)) - 1).sign()
    gap_at = abs(fm16.eval_exact(Fraction(-1, 2)))
    del calls[:]
    assert poly.sign_minus(3, 2, QSqrt2.coerce(1)) == sign_at
    assert poly.within(-1, 2, QSqrt2(), gap_at)
    assert calls == [(3, 2), (-1, 2)]


def test_build_franklin_decides_on_the_enclosure(monkeypatch):
    # one exact evaluation per step: f(a), for the target window of a
    # forward step or the correction c of a backward one.  Exact
    # bisection signs and admissibility tests would cost 737 at n = 24.
    calls = _count_horner(monkeypatch)
    build_franklin(24)
    assert len(calls) <= 24


def test_matches_exact(fm16):
    assert len(fm16.steps) == 16
    assert fm16.check_matches()
    # interpolation oracle: re-evaluate each matched point from the raw
    # step data, independently of eval_exact's collapsed polynomial
    for s in fm16.steps:
        assert _product_form(fm16.steps, s.a) == s.b
        assert w_value(s.b) == QSqrt2.coerce(s.q)


def test_back_and_forth_alternation(fm16):
    directions = [s.direction for s in fm16.steps]
    assert directions[::2] == ["forward"] * 8
    assert directions[1::2] == ["backward"] * 8


def test_order_isomorphism_and_decay(fm16):
    assert fm16.check_order_isomorphism()
    assert fm16.check_decay()
    for s in fm16.steps:
        assert abs(s.c) <= QSqrt2.coerce(Fraction(1, 2**s.index))


def test_endpoints_fixed(fm16):
    assert fm16.eval_exact(0) == QSqrt2.coerce(0)
    assert fm16.eval_exact(1) == QSqrt2.coerce(1)


def test_monotonicity_certificates(fm16):
    assert fm16.derivative_budget.sign() > 0
    assert fm16.certify_monotonic()
    inner = Interval(QSqrt2.coerce(Fraction(1, 100)), QSqrt2.coerce(Fraction(99, 100)))
    assert certify_positive(fm16.derivative_interval, inner)


def test_derivative_budget_is_the_stepwise_sum(fm8, fm24):
    # 1 - sum |c_n| deg(p_n), one Q(sqrt2) operation at a time
    for fm in (FranklinMap(), fm8, fm24):
        budget = QSqrt2.coerce(1)
        for s in fm.steps:
            budget = budget - abs(s.c) * QSqrt2.coerce(len(s.roots))
        assert fm.derivative_budget == budget


def _interval_product_derivative(roots, iv: Interval) -> Interval:
    """The Q(sqrt2) enclosure poly_product_derivative computed before its
    integer path: prefix and suffix products of Interval factors."""
    factors = [iv - Interval.point(QSqrt2.coerce(a)) for a in roots]
    prefix = [Interval.point(1)]
    for f in factors:
        prefix.append(prefix[-1] * f)
    suffix = [Interval.point(1)]
    for f in reversed(factors):
        suffix.append(suffix[-1] * f)
    suffix.reverse()
    out = Interval.point(0)
    for k in range(len(factors)):
        out = out + prefix[k] * suffix[k + 1]
    return out


def test_rational_derivative_enclosure_matches_qsqrt2_path(fm16):
    # the boxes certify_positive visits on [0,1] and on [1/100, 99/100],
    # and every box of the depth-4 bisection tree of [0,1]
    boxes = []

    def record(iv):
        boxes.append(iv)
        return fm16.derivative_interval(iv)

    assert certify_positive(record, Interval(QSqrt2.coerce(0), QSqrt2.coerce(1)))
    inner = Interval(QSqrt2.coerce(Fraction(1, 100)), QSqrt2.coerce(Fraction(99, 100)))
    assert certify_positive(record, inner)
    level = [Interval(QSqrt2.coerce(0), QSqrt2.coerce(1))]
    for _ in range(4):
        level = [half for iv in level for half in iv.split()]
        boxes.extend(level)
    assert len(boxes) == 2 + 30
    for iv in boxes:
        for s in fm16.steps:
            assert poly_product_derivative(s.roots, iv) == _interval_product_derivative(s.roots, iv)


_box_ends = st.fractions(min_value=-3, max_value=3, max_denominator=60)


@given(
    _box_ends,
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=2, max_denominator=60)),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=300), max_size=10),
)
def test_poly_product_derivative_matches_qsqrt2_reference(lo, width, roots):
    # rational boxes, zero-width ones among them, and roots inside and
    # outside them with denominators that differ from the box's and
    # from each other
    iv = Interval(QSqrt2.coerce(lo), QSqrt2.coerce(lo + width))
    assert poly_product_derivative(roots, iv) == _interval_product_derivative(roots, iv)


def _derivative_by_intervals(fm, iv: Interval) -> Interval:
    """f' over iv as 1 + sum c_n p_n'(iv) by Interval arithmetic, one
    step at a time: the sum derivative_interval computed before it put
    the ends over one denominator."""
    out = Interval.point(1)
    for s in fm.steps:
        out = out + Interval.point(s.c) * _interval_product_derivative(s.roots, iv)
    return out


@pytest.mark.parametrize("name", ["fm16", "fm24"])
def test_derivative_interval_is_the_interval_sum(name, request):
    fm = request.getfixturevalue(name)
    boxes = []

    def record(iv):
        boxes.append(iv)
        return fm.derivative_interval(iv)

    # every box certify_positive visits from [0,1] and from two inner
    # boxes, and the depth-3 bisection tree of [0,1]
    for lo, hi in ((0, 1), (Fraction(1, 100), Fraction(99, 100)), (Fraction(3, 8), Fraction(1, 2))):
        assert certify_positive(record, Interval(QSqrt2.coerce(lo), QSqrt2.coerce(hi)))
    level = [Interval(QSqrt2.coerce(0), QSqrt2.coerce(1))]
    for _ in range(3):
        level = [half for iv in level for half in iv.split()]
        boxes.extend(level)
    # and a box with an irrational end, through the Q(sqrt2) path
    boxes.append(Interval(QSqrt2.coerce(Fraction(1, 3)), parse_qsqrt2("1/4*sqrt2")))
    for iv in boxes:
        assert fm.derivative_interval(iv) == _derivative_by_intervals(fm, iv)


def _count_calls(monkeypatch, name: str) -> list:
    """Record the results of every call of _CollapsedPoly.<name>."""
    results = []
    method = getattr(_CollapsedPoly, name)

    def counted(self, *args):
        results.append(method(self, *args))
        return results[-1]

    monkeypatch.setattr(_CollapsedPoly, name, counted)
    return results


def test_backward_steps_make_two_sign_tests(monkeypatch):
    # each backward step certifies its bracket with two sign tests, and
    # at n = 24 no midpoint of its bisection falls inside the bracket;
    # the bisection without a bracket made 474 sign tests
    signs = _count_calls(monkeypatch, "sign_minus")
    brackets = _count_calls(monkeypatch, "bracket")
    fm = build_franklin(24)
    backward = sum(s.direction == "backward" for s in fm.steps)
    assert len(brackets) == backward == 12
    fallbacks = sum(b == (0, 1 << FIX_BITS) for b in brackets)
    assert fallbacks == 0
    assert len(signs) <= 2 * backward


@pytest.mark.parametrize(
    "shift", [1 << (FIX_BITS - 12), -(1 << (FIX_BITS - 12)), 1 << FIX_BITS, None],
    ids=["past", "short", "outside", "none"],
)
def test_forged_newton_estimate_changes_nothing(fm24, monkeypatch, shift):
    # an estimate moved 2^-12 past the preimage (either way) fails its
    # sign tests, one moved out of [0, 1] fails its range check, and a
    # failed Newton run gives no estimate; the bisection then runs
    # without a bracket and finds the same map
    newton = _CollapsedPoly._newton

    def forged(self, target):
        t = newton(self, target)
        return None if shift is None else t + shift

    monkeypatch.setattr(_CollapsedPoly, "_newton", forged)
    brackets = _count_calls(monkeypatch, "bracket")
    assert build_franklin(24).steps == fm24.steps
    assert brackets == [(0, 1 << FIX_BITS)] * 12


def test_certified_bracket_holds_the_preimage(fm24):
    # replay each backward step's bracket on the map before that step:
    # f(l / 2^FIX_BITS) < b < f(h / 2^FIX_BITS), exactly
    one = Fraction(1, 1 << FIX_BITS)
    for k, s in enumerate(fm24.steps):
        if s.direction != "backward":
            continue
        before = FranklinMap(fm24.steps[:k])
        lo, hi = before._poly.bracket(s.b)
        assert 0 < hi - lo <= 2 << BRACKET_BITS
        assert before.eval_exact(lo * one) < s.b < before.eval_exact(hi * one)


_ONE = 1 << FIX_BITS


def test_bracket_prefilter_rejects_only_what_within_rejects(monkeypatch):
    # build_franklin(24) runs every step of build_franklin(n) for n <= 24;
    # each candidate its backward bisection rejects without ``within`` is
    # one that ``within``, and the exact comparison, reject too
    step, scales, rejected, within_calls = {"budget": (1, 0, 1)}, set(), [], []
    step_bound, spent, bracket, far_outside, within = (
        franklin_module._step_bound, franklin_module._spent, _CollapsedPoly.bracket,
        franklin_module._far_outside, _CollapsedPoly.within)

    def recorded_bound(*args):
        step["bound"] = step_bound(*args)
        return step["bound"]

    def recorded_spent(*args):
        step["budget"] = spent(*args)
        return step["budget"]

    def recorded_bracket(self, b, bw=None):
        step.update(poly=self, b=b)
        return bracket(self, b, bw)

    def recorded_far_outside(cn, cd, pn, pd, low, high, b_lo, x_hi):
        scales.add((step["budget"], step["bound"], b_lo, x_hi))
        out = far_outside(cn, cd, pn, pd, low, high, b_lo, x_hi)
        if out:
            rejected.append((step["poly"], cn, cd, step["b"], mul_parts(step["bound"], (abs(pn), 0, pd))))
        return out

    def counted_within(self, *args):
        within_calls.append(args)
        return within(self, *args)

    monkeypatch.setattr(franklin_module, "_step_bound", recorded_bound)
    monkeypatch.setattr(franklin_module, "_spent", recorded_spent)
    monkeypatch.setattr(_CollapsedPoly, "bracket", recorded_bracket)
    monkeypatch.setattr(franklin_module, "_far_outside", recorded_far_outside)
    monkeypatch.setattr(_CollapsedPoly, "within", counted_within)
    build_franklin(24)
    # 239 candidates reached ``within`` without the prefilter
    assert 0 < len(within_calls) <= 30
    assert len(rejected) > 150
    # b_lo <= 2^FIX_BITS budget and x_hi > 2^FIX_BITS bound, at every step
    assert len(scales) == 12
    for budget, bound, b_lo, x_hi in scales:
        assert QSqrt2.coerce(b_lo) <= QSqrt2.from_ints(*budget) * _ONE
        assert QSqrt2.from_ints(*bound) * _ONE < QSqrt2.coerce(x_hi)
    for poly, cn, cd, b, x in rejected:
        assert not within(poly, cn, cd, b, x)
        assert abs(poly.at(QSqrt2.coerce(Fraction(cn, cd))) - b) > QSqrt2.from_ints(*x)


@given(
    st.fractions(0, 1), st.fractions(0, 1), st.fractions(0, 1), st.integers(-(10**20), 10**20).filter(bool),
    st.integers(1, 10**20), st.fractions(Fraction(1, 10**6), 1), st.fractions(Fraction(1, 2**200), 1),
)
# a budget and a bound that make the test a tie: bound |p(a)| is exactly
# budget dist(a, bracket), which only the floor of the bound rounded up
# leaves standing
@example(Fraction(0), Fraction(1, 2), Fraction(1, 2) + Fraction(1, _ONE), 3, 1, Fraction(1), Fraction(1, 6))
# inside the bracket, where p(a) < 0 and the bound is small
@example(Fraction(1, 2), Fraction(1, 2) - Fraction(1, _ONE), Fraction(1, 2) + Fraction(1, _ONE), -1, 1,
         Fraction(1), Fraction(1, 4))
@example(Fraction(1, 2), Fraction(0), Fraction(1), 1, 1, Fraction(1), Fraction(1, 2**100))
def test_bracket_prefilter_rejects_only_what_its_distance_rejects(a, low, high, pn, pd, budget, bound):
    # the prefilter rejects a = cn / cd only when budget dist(a, bracket)
    # exceeds bound |p(a)|, exactly
    low, high = sorted((math.floor(low * _ONE), math.ceil(high * _ONE)))
    b_lo, x_hi = math.floor(budget * _ONE), math.floor(bound * _ONE) + 1
    if franklin_module._far_outside(a.numerator, a.denominator, pn, pd, low, high, b_lo, x_hi):
        dist = max(Fraction(low, _ONE) - a, a - Fraction(high, _ONE))
        assert budget * dist > bound * Fraction(abs(pn), pd)


def test_targets_in_range(fm16):
    one = QSqrt2.coerce(1)
    for s in fm16.steps:
        assert QSqrt2.coerce(0) < QSqrt2.coerce(s.a) < one
        assert INV_SQRT2 < QSqrt2.coerce(s.q) < one
        assert QSqrt2.coerce(0) < s.b < one


def test_neighbors_bracket_by_a_or_by_f_of_a():
    # one matched point a = 1/2 with f(a) = 3/5: 11/20 lies right of a
    # but below f(a), so the two keys pick different intervals
    half = (Fraction(1, 2), QSqrt2(Fraction(3, 5)))
    zero, one = (Fraction(0), QSqrt2()), (Fraction(1), QSqrt2(1))
    points = [zero, half, one]
    assert _neighbors(points, 0, Fraction(11, 20)) == (half, one)
    assert _neighbors(points, 1, QSqrt2(Fraction(11, 20))) == (zero, half)
    # no strict bracket on a matched value or outside [0, 1]
    assert _neighbors(points, 1, half[1]) is None
    assert _neighbors(points, 0, Fraction(3, 2)) is None
    assert _neighbors(points, 0, Fraction(-1, 2)) is None
    assert _neighbors(points, 0, Fraction(0)) is None


def test_neighbors_is_the_scan_over_sorted_points(fm24):
    # bisection on the sorted points finds the bracket a linear scan finds
    points = sorted([(Fraction(0), QSqrt2()), (Fraction(1), QSqrt2(1))] + [(s.a, s.b) for s in fm24.steps])
    rng = random.Random(24)
    probes = [(0, s.a) for s in fm24.steps] + [(1, s.b) for s in fm24.steps]
    probes += [(0, Fraction(rng.randint(-10, 1010), 1000)) for _ in range(100)]
    probes += [(1, QSqrt2(Fraction(rng.randint(-10, 1010), 1000), Fraction(rng.randint(-9, 9), 1000)))
               for _ in range(100)]
    for side, value in probes:
        scan = next(((u, v) for u, v in zip(points, points[1:]) if u[side] < value < v[side]), None)
        assert _neighbors(points, side, value) == scan


@pytest.mark.parametrize("name", ["fm8", "fm16", "fm24"])
def test_rebuilt_map_has_the_built_polynomial(name, request):
    # build_franklin carries the correction basis from step to step;
    # FranklinMap(steps) rebuilds each basis from the step's roots
    fm = request.getfixturevalue(name)
    assert FranklinMap(fm.steps)._poly == fm._poly


def test_carried_basis_is_the_root_product(monkeypatch):
    # the basis each step of build_franklin(24) extends the map with is
    # the one rebuilt from its roots, and its value at sample points is
    # the product over the roots
    seen = []
    extended = FranklinMap.extended

    def recorded(self, step, basis):
        seen.append((step, basis))
        return extended(self, step, basis)

    monkeypatch.setattr(FranklinMap, "extended", recorded)
    build_franklin(24)
    assert len(seen) == 24
    rng = random.Random(25)
    for step, (vec, scale) in seen:
        assert (vec, scale) == _root_basis(step.roots)
        assert len(vec) == len(step.roots) + 1
        pairs = [(r.numerator, r.denominator) for r in step.roots]
        for _ in range(5):
            u, v = rng.randint(-2000, 2000), rng.randint(1, 1000)
            num, den = _root_product(u, v, pairs)
            horner = sum(c * u**i * v ** (len(vec) - 1 - i) for i, c in enumerate(vec))
            assert Fraction(horner, scale * v ** (len(vec) - 1)) == Fraction(num, den)


def test_check_matches_sees_a_nudge_below_the_enclosure(fm16):
    # moving q by 2^-(FIX_BITS + 66) moves b = w^-1(q) by less than
    # 2^-(FIX_BITS + 64), and w(b) = q still holds, so only the exact
    # comparison of f(a) with b can reject the step
    tiny = Fraction(1, 2 ** (FIX_BITS + 66))
    assert fm16.check_matches()
    for k, step in enumerate(fm16.steps):
        for sign in (1, -1):
            q = step.q + sign * tiny
            forged = dataclasses.replace(step, q=q, b=w_inverse(q))
            assert w_value(forged.b) == QSqrt2.coerce(q)
            assert 0 < abs(forged.b - step.b) < Fraction(1, 2 ** (FIX_BITS + 64))
            fm = FranklinMap(fm16.steps[:k] + (forged,) + fm16.steps[k + 1:], _poly=fm16._poly)
            assert not fm.check_matches()


def test_fixed_floors_take_no_exact_path(monkeypatch):
    # floor_parts settles every coefficient floor of build_franklin(24)
    # whose denominator is past FLOOR_GUARD_BITS from its top-bit
    # bracket; none falls back to the full-width isqrt
    exact = []
    floor_exact = numbers._floor_exact

    def recorded(p, q, d):
        exact.append(d)
        return floor_exact(p, q, d)

    monkeypatch.setattr(numbers, "_floor_exact", recorded)
    fixed = _CollapsedPoly._fixed.func
    per_poly = []

    def counted(self):
        before = len(exact)
        out = fixed(self)
        per_poly.append((self.d.bit_length() > FLOOR_GUARD_BITS, len(exact) - before))
        return out

    prop = functools.cached_property(counted)
    prop.__set_name__(_CollapsedPoly, "_fixed")
    monkeypatch.setattr(_CollapsedPoly, "_fixed", prop)
    fm = build_franklin(24)
    # one polynomial is floored per backward step; the first two have
    # denominators of 3 and 19 bits, which go to the exact floor at once
    assert len(per_poly) == sum(s.direction == "backward" for s in fm.steps) == 12
    assert [wide for wide, _ in per_poly] == [False] * 2 + [True] * 10
    assert [n for wide, n in per_poly if wide] == [0] * 10


def _is_canonical(x: QSqrt2) -> bool:
    # == compares triples, and from_ints reduces
    return x == QSqrt2.from_ints(x.p, x.q, x.d)


def _recorded_build(monkeypatch, n: int) -> tuple:
    """build_franklin(n), with the step bounds, the carried budgets and
    the simplest_in_interval windows that it computes recorded."""
    bounds, budgets, windows = [], [], []
    step_bound, spent, simplest = (
        franklin_module._step_bound, franklin_module._spent, franklin_module.simplest_in_interval)

    def recorded_bound(*args):
        bounds.append(step_bound(*args))
        return bounds[-1]

    def recorded_spent(*args):
        budgets.append(spent(*args))
        return budgets[-1]

    def recorded_simplest(lo, hi):
        windows.append((lo, hi))
        return simplest(lo, hi)

    monkeypatch.setattr(franklin_module, "_step_bound", recorded_bound)
    monkeypatch.setattr(franklin_module, "_spent", recorded_spent)
    monkeypatch.setattr(franklin_module, "simplest_in_interval", recorded_simplest)
    return build_franklin(n), bounds, budgets, windows


def _reference_bookkeeping(fm: FranklinMap) -> list:
    """Per step of fm: (its bound, its target window or None, the budget
    after it), one Q(sqrt2) operation at a time."""
    budget = QSqrt2.coerce(1)
    points = [(Fraction(0), QSqrt2()), (Fraction(1), QSqrt2.coerce(1))]
    rows = []
    for k, s in enumerate(fm.steps):
        deg = len(s.roots)
        bound = min(QSqrt2.coerce(Fraction(1, 2**s.index)), budget / (2 * deg))
        window = None
        if s.direction == "forward":
            v = FranklinMap(fm.steps[:k]).eval_exact(s.a)
            delta = bound * abs(math.prod((s.a - r for r in s.roots), start=Fraction(1)))
            left = max(b for a, b in points if a < s.a)
            right = min(b for a, b in points if a > s.a)
            lo, hi = max(left, v - delta), min(right, v + delta)
            window = (max(w_value(lo), INV_SQRT2), min(w_value(hi), QSqrt2.coerce(1)))
        budget = budget - abs(s.c) * deg
        rows.append((bound, window, budget))
        points.append((s.a, s.b))
    return rows


@pytest.mark.parametrize("n", [8, 16, 24])
def test_carried_budget_is_one_minus_the_spent_corrections(monkeypatch, n):
    # after every step, over the collapsed polynomial's own denominator
    fm, _, budgets, _ = _recorded_build(monkeypatch, n)
    rows = _reference_bookkeeping(fm)
    assert len(budgets) == len(rows) == n
    for k, ((bp, bq, d), (_, _, budget)) in enumerate(zip(budgets, rows)):
        assert d == FranklinMap(fm.steps[:k + 1])._poly.d
        assert QSqrt2.from_ints(bp, bq, d) == budget
    assert rows[-1][2] == fm.derivative_budget


@pytest.mark.parametrize("n", [8, 16, 24])
def test_step_bound_and_target_window_are_the_qsqrt2_formulas(monkeypatch, n):
    fm, bounds, _, windows = _recorded_build(monkeypatch, n)
    rows = _reference_bookkeeping(fm)
    assert [QSqrt2.from_ints(*x) for x in bounds] == [bound for bound, _, _ in rows]
    # steps 1 to 5 are bound by the budget, the later ones by 2^-n
    assert [k for k, x in enumerate(bounds, 1) if x != (1, 0, 1 << k)] == [1, 2, 3, 4, 5]
    # a forward step's first call gets its window; a call that skips a
    # matched q keeps the low end
    firsts = [w for i, w in enumerate(windows) if i == 0 or w[0] != windows[i - 1][0]]
    assert firsts == [window for _, window, _ in rows if window is not None]
    for lo, hi in windows:
        assert _is_canonical(lo) and _is_canonical(hi)
    for k, s in enumerate(fm.steps):
        pa = math.prod((s.a - r for r in s.roots), start=Fraction(1))
        assert _is_canonical(s.c) and s.c == (s.b - FranklinMap(fm.steps[:k]).eval_exact(s.a)) / pa
        assert abs(s.c) <= rows[k][0]


_parts = st.integers(min_value=-(10**30), max_value=10**30)
_dens = st.integers(min_value=1, max_value=10**30)


@given(_parts, _parts, _dens, st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=200))
def test_step_bound_is_the_smaller_of_cap_and_spend(bp, bq, bd, deg, n):
    budget = QSqrt2.from_ints(bp, bq, bd)
    if budget.sign() <= 0:
        return
    got = QSqrt2.from_ints(*franklin_module._step_bound((bp, bq, bd), deg, n))
    assert got == min(QSqrt2.coerce(Fraction(1, 2**n)), budget / (2 * deg))


@given(_parts, _parts, _dens, _parts, _parts, _dens, st.integers(min_value=1, max_value=40), _dens)
def test_spent_budget_is_the_qsqrt2_difference(bp, bq, bd, cp, cq, cd, deg, extra):
    c_abs = abs(QSqrt2.from_ints(cp, cq, cd))
    d = math.lcm(bd, c_abs.d) * extra
    p, q, out_d = franklin_module._spent((bp, bq, bd), c_abs, deg, d)
    assert out_d == d
    assert QSqrt2.from_ints(p, q, d) == QSqrt2.from_ints(bp, bq, bd) - c_abs * deg


@given(_parts, _parts, _dens, st.fractions(min_value=0, max_value=1), st.sampled_from([-1, 1]))
def test_w_end_is_w_of_the_clipped_end(p, q, d, clip, side):
    clip = QSqrt2.coerce(clip)
    t = QSqrt2.from_ints(p, q, d)
    end = (max if side < 0 else min)(t, clip)
    got = franklin_module._w_end((p, q, d), clip, side)
    assert _is_canonical(got) and got == w_value(end)


def test_build_franklin_reduces_only_what_leaves_a_step(monkeypatch):
    # per step of build_franklin(24) one reduction for f(a) from
    # eval_exact and one for the correction c, and one for each end of
    # the 12 forward target windows: 72.  No two Q(sqrt2) values are
    # added, and each backward target b is floored once.
    reduced, summed, floored = [], [], []
    for module, name, calls in ((numbers, "_reduced", reduced), (numbers, "_sum", summed),
                                (franklin_module, "_fixed_floor", floored)):
        original = getattr(module, name)

        def counted(*args, original=original, calls=calls):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    build_franklin(24)
    assert len(reduced) == 72
    assert summed == []
    assert len(floored) == 12


def test_identity_replay_forms_no_square_in_h1(fm16, monkeypatch):
    # H1 reads only a tag under deltaQ, so at each of the 1000 points
    # x > 0 of IDENTITY_GRID it decides exp(-1/x^2) from x's parts,
    # without x^2, its inverse or an exp call
    link = RationalityLink(fm16)
    calls = {"mul": 0, "inverse": 0, "exp_tagged": 0}

    def counter(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    mul = counter("mul", QSqrt2.__mul__)
    monkeypatch.setattr(QSqrt2, "__mul__", mul)
    monkeypatch.setattr(QSqrt2, "__rmul__", mul)
    monkeypatch.setattr(QSqrt2, "inverse", counter("inverse", QSqrt2.inverse))
    exp = counter("exp_tagged", numbers.exp_tagged)
    monkeypatch.setattr(numbers, "exp_tagged", exp)
    monkeypatch.setattr(expr_module, "exp_tagged", exp)
    result = verify_abs_identity(link, grid=IDENTITY_GRID)
    assert result["ok"] and result["checked"] == 1101
    assert calls["mul"] <= 8
    assert calls["inverse"] == calls["exp_tagged"] == 0


def test_identity_replay_runs_deltaQ_once_per_distinct_argument_in_a_block(fm16, monkeypatch):
    # H1 without its float gives shared values (0, and exp of a nonzero
    # rational), and barGamma one value per distinct argument, so each
    # deltaQ step of a block sees two argument objects, not one per point
    calls = []
    delta = expr_module._delta_tagged
    monkeypatch.setattr(expr_module, "_delta_tagged", lambda t: calls.append(t) or delta(t))
    result = verify_abs_identity(RationalityLink(fm16), grid=IDENTITY_GRID)
    assert result["ok"] and result["checked"] == 1101
    blocks = -(-1101 // franklin_module.GRID_BLOCK)
    # and the symbolic check evaluates deltaQ twice per matched pair
    assert len(calls) <= 2 * 2 * blocks + 2 * len(fm16.matched)


def _identity_reference(link: RationalityLink, grid: str) -> tuple:
    """What ``verify_abs_identity`` reports as ok, checked and failures,
    from the identity evaluated alone at each grid point by
    ``eval_candidates``."""
    expr = abs_identity_expr(link)
    failures, checked = [], 0
    for x in parse_grid(grid):
        cands = eval_candidates(expr, TaggedReal.exact(x))
        if len(cands) != 1 or not cands[0].is_exact:
            failures.append(f"indeterminate at {x}")
            continue
        if cands[0].value != abs(x):
            failures.append(f"mismatch at {x}: {cands[0].value} != {abs(x)}")
        checked += 1
    return not failures, checked, failures[:10]


@pytest.mark.parametrize("case", ["n8", "n16", "quadratic", "no-rational-exp", "forged"])
def test_identity_replay_matches_a_point_by_point_reference(case, fm8, fm16, monkeypatch):
    link, grid = RationalityLink(fm16 if case == "n16" else fm8), IDENTITY_GRID
    if case == "quadratic":
        grid = "zero,rationals:40,negatives:20,quadratic:40"
    elif case == "no-rational-exp":
        # exp of a nonzero rational is then untagged: every x > 0 is indeterminate
        rows = [r for r in numbers.AXIOM_TABLE if r["argument"] != "nonzero rational"]
        monkeypatch.setattr(numbers, "AXIOM_TABLE", rows)
    elif case == "forged":
        # H1 in place of H2: the identity reads x, not |x| at the 100 negatives
        link.expr_b = link.expr_a
        assert to_text(abs_identity_expr(link)) == "x"
    result = verify_abs_identity(link, grid=grid)
    assert (result["ok"], result["checked"], result["failures"]) == _identity_reference(link, grid)


# sha256 of the points of each replay grid, one "p q d" line per point.
# No report lists the points, so these digests are what catches a grid
# whose points change.
_GRID_SHA256 = {
    IDENTITY_GRID: "f684fa1552b47be494ffae22ea0d279e8512788ed3d4c7b77dffe64f8eda32fb",
    DEFAULT_GRID: "2be4cc051949a7de0c3a3631271a541e9cb4718904e9fd391e174ffe6688d814",
}


@pytest.mark.parametrize("spec", sorted(_GRID_SHA256))
def test_replay_grids_are_pinned(spec):
    text = "\n".join(f"{x.p} {x.q} {x.d}" for x in parse_grid(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == _GRID_SHA256[spec]


def test_rationality_link(fm8):
    link = RationalityLink(fm8)
    cert = certify_rationality_link(link)
    assert cert["ok"] and cert["monotone"] and cert["decay"] and cert["order_isomorphism"]
    assert cert["failures"] == []
    assert cert["axioms_used"] == ["exp-transcendence"]


@pytest.mark.parametrize("name", ["b", "q", "c"])
def test_rationality_link_rejects_a_forged_step(fm8, name):
    # clause (ii) replays f(a) = b and w(b) = q at every matched point;
    # a step whose b, q or c (which moves f) is changed breaks one of them
    k = 3
    step = fm8.steps[k]
    forged = dataclasses.replace(step, **{name: getattr(step, name) + Fraction(1, 1000)})
    fm = FranklinMap(fm8.steps[:k] + (forged,) + fm8.steps[k + 1:])
    cert = certify_rationality_link(RationalityLink(fm))
    assert not cert["ok"]
    assert cert["failures"] == ["matched-pair replay failed"]


def test_abs_identity_expr_is_the_hand_built_tree(fm8):
    link = RationalityLink(fm8)
    two_x = make_prod([Const(QSqrt2.coerce(2)), X])
    hand_built = make_sum([
        make_prod([two_x, App("deltaQ", App("H1", X))]),
        make_neg(make_prod([two_x, App("deltaQ", App("barGamma", App("H1", X), fm8))])),
        X,
    ])
    assert abs_identity_expr(link) == hand_built


def test_bar_gamma_derivative_matches_collapsed_polynomial(fm8):
    # barGamma = w o f, so its derivative is W_SLOPE * f'; f' is read off
    # the collapsed form f = (sum P_i t^i + sqrt2 * sum Q_i t^i) / D
    d = differentiate(App("barGamma", X, fm8))
    poly = fm8._poly
    for t in (Fraction(1, 3), Fraction(2, 7), Fraction(-5, 4), Fraction(0), Fraction(9, 10)):
        dp, dq = (
            sum(i * c * t ** (i - 1) for i, c in enumerate(coefs) if i) / poly.d
            for coefs in (poly.p, poly.q)
        )
        assert eval_exact(d, t) == W_SLOPE * QSqrt2(Fraction(dp), Fraction(dq))


def test_parse_grid_deterministic():
    g1 = parse_grid("zero,rationals:10,negatives:5,quadratic:3")
    g2 = parse_grid("zero,rationals:10,negatives:5,quadratic:3")
    assert g1 == g2
    assert len(g1) == 19
    assert QSqrt2.coerce(0) in g1
    assert sum(1 for x in g1 if x.sign() < 0) >= 5
    assert any(not x.is_rational for x in g1)
    with pytest.raises(ValueError):
        parse_grid("bogus:3")


def _fraction_grid(spec: str) -> list:
    """The points of a well-formed grid spec built through Fraction, the
    way parse_grid built them before it drew integers straight into
    triples."""
    rng = random.Random(0)
    pts = []
    for part in spec.split(","):
        name, _, count = part.partition(":")
        count = 1 if name == "zero" else int(count or 10)
        for _ in range(count):
            if name == "rationals":
                pts.append(QSqrt2.coerce(Fraction(rng.randint(1, 1000), rng.randint(1, 1000))))
            elif name == "negatives":
                pts.append(QSqrt2.coerce(Fraction(-rng.randint(1, 1000), rng.randint(1, 1000))))
            elif name == "quadratic":
                pts.append(QSqrt2(0, Fraction(rng.randint(1, 30), rng.randint(1, 30))))
            else:
                pts.append(QSqrt2.coerce(Fraction(0)))
    return pts


@pytest.mark.parametrize("spec", [IDENTITY_GRID, DEFAULT_GRID, "quadratic:40,zero,negatives"])
def test_grid_points_are_the_fraction_construction(spec):
    got, want = parse_grid(spec), _fraction_grid(spec)
    assert len(got) == len(want) > 0
    assert [(x.p, x.q, x.d) for x in got] == [(x.p, x.q, x.d) for x in want]


@pytest.mark.parametrize(
    "spec, message",
    [
        ("zero:5,rationals:2", "grid family 'zero' is the one point 0 and takes no count: 'zero:5'"),
        ("zero:", "grid family 'zero' is the one point 0 and takes no count: 'zero:'"),
        ("rationals:abc", "grid family 'rationals' must be a non-negative integer, got 'abc' in grid 'rationals:abc'"),
        ("zero,negatives:-3", "grid family 'negatives' must be a non-negative integer, got '-3'"),
        ("quadratic:", "grid family 'quadratic' must be a non-negative integer, got ''"),
        ("rationals:1e3", "got '1e3'"),
    ],
    ids=["zero-count", "zero-empty-count", "letters", "negative", "empty-count", "exponent"],
)
def test_parse_grid_rejects_malformed_counts(spec, message):
    with pytest.raises(ValueError) as info:
        parse_grid(spec)
    assert message in str(info.value)


@pytest.mark.parametrize("grid", ["", "rationals:0", " , negatives:0"])
def test_abs_identity_on_no_point_is_refused(fm8, grid):
    with pytest.raises(ValueError, match=f"grid {grid!r} has no points"):
        verify_abs_identity(RationalityLink(fm8), grid=grid)


def test_abs_identity_exact(fm8):
    link = RationalityLink(fm8)
    result = verify_abs_identity(link, grid="zero,rationals:100,negatives:50,quadratic:20")
    assert result["ok"]
    assert result["failures"] == []
    assert result["checked"] >= 171
    # also directly: the identity expression evaluates to |x| at matched points
    e = abs_identity_expr(link)
    for s in fm8.steps[:4]:
        assert eval_exact(e, s.a) == QSqrt2.coerce(abs(s.a))
        assert eval_exact(e, -s.a) == QSqrt2.coerce(abs(s.a))
