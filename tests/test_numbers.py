"""Exact Q(sqrt2) arithmetic and sound rationality tagging."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsum import numbers
from smoothsum.expr import _h1_tagged, eval_tagged, parse_expr
from smoothsum.franklin import RationalityLink, verify_abs_identity
from smoothsum.numbers import (
    FLOOR_GUARD_BITS,
    ONE,
    ZERO,
    DomainError,
    QSqrt2,
    QSqrt2Poly,
    Tag,
    TaggedReal,
    add_tagged,
    cmp_parts,
    common_denominator,
    dot_exact,
    dot_is_zero,
    exp_tagged,
    floor_parts,
    floor_qsqrt2,
    mul_parts,
    mul_tagged,
    sub_parts,
    parse_qsqrt2,
    sqrt_tagged,
    transcendence_axiom_lookup,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)
qsqrt2s = st.builds(QSqrt2, rationals, rationals)


def neg_tagged(x: TaggedReal) -> TaggedReal:
    """Tagged negation, for the random arithmetic trees below."""
    if x.is_exact:
        return TaggedReal.exact(-x.value)
    value = None if x.value is None else -x.value
    return TaggedReal(value, x.tag, x.transcendental)


@given(qsqrt2s, qsqrt2s, qsqrt2s)
def test_field_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO


@given(qsqrt2s)
def test_inverse(x):
    if x.is_zero:
        with pytest.raises(DomainError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE


@given(st.lists(st.tuples(qsqrt2s, qsqrt2s), max_size=5))
def test_dot_is_zero(pairs):
    phi = [c for c, _ in pairs]
    vals = [v for _, v in pairs]
    dot = sum((c * v for c, v in pairs), ZERO)
    assert dot_is_zero(phi, vals) == dot.is_zero
    # completed to an exact zero by one more coordinate
    assert dot_is_zero(phi + [ONE], vals + [-dot])
    assert dot_is_zero(phi + [ZERO], vals + [ONE]) == dot.is_zero


@given(qsqrt2s)
def test_parse_print_round_trip(x):
    assert parse_qsqrt2(str(x)) == x


@given(qsqrt2s, qsqrt2s)
def test_order_agrees_with_floats(x, y):
    # floats only sanity-check the exact comparison on well-separated pairs
    if abs(float(x) - float(y)) > 1e-6:
        assert (x < y) == (float(x) < float(y))


@given(qsqrt2s)
def test_floor(x):
    n = floor_qsqrt2(x)
    assert QSqrt2.coerce(n) <= x < QSqrt2.coerce(n + 1)


def _sign_reference(x: QSqrt2) -> int:
    """Sign of a + b*sqrt2 by comparing a^2 with 2 b^2 as Fractions."""
    a, b = x.a, x.b
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        return (a + b > 0) - (a + b < 0)
    return (1 if a > 0 else -1) if a * a > 2 * b * b else (1 if b > 0 else -1)


huge_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.integers(min_value=1, max_value=2**80),
)


@given(st.one_of(qsqrt2s, st.builds(QSqrt2, huge_rationals, huge_rationals)))
def test_floor_exact_far_outside_float_range(x):
    n = floor_qsqrt2(x)
    assert _sign_reference(x - n) >= 0 and _sign_reference(x - (n + 1)) < 0


def test_floor_regressions():
    # a float carries only 53 of these 71 bits, too far off for a
    # step-by-step fix-up
    assert floor_qsqrt2(QSqrt2(Fraction(2**70 + 12345), Fraction(1))) == 2**70 + 12346
    assert floor_qsqrt2(QSqrt2(Fraction(2**70 + 12345), Fraction(-1))) == 2**70 + 12343
    # float(x) overflows from 2^1024 on
    assert floor_qsqrt2(QSqrt2(Fraction(2**1100), Fraction(3, 7))) == 2**1100
    assert floor_qsqrt2(QSqrt2(Fraction(-(2**1100)), Fraction(3, 7))) == -(2**1100)
    assert floor_qsqrt2(QSqrt2(Fraction(0), Fraction(2**1100))) == math.isqrt(2 ** 2201)
    assert floor_qsqrt2(QSqrt2(Fraction(0), Fraction(-(2**1100)))) == -math.isqrt(2 ** 2201) - 1
    # integers and exact halves
    assert floor_qsqrt2(QSqrt2(Fraction(-3))) == -3
    assert floor_qsqrt2(QSqrt2(Fraction(-7, 2))) == -4


def _plain_floor(p: int, q: int, d: int) -> int:
    """floor((p + q sqrt2) / d) from one isqrt of 2 q^2 at full width: the
    oracle for floor_parts."""
    root = math.isqrt(2 * q * q)
    return (p + (root if q >= 0 else -root - 1)) // d


@st.composite
def floor_triples(draw):
    """(p, q, d) with d of 1 to 6000 bits and q zero, far below, near or
    far above d; p free, or a near tie p = k d - floor(q sqrt2) (minus 1),
    where (p + q sqrt2) / d lies within 1/d of the integer k."""
    dbits = draw(st.integers(min_value=1, max_value=6000))
    d = draw(st.integers(min_value=1 << (dbits - 1), max_value=(1 << dbits) - 1))
    qbits = draw(st.one_of(st.integers(min_value=0, max_value=dbits + 600), st.sampled_from([0, dbits])))
    q = draw(st.integers(min_value=-(1 << qbits), max_value=1 << qbits))
    kind = draw(st.sampled_from(["free", "tie", "below"]))
    if kind == "free":
        pbits = max(dbits, qbits) + 2
        p = draw(st.integers(min_value=-(1 << pbits), max_value=1 << pbits))
    else:
        k = draw(st.integers(min_value=-(2**70), max_value=2**70))
        p = k * d - _plain_floor(0, q, 1) - (kind == "below")
    return p, q, d


@settings(max_examples=300)
@given(floor_triples())
def test_floor_parts_is_the_full_width_floor(triple):
    assert floor_parts(*triple) == _plain_floor(*triple)


def _understated(s: int) -> int:
    """A q > 0 whose top bits q >> s understate q sqrt2 by more than two
    units of 2^s: its low s bits are all set and frac(qt sqrt2) > 0.9."""
    qt = next(x for x in itertools.count(2**100) if math.isqrt(200 * x * x) % 100 >= 90)
    return (qt << s) | ((1 << s) - 1)


def test_floor_parts_near_ties_take_the_exact_path(monkeypatch):
    # p = k d - floor(q sqrt2) puts (p + q sqrt2) / d within 1/d above k,
    # and one less within 1/d below it; a multiple of d then lies in the
    # top-bit bracket, whose ends floor to k - 1 and k, so only the exact
    # floor can answer
    calls = []
    exact = numbers._floor_exact

    def recorded(p, q, d):
        calls.append(d)
        return exact(p, q, d)

    monkeypatch.setattr(numbers, "_floor_exact", recorded)
    rng = random.Random(19)
    cases = []
    for dbits in (FLOOR_GUARD_BITS + 1, 200, 2000, 6000):
        d = rng.getrandbits(dbits) | (1 << (dbits - 1))
        s = dbits - FLOOR_GUARD_BITS
        cases += [(rng.getrandbits(qbits) | 1, d) for qbits in (1, s // 2 + 1, dbits, dbits + 500)]
        cases.append((_understated(s), d))
    for q0, d in cases:
        for q in (q0, -q0):
            f = _plain_floor(0, q, 1)
            for k in (-3, 0, 5):
                for below in (0, 1):
                    del calls[:]
                    assert floor_parts(k * d - f - below, q, d) == k - below
                    assert calls == [d]


def test_floor_parts_brackets_without_the_exact_path(monkeypatch):
    # away from a tie, a wide d takes no full-width isqrt; a d of at most
    # FLOOR_GUARD_BITS bits always does, and q = 0 never
    calls = []
    monkeypatch.setattr(numbers, "_floor_exact", lambda p, q, d: calls.append(d) or _plain_floor(p, q, d))
    rng = random.Random(20)
    for _ in range(200):
        d = rng.getrandbits(3000) | (1 << 2999)
        p, q = rng.getrandbits(3100) - (1 << 3099), rng.getrandbits(3050) - (1 << 3049)
        assert floor_parts(p, q, d) == _plain_floor(p, q, d)
    assert floor_parts(7, 0, 1 << 3000) == 0 and floor_parts(-7, 0, 2) == -4
    assert calls == []
    assert floor_parts(5, 3, (1 << FLOOR_GUARD_BITS) - 1) == 0
    assert calls == [(1 << FLOOR_GUARD_BITS) - 1]


def _pell(k: int) -> tuple:
    """x, y with x^2 - 2 y^2 = +-1, so x/y is within 1/y^2 of sqrt2."""
    x, y = 1, 1
    for _ in range(k):
        x, y = x + 2 * y, x + y
    return x, y


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=1, max_value=2**64),
    st.sampled_from([(1, -1), (-1, 1)]),
)
def test_sign_near_sqrt2(k, nudge, den, signs):
    # a/b at a Pell convergent of sqrt2 (nudged), where the leading bits of
    # a^2 and 2 b^2 agree and only the full products decide
    x, y = _pell(k)
    v = QSqrt2(Fraction(signs[0] * (x + nudge), den), Fraction(signs[1] * y, den))
    assert v.sign() == _sign_reference(v)
    assert (-v).sign() == -_sign_reference(v)


@given(qsqrt2s)
def test_sign_and_abs(x):
    s = x.sign()
    assert s in (-1, 0, 1)
    assert (s == 0) == x.is_zero
    assert abs(x).sign() >= 0
    assert abs(x) in (x, -x)


def test_rationality_flag():
    assert QSqrt2(Fraction(3, 2)).is_rational
    assert not QSqrt2(Fraction(0), Fraction(1)).is_rational


# ---------------------------------------------------------------------
# Tag soundness: random arithmetic DAGs over exact values.  The oracle is
# the exact value itself: whenever the propagated tag is not Unknown it
# must agree with the exact rationality of the result.
# ---------------------------------------------------------------------


def _random_dag_value(rng):
    leaves = [
        TaggedReal.exact(Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
        TaggedReal.exact(QSqrt2(Fraction(0), Fraction(rng.randint(-3, 3)))),
        TaggedReal.exact(QSqrt2(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))),
    ]
    nodes = list(leaves)
    for _ in range(rng.randint(1, 8)):
        op = rng.choice(("add", "mul", "neg", "sqrt"))
        x = rng.choice(nodes)
        if op == "add":
            nodes.append(add_tagged(x, rng.choice(nodes)))
        elif op == "mul":
            nodes.append(mul_tagged(x, rng.choice(nodes)))
        elif op == "neg":
            nodes.append(neg_tagged(x))
        else:
            if x.is_exact and x.value.sign() >= 0:
                nodes.append(sqrt_tagged(x))
    return nodes[-1]


def _sound(t: TaggedReal) -> bool:
    if t.tag == Tag.UNKNOWN:
        return True
    if t.is_exact:
        return (t.tag == Tag.RATIONAL) == t.value.is_rational
    # approximate value with a hard tag: checkable only when the tag came
    # from sqrt of an exact value; verify the square is consistent
    return True


def test_tag_soundness_random_dags():
    rng = random.Random(1234)
    for _ in range(10_000):
        t = _random_dag_value(rng)
        assert _sound(t)


def test_sqrt_tagging():
    assert sqrt_tagged(TaggedReal.exact(Fraction(9, 4))).value == QSqrt2.coerce(Fraction(3, 2))
    two = sqrt_tagged(TaggedReal.exact(2))
    assert two.tag == Tag.IRRATIONAL
    # sqrt of an exact irrational is irrational
    irr = sqrt_tagged(TaggedReal.exact(QSqrt2(Fraction(0), Fraction(1))))
    assert irr.tag == Tag.IRRATIONAL
    assert irr.float_value() == pytest.approx(math.sqrt(math.sqrt(2)))


def test_sqrt_of_a_negative_float_is_indeterminate():
    # 1 - sqrt(3): an Irrational float below 0, as in sqrt(x-sqrt(3)) at x = 1;
    # a float's sign is not proved, so no domain error is decided from it
    x = add_tagged(TaggedReal.exact(1), mul_tagged(TaggedReal.exact(-1), sqrt_tagged(TaggedReal.exact(3))))
    assert x.tag == Tag.IRRATIONAL and x.value < 0
    for arg in (x, TaggedReal.approx(-0.5), TaggedReal.approx(-0.5, Tag.RATIONAL)):
        assert sqrt_tagged(arg) == TaggedReal.opaque()
    assert sqrt_tagged(TaggedReal.approx(0.25, Tag.IRRATIONAL)) == TaggedReal(0.5, Tag.IRRATIONAL)
    # an exact negative value is a proved domain error
    for value in (Fraction(-1, 2), -3, QSqrt2(Fraction(1), Fraction(-1))):
        with pytest.raises(DomainError, match="sqrt of a negative number"):
            sqrt_tagged(TaggedReal.exact(value))


@pytest.mark.parametrize("text", ["sqrt(sqrt(3)*sqrt(3)-3)", "sqrt(x*sqrt(3)*sqrt(3)-3*x)"])
def test_sqrt_of_a_zero_rounded_below_zero_is_not_a_domain_error(text):
    # the argument is exactly 0 at x = 1, but its float reads below 0
    arg = parse_expr(text).arg
    assert eval_tagged(arg, TaggedReal.exact(1)).float_value() < 0
    assert eval_tagged(parse_expr(text), TaggedReal.exact(1)) == TaggedReal.opaque()


def test_sqrt_at_an_exact_negative_point_is_a_domain_error():
    with pytest.raises(DomainError, match="sqrt of a negative number"):
        eval_tagged(parse_expr("sqrt(x)"), TaggedReal.exact(Fraction(-1, 2)))


def test_exp_tagging():
    assert exp_tagged(TaggedReal.exact(0)).value == ONE
    e = exp_tagged(TaggedReal.exact(Fraction(-1, 3)))
    assert e.tag == Tag.IRRATIONAL and e.transcendental
    # exp of an exact irrational algebraic number: still irrational
    # (Lindemann), and our table knows it
    u = exp_tagged(TaggedReal.exact(QSqrt2(Fraction(0), Fraction(1))))
    assert u.tag in (Tag.IRRATIONAL, Tag.UNKNOWN)


def test_axiom_table_is_the_lookup(monkeypatch, fm8):
    third = TaggedReal.exact(Fraction(1, 3))
    assert transcendence_axiom_lookup("exp", TaggedReal.exact(0)) is Tag.RATIONAL
    assert transcendence_axiom_lookup("exp", third) is Tag.IRRATIONAL
    assert transcendence_axiom_lookup("sin", third) == Tag.UNKNOWN
    assert transcendence_axiom_lookup("exp", TaggedReal.approx(0.5)) == Tag.UNKNOWN
    rows = [r for r in numbers.AXIOM_TABLE if r["argument"] != "nonzero rational"]
    monkeypatch.setattr(numbers, "AXIOM_TABLE", rows)
    assert transcendence_axiom_lookup("exp", third) == Tag.UNKNOWN
    assert not exp_tagged(third).transcendental
    # H1's tag-only lane reads the same row: at 3/7 and at 2 sqrt2/3,
    # -1/x^2 is a nonzero rational that it never forms
    for x in (Fraction(3, 7), QSqrt2(0, Fraction(2, 3))):
        h1 = _h1_tagged(TaggedReal.exact(x), approx=False)
        assert (h1.tag, h1.transcendental) == (Tag.UNKNOWN, False)
    # so the identity replay, which runs that lane, decides no point x > 0
    result = verify_abs_identity(RationalityLink(fm8), grid="zero,rationals:5,negatives:3,quadratic:2")
    assert not result["ok"] and result["checked"] == 4
    assert len(result["failures"]) == 7
    assert all(f.startswith("indeterminate at ") for f in result["failures"])


_HUGE = QSqrt2.from_ints(10**400, 0, 1)  # past the float range


def test_float_out_of_range_is_none_and_the_tag_stays():
    with pytest.raises(OverflowError):
        float(_HUGE)
    for v in (_HUGE, -_HUGE, QSqrt2.from_ints(0, 10**400, 3)):
        t = TaggedReal.exact(v)
        assert t.float_value() is None and t.is_exact
    # sqrt of 3 * 10^400 and of 10^400 * sqrt2: irrational, no float
    for v in (QSqrt2.from_ints(3 * 10**400, 0, 1), QSqrt2.from_ints(0, 10**400, 1)):
        r = sqrt_tagged(TaggedReal.exact(v))
        assert (r.value, r.tag, r.transcendental) == (None, Tag.IRRATIONAL, False)
    # the sum of two such values keeps its decided tag
    s = add_tagged(TaggedReal.exact(1), sqrt_tagged(TaggedReal.exact(QSqrt2.from_ints(3 * 10**400, 0, 1))))
    assert (s.value, s.tag) == (None, Tag.IRRATIONAL)


@pytest.mark.parametrize(
    "x, tag",
    [
        (TaggedReal.exact(1000), Tag.IRRATIONAL),  # e^1000 overflows a float
        (TaggedReal.exact(_HUGE), Tag.IRRATIONAL),  # so does the argument
        (TaggedReal.approx(1000.0), Tag.UNKNOWN),
    ],
    ids=["exact", "huge-argument", "approx"],
)
def test_exp_past_the_float_range(x, tag):
    r = exp_tagged(x)
    assert r.value is None and r.tag == tag and r.transcendental == (tag == Tag.IRRATIONAL)


@pytest.mark.parametrize(
    "x",
    [
        TaggedReal.exact(0),
        TaggedReal.exact(Fraction(-1, 3)),
        TaggedReal.exact(QSqrt2.sqrt2()),
        TaggedReal.approx(0.5, Tag.RATIONAL),
        TaggedReal(0.5, Tag.IRRATIONAL, transcendental=True),
        TaggedReal.opaque(),
    ],
)
def test_exp_without_its_float_keeps_value_tag_and_flag(x):
    full, tag_only = exp_tagged(x), exp_tagged(x, approx=False)
    assert (tag_only.tag, tag_only.transcendental) == (full.tag, full.transcendental)
    if full.is_exact:
        assert tag_only == full
    else:
        assert tag_only.value is None


def test_certified_transcendental_is_the_validated_value():
    for approx in (None, 0.25):
        t = TaggedReal.certified_transcendental(approx)
        assert t == TaggedReal(approx, Tag.IRRATIONAL, transcendental=True)
        assert repr(t) == repr(TaggedReal(approx, Tag.IRRATIONAL, transcendental=True))


def test_tagged_real_consistency_checks():
    with pytest.raises(ValueError):
        TaggedReal(QSqrt2.coerce(1), Tag.IRRATIONAL)
    with pytest.raises(ValueError):
        TaggedReal(QSqrt2(Fraction(0), Fraction(1)), Tag.RATIONAL)
    with pytest.raises(ValueError):
        TaggedReal(1.5, Tag.RATIONAL, transcendental=True)


@settings(max_examples=50)
@given(qsqrt2s, qsqrt2s)
def test_tag_propagation_matches_exact_arithmetic(x, y):
    tx, ty = TaggedReal.exact(x), TaggedReal.exact(y)
    assert add_tagged(tx, ty).value == x + y
    assert mul_tagged(tx, ty).value == x * y
    assert neg_tagged(tx).value == -x


# ---------------------------------------------------------------------
# The integer triple (p, q, d), (p + q*sqrt2)/d, against a reference
# model written out here: a value a + b*sqrt2 as a pair of Fractions,
# with the arithmetic of the field on pairs.
# ---------------------------------------------------------------------

# few small denominators, so that equal and overlapping denominators and
# cancellations are common, next to the wide `rationals`
small_rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)
pairs = st.tuples(
    st.one_of(small_rationals, rationals, st.just(Fraction(0))),
    st.one_of(small_rationals, rationals, st.just(Fraction(0))),
)


def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _ref_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    norm = x[0] * x[0] - 2 * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _pair_sign(a: Fraction, b: Fraction) -> int:
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        return (a + b > 0) - (a + b < 0)
    return (1 if a > 0 else -1) if a * a > 2 * b * b else (1 if b > 0 else -1)


def _ref_floor(x) -> int:
    """The largest integer n with x - n >= 0, by bisection on the sign."""
    lo = -math.ceil(abs(x[0]) + 2 * abs(x[1])) - 1  # x - lo >= 0
    hi = -lo  # x - hi < 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _pair_sign(x[0] - mid, x[1]) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def _ref_str(x) -> str:
    a, b = x
    if b == 0:
        return str(a)
    bpart = f"{abs(b)}*sqrt2" if abs(b) != 1 else "sqrt2"
    if a == 0:
        return bpart if b > 0 else "-" + bpart
    return f"{a}{'+' if b > 0 else '-'}{bpart}"


def _model(v: QSqrt2) -> tuple:
    """The reference pair of a triple, after checking the triple is
    canonical."""
    assert type(v) is QSqrt2
    assert isinstance(v.p, int) and isinstance(v.q, int) and isinstance(v.d, int)
    assert v.d > 0 and math.gcd(v.p, v.q, v.d) == 1
    a, b = v.a, v.b
    assert (a, b) == (Fraction(v.p, v.d), Fraction(v.q, v.d))
    return (a, b)


@given(pairs)
def test_triple_is_canonical_and_reads_back(x):
    v = QSqrt2(*x)
    assert _model(v) == x
    assert v.is_rational == (x[1] == 0)
    assert v.is_zero == (x == (0, 0))
    assert repr(v) == f"QSqrt2({x[0]!r}, {x[1]!r})"
    assert str(v) == _ref_str(x)
    assert parse_qsqrt2(str(v)) == v
    assert _model(parse_qsqrt2(str(v))) == x
    assert float(v) == float(x[0]) + float(x[1]) * math.sqrt(2)


@given(pairs, pairs)
def test_arithmetic_matches_the_pair_model(x, y):
    u, v = QSqrt2(*x), QSqrt2(*y)
    assert _model(u + v) == _ref_add(x, y)
    assert _model(u - v) == _ref_sub(x, y)
    assert _model(u * v) == _ref_mul(x, y)
    assert _model(-u) == (-x[0], -x[1])
    # mixed operands: a rational on either side
    assert _model(u + y[0]) == _ref_add(x, (y[0], 0))
    assert _model(y[0] + u) == _ref_add(x, (y[0], 0))
    assert _model(y[0] - u) == _ref_sub((y[0], 0), x)
    assert _model(3 * u) == (3 * x[0], 3 * x[1])
    assert _model(u * y[1]) == (x[0] * y[1], x[1] * y[1])
    if y == (0, 0):
        with pytest.raises(DomainError):
            v.inverse()
        with pytest.raises(DomainError):
            u / v
    else:
        assert _model(v.inverse()) == _ref_inverse(y)
        assert _model(u / v) == _ref_mul(x, _ref_inverse(y))


@st.composite
def _zero_prefix_cases(draw):
    """Coefficients, some zero, beside all-exact columns of one length,
    where most points are made to give a zero sum by solving for one
    column's value there; and a count up to that length."""
    phi = [QSqrt2(*c) for c in draw(st.lists(st.one_of(st.just((0, 0)), pairs), min_size=1, max_size=4))]
    columns = [[] for _ in phi]
    for _ in range(draw(st.integers(1, 6))):
        vals = [QSqrt2(*draw(pairs)) for _ in phi]
        solvable = [j for j, c in enumerate(phi) if not c.is_zero]
        if solvable and draw(st.integers(0, 3)):
            j = draw(st.sampled_from(solvable))
            rest = sum((c * v for i, (c, v) in enumerate(zip(phi, vals)) if i != j), ZERO)
            vals[j] = -rest / phi[j]
        for column, v in zip(columns, vals):
            column.append((TaggedReal.exact(v),))
    return phi, columns, draw(st.integers(0, len(columns[0])))


@given(_zero_prefix_cases())
def test_zero_prefix_stops_at_the_first_nonzero_combination(case):
    phi, columns, count = case
    terms = list(zip(phi, columns))
    sums = [sum((c * column[i][0].value for c, column in terms), ZERO) for i in range(count)]
    first = next((i for i, s in enumerate(sums) if not s.is_zero), count)
    assert numbers.zero_prefix(terms, count) == first
    # at one point it is dot_is_zero
    for i in range(len(columns[0])):
        vals = [column[i][0].value for column in columns]
        assert numbers.zero_prefix([(c, column[i : i + 1]) for c, column in terms], 1) == dot_is_zero(phi, vals)


def test_zero_prefix_cross_multiplies_unequal_denominators():
    half, third = QSqrt2(Fraction(1, 2), Fraction(1, 2)), QSqrt2(Fraction(1, 3), Fraction(1, 3))
    column = [(TaggedReal.exact(v),) for v in (half, third, half)]
    # v - v is 0; (1 + sqrt2)/3 - (1 + sqrt2)/2 is not, though the
    # numerators of its terms cancel
    terms = [(ONE, column), (-ONE, [(TaggedReal.exact(half),)] * 3)]
    assert numbers.zero_prefix(terms, 3) == 1
    assert numbers.zero_prefix(terms, 1) == 1
    assert numbers.zero_prefix(terms, 0) == 0


@st.composite
def _product_zero_prefix_cases(draw):
    """Product terms (c, column, ...) over up to three of four all-exact
    columns, some coefficients zero, and a last term c * column 4 solved
    at most points so that the sum there is zero; a start and a count."""
    length = draw(st.integers(1, 6))
    columns = [[QSqrt2(*draw(pairs)) for _ in range(length)] for _ in range(4)]
    terms = draw(st.lists(st.tuples(st.one_of(st.just((0, 0)), pairs), st.lists(st.integers(0, 3), max_size=3)),
                          max_size=3))
    terms = [(QSqrt2(*c), slots) for c, slots in terms]
    last = QSqrt2(*draw(pairs.filter(lambda c: c != (0, 0))))
    for i in range(length):
        if draw(st.integers(0, 3)):
            rest = sum((math.prod((columns[k][i] for k in slots), start=c) for c, slots in terms), ZERO)
            columns[3][i] = -rest / last
    terms.append((last, [3]))
    count = draw(st.integers(0, length))
    return terms, columns, draw(st.integers(0, count)), count


@given(_product_zero_prefix_cases())
def test_zero_prefix_of_product_terms_matches_the_pair_model(case):
    terms, columns, start, count = case
    cells = [[(TaggedReal.exact(v),) for v in column] for column in columns]

    def total(i):
        out = (Fraction(0), Fraction(0))
        for c, slots in terms:
            term = _model(c)
            for k in slots:
                term = _ref_mul(term, _model(columns[k][i]))
            out = _ref_add(out, term)
        return out

    want = next((i for i in range(start, count) if total(i) != (0, 0)), count)
    assert numbers.zero_prefix([(c, *(cells[k] for k in slots)) for c, slots in terms], count, start) == want


def test_zero_prefix_multiplies_the_columns_of_a_term():
    half, third = QSqrt2(Fraction(1, 2), Fraction(1, 2)), QSqrt2(Fraction(1, 3), Fraction(-1, 3))
    column = [(TaggedReal.exact(v),) for v in (half, third)]
    thirds = [(TaggedReal.exact(third),)] * 2
    # (1 + sqrt2)/2 * (1 - sqrt2)/3 is -1/6, over unequal denominators, but
    # ((1 - sqrt2)/3)^2 is (3 - 2 sqrt2)/9; beside a zero term and 1/6
    terms = [(ONE, column, thirds), (ZERO, column), (QSqrt2(Fraction(1, 6)),)]
    assert numbers.zero_prefix(terms, 2) == 1
    assert numbers.zero_prefix(terms, 1) == 1
    assert numbers.zero_prefix(terms, 2, 1) == 1
    assert numbers.zero_prefix(terms, 2, 2) == 2


@given(pairs)
def test_equal_values_from_every_constructor_hash_equal(x):
    a, b = x
    made = [QSqrt2(a, b), QSqrt2.from_ints(a.numerator * b.denominator, b.numerator * a.denominator,
                                           a.denominator * b.denominator)]
    if b == 0:
        made += [QSqrt2.coerce(a), QSqrt2.coerce(a.numerator) / a.denominator]
    assert all(v == made[0] for v in made)
    assert len({hash(v) for v in made}) == 1


@given(pairs, pairs)
def test_equality_hash_and_order_match_the_pair_model(x, y):
    u, v = QSqrt2(*x), QSqrt2(*y)
    assert (u == v) == (x == y)
    assert (u != v) == (x != y)
    if u == v:
        assert hash(u) == hash(v)
    # the hash of the pair of parts, so set and dict order is unchanged
    assert hash(u) == hash(x)
    s = _pair_sign(*_ref_sub(x, y))
    assert (u < v, u <= v, u > v, u >= v) == (s < 0, s <= 0, s > 0, s >= 0)
    # values of other types are never equal to a QSqrt2, as before
    assert u != x[0] and x[0] != u


@given(st.one_of(pairs, st.tuples(huge_rationals, huge_rationals)))
def test_sign_floor_and_abs_match_the_pair_model(x):
    v = QSqrt2(*x)
    assert v.sign() == _pair_sign(*x)
    assert floor_qsqrt2(v) == _ref_floor(x)
    assert _model(abs(v)) == (x if _pair_sign(*x) >= 0 else (-x[0], -x[1]))


@given(
    st.one_of(pairs, st.tuples(huge_rationals, huge_rationals)).map(lambda x: QSqrt2(*x)),
    st.integers(min_value=0, max_value=400),
)
def test_floor_of_a_binary_multiple_is_the_floor_of_the_product(v, k):
    # negative, rational and irrational v: shifting the parts is
    # multiplying by 2^k
    assert floor_qsqrt2(v, k) == floor_qsqrt2(v * 2**k)


@given(pairs)
def test_exact_tag_is_read_off_the_triple(x):
    v = QSqrt2(*x)
    t = TaggedReal.exact(v)
    assert t.value is v
    assert t.tag == (Tag.IRRATIONAL if v.q != 0 else Tag.RATIONAL)
    assert not t.transcendental
    # the validating constructor agrees with it
    assert TaggedReal(v, t.tag) == t
    assert TaggedReal.exact(x[0]).value == QSqrt2(x[0])
    assert TaggedReal.exact(x[0]).tag == Tag.RATIONAL


def test_constructor_accepts_ints_and_fractions():
    assert QSqrt2() == QSqrt2(0, 0) == QSqrt2(Fraction(0)) == ZERO
    assert (QSqrt2(3, -2).p, QSqrt2(3, -2).q, QSqrt2(3, -2).d) == (3, -2, 1)
    v = QSqrt2(Fraction(1, 6), Fraction(-3, 4))
    assert (v.p, v.q, v.d) == (2, -9, 12)
    assert QSqrt2(Fraction(4, 2), 1) == QSqrt2(2, 1)
    assert QSqrt2.from_ints(6, 4, 8) == QSqrt2(Fraction(3, 4), Fraction(1, 2))
    assert QSqrt2.coerce(Fraction(-5, 10)) == QSqrt2(Fraction(-1, 2))


def test_value_is_immutable_and_copies():
    v = QSqrt2(1, 2)
    for name in ("p", "q", "d", "a", "b"):
        with pytest.raises(AttributeError):
            setattr(v, name, 5)
    assert (v.p, v.q, v.d) == (1, 2, 1)
    w = QSqrt2(Fraction(-1, 6), Fraction(3, 4))
    assert copy.deepcopy(w) == w
    assert pickle.loads(pickle.dumps(w)) == w


# -- arithmetic on parts, against the pair model ------------------------
# Parts (p, q, d) in lowest terms or not: zero parts, parts of opposite
# sign, and a common factor that changes no value.

_part_ints = st.one_of(
    st.just(0), st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(2**200), max_value=2**200),
)


@st.composite
def _unreduced(draw):
    k = draw(st.integers(min_value=1, max_value=10**4))
    d = draw(st.integers(min_value=1, max_value=10**12))
    return draw(_part_ints) * k, draw(_part_ints) * k, d * k


def _triple(x) -> tuple:
    return x if type(x) is tuple else (x.p, x.q, x.d)


def _parts_model(x) -> tuple:
    p, q, d = _triple(x)
    return Fraction(p, d), Fraction(q, d)


# a value as parts, or as the QSqrt2 they reduce to
_qsqrt2_values = _unreduced().map(lambda t: QSqrt2.from_ints(*t))
_values = st.one_of(_unreduced(), _qsqrt2_values)


@given(_values, _values)
def test_cmp_sub_and_mul_parts_match_the_pair_model(x, y):
    mx, my = _parts_model(x), _parts_model(y)
    assert cmp_parts(x, y) == _pair_sign(*_ref_sub(mx, my))
    assert cmp_parts(x, x) == 0
    for out, want in ((sub_parts(x, y), _ref_sub(mx, my)), (mul_parts(x, y), _ref_mul(mx, my))):
        assert out[2] == _triple(x)[2] * _triple(y)[2]
        assert _parts_model(out) == want


@given(_values, _values, st.integers(min_value=1, max_value=10**6))
def test_sub_parts_over_a_given_denominator(x, y, m):
    d = math.lcm(_triple(x)[2], _triple(y)[2]) * m
    out = sub_parts(x, y, d)
    assert out[2] == d
    assert _parts_model(out) == _ref_sub(_parts_model(x), _parts_model(y))


@given(st.lists(_qsqrt2_values, max_size=6), st.lists(_qsqrt2_values, max_size=6))
def test_common_denominator_and_dot_match_the_pair_model(xs, ys):
    den, parts = common_denominator(xs)
    assert den == math.lcm(*(v.d for v in xs))
    assert [(Fraction(p, den), Fraction(q, den)) for p, q in parts] == [_parts_model(v) for v in xs]
    want = (Fraction(0), Fraction(0))
    for x, y in zip(xs, ys):
        want = _ref_add(want, _ref_mul(_parts_model(x), _parts_model(y)))
    assert _model(dot_exact((den, parts), common_denominator(ys))) == want


@given(_values, st.integers(min_value=0, max_value=400))
def test_floor_of_parts_is_the_floor_of_their_value(x, k):
    assert floor_qsqrt2(x, k) == floor_qsqrt2(QSqrt2(*_parts_model(x)), k)


@given(
    st.lists(st.tuples(_unreduced().map(lambda t: QSqrt2.from_ints(*t)),
                       st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4),
                       st.integers(min_value=1, max_value=60)), max_size=4),
    st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=60),
)
def test_poly_plus_horner_at_and_floors_match_the_pair_model(terms, u, v):
    # t + sum c * B(t) / M, with the value at u/v, and at sqrt2 u/v,
    # summed term by term as pairs
    poly = QSqrt2Poly((0, 1), (0, 0), 1)
    for c, vec, scale in terms:
        poly = poly.plus(c, (tuple(vec), scale))

    def value(t):  # t a pair
        out = t
        for c, vec, scale in terms:
            b, power = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
            for x in vec:
                b = _ref_add(b, (x * power[0], x * power[1]))
                power = _ref_mul(power, t)
            out = _ref_add(out, _ref_mul(_model(c), (b[0] / scale, b[1] / scale)))
        return out

    t = Fraction(u, v)
    assert _parts_model(poly.horner(u, v)) == value((t, Fraction(0)))
    assert _model(poly.at(QSqrt2(t))) == value((t, Fraction(0)))
    assert _model(poly.at(QSqrt2(0, t))) == value((Fraction(0), t))
    coefs = [(Fraction(p, poly.d), Fraction(q, poly.d)) for p, q in zip(poly.p, poly.q)]
    assert list(poly.floors(7)) == [_ref_floor((a * 128, b * 128)) for a, b in reversed(coefs)]
    assert [_model(c) for c in poly.derivative()] == [(i * a, i * b) for i, (a, b) in enumerate(coefs)][1:]
