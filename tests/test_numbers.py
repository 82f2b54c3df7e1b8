"""Exact Q(sqrt2) arithmetic and sound rationality tagging."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsum import numbers
from smoothsum.numbers import (
    ONE,
    ZERO,
    DomainError,
    QSqrt2,
    Tag,
    TaggedReal,
    add_tagged,
    exp_tagged,
    floor_qsqrt2,
    mul_tagged,
    neg_tagged,
    parse_qsqrt2,
    sqrt_tagged,
    transcendence_axiom_lookup,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)
qsqrt2s = st.builds(QSqrt2, rationals, rationals)


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


def test_exp_tagging():
    assert exp_tagged(TaggedReal.exact(0)).value == ONE
    e = exp_tagged(TaggedReal.exact(Fraction(-1, 3)))
    assert e.tag == Tag.IRRATIONAL and e.transcendental
    # exp of an exact irrational algebraic number: still irrational
    # (Lindemann), and our table knows it
    u = exp_tagged(TaggedReal.exact(QSqrt2(Fraction(0), Fraction(1))))
    assert u.tag in (Tag.IRRATIONAL, Tag.UNKNOWN)


def test_axiom_table_is_the_lookup(monkeypatch):
    third = TaggedReal.exact(Fraction(1, 3))
    assert transcendence_axiom_lookup("exp", TaggedReal.exact(0)) == Tag.RATIONAL
    assert transcendence_axiom_lookup("exp", third) == Tag.IRRATIONAL
    assert transcendence_axiom_lookup("sin", third) == Tag.UNKNOWN
    assert transcendence_axiom_lookup("exp", TaggedReal.approx(0.5)) == Tag.UNKNOWN
    rows = [r for r in numbers.AXIOM_TABLE if r["argument"] != "nonzero rational"]
    monkeypatch.setattr(numbers, "AXIOM_TABLE", rows)
    assert transcendence_axiom_lookup("exp", third) == Tag.UNKNOWN
    assert not exp_tagged(third).transcendental


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
