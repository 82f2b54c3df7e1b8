"""Expression trees: parsing, printing, evaluation, classification."""

import random
from fractions import Fraction

import pytest

from smoothsum.expr import (
    ABS_KIND,
    AXIOM_A,
    DELTA_KIND,
    GAMMA_KIND,
    App,
    Const,
    ExprError,
    NotDifferentiableError,
    ParseError,
    Smoothness,
    SmoothnessVerdict,
    Var,
    X,
    classify_smoothness,
    compose,
    decompose_exotic,
    differentiate,
    eval_candidates,
    eval_exact,
    is_smooth_expr,
    make_app,
    make_neg,
    make_pow,
    make_prod,
    make_sum,
    one_sided_derivative,
    parse_expr,
    rewrite_delta_cancellation,
    to_text,
    verify_nonsmooth_witness,
)
from smoothsum.franklin import RationalityLink, abs_identity_expr, parse_grid
from smoothsum.numbers import QSqrt2, Tag, TaggedReal


# ---------------------------------------------------------------------
# Random canonical expressions for round-trip testing
# ---------------------------------------------------------------------


def _random_expr(rng, depth=0):
    if depth > 3 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return Const(QSqrt2(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                Fraction(rng.randint(-3, 3))))
        return X
    kind = rng.choice(("sum", "prod", "pow", "app", "neg"))
    if kind == "sum":
        return make_sum([_random_expr(rng, depth + 1) for _ in range(rng.randint(2, 3))])
    if kind == "prod":
        return make_prod([_random_expr(rng, depth + 1) for _ in range(rng.randint(2, 3))])
    if kind == "pow":
        return make_pow(_random_expr(rng, depth + 1), rng.randint(2, 4))
    if kind == "neg":
        return make_neg(_random_expr(rng, depth + 1))
    name = rng.choice(("abs", "exp", "sqrt", "deltaQ", "H1"))
    return make_app(name, _random_expr(rng, depth + 1))


def test_parser_round_trip_random():
    rng = random.Random(42)
    for _ in range(1000):
        e = _random_expr(rng)
        text = to_text(e)
        assert parse_expr(text) == e, text


def test_parser_examples():
    assert to_text(parse_expr("2*x + 3 - x")) in ("x+3", "3+x")
    assert parse_expr("abs(x)^2") == make_pow(make_app("abs", X), 2)
    assert parse_expr("-1/2*x") == make_prod([Const(QSqrt2.coerce(Fraction(-1, 2))), X])
    assert parse_expr("(1+sqrt2)*x") == make_prod(
        [Const(QSqrt2(Fraction(1), Fraction(1))), X]
    )
    assert parse_expr("x - x") == Const(QSqrt2())


def test_parser_errors():
    for bad in ("", "x +", "foo(x)", "x^0", "x^(2)", "((x)", "1//2"):
        with pytest.raises(ParseError):
            parse_expr(bad)


def test_constant_folding():
    assert parse_expr("2*3 + 1") == Const(QSqrt2.coerce(7))
    assert parse_expr("sqrt2*sqrt2") == Const(QSqrt2.coerce(2))


# ---------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------


def test_eval_exact_polynomial():
    e = parse_expr("x^2 - 3*x + 1/2")
    assert eval_exact(e, Fraction(2)) == QSqrt2.coerce(Fraction(-3, 2))
    v = QSqrt2(Fraction(0), Fraction(1))  # sqrt2
    assert eval_exact(e, v) == QSqrt2(Fraction(5, 2), Fraction(-3))


def test_eval_abs_and_delta():
    assert eval_exact(parse_expr("abs(x)"), Fraction(-3, 2)) == QSqrt2.coerce(Fraction(3, 2))
    assert eval_exact(parse_expr("deltaQ(x)"), Fraction(1, 3)) == QSqrt2.coerce(0)
    assert eval_exact(parse_expr("deltaQ(x)"), QSqrt2(Fraction(0), Fraction(1))) == QSqrt2.coerce(1)


def test_eval_candidates_unknown_delta_branches():
    cands = eval_candidates(parse_expr("deltaQ(x)"), TaggedReal.opaque())
    values = sorted(c.value for c in cands if c.is_exact)
    assert values == [QSqrt2.coerce(0), QSqrt2.coerce(1)]


def test_h1_semantics():
    h1 = parse_expr("H1(x)")
    assert eval_exact(h1, Fraction(0)) == QSqrt2.coerce(0)
    assert eval_exact(h1, Fraction(-5)) == QSqrt2.coerce(0)
    pos = eval_candidates(h1, TaggedReal.exact(Fraction(1, 2)))
    assert len(pos) == 1 and pos[0].tag == Tag.IRRATIONAL and pos[0].transcendental


def test_compose():
    e = compose(parse_expr("x^2+1"), parse_expr("x-1"))
    assert eval_exact(e, Fraction(3)) == QSqrt2.coerce(5)


# ---------------------------------------------------------------------
# Differentiation (oracle: central finite differences on floats)
# ---------------------------------------------------------------------


def _float_eval(e, x: float) -> float:
    cands = eval_candidates(e, TaggedReal.approx(x))
    vals = [c.float_value() for c in cands if c.float_value() is not None]
    assert len(vals) >= 1
    return vals[0]


def test_differentiate_against_finite_differences():
    rng = random.Random(5)
    exprs = [parse_expr(t) for t in ("x^3 - 2*x", "exp(x)", "x^2*exp(x)", "(x+1)^4")]
    for e in exprs:
        de = differentiate(e)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5)
            h = 1e-6
            fd = (_float_eval(e, x + h) - _float_eval(e, x - h)) / (2 * h)
            assert _float_eval(de, x) == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_differentiate_refuses_nonsmooth():
    for t in ("abs(x)", "sqrt(x)", "deltaQ(x)"):
        with pytest.raises(NotDifferentiableError):
            differentiate(parse_expr(t))


def test_one_sided_derivative_abs():
    e = parse_expr("abs(x)")
    assert one_sided_derivative(e, Fraction(0), +1).value == QSqrt2.coerce(1)
    assert one_sided_derivative(e, Fraction(0), -1).value == QSqrt2.coerce(-1)
    e2 = parse_expr("3*abs(x)")
    assert one_sided_derivative(e2, Fraction(0), +1).value == QSqrt2.coerce(3)


def test_one_sided_derivative_h1_oracle():
    # H1 is flat at 0: exp(-1/x^2) has all one-sided difference quotients
    # tending to 0, which finite differences confirm
    e = parse_expr("H1(x)")
    assert one_sided_derivative(e, Fraction(0), +1).value == QSqrt2.coerce(0)
    assert one_sided_derivative(e, Fraction(0), -1).value == QSqrt2.coerce(0)
    for h in (1e-2, 1e-3, 1e-4):
        assert abs(_float_eval(e, h) / h) < 1e-8


def test_is_smooth_expr():
    assert is_smooth_expr(parse_expr("x^2*exp(x)"))
    assert not is_smooth_expr(parse_expr("abs(x)"))
    assert not is_smooth_expr(parse_expr("sqrt(x)"))
    assert not is_smooth_expr(parse_expr("x + deltaQ(x)"))


# ---------------------------------------------------------------------
# Exotic-atom decomposition and the smoothness classifier
# ---------------------------------------------------------------------


def test_decompose_exotic():
    d = decompose_exotic(parse_expr("2*abs(x) - deltaQ(x) + x^2"))
    assert d.ok
    assert d.coefficient(ABS_KIND) == QSqrt2.coerce(2)
    assert d.coefficient(DELTA_KIND) == QSqrt2.coerce(-1)
    assert d.kinds_present == frozenset({ABS_KIND, DELTA_KIND})


def test_classifier_smooth_and_abs():
    assert classify_smoothness(parse_expr("x^3+exp(x)")).status == Smoothness.SMOOTH
    v = classify_smoothness(parse_expr("abs(x)"))
    assert v.status == Smoothness.NONSMOOTH
    assert verify_nonsmooth_witness(parse_expr("abs(x)"), v)


def test_classifier_delta_dense_discontinuity():
    v = classify_smoothness(parse_expr("deltaQ(x)"))
    assert v.status == Smoothness.NONSMOOTH
    assert verify_nonsmooth_witness(parse_expr("deltaQ(x)"), v)


def test_classifier_gamma_requires_axiom():
    e = parse_expr("gamma(x)")
    assert classify_smoothness(e).status == Smoothness.UNKNOWN
    v = classify_smoothness(e, axioms=frozenset({AXIOM_A}))
    assert v.status == Smoothness.NONSMOOTH
    assert AXIOM_A in v.axioms_used
    assert verify_nonsmooth_witness(e, v, axioms=frozenset({AXIOM_A}))


def _forged_axiom_witness():
    return SmoothnessVerdict(
        Smoothness.NONSMOOTH,
        witness={"kind": "axiom-nonsmooth-generator"},
        axioms_used=(AXIOM_A,),
    )


def test_axiom_witness_rejected_without_gamma_content():
    # abs(x) has no gamma part, so the axiom-A witness does not apply
    forged = _forged_axiom_witness()
    assert not verify_nonsmooth_witness(parse_expr("abs(x)"), forged, axioms=frozenset({AXIOM_A}))


def test_axiom_witness_rejected_when_decomposition_has_leftovers():
    e = parse_expr("abs(x) + abs(x^2 - 1)")
    assert not decompose_exotic(e).ok
    forged = _forged_axiom_witness()
    assert not verify_nonsmooth_witness(e, forged, axioms=frozenset({AXIOM_A}))


def test_axiom_witness_needs_the_callers_axiom():
    # the verdict's own axioms_used must not stand in for the caller's
    e = parse_expr("gamma(x)")
    v = classify_smoothness(e, axioms=frozenset({AXIOM_A}))
    assert not verify_nonsmooth_witness(e, v)
    assert not verify_nonsmooth_witness(e, v, axioms=frozenset())


def test_classifier_never_calls_undecidable_smooth():
    # leftover composites must come out Unknown, not Smooth
    e = parse_expr("deltaQ(H1(x))")
    assert classify_smoothness(e).status == Smoothness.UNKNOWN


# ---------------------------------------------------------------------
# Delta-cancellation rewriting: coherence on decided points
# ---------------------------------------------------------------------


def test_rewrite_coherence_on_grid(fm8):
    link = RationalityLink(fm8)
    identity = abs_identity_expr(link)
    rw = rewrite_delta_cancellation(identity, link)
    assert set(rw.branches) == {"x>0", "x<=0"}
    points = parse_grid("zero,rationals:500,negatives:250,quadratic:250", seed=0)
    assert len(points) >= 1000
    for x in points:
        region = "x>0" if x.sign() > 0 else "x<=0"
        got = eval_exact(rw.branches[region], x)
        assert got == abs(x), f"branch mismatch at {x}"


def test_canonical_form_cancels_identical_delta_terms():
    e = parse_expr("x*deltaQ(H1(x)) - x*deltaQ(H1(x)) + x^2")
    assert e == parse_expr("x^2")


def test_rewrite_requires_a_matched_pair(fm8):
    link = RationalityLink(fm8)
    with pytest.raises(ExprError):
        rewrite_delta_cancellation(parse_expr("x^2 + deltaQ(x)"), link)
