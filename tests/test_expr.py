"""Expression trees: parsing, printing, evaluation, classification."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothsum import expr as expr_module
from smoothsum.decompose import _replay_witness
from smoothsum.diffeology import DVSpace, Plot, Subspace
from smoothsum.expr import (
    ABS_KIND,
    AXIOM_A,
    DELTA_KIND,
    FUNCTION_NAMES,
    App,
    Const,
    ExprError,
    NotDifferentiableError,
    ParseError,
    Plan,
    Pow,
    Prod,
    Smoothness,
    SmoothnessVerdict,
    Sum,
    X,
    classify_smoothness,
    compose,
    const,
    differentiate,
    eval_candidates,
    eval_exact,
    eval_tagged,
    exotic_terms,
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
    unnamed_terms,
    verify_nonsmooth_witness,
)
from smoothsum.franklin import (
    GRID_BLOCK,
    FranklinMap,
    RationalityLink,
    abs_identity_expr,
    build_franklin,
    parse_grid,
    verify_abs_identity,
)
from smoothsum.numbers import DomainError, QSqrt2, Tag, TaggedReal


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


def test_nesting_bound():
    n = expr_module.MAX_NESTING
    assert parse_expr("abs(" * n + "x" + ")" * n) is not None
    assert parse_expr("(" * n + "x" + ")" * n) == X
    # the bound counts open parentheses, not the depth of the tree
    assert parse_expr("+".join(["(" * n + "x" + ")" * n] * 3)) is not None
    for bad in ("abs(" * (n + 1) + "x" + ")" * (n + 1), "(" * 5000 + "x" + ")" * 5000):
        with pytest.raises(ParseError, match=f"MAX_NESTING = {n}"):
            parse_expr(bad)


def test_exponent_bound():
    k = expr_module.MAX_EXPONENT
    assert parse_expr(f"x^{k}") == Pow(X, k)
    assert parse_expr(f"2^{k}") == Const(QSqrt2(2**k))
    assert parse_expr(f"(x^10)^{k // 10}") == Pow(X, k)
    # powers side by side do not multiply, and the count is per factor
    assert parse_expr(f"x^{k}*abs(x)^{k}+(x^2)^{k // 2}") is not None
    assert parse_expr(f"abs(x^{k})") is not None
    assert parse_expr("x^0002") == Pow(X, 2)
    for bad in (
        f"x^{k + 1}",
        f"(x^10)^{k // 10 + 1}",
        f"(3^10)^{k // 10 + 1}",  # a constant power, folded while parsing
        f"(x^2+abs(x)^{k // 2 + 1})^2",  # the deepest chain counts
        f"abs(x^{k})^2",
        "3^10000000000*x",
        "x^" + "9" * 5000,  # past int()'s digit limit
    ):
        with pytest.raises(ParseError, match=f"MAX_EXPONENT = {k}"):
            parse_expr(bad)
    for bad in ("x^0", "x^000"):
        with pytest.raises(ParseError, match="positive integer"):
            parse_expr(bad)


def test_constant_digit_bound():
    n = expr_module.MAX_CONSTANT_DIGITS
    top = "9" * n
    assert parse_expr(f"{top}*x") == Prod((const(int(top)), X))
    assert parse_expr(f"1/{top}*abs(x)") is not None
    assert parse_expr("(3/7)^1000*(3/7)^150*abs(x)") is not None
    assert parse_expr("0" * 5000 + "1*x") == X  # leading zeros are not digits
    assert parse_expr("27^698*x") is not None  # 1000 digits
    assert parse_expr("(1/8*sqrt2)^1000*x") is not None  # 2^500 of 8^1000 cancels
    assert parse_expr("(1/16*sqrt2)^900*x") is not None  # 1/2^3150: 949 digits
    for bad in (
        "1" + "0" * n + "*x",
        f"1/1{top}",
        "1" * 5001,  # past int()'s digit limit
        "(3/7)^1000*" * 6 + "abs(x)",  # each factor within MAX_EXPONENT
        "x*(3/7)^1000*x*(3/7)^1000",  # folded across other factors
        f"(1+{top})^2*x",  # a constant power
        "27^699*x",  # 1001 digits
        f"{top}/{top[:-1]}8^1000*x",  # a million digits if computed
        "1/7^1000+1/3^1000+x",  # a constant sum
        f"{top}*x+{top}*x",  # merged coefficients
    ):
        with pytest.raises(ParseError, match=f"MAX_CONSTANT_DIGITS = {n}"):
            parse_expr(bad)


def test_constant_power_past_the_bound_is_not_computed(monkeypatch):
    # x^k for a 1000-digit x has a million digits: computing it first took
    # over 30 s
    def no_power(base, k):
        raise AssertionError(f"computed a constant to the power {k}")

    top = "7" * expr_module.MAX_CONSTANT_DIGITS
    monkeypatch.setattr(expr_module, "make_pow", no_power)
    for bad in (f"{top}/{top[:-1]}8^1000*x", f"(1/{top}*sqrt2)^5*x", "(1/16*sqrt2)^1000*x"):
        with pytest.raises(ParseError, match="MAX_CONSTANT_DIGITS"):
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


def test_diagnostic_float_past_the_range_does_not_crash():
    # e^1000 is past the float range; the axiom table still decides the tag
    r = eval_tagged(parse_expr("deltaQ(exp(1000*x))"), TaggedReal.exact(1))
    assert r.value == QSqrt2.coerce(1)
    for x in (
        TaggedReal.exact(QSqrt2.from_ints(1, 1, 10**200)),  # x^2 underflows, x^2 irrational
        TaggedReal.approx(1e-200),
        TaggedReal.exact(QSqrt2.from_ints(10**400, 10**400, 1)),  # x past the float range
    ):
        r = expr_module._h1_tagged(x)
        assert r.value is None and r.tag == Tag.UNKNOWN
    # at a tiny x with rational square, -1/x^2 is past the float range;
    # the axiom table still certifies H1(x) = e^(-1/x^2) transcendental
    for x in (QSqrt2.from_ints(1, 0, 10**200), QSqrt2.from_ints(0, 1, 10**200)):
        r = expr_module._h1_tagged(TaggedReal.exact(x))
        assert (r.value, r.tag, r.transcendental) == (None, Tag.IRRATIONAL, True)


def test_compose():
    e = compose(parse_expr("x^2+1"), parse_expr("x-1"))
    assert eval_exact(e, Fraction(3)) == QSqrt2.coerce(5)


# ---------------------------------------------------------------------
# Evaluation plans against the recursive driver
# ---------------------------------------------------------------------

# Two small matching maps, so barGamma nodes over different maps meet.
_MAPS = (None, build_franklin(1), build_franklin(2))

_leaves = st.one_of(
    st.just(X),
    st.builds(
        lambda p, q, r: Const(QSqrt2(Fraction(p, q), Fraction(r, q))),
        st.integers(-4, 4), st.integers(1, 4), st.integers(-2, 2),
    ),
)


def _extend(kids):
    return st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts))),
        st.lists(kids, min_size=1, max_size=3).map(lambda fs: Prod(tuple(fs))),
        st.builds(Pow, kids, st.integers(1, 3)),
        st.builds(
            lambda name, arg, ref: App(name, arg, ref if name == "barGamma" else None),
            st.sampled_from(FUNCTION_NAMES), kids, st.sampled_from(_MAPS),
        ),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=10)

_points = st.one_of(
    st.builds(lambda p, q: TaggedReal.exact(Fraction(p, q)), st.integers(-20, 20), st.integers(1, 20)),
    st.builds(
        lambda p, q, r: TaggedReal.exact(QSqrt2(Fraction(p, r), Fraction(q, r))),
        st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9),
    ),
    st.builds(TaggedReal.approx, st.floats(-3, 3), st.sampled_from(list(Tag))),
    st.builds(lambda f: TaggedReal(f, Tag.IRRATIONAL, transcendental=True), st.floats(-3, 3)),
    st.just(TaggedReal.opaque()),
)

_DELTA_X = App("deltaQ", X)
# deltaQ at an Unknown tag gives {0, 1}; these weights make 8 sums, past
# _MAX_CANDIDATES, so the candidate set collapses to opaque
_COLLAPSING = Sum(
    (_DELTA_X, Prod((Const(QSqrt2.coerce(2)), _DELTA_X)), Prod((Const(QSqrt2.coerce(4)), _DELTA_X)))
)

_UNKNOWN_X = App("nope", X)  # evaluating it raises ExprError
_SQRT_NEG = App("sqrt", Const(QSqrt2.coerce(-1)))  # and this DomainError

_TWO, _THREE = Const(QSqrt2.coerce(2)), Const(QSqrt2.coerce(3))
_SCALED_DELTA = Prod((_TWO, X, _DELTA_X))
_DELTA_SUM = Sum((_SCALED_DELTA, X))  # 2*x*deltaQ(x) + x
_SQRT_SUM = Sum((Prod((_TWO, App("sqrt", X), _DELTA_X)), X))  # 2*sqrt(x)*deltaQ(x) + x


def _outcome(fn) -> str:
    """The repr of what ``fn`` returns, or the error it raises."""
    try:
        return repr(fn())
    except Exception as exc:  # the error is the outcome
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=400, deadline=None)
@given(exprs=st.lists(_trees, min_size=1, max_size=3), xs=st.lists(_points, min_size=1, max_size=4))
@example(exprs=[_COLLAPSING, _DELTA_X], xs=[TaggedReal.opaque()])
@example(exprs=[_DELTA_X, Prod((_DELTA_X, X))], xs=[TaggedReal.approx(0.5)])
# a node over two failing children fails with the first, and a tree
# sharing a failed node fails with it
@example(exprs=[Sum((_UNKNOWN_X, _SQRT_NEG)), _SQRT_NEG, X], xs=[TaggedReal.exact(1)])
@example(exprs=[Sum((_SQRT_NEG, _UNKNOWN_X)), Prod((_UNKNOWN_X, X)), X], xs=[TaggedReal.exact(1)])
# a sum of a product, over a candidate set and over a float
@example(exprs=[_DELTA_SUM], xs=[TaggedReal.opaque()])
@example(exprs=[_DELTA_SUM], xs=[TaggedReal.approx(0.5)])
# the first error wins, whether a failing product varies with x or not
# (the second is free of x, so the plan evaluates it once), in either order
@example(exprs=[Sum((Prod((_TWO, _UNKNOWN_X)), Prod((_THREE, _SQRT_NEG))))], xs=[TaggedReal.exact(1)])
@example(exprs=[Sum((Prod((_THREE, _SQRT_NEG)), Prod((_TWO, _UNKNOWN_X))))], xs=[TaggedReal.exact(1)])
@example(exprs=[Sum((Prod((_TWO, _UNKNOWN_X)), Prod((_THREE, X, _SQRT_NEG))))], xs=[TaggedReal.exact(1)])
@example(exprs=[Sum((Prod((_THREE, X, _SQRT_NEG)), Prod((_TWO, _UNKNOWN_X))))], xs=[TaggedReal.exact(1)])
# a product two sums read, and a product that is also a root
@example(exprs=[_DELTA_SUM, Sum((_SCALED_DELTA, _THREE))], xs=[TaggedReal.opaque()])
@example(exprs=[_DELTA_SUM, _SCALED_DELTA], xs=[TaggedReal.exact(Fraction(1, 3))])
# sqrt of a negative at the middle point only: its error stays there, and
# the points on either side keep their values
@example(
    exprs=[App("sqrt", X), _SQRT_SUM, Sum((_SCALED_DELTA, App("sqrt", X))), X],
    xs=[TaggedReal.exact(4), TaggedReal.exact(-1), TaggedReal.exact(Fraction(1, 4))],
)
# opaque and Unknown-tag points branch into candidate sets beside exact ones
@example(
    exprs=[_COLLAPSING, _DELTA_SUM, App("abs", make_neg(_DELTA_X)), Sum((_DELTA_X, _DELTA_X))],
    xs=[TaggedReal.exact(Fraction(1, 2)), TaggedReal.opaque(), TaggedReal.approx(0.5), TaggedReal.exact(QSqrt2.sqrt2())],
)
# arithmetic under a function: the generic step is the plan's only
# arithmetic, here below deltaQ, abs and a sqrt that raises at x = 1
@example(
    exprs=[parse_expr("deltaQ(2*x+1)"), parse_expr("abs(x^2-1)"), parse_expr("sqrt(x-3)")],
    xs=[TaggedReal.exact(1)],
)
@example(
    exprs=[parse_expr("deltaQ(2*x+1)"), parse_expr("abs(x^2-1)"), parse_expr("sqrt(x-3)")],
    xs=[TaggedReal.exact(QSqrt2.sqrt2()), TaggedReal.exact(4), TaggedReal.opaque(), TaggedReal.approx(0.5)],
)
def test_plan_matches_recursive_driver(exprs, xs):
    _assert_plan_matches_recursive_driver(exprs, xs)


def test_plan_matches_recursive_driver_on_a_grid_longer_than_a_block():
    # exact points of both signs, every tenth opaque, so sqrt(x) fails at
    # the negatives and deltaQ(x) branches at the opaque points
    xs = [
        TaggedReal.opaque() if i % 10 == 9 else TaggedReal.exact(QSqrt2(Fraction(i - 40, 7), Fraction(i % 3, 5)))
        for i in range(GRID_BLOCK + 20)
    ]
    exprs = [_SQRT_SUM, Sum((_SCALED_DELTA, App("sqrt", X))), App("H1", X), App("deltaQ", App("H1", X)), X]
    _assert_plan_matches_recursive_driver(exprs, xs)


def _counting(monkeypatch, name: str) -> list:
    """Install on ``expr`` a wrapper of its function ``name`` that records
    each argument; plans built afterwards call the wrapper."""
    calls = []
    fn = getattr(expr_module, name)
    monkeypatch.setattr(expr_module, name, lambda t, **kw: calls.append(t) or fn(t, **kw))
    return calls


def test_plan_evaluates_a_step_once_per_shared_argument(fm8, monkeypatch):
    h1_calls = _counting(monkeypatch, "_h1_tagged")
    a, b = TaggedReal.exact(Fraction(1, 3)), TaggedReal.exact(QSqrt2(0, Fraction(2, 5)))
    # a and b held by several points each, beside an equal but distinct
    # value, an opaque point and a candidate set under deltaQ; abs returns
    # an exact x >= 0 as the same object, so H1's argument shares them
    xs = [a, b, a, TaggedReal.exact(Fraction(1, 3)), a, TaggedReal.opaque(), b, TaggedReal.exact(-1)]
    h1 = App("H1", App("abs", X))
    exprs = [
        h1,
        App("deltaQ", h1),
        App("barGamma", h1, fm8),
        App("deltaQ", App("barGamma", h1, fm8)),
        App("abs", App("deltaQ", X)),
        Sum((App("deltaQ", h1), X)),
    ]
    _assert_plan_matches_recursive_driver(exprs, xs)
    h1_calls.clear()
    Plan(exprs).columns(xs)
    # a, b, the other 1/3, the opaque value's and -1's absolute values
    assert len(h1_calls) == 5


def test_plan_runs_a_function_of_x_at_every_point(monkeypatch):
    h1_calls = _counting(monkeypatch, "_h1_tagged")
    sqrt_calls = _counting(monkeypatch, "sqrt_tagged")
    a, neg = TaggedReal.exact(Fraction(1, 3)), TaggedReal.exact(-2)
    xs = [a, neg, a, neg, a]
    exprs = [App("H1", X), App("sqrt", X), Sum((App("sqrt", X), X))]
    _assert_plan_matches_recursive_driver(exprs, xs)
    h1_calls.clear()
    sqrt_calls.clear()
    (_, column, _) = Plan(exprs).columns(xs)
    # once per point, however often a point object repeats
    assert h1_calls == xs and sqrt_calls == xs
    # each point at -2 records its own exception
    assert [isinstance(c, DomainError) for c in column] == [False, True, False, True, False]
    assert column[1] is not column[3]


def test_plan_calls_again_where_a_shared_argument_raises(monkeypatch):
    sqrt_calls = _counting(monkeypatch, "sqrt_tagged")
    neg, pos = TaggedReal.exact(-2), TaggedReal.exact(Fraction(9, 4))
    xs = [neg, pos, neg, pos, neg]
    # a one-term sum passes each point's candidate on as the same object
    shared = App("sqrt", Sum((X,)))
    exprs = [shared, Sum((shared, X)), Sum((Prod((_TWO, shared, _DELTA_X)), X))]
    _assert_plan_matches_recursive_driver(exprs, xs)
    sqrt_calls.clear()
    (column, _, _) = Plan(exprs).columns(xs)
    # each point at -2 records its own exception; 9/4 shares one result
    assert [isinstance(c, DomainError) for c in column] == [True, False, True, False, True]
    assert column[0] is not column[2] and column[2] is not column[4]
    assert column[1] is column[3]
    assert sqrt_calls == [neg, pos, neg, neg]


def _at(plan, x) -> list:
    """The candidates of every tree of ``plan`` at ``x``, from a block of
    one point; raises what the first failing tree raises."""
    out = [column[0] for column in plan.columns([x])]
    for outcome in out:
        if isinstance(outcome, Exception):
            raise outcome
    return out


def _assert_plan_matches_recursive_driver(exprs, xs):
    # a chain of barGamma at a point with a 200-digit denominator has
    # values past the default 4300-digit limit of int-to-str conversion;
    # they are compared in full
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        plan = Plan(exprs)
        columns = plan.columns(xs)
        assert [len(column) for column in columns] == [len(xs)] * len(exprs)
        for i, x in enumerate(xs):
            want = _outcome(lambda: [eval_candidates(e, x) for e in exprs])
            assert _outcome(lambda: _at(plan, x)) == want
            # each tree's own outcome at this point alone, whatever the
            # trees beside it and the other points of the block raise
            for e, column in zip(exprs, columns):
                got = column[i]
                shown = f"{type(got).__name__}: {got}" if isinstance(got, Exception) else repr(got)
                assert shown == _outcome(lambda: eval_candidates(e, x))
    finally:
        sys.set_int_max_str_digits(limit)


def test_candidate_sets_branch_and_collapse_in_both_drivers():
    x = TaggedReal.opaque()
    branched = App("abs", make_neg(_DELTA_X))  # |-deltaQ(x)| is 0 or 1
    for got in (eval_candidates(branched, x), _at(Plan([branched]), x)[0]):
        assert [c.value for c in got] == [QSqrt2.coerce(0), QSqrt2.coerce(1)]
    assert eval_candidates(_COLLAPSING, x) == (TaggedReal.opaque(),)
    assert _at(Plan([_COLLAPSING]), x) == [(TaggedReal.opaque(),)]
    assert len(_at(Plan([Sum((_DELTA_X, _DELTA_X))]), x)[0]) == 3


def test_plan_runs_a_repeated_subtree_once_per_point(fm8, monkeypatch):
    calls = []
    h1 = expr_module._h1_tagged
    monkeypatch.setattr(expr_module, "_h1_tagged", lambda t, **kw: calls.append(t) or h1(t, **kw))
    result = verify_abs_identity(RationalityLink(fm8), grid="zero,rationals:20,negatives:5,quadratic:4")
    assert result["ok"] and result["checked"] == 30
    assert len(calls) == 30  # H1(x) occurs twice in the identity


def test_plan_keeps_barGamma_over_different_maps_apart(fm8, fm16):
    exprs = [App("barGamma", X, fm8), App("barGamma", X, fm16)]
    x = TaggedReal.exact(Fraction(5, 13))  # matched by neither map
    got = _at(Plan(exprs), x)
    assert got == [eval_candidates(e, x) for e in exprs]
    assert got[0] != got[1]


def test_hoisted_constant_raises_as_the_recursive_driver_does():
    bad = make_app("sqrt", const(-1))
    plan = Plan([make_sum([X, bad])])  # building the plan raises nothing
    with pytest.raises(DomainError) as recursive:
        eval_candidates(make_sum([X, bad]), TaggedReal.exact(1))
    with pytest.raises(DomainError) as planned:
        _at(plan, TaggedReal.exact(1))
    assert str(planned.value) == str(recursive.value)
    # the first error in evaluation order wins, in both drivers
    unknown = App("nope", X)
    for exprs, error in (([unknown, bad], ExprError), ([bad, unknown], DomainError)):
        with pytest.raises(error):
            [eval_candidates(e, TaggedReal.exact(1)) for e in exprs]
        with pytest.raises(error):
            _at(Plan(exprs), TaggedReal.exact(1))


def test_replay_on_an_empty_grid_evaluates_nothing():
    bad = make_app("sqrt", const(-1))
    sp = DVSpace("bad", 1, ((bad,),))
    trees, w = Plot(sp, ((const(1), 0, X),), (const(0),)).components(), Subspace.from_vectors(1, [[1]])
    assert _replay_witness([(trees, [bad], w)], grid="") == [None]
    # on a point the error is raised, and the replay reports where
    reasons = _replay_witness([(trees, [bad], w)], grid="zero")
    assert reasons == ["domain error at 0, component 0: sqrt of a negative number"]


# ---------------------------------------------------------------------
# The plan's arithmetic at exact points against eval_candidates
# ---------------------------------------------------------------------

_small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))

# rational and sqrt2-multiple constants; sums and products may hold
# several of them, which a plan folds into one start value
_exact_leaves = st.one_of(
    st.just(X),
    _small.map(lambda r: Const(QSqrt2(r))),
    _small.map(lambda r: Const(QSqrt2(0, r))),
)


def _extend_exact(kids):
    return st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts))),
        st.lists(kids, min_size=1, max_size=3).map(lambda fs: Prod(tuple(fs))),
        st.builds(Pow, kids, st.integers(1, 3)),
        kids.map(lambda arg: App("abs", arg)),
    )


_exact_trees = st.recursive(_exact_leaves, _extend_exact, max_leaves=10)
_exact_points = st.one_of(
    st.just(QSqrt2()),
    _small.map(QSqrt2),
    _small.map(lambda r: QSqrt2(0, r)),
)

_HALF, _THIRD, _ROOT = QSqrt2(Fraction(1, 2)), QSqrt2(Fraction(1, 3)), QSqrt2.sqrt2()


@settings(max_examples=300, deadline=None)
@given(exprs=st.lists(_exact_trees, min_size=1, max_size=3), x=_exact_points)
@example(exprs=[Sum((X, X))], x=_HALF)  # 1/2 + 1/2
@example(exprs=[Prod((Const(_ROOT), X)), Prod((X, X))], x=_ROOT)  # sqrt2 * sqrt2
@example(exprs=[Pow(X, 2), Prod((X, X))], x=QSqrt2(0, Fraction(1, 2)))  # (sqrt2/2)^2
@example(exprs=[Prod((Const(QSqrt2(3)), Const(_THIRD), X))], x=_HALF)  # 3 * (1/3) * x
@example(exprs=[Sum((X, make_neg(X)))], x=_THIRD)  # x - x
@example(exprs=[Sum((Const(_HALF), X)), Prod((Const(QSqrt2(3)), X))], x=QSqrt2(1))
@example(exprs=[Pow(X, 3)], x=QSqrt2(Fraction(1, 2), Fraction(1, 3)))  # an irrational base, cubed
@example(exprs=[Pow(Sum((Const(_HALF), X)), 2)], x=_ROOT)  # (1/2 + sqrt2)^2
def test_plan_arithmetic_at_exact_points_matches_eval_candidates(exprs, x):
    point = TaggedReal.exact(x)
    got = [column[0] for column in Plan(exprs).columns([point])]
    assert repr(got) == repr([eval_candidates(e, point) for e in exprs])
    # every triple is canonical
    for cands in got:
        for c in cands:
            v = c.value
            assert v.d > 0 and math.gcd(v.p, v.q, v.d) == 1, (v.p, v.q, v.d)


def test_plan_arithmetic_beside_candidate_sets_and_floats_matches_eval_candidates():
    half = TaggedReal.exact(Fraction(1, 2))
    cases = [
        # a candidate set beside a folded constant
        (Sum((const(1), _DELTA_X)), TaggedReal.opaque()),
        (Prod((const(2), _DELTA_X)), TaggedReal.approx(0.5)),
        (Pow(_DELTA_X, 2), TaggedReal.opaque()),
        # an exact zero beside a value that is not exact is exactly zero
        (Prod((Sum((X, make_neg(X))), App("exp", X))), half),
        (Sum((X, App("exp", X))), half),
    ]
    for e, x in cases:
        assert repr(_at(Plan([e]), x)) == repr([eval_candidates(e, x)])
    assert [c.value for c in _at(Plan([cases[0][0]]), TaggedReal.opaque())[0]] == [QSqrt2(1), QSqrt2(2)]


# ---------------------------------------------------------------------
# Nodes only deltaQ reads: no float, the same outcomes
# ---------------------------------------------------------------------

_TAG_ONLY_NAMES = ("H1", "exp", "barGamma")


def _chain(steps, base):
    for name, ref in steps:
        base = App(name, base, ref if name == "barGamma" else None)
    return base


def _apps(e) -> list:
    """The function nodes of ``e``, children first."""
    return [a for c in expr_module._children(e) for a in _apps(c)] + ([e] if isinstance(e, App) else [])


_chain_bases = st.one_of(
    _trees,
    st.sampled_from([
        X,
        _DELTA_X,  # a candidate set at an undecided point
        Sum((_DELTA_X, Prod((Const(QSqrt2.coerce(2)), _DELTA_X)))),  # four candidates
        _COLLAPSING,
        Prod((Const(QSqrt2.coerce(1000)), X)),  # e^(1000x) is past the float range
        Sum((X, App("sqrt", Sum((X, Const(QSqrt2.coerce(-5))))))),  # raises at x < 5
        _SQRT_NEG,
        _UNKNOWN_X,
    ]),
)
_chains = st.builds(
    _chain,
    st.lists(st.tuples(st.sampled_from(_TAG_ONLY_NAMES), st.sampled_from(_MAPS)), min_size=1, max_size=3),
    _chain_bases,
)


@st.composite
def _delta_readers(draw):
    """Trees where deltaQ reads chains of H1, exp and barGamma, some of
    whose nodes are roots as well, so their floats are read."""
    chains = draw(st.lists(_chains, min_size=1, max_size=3))
    readers = [
        draw(st.sampled_from([App("deltaQ", c), Prod((X, App("deltaQ", c))), Sum((App("deltaQ", c), X))]))
        for c in chains
    ]
    inner = [a for c in chains for a in _apps(c)]
    roots = draw(st.lists(st.sampled_from(inner), max_size=2))
    return draw(st.permutations(readers + roots))


_far_points = st.sampled_from([
    TaggedReal.exact(1),
    TaggedReal.exact(Fraction(3, 7)),
    TaggedReal.exact(QSqrt2(0, Fraction(2, 3))),
    TaggedReal.exact(QSqrt2.from_ints(1, 1, 10**200)),
    TaggedReal.exact(QSqrt2.from_ints(1, 0, 10**200)),
    TaggedReal.exact(QSqrt2.from_ints(10**400, 0, 1)),
    TaggedReal.approx(1e-200),
    TaggedReal.approx(800.0, Tag.RATIONAL),
])


@settings(max_examples=300, deadline=None)
@given(exprs=_delta_readers(), xs=st.lists(st.one_of(_points, _far_points), min_size=1, max_size=3))
# H1(x) read by deltaQ and barGamma, barGamma by deltaQ: the identity's shape
@example(
    exprs=[App("deltaQ", App("H1", X)), App("deltaQ", App("barGamma", App("H1", X), _MAPS[2]))],
    xs=[TaggedReal.exact(Fraction(3, 7))],
)
# the same nodes as roots: their floats are there, and equal
@example(exprs=[App("deltaQ", App("H1", X)), App("H1", X)], xs=[TaggedReal.exact(Fraction(3, 7))])
@example(
    exprs=[App("deltaQ", App("barGamma", App("exp", X), _MAPS[1])), App("barGamma", App("exp", X), _MAPS[1])],
    xs=[TaggedReal.exact(2)],
)
# a candidate set under a floatless node
@example(exprs=[App("deltaQ", App("exp", _COLLAPSING))], xs=[TaggedReal.opaque()])
@example(exprs=[App("deltaQ", App("exp", Sum((_DELTA_X, X))))], xs=[TaggedReal.approx(0.5)])
# raising below a floatless node, and past the float range
@example(exprs=[App("deltaQ", App("H1", _SQRT_NEG)), App("deltaQ", App("exp", _UNKNOWN_X))], xs=[TaggedReal.exact(1)])
@example(exprs=[App("deltaQ", App("exp", Prod((Const(QSqrt2.coerce(1000)), X))))], xs=[TaggedReal.exact(1)])
# a root whose value has more than 4300 digits
@example(
    exprs=[_chain([("barGamma", _MAPS[1])] * 2 + [("barGamma", _MAPS[2])], Pow(X, 2))],
    xs=[TaggedReal.exact(QSqrt2.from_ints(1, 1, 10**200))],
)
def test_plan_without_floats_under_deltaQ_matches_eval_candidates(exprs, xs):
    _assert_plan_matches_recursive_driver(exprs, xs)


@pytest.mark.parametrize(
    "x",
    [
        TaggedReal.exact(0),
        TaggedReal.exact(Fraction(-2, 3)),
        TaggedReal.exact(Fraction(2, 3)),
        TaggedReal.exact(QSqrt2(0, Fraction(1, 3))),
        TaggedReal.exact(QSqrt2(0, Fraction(7, 5))),
        TaggedReal.exact(QSqrt2(1, 1)),
        TaggedReal.exact(10**400),  # past the float range
        TaggedReal.exact(Fraction(1, 10**400)),  # its float square is 0.0
        TaggedReal.approx(0.5),
        TaggedReal.approx(-0.5, Tag.IRRATIONAL),
        TaggedReal(0.5, Tag.IRRATIONAL, transcendental=True),
        TaggedReal.opaque(),
    ],
)
def test_h1_and_barGamma_without_their_float(x, fm8):
    for fn in (expr_module._h1_tagged, lambda t, **kw: expr_module._bar_gamma_tagged(t, fm8, **kw)):
        full, tag_only = fn(x), fn(x, approx=False)
        assert (tag_only.tag, tag_only.transcendental) == (full.tag, full.transcendental)
        assert tag_only == full if full.is_exact else tag_only.value is None
        if tag_only.value is None:  # one shared value, not a fresh one per call
            assert fn(x, approx=False) is tag_only


def test_plan_computes_no_float_only_deltaQ_reads(fm8, monkeypatch):
    h1_calls, float_calls = [], []
    h1, eval_float = expr_module._h1_tagged, FranklinMap.eval_float
    monkeypatch.setattr(expr_module, "_h1_tagged", lambda t, **kw: h1_calls.append(t) or h1(t, **kw))
    monkeypatch.setattr(FranklinMap, "eval_float", lambda m, t: float_calls.append(t) or eval_float(m, t))
    result = verify_abs_identity(RationalityLink(fm8), grid="zero,rationals:20,negatives:5,quadratic:4")
    assert result["ok"] and result["checked"] == 30
    assert len(h1_calls) == 30 and float_calls == []
    # barGamma(H1(x)) read by value: its float is computed
    e = App("barGamma", App("H1", X), fm8)
    (got,) = _at(Plan([e, App("deltaQ", e)]), TaggedReal.exact(Fraction(1, 2)))[0]
    assert isinstance(got.value, float) and len(float_calls) == 1


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


def test_exotic_terms():
    # the smooth term counts nowhere, and every term is named by an atom
    e = parse_expr("2*abs(x) - deltaQ(x) + x^2")
    assert exotic_terms(e) == {ABS_KIND: QSqrt2.coerce(2), DELTA_KIND: QSqrt2.coerce(-1)}
    assert unnamed_terms(exotic_terms(e)) == []


@pytest.mark.parametrize("text, expected", [
    # a constant times a sum is read term by term
    ("2*(abs(x)+x)", {ABS_KIND: 2}),
    ("-(abs(x)+x)", {ABS_KIND: -1}),
    # |x| terms that cancel leave nothing
    ("abs(x) - (abs(x)+x)", {}),
    ("2*(abs(x)+x) - 2*abs(x) + deltaQ(x)", {DELTA_KIND: 1}),
])
def test_exotic_terms_distribute_constants_over_sums(text, expected):
    assert exotic_terms(parse_expr(text)) == {k: QSqrt2.coerce(c) for k, c in expected.items()}


def test_exotic_terms_key_an_unnamed_term_by_its_tree():
    terms = exotic_terms(parse_expr("abs(x) + 3*(x*abs(x) + x)"))
    core = parse_expr("x*abs(x)")
    assert terms == {ABS_KIND: QSqrt2.coerce(1), core: QSqrt2.coerce(3)}
    assert unnamed_terms(terms) == [parse_expr("3*x*abs(x)")]


def test_classifier_reads_a_negated_sum_term_by_term():
    # -(|x| + x) carries |x| with coefficient -1: a kink at 0 that replays
    e = parse_expr("-(abs(x)+x)")
    v = classify_smoothness(e)
    assert v.status == Smoothness.NONSMOOTH
    assert v.witness["kind"] == "one-sided-derivative-mismatch"
    assert (v.witness["left"], v.witness["right"]) == ("0", "-2")
    assert verify_nonsmooth_witness(e, v)
    # |x| terms that cancel leave a smooth curve
    v = classify_smoothness(parse_expr("abs(x) - (abs(x)+x)"))
    assert v.status == Smoothness.SMOOTH


def test_classifier_leaves_an_unnamed_term_unknown():
    v = classify_smoothness(parse_expr("3*abs(x^2-1)"))
    assert v.status == Smoothness.UNKNOWN
    assert v.derivation == ("unrecognized exotic term: 3*abs(x^2-1)",)


def test_classifier_smooth_and_abs():
    assert classify_smoothness(parse_expr("x^3+exp(x)")).status == Smoothness.SMOOTH
    v = classify_smoothness(parse_expr("abs(x)"))
    assert v.status == Smoothness.NONSMOOTH
    assert verify_nonsmooth_witness(parse_expr("abs(x)"), v)


def test_classifier_delta_dense_discontinuity():
    # values at x = 4 (rational root), 2 (irrational root), sqrt2: 0, cs, cd + cs
    for text, delta_part, values in (
        ("deltaQ(x)", "deltaQ(x)", ["0", "0", "1"]),
        ("deltaQ(sqrt(abs(x)))", "deltaQ(sqrt(abs(x)))", ["0", "1", "1"]),
        ("3*deltaQ(x) - deltaQ(sqrt(abs(x))) + x", "3*deltaQ(x)-deltaQ(sqrt(abs(x)))", ["0", "-1", "2"]),
    ):
        e = parse_expr(text)
        v = classify_smoothness(e)
        assert v.status == Smoothness.NONSMOOTH
        assert v.witness["kind"] == "dense-discontinuity"
        assert v.witness["delta_part"] == delta_part
        assert list(v.witness["values"].values()) == values
        assert verify_nonsmooth_witness(e, v)
        zeros = dict.fromkeys(v.witness["values"], "0")
        forged = SmoothnessVerdict(Smoothness.NONSMOOTH, witness={**v.witness, "values": zeros})
        assert not verify_nonsmooth_witness(e, forged)


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
    assert unnamed_terms(exotic_terms(e)) == [parse_expr("abs(x^2 - 1)")]
    forged = _forged_axiom_witness()
    assert not verify_nonsmooth_witness(e, forged, axioms=frozenset({AXIOM_A}))


def test_axiom_witness_needs_the_callers_axiom():
    # the verdict's own axioms_used must not stand in for the caller's
    e = parse_expr("gamma(x)")
    v = classify_smoothness(e, axioms=frozenset({AXIOM_A}))
    assert not verify_nonsmooth_witness(e, v)
    assert not verify_nonsmooth_witness(e, v, axioms=frozenset())


def test_classifier_undecided_derivative_is_unknown():
    # barGamma(x) without a constructed map passes as a smooth remainder
    # of the abs part, but has no one-sided derivative to compare
    e = parse_expr("abs(x)+barGamma(x)")
    v = classify_smoothness(e)
    assert v.status == Smoothness.UNKNOWN
    assert v.derivation == (
        "one-sided derivatives of abs(x)+barGamma(x) at 0 undecided: "
        "one-sided derivative unsupported for barGamma(x)",
    )


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
    points = parse_grid("zero,rationals:500,negatives:250,quadratic:250")
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
