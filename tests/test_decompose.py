"""Direct-sum certification, refutation, and ker/im diffeomorphism search."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsum import decompose, gallery, linalg
from smoothsum import expr as expr_module
from smoothsum.constraints import characteristic_decomposition, maximal_isotropic
from smoothsum.decompose import (
    certify_smooth_sum,
    check_algebraic_sum,
    complementedness_report,
    decomposability_report,
    kernel_image_check,
    kernel_image_space,
    nonstandard_subspace_witness,
    projection_pair,
    refute_smooth_sum_standard,
    verify_kernel_image_witness,
)
from smoothsum.diffeology import (
    DVSpace, LinearMap, Plot, Subspace, linear_image, parse_space, plot_add, plot_scale,
)
from smoothsum.expr import (
    AXIOM_A,
    App,
    Plan,
    Smoothness,
    SmoothnessVerdict,
    X,
    const,
    eval_candidates,
    make_prod,
    make_sum,
    parse_expr,
    to_text,
)
from smoothsum.franklin import GRID_BLOCK, parse_grid
from smoothsum.gallery import gallery_space, gallery_witnesses
from smoothsum.numbers import INV_SQRT2, DomainError, QSqrt2, TaggedReal, dot_is_zero

E1 = Subspace.from_vectors(2, [[1, 0]])
E2 = Subspace.from_vectors(2, [[0, 1]])


def test_check_algebraic_sum():
    assert check_algebraic_sum(2, E1, E2)
    assert not check_algebraic_sum(2, E1, E1)
    assert not check_algebraic_sum(2, E1, Subspace.from_vectors(2, []))


def _intersection_dim(w0: Subspace, w1: Subspace) -> int:
    """dim(W0 ∩ W1): the solutions of x·B0 = y·B1, for independent rows."""
    stacked = [
        [b[d] for b in w0.basis] + [-b[d] for b in w1.basis] for d in range(w0.ambient_dim)
    ]
    return len(linalg.nullspace(stacked)) if w0.dim and w1.dim else 0


def test_check_algebraic_sum_matches_intersection_reference():
    rng = random.Random(21)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        w0, w1 = (
            Subspace.from_vectors(
                n,
                [[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(rng.randint(0, n))],
            )
            for _ in range(2)
        )
        m = n if rng.random() < 0.9 else n + 1
        expected = m == n and w0.dim + w1.dim == n and _intersection_dim(w0, w1) == 0
        assert check_algebraic_sum(m, w0, w1) == expected
        outcomes.add((expected, w0.dim + w1.dim == n))
    # sums of the right dimension both with and without a common line
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_check_algebraic_sum_is_one_rref(monkeypatch):
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(1) or rref(m))
    w0 = Subspace.from_vectors(3, [[1, 2, 0], [0, 1, 1]])
    w1, inside = Subspace.from_vectors(3, [[1, 0, 0]]), Subspace.from_vectors(3, [[1, 3, 1]])
    calls.clear()
    assert check_algebraic_sum(3, w0, w1)
    assert not check_algebraic_sum(3, w0, inside)
    assert len(calls) == 2


def test_projection_pair():
    p0, p1 = projection_pair(E1, E2)
    for v in ([1, 0], [0, 1], [3, -2]):
        a = p0.apply([QSqrt2(x) for x in v])
        b = p1.apply([QSqrt2(x) for x in v])
        assert [x + y for x, y in zip(a, b)] == [QSqrt2(x) for x in v]
        assert E1.contains(a) and E2.contains(b)


def test_certify_v2_delta_axes():
    sp = gallery_space("V2-delta")
    verdict = certify_smooth_sum(sp, E1, E2, witnesses=gallery_witnesses(sp, 8))
    assert verdict.status == "SmoothCertified"
    assert verdict.axioms_used == ()
    rules = {w["rule"] for w in verdict.forward_witnesses}
    assert "replayed-witness" in rules


def test_certify_reports_the_first_entry_that_does_not_settle():
    sp = gallery_space("V2-delta")
    good = gallery_witnesses(sp, 8)
    along_e1 = good[(0, 0)]  # |x| e1: right for part 0 only

    def verdict(witnesses):
        return certify_smooth_sum(sp, E1, E2, witnesses=witnesses)

    # both witnesses fail: the first, in generator/part order, is named
    both = verdict({(0, 0): good[(0, 1)], (0, 1): along_e1})
    assert both.status == "Unknown" and both.forward_witnesses == []
    assert both.reason.startswith("witness replay failed for generator 0 part 0: mismatch at ")
    # the first replays and is listed as such; the second is named
    second = verdict({(0, 0): along_e1, (0, 1): along_e1})
    assert second.reason.startswith("witness replay failed for generator 0 part 1: mismatch at ")
    assert [e["rule"] for e in second.forward_witnesses] == ["replayed-witness"]
    assert second.forward_witnesses[0]["witness"] == along_e1.to_dict()
    # a missing witness is named where it stands, before a later bad one
    missing = verdict({(0, 1): along_e1})
    assert missing.reason == "no rule or witness for generator 0 part 0"
    missing = verdict({(0, 0): along_e1})
    assert missing.reason == "no rule or witness for generator 0 part 1"
    assert [e["rule"] for e in missing.forward_witnesses] == ["replayed-witness"]


def test_a_plot_of_another_space_is_no_witness():
    # S1's one generator is (|x|, 0), so its split along (1, 1) and (0, 1)
    # is not smooth; plots of S2, which has (0, |x|) too, realize both
    # projections of that generator all the same
    s1 = parse_space("space S1 dim 2\ngen abs(x), 0\n")
    s2 = parse_space("space S2 dim 2\ngen abs(x), 0\ngen 0, abs(x)\n")
    w0, w1 = Subspace.from_vectors(2, [[1, 1]]), Subspace.from_vectors(2, [[0, 1]])
    zero = (const(0), const(0))
    witnesses = {
        (0, 0): Plot(s2, ((const(1), 0, X), (const(1), 1, X)), zero),
        (0, 1): Plot(s2, ((const(-1), 1, X),), zero),
    }
    assert refute_smooth_sum_standard(s1, w0, w1).status == "NonSmooth"
    verdict = certify_smooth_sum(s1, w0, w1, witnesses=witnesses)
    assert verdict.status == "Unknown"
    assert verdict.reason == "witness for generator 0 part 0 is not a plot of this space"
    # they are witnesses for S2, whose plots they are: each replays against
    # its projection of the generator (|x|, 0) that S1 and S2 share
    p0, p1 = projection_pair(w0, w1)
    batch = [
        (witnesses[(0, part)].components(), linear_image(p.matrix, s2.generators[0]), w)
        for part, (p, w) in enumerate(((p0, w0), (p1, w1)))
    ]
    assert decompose._replay_witness(batch, decompose.DEFAULT_GRID) == [None, None]
    # and no axis plot of S2 shows a line of S1 non-standard
    axis_plots = (Plot(s2, ((const(1), 0, X),), zero), Plot(s2, ((const(1), 1, X),), zero))
    with pytest.raises(ValueError, match="axis plot 0 is not a plot of this space"):
        nonstandard_subspace_witness(s1, [[1, 0]], axis_plots)
    assert len(nonstandard_subspace_witness(s2, [[1, 0], [1, 1]], axis_plots)) == 2


def test_certify_deterministic():
    sp = gallery_space("V2-delta")
    w = gallery_witnesses(sp, 8)
    a = certify_smooth_sum(sp, E1, E2, witnesses=w).to_dict()
    b = certify_smooth_sum(sp, E1, E2, witnesses=w).to_dict()
    assert a == b


# |x| e1 and |x| e2: the part of (|x|, 0) in Span(1, 1) along Span(0, 1)
# is (|x|, |x|), the sum of the two generators, and no multiple of either
ABS_AXES = parse_space("space s dim 2\ngen abs(x), 0\ngen 0, abs(x)\n")
DIAGONAL = Subspace.from_vectors(2, [[1, 1]])


def test_a_projection_that_sums_generators_certifies_by_its_combination():
    verdict = certify_smooth_sum(ABS_AXES, DIAGONAL, E2)
    assert verdict.status == "SmoothCertified"
    assert verdict.forward_witnesses[0] == {
        "generator": 0, "part": 0, "target": ["abs(x)", "abs(x)"],
        "rule": "generator-combination", "combination": ["1", "1"], "tail": ["0", "0"],
    }
    assert [e["rule"] for e in verdict.forward_witnesses[1:]] == [
        "rational-multiple-of-generator-1", "zero-projection", "generator-in-subspace",
    ]
    # a smooth part of a generator stays in the tail
    sp = parse_space("space s dim 2\ngen abs(x), x\ngen 0, abs(x)\n")
    entries = certify_smooth_sum(sp, DIAGONAL, E2).forward_witnesses
    assert [(e["combination"], e["tail"]) for e in entries[:2]] == [
        (["1", "1"], ["0", "-x"]), (["0", "-1"], ["0", "x"]),
    ]


@pytest.mark.parametrize("part", ["abs(x)+x", "2*(abs(x)+x)", "x*abs(x)"])
def test_a_combination_matches_every_non_smooth_term(part):
    # g0 = g1 + g2, with a component that is a sum, a multiple of a sum, or
    # a non-smooth term that is no atom; beta's tail cancels term by term
    sp = parse_space(f"space s dim 2\ngen {part}, {part}\ngen {part}, 0\ngen 0, {part}\n")
    verdict = certify_smooth_sum(sp, E1, E2)
    assert verdict.status == "SmoothCertified"
    assert [(e["rule"], e.get("combination"), e.get("tail")) for e in verdict.forward_witnesses] == [
        ("rational-multiple-of-generator-1", None, None),
        # the solve sets the free beta_2 to 0, so g1 - g2 reads as g0 - g1
        ("generator-combination", ["1", "-1", "0"], ["0", "0"]),
        ("generator-in-subspace", None, None),
        ("zero-projection", None, None),
        ("zero-projection", None, None),
        ("generator-in-subspace", None, None),
    ]


def test_a_multiple_of_a_sum_is_matched_term_by_term():
    # g1 = 2*(|x| + x) e1 carries |x| e1 inside a sum: (|x|, 0) is g1/2
    # plus the smooth tail (-x, 0), and (0, |x|) is g0 - g1/2 plus (x, 0)
    sp = parse_space("space s dim 2\ngen abs(x), abs(x)\ngen 2*(abs(x)+x), 0\n")
    verdict = certify_smooth_sum(sp, E1, E2)
    assert verdict.status == "SmoothCertified"
    assert [(e.get("combination"), e.get("tail")) for e in verdict.forward_witnesses[:2]] == [
        (["0", "1/2"], ["-x", "0"]), (["1", "-1/2"], ["x", "0"]),
    ]


def test_a_smooth_generator_certifies_along_any_split():
    # the parts of (x^2, x) along Span(1, 1) and Span(2, 1) have components
    # that are sums, which the annihilator test distributes before it cancels
    sp = parse_space("space s dim 2\ngen x^2, x\n")
    verdict = certify_smooth_sum(sp, DIAGONAL, Subspace.from_vectors(2, [[2, 1]]))
    assert verdict.status == "SmoothCertified"
    assert [e["rule"] for e in verdict.forward_witnesses] == ["componentwise-smooth-tail"] * 2


@pytest.mark.parametrize("space, w0, m", [
    (ABS_AXES, DIAGONAL, 0),
    (ABS_AXES, DIAGONAL, 1),
    # beta = 0: the part (x, 0) of (x, |x|) in Span(e1) is its own smooth tail
    (parse_space("space s dim 2\ngen x, abs(x)\n"), E1, 0),
])
def test_a_combination_off_by_one_settles_nothing(monkeypatch, space, w0, m):
    assert certify_smooth_sum(space, w0, E2).status == "SmoothCertified"
    genuine = decompose._combination

    def forged(table, target, n):
        beta = genuine(table, target, n)
        return [b + QSqrt2(1) if i == m else b for i, b in enumerate(beta)]

    monkeypatch.setattr(decompose, "_combination", forged)
    verdict = certify_smooth_sum(space, w0, E2)
    assert verdict.status == "Unknown"
    assert verdict.reason == "no rule or witness for generator 0 part 0"


def test_decompose_solves_only_for_combinations():
    tree = ast.parse(Path(decompose.__file__).read_text())
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "solve"
    }
    assert callers == {"_combination"}


def test_refute_r3_abs():
    sp = gallery_space("R3-abs")
    verdict = refute_smooth_sum_standard(
        sp,
        Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]]),
        Subspace.from_vectors(3, [[0, 0, 1]]),
    )
    assert verdict.status == "NonSmooth"
    assert verdict.axioms_used == ()


def test_nonstandard_witness_twenty_directions():
    sp = gallery_space("V2-delta")
    witnesses = gallery_witnesses(sp, 8)
    provider = (witnesses[(0, 0)], witnesses[(0, 1)])
    rng = random.Random(0)
    directions = []
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if a == 0 and b == 0:
            a = Fraction(1)
        directions.append([a, b])
    results = nonstandard_subspace_witness(sp, directions, provider)
    assert len(results) == 20
    for (a, b), (trees, verdict, w) in zip(directions, results):
        assert verdict.status == Smoothness.NONSMOOTH
        # the witness plot really is the curve x -> (a|x|, b|x|)
        assert to_text(trees[0]) is not None
        assert w.contains([a, b])


def _v2_delta_axes():
    sp = gallery_space("V2-delta")
    witnesses = gallery_witnesses(sp, 8)
    return sp, (witnesses[(0, 0)], witnesses[(0, 1)])


def _synthetic_axes():
    """A 3-dimensional space whose three axis plots realize |x| e_j
    through sums of generators, smooth terms and tails that cancel."""
    sp = parse_space(
        "space s3 dim 3\ngen abs(x), 0, 0\ngen 0, abs(x), 0\ngen abs(x), abs(x), abs(x)\ngen x, 0, x\n"
    )

    def axis(terms, tail):
        return Plot(sp, tuple((parse_expr(h), k, X) for h, k in terms), tuple(parse_expr(t) for t in tail))

    return sp, (
        axis([("1", 0), ("2", 3)], ("-2*x", "0", "-2*x")),
        axis([("1", 1)], ("0", "0", "0")),
        axis([("1", 2), ("-1", 0), ("-1", 1), ("1", 3)], ("-x", "0", "-x")),
    )


def _reference_trees(axis_plots, direction) -> list:
    """The witness trees of one direction as the plot sum_j d_j axis_j,
    built with plot_scale and plot_add."""
    plot = None
    for axis, d in zip(axis_plots, direction):
        if not QSqrt2.coerce(d).is_zero:
            piece = plot_scale(axis, const(d))
            plot = piece if plot is None else plot_add(plot, piece)
    return plot.components()


def _built_trees(space, directions, axis_plots):
    """What ``nonstandard_subspace_witness`` returns or raises, and every
    witness tree it builds on the way, in order."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "make_sum", lambda terms: built.append(make_sum(terms)) or built[-1])
        try:
            return nonstandard_subspace_witness(space, directions, axis_plots), built
        except ValueError as exc:
            return exc, built


_coordinates = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**6)),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), synthetic=st.booleans())
def test_witness_trees_are_the_scaled_sums_of_the_axis_plots(data, synthetic):
    space, axis_plots = _synthetic_axes() if synthetic else _v2_delta_axes()
    direction = st.lists(_coordinates, min_size=space.dim, max_size=space.dim).map(
        lambda d: d if any(d) else [1] + d[1:])
    directions = data.draw(st.lists(direction, min_size=1, max_size=4))
    # one coordinate may be irrational: that direction is built, then refused
    irrational = data.draw(st.one_of(st.none(), st.integers(0, len(directions) - 1)))
    if irrational is not None:
        directions[irrational][0] = QSqrt2(directions[irrational][0], 1)
    got, built = _built_trees(space, directions, axis_plots)
    want = [tree for d in directions[: len(directions) if irrational is None else irrational + 1]
            for tree in _reference_trees(axis_plots, d)]
    assert built == want and [to_text(t) for t in built] == [to_text(t) for t in want]
    if irrational is None:
        assert [tree for trees, _, _ in got for tree in trees] == want
    else:
        assert "irrational entry" in str(got)


def test_witness_trees_distribute_over_a_sum_in_an_axis_plot():
    # a generator component that is a sum: each of its terms is scaled,
    # where plot_scale would scale the sum as one factor; the curve is one
    sp = parse_space("space s dim 2\ngen abs(x)+x, 0\ngen 0, abs(x)\n")
    axis_plots = (Plot(sp, ((const(1), 0, X),), (parse_expr("-x"), const(0))), Plot(sp, ((const(1), 1, X),), (const(0),) * 2))
    ((trees, _, _),) = nonstandard_subspace_witness(sp, [[3, 0]], axis_plots)
    assert [to_text(t) for t in trees] == ["3*abs(x)", "0"]
    assert [to_text(t) for t in _reference_trees(axis_plots, [3, 0])] == ["3*(abs(x)+x)-3*x", "0"]


def test_a_later_direction_that_reads_a_plot_of_another_space_raises_first():
    sp, good = _v2_delta_axes()
    other = Plot(parse_space("space other dim 2\ngen abs(x), abs(x)\n"), ((const(1), 0, X),), (const(0),) * 2)
    # the third direction is the first to read axis 1, after two are built
    got, built = _built_trees(sp, [[1, 0], [2, 0], [1, 1]], (good[0], other))
    assert str(got) == "axis plot 1 is not a plot of this space"
    assert built == _reference_trees(good, [1, 0]) + _reference_trees(good, [2, 0])
    # before any replay: the first direction, realized by the wrong axis
    # plot, would fail its replay
    got, built = _built_trees(sp, [[1, 0], [1, 1]], (good[1], other))
    assert str(got) == "axis plot 1 is not a plot of this space"
    assert len(built) == 2


def test_refutation_names_the_undecided_components():
    # both lines are standard, and no component classifies NonSmooth: the
    # reason names the components left Unknown, not "all generators smooth"
    sp = parse_space("space s dim 2\ngen abs(x)+barGamma(x), abs(x)+barGamma(x)\ngen x, 0\n")
    verdict = refute_smooth_sum_standard(sp, E1, E2)
    assert verdict.status == "Unknown"
    assert verdict.reason == "smoothness undecided for generator 0 component 0, generator 0 component 1"


def _forged_classifier(e, **kwargs):
    """Calls every component NonSmooth, with one-sided derivatives that
    no component of the gallery has at 0."""
    return SmoothnessVerdict(
        Smoothness.NONSMOOTH,
        witness={"kind": "one-sided-derivative-mismatch", "left": "7", "right": "8"},
    )


def test_forged_nonsmooth_verdict_is_not_reported(monkeypatch):
    monkeypatch.setattr(decompose, "classify_smoothness", _forged_classifier)
    verdict = refute_smooth_sum_standard(
        gallery_space("R3-abs"),
        Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]]),
        Subspace.from_vectors(3, [[0, 0, 1]]),
    )
    assert verdict.status == "Unknown"
    assert "failed replay" in verdict.reason

    sp = gallery_space("V2-delta")
    witnesses = gallery_witnesses(sp, 8)
    provider = (witnesses[(0, 0)], witnesses[(0, 1)])
    with pytest.raises(ValueError, match="witness replay failed"):
        nonstandard_subspace_witness(sp, [[1, 2]], provider)


def test_complementedness_gamma_pair():
    cond = gallery_space("gamma-pair", frozenset({AXIOM_A}))
    rep = complementedness_report(cond, E1)
    assert rep.status == "NotComplemented"
    assert rep.axioms_used == ("A",)
    plain = complementedness_report(gallery_space("gamma-pair"), E1)
    assert plain.status == "Unknown"


def test_decomposability_characteristic_split():
    sp = gallery_space("R3-abs")
    rep = decomposability_report(sp)
    assert rep.status == "Decomposable"
    # Certified characteristic decompositions have the isotropic subspace
    # as one summand: replay that property.  The report holds the
    # certification of that split, not a copy of the decomposition.
    iso = maximal_isotropic(sp).subspace
    split = characteristic_decomposition(sp)
    assert "characteristic" not in rep.detail
    assert rep.detail["certification"] == certify_smooth_sum(sp, split.complement, split.isotropic).to_dict()
    assert split.isotropic.basis == iso.basis


def test_decomposability_w_space():
    cond = gallery_space("W-nondecomposable", frozenset({AXIOM_A}))
    rep = decomposability_report(cond)
    assert rep.status == "NonDecomposable"
    assert rep.axioms_used == ("A",)
    plain = decomposability_report(gallery_space("W-nondecomposable"))
    assert plain.status == "Unknown"


def test_decomposability_v2_delta_with_witness():
    sp = gallery_space("V2-delta")
    rep = decomposability_report(sp, witnesses=gallery_witnesses(sp, 8))
    assert rep.status == "Decomposable"


def test_decomposability_tries_the_coordinate_split():
    # isotropic everywhere, and Span(e1) (+) Span(e2, e3) settles by rules
    sp = parse_space("space s dim 3\ngen abs(x), 0, 0\ngen 0, abs(x), deltaQ(x)\n")
    rep = decomposability_report(sp)
    assert rep.status == "Decomposable"
    decomposition = rep.detail["decomposition"]
    assert decomposition["status"] == "SmoothCertified"
    assert [w["rule"] for w in decomposition["forward_witnesses"]] == [
        "generator-in-subspace", "zero-projection", "zero-projection", "generator-in-subspace",
    ]
    # without its witnesses V2-delta's split does not certify, and no
    # rule decides the dimension-2 question either way
    assert decomposability_report(gallery_space("V2-delta")).status == "Unknown"
    # in dimension 1 the split would be the trivial one
    assert decomposability_report(parse_space("space s dim 1\ngen abs(x)\n")).status == "Unknown"


def test_a_kind_that_only_the_target_carries_is_matched_too():
    # the abs rows alone solve (|x|, 0) = 1 * (|x|, deltaQ(x)), but the
    # difference (0, -deltaQ(x)) is not smooth
    pair = decompose._integer_atom_vectors(parse_space("space a dim 2\ngen abs(x), 0\ngen 0, deltaQ(x)\n"))
    joint = decompose._integer_atom_vectors(parse_space("space b dim 2\ngen abs(x), deltaQ(x)\n"))
    identity = [[QSqrt2(int(i == j)) for j in range(2)] for i in range(2)]
    assert not decompose._kindwise_compatible(pair, joint, identity)
    # (|x|, deltaQ(x)) is the sum of the pair's generators
    assert decompose._kindwise_compatible(joint, pair, identity)
    assert not decompose._is_diffeomorphism(pair, joint, identity)
    assert not decompose._is_diffeomorphism(joint, pair, identity)


@pytest.mark.parametrize("text, rows, forged", [
    # Ker x Im is generated by (0, 2x + |x|, -(|x| + x) + x^2); the forged
    # matrix sends it to (|x| - x^2, -2x - x^2, 0), whose |x| sits where the
    # space has none
    ("gen x, abs(x)+x, x^2", [[1, 1, 0], [1, -1, 1], [-1, -1, 0]], [[-1, 0, -1], [-1, -1, -1], [-1, 0, 0]]),
    ("gen 0, abs(x), abs(x)+x", [[0, 1, 0], [1, 0, -1], [0, 0, 0]], [[-1, 0, -1], [-1, -1, -1], [-1, -1, 0]]),
])
def test_a_negated_sum_counts_in_the_kernel_image_check(text, rows, forged):
    # -(|x| + x) is one term whose core is a sum; its |x| must be matched
    sp = parse_space(f"space s dim 3\n{text}\n")
    f = LinearMap.from_rows(rows)
    assert not verify_kernel_image_witness(sp, f, forged)
    verdict = kernel_image_check(sp, f, bound=1)
    assert verdict.status == "Diffeomorphic"
    assert verify_kernel_image_witness(sp, f, verdict.witness_matrix)


def test_kernel_image_space():
    sp = gallery_space("R3-abs")
    f = LinearMap.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    prod, parts = kernel_image_space(sp, f)
    assert prod.dim == 3


def test_kernel_image_check_r3():
    sp = gallery_space("R3-abs")
    f = LinearMap.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    verdict = kernel_image_check(sp, f)
    assert verdict.status == "Diffeomorphic"
    assert verdict.witness_matrix is not None
    assert verify_kernel_image_witness(sp, f, verdict.witness_matrix)
    # determinism of the bounded search
    again = kernel_image_check(sp, f)
    assert again.witness_matrix == verdict.witness_matrix


@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[0, 1, 1]]])
def test_kernel_image_check_map_to_a_lower_dimension(rows):
    # the image generators and their pivot coordinates live in the codomain
    sp = gallery_space("R3-abs")
    f = LinearMap.from_rows(rows)
    verdict = kernel_image_check(sp, f)
    assert verdict.status == "Diffeomorphic"
    assert verify_kernel_image_witness(sp, f, verdict.witness_matrix)


R3_PROJECTIONS = {
    "diag(1,1,0)": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    "diag(1,0,1)": [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    "diag(0,1,1)": [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
}


def _bruteforce_admissible(src_atoms, dst_atoms, n, bound):
    """Every integer matrix of the box, kept when each source atom vector
    of a kind maps into the annihilated span of the target's vectors of
    that kind: the prefilter of the exhaustive search."""
    pref = []
    for vecs in src_atoms:
        for kind, v in vecs.items():
            ann = linalg.annihilator([d[kind] for d in dst_atoms if kind in d], n)
            pref.append((v, ann))
    out = []
    for entries in itertools.product(range(-bound, bound + 1), repeat=n * n):
        m = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        images = [[sum(m[i][j] * v[j] for j in range(n)) for i in range(n)] for v, _ in pref]
        if all(
            sum(a[i] * img[i] for i in range(n)).is_zero
            for img, (_, ann) in zip(images, pref)
            for a in ann
        ):
            out.append(m)
    return out


@pytest.mark.parametrize(
    "name,expected", [("diag(1,1,0)", 2187), ("diag(1,0,1)", 2187), ("diag(0,1,1)", 1539)]
)
def test_admissible_matrices_match_exhaustive_prefilter(name, expected):
    sp = gallery_space("R3-abs")
    prod, _ = kernel_image_space(sp, LinearMap.from_rows(R3_PROJECTIONS[name]))
    src = decompose._integer_atom_vectors(prod)
    dst = decompose._integer_atom_vectors(sp)
    reference = _bruteforce_admissible(src, dst, 3, 1)
    assert len(reference) == expected
    # same matrices in the same row-major lexicographic order
    assert list(decompose._admissible_matrices(src, dst, 3, 1, 3**9)) == reference


@pytest.mark.parametrize(
    "name,witness",
    [
        ("diag(1,1,0)", [[-2, -2, 0], [-2, -2, -2], [-2, -1, -2]]),
        ("diag(1,0,1)", [[-2, -2, 0], [-2, -2, -2], [-2, -1, -2]]),
        ("diag(0,1,1)", [[-2, -2, 2], [-2, -2, -2], [-1, -2, -2]]),
    ],
)
def test_kernel_image_witness_is_lex_first_of_full_box(name, witness):
    # the witnesses the exhaustive 5^9-matrix search returned
    sp = gallery_space("R3-abs")
    verdict = kernel_image_check(sp, LinearMap.from_rows(R3_PROJECTIONS[name]))
    assert verdict.status == "Diffeomorphic"
    assert verdict.witness_matrix == [[QSqrt2(x) for x in row] for row in witness]


def test_kernel_image_check_stops_at_tuple_budget(monkeypatch):
    # standard R^4 with a rank-two map: no atom constrains the 16 entries
    sp = DVSpace("R4", 4, ())
    f = LinearMap.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    monkeypatch.setattr(decompose, "MAX_KERNEL_IMAGE_TUPLES", 50)
    verdict = kernel_image_check(sp, f)
    assert verdict.status == "Unknown"
    assert "MAX_KERNEL_IMAGE_TUPLES = 50" in verdict.detail["reason"]
    # a box that fits the budget is searched to the end (only the zero matrix)
    monkeypatch.setattr(decompose, "MAX_KERNEL_IMAGE_TUPLES", 1)
    verdict = kernel_image_check(sp, f, bound=0)
    assert verdict.detail["reason"] == "no witness within the search bound"
    monkeypatch.setattr(decompose, "MAX_KERNEL_IMAGE_TUPLES", 0)
    verdict = kernel_image_check(sp, f, bound=0)
    assert "MAX_KERNEL_IMAGE_TUPLES = 0" in verdict.detail["reason"]


def test_kernel_image_check_inverts_only_nonsingular_candidates(monkeypatch):
    seen = []
    real_inverse = linalg.inverse

    def counting_inverse(m):
        seen.append(linalg.rank(m) == len(m))
        return real_inverse(m)

    monkeypatch.setattr(linalg, "inverse", counting_inverse)
    sp = gallery_space("R3-abs")
    for rows in R3_PROJECTIONS.values():
        assert kernel_image_check(sp, LinearMap.from_rows(rows)).status == "Diffeomorphic"
    assert seen and all(seen)
    # on standard R^4 the first 5^8 tuples are all singular, so none of
    # them reaches the inverse
    seen.clear()
    monkeypatch.setattr(decompose, "MAX_KERNEL_IMAGE_TUPLES", 2000)
    f = LinearMap.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert kernel_image_check(DVSpace("R4", 4, ()), f).status == "Unknown"
    assert seen == []


def test_kernel_image_check_rejects_negative_bound():
    sp = gallery_space("R3-abs")
    f = LinearMap.from_rows(R3_PROJECTIONS["diag(1,1,0)"])
    with pytest.raises(ValueError, match="non-negative"):
        kernel_image_check(sp, f, bound=-1)


def test_kernel_image_check_w_rank_one():
    sp = gallery_space("W-nondecomposable", frozenset({AXIOM_A}))
    for rows in ([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[1, 1], [1, 1]]):
        f = LinearMap.from_rows(rows)
        verdict = kernel_image_check(sp, f)
        assert verdict.status == "NoDiffeomorphism"
        assert verdict.axioms_used == ("A",)


def test_kernel_image_invertible_trivial():
    sp = gallery_space("R3-abs")
    f = LinearMap.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    verdict = kernel_image_check(sp, f)
    assert verdict.status == "Diffeomorphic"


@pytest.mark.parametrize(
    "name,rows",
    [
        ("V2-delta", [[0, 1], [1, 0]]),
        ("V2-delta", [[1, 1], [0, 1]]),
        ("V2-delta", [[2, 0], [0, 1]]),
        ("R3-abs", [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ("R3-abs", [[1, 0, 0], [0, 2, 0], [0, 0, 1]]),
    ],
)
def test_invertible_map_witness_replays(name, rows):
    # the witness is f^-1, which carries Ker(f) x Im(f) = 0 x Im(f) back
    # onto the space; the identity matrix did not replay on any of these
    sp = gallery_space(name)
    f = LinearMap.from_rows(rows)
    verdict = kernel_image_check(sp, f)
    assert verdict.status == "Diffeomorphic"
    assert verdict.witness_matrix == linalg.inverse(f.matrix)
    assert verify_kernel_image_witness(sp, f, verdict.witness_matrix)
    assert "f^-1" in verdict.detail["rule"]


def test_injective_map_to_a_higher_dimension_witness_replays():
    # the image lives in R^3; the witness inverts f on its pivot rows
    sp = gallery_space("V2-delta")
    f = LinearMap.from_rows([[1, 1], [0, 1], [1, 0]])
    verdict = kernel_image_check(sp, f)
    assert verdict.status == "Diffeomorphic"
    assert verdict.witness_matrix == linalg.inverse(f.matrix[:2])
    assert verify_kernel_image_witness(sp, f, verdict.witness_matrix)


def test_invertible_map_witness_that_fails_replay_is_not_reported(monkeypatch):
    monkeypatch.setattr(decompose, "_is_diffeomorphism", lambda src, dst, matrix: False)
    f = LinearMap.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    verdict = kernel_image_check(gallery_space("R3-abs"), f)
    assert verdict.status == "Unknown"
    assert verdict.witness_matrix is None
    assert verdict.detail["reason"] == "the inverse of f did not replay"


def test_invertible_map_on_irrational_atoms_is_unknown():
    # the replay needs rational atom tables, so nothing unreplayed is
    # reported
    sp = DVSpace("irr", 2, ((parse_expr("0"), parse_expr("sqrt2*abs(x)")),))
    verdict = kernel_image_check(sp, LinearMap.from_rows([[0, 1], [1, 0]]))
    assert verdict.status == "Unknown"
    assert verdict.witness_matrix is None
    assert "irrational" in verdict.detail["reason"]


def test_kernel_image_check_irrational_atoms_unknown():
    # the kernel e1 is standard, but the atom coefficient sqrt2 is not
    # rational, so the integer search does not apply
    sp = DVSpace("irr", 2, ((parse_expr("0"), parse_expr("sqrt2*abs(x)")),))
    f = LinearMap.from_rows([[0, 0], [0, 1]])
    verdict = kernel_image_check(sp, f)
    assert verdict.status == "Unknown"
    assert "irrational" in verdict.detail["reason"]


class _FailsAt:
    """A stand-in matching map for barGamma whose exact evaluation raises
    ``error`` at the point ``at`` and is the identity elsewhere."""

    def __init__(self, at: QSqrt2, error: Exception):
        self.at, self.error = at, error

    def eval_exact(self, v: QSqrt2) -> QSqrt2:
        if v == self.at:
            raise self.error
        return v


def _raising_witness(at: QSqrt2, error: Exception) -> tuple:
    tree = App("barGamma", X, _FailsAt(at, error))
    return [tree], [tree], Subspace.from_vectors(1, [[1]])


def test_replay_raises_the_error_of_the_earliest_point():
    grid = "zero,rationals:40"
    points = parse_grid(grid)
    early, late = points[3], points[7]
    assert early not in points[:3] and late not in points[:7]
    # both points lie in the first block, so one evaluation meets both errors
    assert len(points) <= GRID_BLOCK
    first = _raising_witness(late, RuntimeError("late"))
    second = _raising_witness(early, LookupError("early"))
    for batch in ([first, second], [second, first]):
        with pytest.raises(LookupError, match="early"):
            decompose._replay_witness(batch, grid)
    # before the points they fail at, both witnesses replay
    assert decompose._replay_witness([first, second], "zero,rationals:2") == [None, None]


def test_replay_evaluates_no_block_after_every_witness_failed(monkeypatch):
    calls = []
    h1 = expr_module._h1_tagged
    monkeypatch.setattr(expr_module, "_h1_tagged", lambda t, **kw: calls.append(t) or h1(t, **kw))
    # H1(x) + deltaQ(gamma(x)) is 0 or 1 more than H1(x): indeterminate at every point
    tree = parse_expr("H1(x) + deltaQ(gamma(x))")
    w = Subspace.from_vectors(1, [[1]])
    batch = [([tree], [parse_expr("H1(x)")], w), ([tree], [tree], w)]
    grid = "zero,rationals:600"
    assert len(parse_grid(grid)) > 2 * GRID_BLOCK
    assert decompose._replay_witness(batch, grid) == ["indeterminate value at 0, component 0"] * 2
    # H1 at points of the first block only
    assert 0 < len(calls) <= GRID_BLOCK


class _BumpsAt:
    """A stand-in matching map for barGamma that is 1 at the points of
    ``at`` and 0 elsewhere."""

    def __init__(self, *at: QSqrt2):
        self.at = at

    def eval_exact(self, v: QSqrt2) -> QSqrt2:
        return QSqrt2.coerce(1 if v in self.at else 0)


def _bumps(*at: QSqrt2):
    """A tree that is 0 at every point but those of ``at``, where it is
    barGamma's slope (w(1) - w(0))."""
    return make_sum([App("barGamma", X, _BumpsAt(*at)), const(-INV_SQRT2)])


def _second_block_points(grid: str, count: int) -> list:
    """``count`` points that the grid holds first in its second block."""
    points = parse_grid(grid)
    firsts = [x for at, x in enumerate(points) if at >= GRID_BLOCK and points.index(x) == at]
    assert points.index(firsts[count - 1]) < 2 * GRID_BLOCK
    return firsts[:count]


def test_replay_finds_the_first_point_outside_the_subspace():
    # both components replay exactly everywhere, but the second one, which
    # E1 requires to be 0, is not at two points of the second block
    grid = "zero,rationals:600"
    first, later = _second_block_points(grid, 2)
    bumps = _bumps(later, first)
    leaves = ([X, bumps], [X, bumps], E1)
    stays = ([X, X], [X, X], Subspace.from_vectors(2, [[1, 1]]))
    assert decompose._replay_witness([stays, leaves, stays], grid) == [
        None,
        f"value at {first} lies outside the subspace",
        None,
    ]


def test_replay_reports_a_mismatch_before_the_subspace_at_one_point():
    # at the first bump, component 0 differs from its target 0, and the
    # component 1 that E1 requires to be 0 is not
    grid = "zero,rationals:600"
    first, later = _second_block_points(grid, 2)
    bumps = _bumps(first, later)
    witness = ([bumps, bumps], [const(0), bumps], E1)
    assert decompose._replay_witness([witness], grid) == [f"mismatch at {first}, component 0"]


def _own_target(text: str) -> tuple:
    """A witness on the line x = y whose two components are the tree of
    ``text``, each its own target, so one plan column holds both sides."""
    tree = parse_expr(text)
    return [tree, tree], [tree, tree], Subspace.from_vectors(2, [[1, 1]])


def test_replay_of_a_component_that_is_its_own_target_stops_where_it_raises():
    # sqrt(x) is exact at 0 and raises at every negative
    grid = "zero,negatives:3"
    points = parse_grid(grid)
    witness = _own_target("sqrt(x)")
    columns = Plan(witness[0] + witness[1]).columns([TaggedReal.exact(x) for x in points])
    assert columns[0] is columns[2]
    assert decompose._replay_witness([witness], grid) == [
        f"domain error at {points[1]}, component 0: sqrt of a negative number"
    ]


def test_replay_of_a_component_that_is_its_own_target_stops_at_a_candidate_set():
    # H1(x+1) is tagged at 0 and at the rationals but not at the points
    # 1 + m*sqrt2/k, where deltaQ of it is the set {0, 1}
    grid = "zero,rationals:3,quadratic:2"
    points = parse_grid(grid)
    assert decompose._replay_witness([_own_target("deltaQ(H1(x+1))")], grid) == [
        f"indeterminate value at {points[4]}, component 0"
    ]


def test_replay_does_not_let_a_cancelled_factor_hide_an_indeterminate_value():
    # component and target are one tree, so the difference form is 0, but
    # deltaQ(H1(x+1)) is the set {0, 1} at the points 1 + m*sqrt2/k
    grid = "zero,rationals:3,quadratic:2"
    points = parse_grid(grid)
    tree = parse_expr("3*deltaQ(H1(x+1))")
    for target in (tree, parse_expr("3*deltaQ(H1(x+1))")):
        witness = ([tree], [target], Subspace.from_vectors(1, [[1]]))
        assert decompose._replay_witness([witness], grid) == [f"indeterminate value at {points[4]}, component 0"]


def test_replay_scans_on_after_a_point_where_an_inexact_factor_is_annihilated():
    # gamma(x) is opaque everywhere, but x*gamma(x) is exactly 0 at 0
    grid = "zero,rationals:2"
    points = parse_grid(grid)
    tree = parse_expr("x*gamma(x) + abs(x)")
    witness = ([tree], [parse_expr("abs(x) + x*gamma(x)")], Subspace.from_vectors(1, [[1]]))
    assert decompose._replay_witness([witness], grid) == [f"indeterminate value at {points[1]}, component 0"]


def test_replay_of_constant_trees_tests_their_forms_at_every_point():
    # no tree reads a factor, so the plan has no root
    grid = "zero,rationals:2"
    line = Subspace.from_vectors(1, [[1]])
    batch = [
        ([const(2)], [const(2)], line),
        ([const(1)], [const(0)], line),
        ([const(1)], [const(1)], Subspace.from_vectors(1, [])),
    ]
    assert decompose._replay_witness(batch, grid) == [
        None,
        "mismatch at 0, component 0",
        "value at 0 lies outside the subspace",
    ]


def test_replay_scans_proportional_forms_once_and_reports_each_witness(monkeypatch):
    # deltaQ(x)^2 - deltaQ(x) + |x|^2 - x^2 is 0 everywhere; the third form
    # doubles its first coefficient, which leaves deltaQ(x): 0 at the
    # rationals and 1 at the first point m*sqrt2/k
    grid = "zero,negatives:3,rationals:3,quadratic:3"
    points = parse_grid(grid)
    line = Subspace.from_vectors(1, [[1]])

    def witness(component, target):
        return [parse_expr(component)], [parse_expr(target)], line

    batch = [
        witness("deltaQ(x)*deltaQ(x) + abs(x)*abs(x)", "deltaQ(x) + x*x"),
        witness("2*deltaQ(x)*deltaQ(x) + abs(x)*abs(x)", "deltaQ(x) + x*x"),
        witness("-2/3*abs(x)*abs(x) - 2/3*deltaQ(x)*deltaQ(x)", "-2/3*x*x - 2/3*deltaQ(x)"),
    ]
    scans = []
    zero_prefix = expr_module.zero_prefix
    monkeypatch.setattr(expr_module, "zero_prefix", lambda *a: scans.append(a) or zero_prefix(*a))
    assert decompose._replay_witness(batch, grid) == [None, f"mismatch at {points[7]}, component 0", None]
    assert len(scans) == 2


def test_replay_of_cor_2_5_scans_one_form_over_four_factors(monkeypatch):
    batches, plans, scans = [], [], []
    replay, zero_prefix = decompose._replay_witness, expr_module.zero_prefix

    class RecordedPlan(Plan):
        def __init__(self, exprs):
            super().__init__(exprs)
            plans.append(self)

    monkeypatch.setattr(decompose, "_replay_witness", lambda batch, grid: batches.append(batch) or replay(batch, grid))
    monkeypatch.setattr(expr_module, "Plan", RecordedPlan)
    monkeypatch.setattr(expr_module, "zero_prefix", lambda *a: scans.append(a) or zero_prefix(*a))
    assert gallery.run_scenario("cor-2.5")["all_nonsmooth"]
    # one batch of 20 witnesses: x, |x| and deltaQ of H1(x) and of its barGamma
    assert [len(batch) for batch in batches] == [20]
    assert [len(plan._roots) for plan in plans] == [4]
    blocks = -(-len(parse_grid(decompose.DEFAULT_GRID)) // GRID_BLOCK)
    assert len(scans) == blocks


def _outcome(e, x: TaggedReal):
    try:
        return eval_candidates(e, x)
    except Exception as exc:  # what evaluating the tree alone raises
        return exc


def _reference_check(x: QSqrt2, exprs, targets, w) -> str:
    """The error a replay reports for one witness at grid point ``x``, or
    None: each tree evaluated alone, side against side, then W."""
    vals = []
    for j, (e, target) in enumerate(zip(exprs, targets)):
        lhs, rhs = _outcome(e, TaggedReal.exact(x)), _outcome(target, TaggedReal.exact(x))
        for side in (lhs, rhs):
            if isinstance(side, DomainError):
                return f"domain error at {x}, component {j}: {side}"
            if isinstance(side, Exception):
                raise side
        if len(lhs) != 1 or len(rhs) != 1 or not (lhs[0].is_exact and rhs[0].is_exact):
            return f"indeterminate value at {x}, component {j}"
        if lhs[0].value != rhs[0].value:
            return f"mismatch at {x}, component {j}"
        vals.append(lhs[0].value)
    for phi in linalg.annihilator(w.basis, w.ambient_dim):
        if not dot_is_zero(phi, vals):
            return f"value at {x} lies outside the subspace"
    return None


def _reference_replay(batch, grid: str) -> list:
    """Point by point in grid order and, at a point, witness by witness,
    each witness up to its first failure."""
    results = [None] * len(batch)
    for x in parse_grid(grid):
        for i, witness in enumerate(batch):
            if results[i] is None:
                results[i] = _reference_check(x, *witness)
    return results


def _result_or_raised(replay, batch, grid):
    try:
        return replay(batch, grid)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _replay_cases(draw):
    """A batch of witnesses over products of the atoms below, some a
    rational multiple of another, and a grid with negatives and quadratic
    points; barGamma raises at one drawn point.  gamma(x) is opaque, but
    x times it is exactly 0 at 0."""
    counts = [draw(st.integers(0, 3)) for _ in range(3)]
    grid = "zero,negatives:{},rationals:{},quadratic:{}".format(*counts)
    points = parse_grid(grid)
    error = draw(st.sampled_from([DomainError("bump"), LookupError("fault")]))
    atoms = [parse_expr(text) for text in
             ("x", "abs(x)", "deltaQ(H1(x))", "deltaQ(H1(x+1))", "sqrt(x)", "H1(x)", "x^2", "gamma(x)")]
    atoms.append(App("barGamma", X, _FailsAt(draw(st.sampled_from(points)), error)))
    coefficients = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    monomials = st.lists(st.sampled_from(range(len(atoms))), min_size=1, max_size=2)
    term_lists = st.lists(st.tuples(coefficients, monomials), min_size=1, max_size=3)

    def tree(terms):
        return make_sum([make_prod([const(c)] + [atoms[k] for k in monomial]) for c, monomial in terms])

    batch = []
    for _ in range(draw(st.integers(1, 4))):
        if batch and draw(st.booleans()):
            # a multiple of an earlier witness
            exprs, targets, w = draw(st.sampled_from(batch))
            s = const(draw(coefficients.filter(bool)))
            batch.append(([make_prod([s, e]) for e in exprs], [make_prod([s, t]) for t in targets], w))
            continue
        dim = draw(st.integers(1, 2))
        exprs, targets = [], []
        for _ in range(dim):
            terms = draw(term_lists)
            how = draw(st.sampled_from(["same", "reordered", "other"]))
            target = tree(draw(term_lists)) if how == "other" else tree(terms[::-1] if how == "reordered" else terms)
            exprs.append(tree(terms))
            targets.append(target)
        vectors = draw(st.sampled_from([[], [[1] * dim], [[draw(coefficients) for _ in range(dim)]]]))
        w = Subspace.from_vectors(dim, [[int(i == j) for j in range(dim)] for i in range(dim)]) if draw(
            st.booleans()) else Subspace.from_vectors(dim, vectors)
        batch.append((exprs, targets, w))
    return batch, grid


@settings(max_examples=150, deadline=None)
@given(_replay_cases())
def test_replay_matches_a_point_by_point_reference(case):
    batch, grid = case
    assert _result_or_raised(decompose._replay_witness, batch, grid) == _result_or_raised(
        _reference_replay, batch, grid
    )
