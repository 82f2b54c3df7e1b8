"""Gallery spaces and recorded scenarios."""

import json

import pytest

from smoothsum import expr as expr_module
from smoothsum.expr import AXIOM_A
from smoothsum.gallery import (
    SCENARIOS,
    SPACE_NAMES,
    gallery_space,
    gallery_witnesses,
    run_scenario,
    v2_delta_witnesses,
)
from smoothsum.gallery import franklin_map
from smoothsum.decompose import DEFAULT_GRID, _replay_witness, nonstandard_subspace_witness
from smoothsum.diffeology import Plot, Subspace, parse_space
from smoothsum.expr import App, Const, X, make_neg, make_prod, parse_expr
from smoothsum.franklin import parse_grid
from smoothsum.numbers import QSqrt2


def test_space_names():
    assert set(SPACE_NAMES) == {
        "V2-delta",
        "R3-abs",
        "gamma-pair",
        "sqrt-delta",
        "W-nondecomposable",
    }
    for name in SPACE_NAMES:
        sp = gallery_space(name)
        assert sp.dim >= 2
        for g in sp.generators:
            assert len(g) == sp.dim


def test_gallery_space_axioms_added():
    sp = gallery_space("gamma-pair", frozenset({AXIOM_A}))
    assert AXIOM_A in sp.axioms
    assert AXIOM_A not in gallery_space("gamma-pair").axioms


def test_unknown_space():
    with pytest.raises(KeyError):
        gallery_space("no-such-space")


def test_v2_delta_witnesses_realize_targets():
    sp = gallery_space("V2-delta")
    fm = franklin_map(8)
    wit = v2_delta_witnesses(sp, fm)
    targets = {
        (0, 0): ([parse_expr("abs(x)"), parse_expr("0")], [1, 0]),
        (0, 1): ([parse_expr("0"), parse_expr("abs(x)")], [0, 1]),
    }
    for key, (comps, axis) in targets.items():
        assert key in wit
        w = Subspace.from_vectors(2, [axis])
        assert _replay_witness([(wit[key].components(), comps, w)], DEFAULT_GRID) == [None]


def _hand_built_v2_delta_witnesses(space, fm) -> dict:
    """The V2-delta witnesses written out term by term: the reference the
    plots derived from the |x| identity must equal."""
    h1 = App("H1", X)
    h2 = App("barGamma", App("H1", X), fm)
    two_x = make_prod([Const(QSqrt2.coerce(2)), X])
    neg_two_x = make_neg(two_x)
    d1 = Plot(
        space,
        ((Const(QSqrt2.coerce(1)), 0, X), (neg_two_x, 1, h1), (two_x, 1, h2)),
        (parse_expr("0"), make_neg(X)),
    )
    d2 = Plot(space, ((two_x, 1, h1), (neg_two_x, 1, h2)), (parse_expr("0"), X))
    return {(0, 0): d1, (0, 1): d2}


@pytest.mark.parametrize("n", [8, 16])
def test_v2_delta_witnesses_are_the_hand_built_plots(n):
    sp = gallery_space("V2-delta")
    fm = franklin_map(n)
    assert v2_delta_witnesses(sp, fm) == _hand_built_v2_delta_witnesses(sp, fm)


def test_replay_witness_reports_values_outside_the_subspace():
    sp = gallery_space("V2-delta")
    trees = v2_delta_witnesses(sp, franklin_map(8))[(0, 0)].components()
    comps = [parse_expr("abs(x)"), parse_expr("0")]
    (err,) = _replay_witness([(trees, comps, Subspace.from_vectors(2, [[0, 1]]))], DEFAULT_GRID)
    assert err is not None and "outside the subspace" in err
    (err,) = _replay_witness([(trees, comps[::-1], Subspace.from_vectors(2, [[1, 0]]))], DEFAULT_GRID)
    assert err is not None and err.startswith("mismatch")


def _mixed_witnesses() -> dict:
    """Witnesses that replay and witnesses that fail each way, by name."""
    sp = gallery_space("V2-delta")
    wit = v2_delta_witnesses(sp, franklin_map(8))
    e1, e2 = Subspace.from_vectors(2, [[1, 0]]), Subspace.from_vectors(2, [[0, 1]])
    abs_e1 = [parse_expr("abs(x)"), parse_expr("0")]
    abs_e2 = abs_e1[::-1]
    space = parse_space(
        "space s dim 2\ngen sqrt(x), sqrt(x)\ngen abs(sqrt(x)), 0\ngen deltaQ(gamma(x)), 0\n"
    )

    def plot(k, inner):
        return Plot(space, ((parse_expr("1"), k, parse_expr(inner)),), (parse_expr("0"),) * 2).components()

    # the plot sqrt(-x) of the CLI test has no real value at x > 0; a tree
    # over its sqrt(-x) node must fail with it there, not pass on the value
    # that node had at x = 0
    over_sqrt = [parse_expr("abs(sqrt(-1*x))"), parse_expr("0")]
    return {
        "good-e1": (wit[(0, 0)].components(), abs_e1, e1),
        "good-e2": (wit[(0, 1)].components(), abs_e2, e2),
        "mismatch": (wit[(0, 0)].components(), abs_e2, e1),
        "outside": (wit[(0, 0)].components(), abs_e1, e2),
        "domain": (plot(0, "-1*x"), [parse_expr("sqrt(x)"), parse_expr("0")], e1),
        "over-domain": (plot(1, "-1*x"), over_sqrt, e1),
        "indeterminate": (plot(2, "x"), [parse_expr("deltaQ(gamma(x))"), parse_expr("0")], e1),
    }


def test_batch_replay_gives_each_witness_its_own_result():
    witnesses = _mixed_witnesses()
    alone = {name: _replay_witness([w], DEFAULT_GRID)[0] for name, w in witnesses.items()}
    assert alone["good-e1"] is None and alone["good-e2"] is None
    assert alone["mismatch"].startswith("mismatch at ")
    assert "outside the subspace" in alone["outside"]
    assert alone["domain"].startswith("domain error at ")
    assert alone["domain"].endswith(", component 0: sqrt of a negative number")
    assert alone["over-domain"] == alone["domain"]
    assert alone["indeterminate"] == "indeterminate value at 0, component 0"
    names = list(witnesses)
    # the failing ones before the good ones, after them, and interleaved
    for order in (names, names[::-1], names[2:] + names[:2], names[1::2] + names[::2]):
        got = _replay_witness([witnesses[name] for name in order], DEFAULT_GRID)
        assert got == [alone[name] for name in order]


def test_nonstandard_witness_raises_for_the_first_failing_direction():
    sp = gallery_space("V2-delta")
    witnesses = gallery_witnesses(sp, 8)
    good = (witnesses[(0, 0)], witnesses[(0, 1)])
    # axis 1 wrongly realized by the axis-0 plot: only directions along e1 replay
    wrong = [good[0], good[0]]

    def message(directions):
        with pytest.raises(ValueError) as info:
            nonstandard_subspace_witness(sp, directions, wrong)
        return str(info.value)

    assert len(nonstandard_subspace_witness(sp, [[1, 0], [-2, 0]], wrong)) == 2
    alone = {d: message([list(d)]) for d in ((0, 1), (1, 1))}
    assert alone[(0, 1)].startswith("witness replay failed: mismatch at ")
    assert message([[1, 0], [0, 1], [1, 1]]) == alone[(0, 1)]
    assert message([[1, 0], [1, 1], [0, 1]]) == alone[(1, 1)]
    # a zero direction fails where it stands in the order
    assert message([[0, 1], [0, 0]]) == alone[(0, 1)]
    assert message([[1, 0], [0, 0], [0, 1]]) == "zero direction has no nonzero subspace"


def test_cor_2_5_evaluates_H1_once_per_grid_point(monkeypatch):
    franklin_map(16)  # built outside the count
    calls = []
    h1 = expr_module._h1_tagged
    monkeypatch.setattr(expr_module, "_h1_tagged", lambda t, **kw: calls.append(t) or h1(t, **kw))
    assert run_scenario("cor-2.5")["all_nonsmooth"]
    # 20 directions share one plan: 106 calls, where one plan per direction made 2 120
    assert 0 < len(calls) <= len(parse_grid(DEFAULT_GRID)) == 106


def test_cor_2_5_builds_each_witness_tree_once(monkeypatch):
    franklin_map(8)
    calls = []
    component_expr = Plot.component_expr
    monkeypatch.setattr(Plot, "component_expr", lambda p, j: calls.append(j) or component_expr(p, j))
    report = run_scenario("cor-2.5", n=8)
    # 2 axis plots of 2 components, each built once for all 20 directions;
    # the report shows the trees the replay built
    assert len(calls) == 4
    assert all(len(r["witness_components"]) == 2 for r in report["directions"])


def test_scenarios_complete_and_deterministic():
    for name in SCENARIOS:
        a = run_scenario(name, n=8)
        b = run_scenario(name, n=8)
        assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
            b, sort_keys=True, default=str
        )
        assert a["scenario"] == name
        assert "claim" in a and "axioms_used" in a
    with pytest.raises(KeyError):
        run_scenario("bogus")


def test_scenario_verdicts():
    s = run_scenario("lemma-2.2", 8)
    assert s["dual"]["dim"] == 0
    assert s["isotropic"]["subspace"]["dim"] == 2

    s = run_scenario("thm-2.3", 8)
    assert s["decomposition"]["status"] == "SmoothCertified"
    assert s["identity"]["ok"] and s["rationality_link"]["ok"]

    s = run_scenario("cor-2.5", 8)
    assert s["all_nonsmooth"] and len(s["directions"]) == 20

    s = run_scenario("nonsmooth-R3", 8)
    assert s["refutation"]["status"] == "NonSmooth"
    assert s["dual"]["dim"] == 2

    s = run_scenario("gamma-pair", 8)
    assert s["complementedness_e1"]["status"] == "NotComplemented"
    assert s["smooth_sum_diag"]["status"] == "SmoothCertified"
    assert s["axioms_used"] == ["A"]

    s = run_scenario("w-nondecomposable", 8)
    assert s["dual"]["dim"] == 0
    assert s["decomposability"]["status"] == "NonDecomposable"

    s = run_scenario("sqrt-delta", 8)
    assert s["dual"]["dim"] == 0
    assert s["conditional_standard_e1"]["status"] == "Standard"
    assert s["conditional_complementedness_e1"]["status"] == "NotComplemented"

    s = run_scenario("ker-im-R3", 8)
    assert s["verdict"]["status"] == "Diffeomorphic"


def test_builtin_witnesses_follow_the_generators_not_the_name():
    gallery = gallery_space("V2-delta")
    renamed = parse_space("space mine dim 2\ngen abs(x), abs(x)\ngen 0, deltaQ(x)\naxiom A\n")
    witnesses = gallery_witnesses(renamed, 8)
    assert witnesses is not None
    assert all(plot.space is renamed for plot in witnesses.values())
    assert witnesses == {key: Plot(renamed, plot.terms, plot.tail)
                         for key, plot in gallery_witnesses(gallery, 8).items()}
    # the name alone, or the generators in another order, get none
    for decl in (
        "space V2-delta dim 2\ngen abs(x), abs(x)\n",
        "space V2-delta dim 3\ngen abs(x), abs(x), 0\ngen 0, deltaQ(x), 0\n",
        "space V2-delta dim 2\ngen 0, deltaQ(x)\ngen abs(x), abs(x)\n",
    ):
        assert gallery_witnesses(parse_space(decl), 8) is None


def test_witness_provider_dispatch():
    for name in ("V2-delta",):
        sp = gallery_space(name)
        assert gallery_witnesses(sp, 8)
    assert gallery_witnesses(gallery_space("R3-abs"), 8) in (None, {})
