"""Gallery spaces and recorded scenarios."""

import json

import pytest

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
from smoothsum.decompose import DEFAULT_GRID, _replay_witness
from smoothsum.diffeology import Subspace
from smoothsum.expr import parse_expr


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
        assert _replay_witness(wit[key], comps, w, DEFAULT_GRID) is None


def test_replay_witness_reports_values_outside_the_subspace():
    sp = gallery_space("V2-delta")
    plot = v2_delta_witnesses(sp, franklin_map(8))[(0, 0)]
    comps = [parse_expr("abs(x)"), parse_expr("0")]
    err = _replay_witness(plot, comps, Subspace.from_vectors(2, [[0, 1]]), DEFAULT_GRID)
    assert err is not None and "outside the subspace" in err
    err = _replay_witness(plot, comps[::-1], Subspace.from_vectors(2, [[1, 0]]), DEFAULT_GRID)
    assert err is not None and err.startswith("mismatch")


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


def test_witness_provider_dispatch():
    for name in ("V2-delta",):
        sp = gallery_space(name)
        assert gallery_witnesses(sp, 8)
    assert gallery_witnesses(gallery_space("R3-abs"), 8) in (None, {})
