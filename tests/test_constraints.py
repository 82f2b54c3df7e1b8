"""Constraint engine: duals, isotropic subspaces, standardness.

Includes an independent brute-force oracle for the three-dimensional
space generated by (0, |x|, |x|): functionals are enumerated on an
integer grid and classified by float one-sided finite differences, with
no shared code path with the solver under test.
"""

import itertools
from fractions import Fraction

from smoothsum import constraints
from smoothsum.constraints import (
    ALL_KINDS,
    CHARACTERISTIC_CERT,
    FACT_BASE,
    SEPARATION_RULES,
    _facts_for,
    all_lines_standard,
    characteristic_decomposition,
    dual_basis,
    maximal_isotropic,
    subset_standard,
)
from smoothsum.decompose import check_algebraic_sum
from smoothsum.diffeology import Subspace, parse_space
from smoothsum.expr import (
    ABS_KIND,
    AXIOM_A,
    AXIOM_SQRT_IMPLICATION,
    DELTA_KIND,
    DELTA_SQRT_KIND,
    GAMMA_KIND,
)
from smoothsum.gallery import gallery_space
from smoothsum.numbers import QSqrt2


def test_v2_delta_dual_zero():
    sp = gallery_space("V2-delta")
    dual = dual_basis(sp)
    assert dual.status == "exact" and dual.dim == 0
    iso = maximal_isotropic(sp)
    assert iso.status == "exact" and iso.subspace.dim == 2


def test_r3_abs_dual_and_isotropic():
    sp = gallery_space("R3-abs")
    dual = dual_basis(sp)
    assert dual.status == "exact" and dual.dim == 2
    iso = maximal_isotropic(sp)
    assert iso.subspace.dim == 1
    assert iso.subspace.contains([0, 1, 1])


def test_an_unnamed_term_leaves_its_whole_generator_out_of_the_dual():
    # |-x| names no atom, and |-x| - |x| = 0: the functional (1, -1) is
    # smooth, so the true dual is Span(1, -1) and the isotropic subspace
    # Span(1, 1).  The generator's |x| alone would force a_2 = 0.
    sp = parse_space("space s dim 2\ngen abs(-x), abs(x)\n")
    dual = dual_basis(sp)
    assert dual.status == "upper-bound"
    assert dual.equations == []
    assert dual.notes == ("generator 0 component 0 has unrecognized exotic terms: abs(-x)",)
    # the upper bound holds the true dual, the lower bound lies in the truth
    assert Subspace.from_vectors(2, dual.basis).contains([1, -1])
    iso = maximal_isotropic(sp)
    assert iso.status == "lower-bound"
    assert all(Subspace.from_vectors(2, [[1, 1]]).contains(v) for v in iso.subspace.basis)
    # a generator without unnamed terms still forces its equations
    sp = parse_space("space s dim 2\ngen abs(-x), abs(x)\ngen abs(x), 0\n")
    assert dual_basis(sp).equations == [[QSqrt2(1), QSqrt2(0)]]


# ---------------------------------------------------------------------
# Independent brute-force oracle for R3-abs
# ---------------------------------------------------------------------


def _r3_generator(x: float):
    return (0.0, abs(x), abs(x))


def _functional_smooth_bruteforce(a) -> bool:
    """One-sided finite differences of t -> a . g(t) at 0, pure floats."""
    def f(t):
        g = _r3_generator(t)
        return sum(float(ai) * gi for ai, gi in zip(a, g))

    h = 1e-7
    right = (f(h) - f(0.0)) / h
    left = (f(0.0) - f(-h)) / h
    return abs(right - left) < 1e-9


def _span_rank_fraction(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank, col = 0, 0
    n = 3
    while rows and col < n:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_r3_abs_bruteforce_oracle_agrees():
    sp = gallery_space("R3-abs")
    dual = dual_basis(sp)
    grid = list(itertools.product(range(-2, 3), repeat=3))
    smooth = [a for a in grid if _functional_smooth_bruteforce(a)]
    # the brute-force smooth functionals span a space of the same dimension
    assert _span_rank_fraction(smooth) == dual.dim == 2
    # every solver dual basis row is brute-force smooth (scaled to integers)
    for row in dual.basis:
        denom = 1
        for x in row:
            denom = denom * x.d
        scaled = [float(x * denom) for x in row]
        assert _functional_smooth_bruteforce(scaled)
    # the isotropic subspace is exactly the vectors killed by all
    # brute-force smooth functionals
    iso = maximal_isotropic(sp).subspace
    killed = [
        v
        for v in itertools.product(range(-2, 3), repeat=3)
        if all(sum(a[i] * v[i] for i in range(3)) == 0 for a in smooth)
    ]
    assert _span_rank_fraction(killed) == iso.dim == 1
    for v in killed:
        assert iso.contains(list(v))


# ---------------------------------------------------------------------
# Conditional spaces
# ---------------------------------------------------------------------


def test_gamma_pair_dual_depends_on_axiom():
    plain = dual_basis(gallery_space("gamma-pair"))
    assert plain.status == "upper-bound" or plain.dim is None or plain.dim > 0
    with_a = dual_basis(gallery_space("gamma-pair", frozenset({AXIOM_A})))
    assert with_a.status == "exact"
    assert with_a.axioms_used == ("A",)


def test_w_space_dual_zero():
    sp = gallery_space("W-nondecomposable", frozenset({AXIOM_A}))
    dual = dual_basis(sp)
    assert dual.status == "exact" and dual.dim == 0
    iso = maximal_isotropic(sp)
    assert iso.subspace.dim == 2


def test_characteristic_decomposition_r3():
    sp = gallery_space("R3-abs")
    ch = characteristic_decomposition(sp)
    assert ch.certificate == CHARACTERISTIC_CERT
    assert ch.isotropic.dim == 1 and ch.complement.dim == 2
    assert check_algebraic_sum(3, ch.isotropic, ch.complement)


def test_subset_standard_r3_spans():
    sp = gallery_space("R3-abs")
    top = subset_standard(sp, Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]]))
    assert top.status == "Standard"
    e3 = subset_standard(sp, Subspace.from_vectors(3, [[0, 0, 1]]))
    assert e3.status == "Standard"


def test_subset_standard_never_certifies_nonstandard_lines():
    # every line of the double-absolute-value space carries a
    # non-standard subset diffeology (the matched-pair witnesses realize
    # |x| inside each axis), so a Standard verdict here would be unsound
    sp = gallery_space("V2-delta")
    for v in ([1, 0], [0, 1], [1, 1]):
        verdict = subset_standard(sp, Subspace.from_vectors(2, [v]))
        assert verdict.status == "Unknown"


def test_subset_standard_sqrt_delta_conditional():
    plain = gallery_space("sqrt-delta")
    e1 = Subspace.from_vectors(2, [[1, 0]])
    assert subset_standard(plain, e1).status == "Unknown"
    cond = gallery_space("sqrt-delta", frozenset({AXIOM_SQRT_IMPLICATION}))
    verdict = subset_standard(cond, e1)
    assert verdict.status == "Standard"
    assert AXIOM_SQRT_IMPLICATION in verdict.axioms_used


def test_all_lines_standard_w_space():
    sp = gallery_space("W-nondecomposable", frozenset({AXIOM_A}))
    res = all_lines_standard(sp)
    assert res.status == "Standard"
    plain = all_lines_standard(gallery_space("W-nondecomposable"))
    assert plain.status == "Unknown"


# ---------------------------------------------------------------------
# The rule tables are the rules that run
# ---------------------------------------------------------------------


def _reference_facts_for(kinds, axioms):
    """The fact selection written out branch by branch, as a reference
    for the table-driven version."""
    def rule(rule_id):
        return next(f for f in FACT_BASE if f["id"] == rule_id)

    facts = []
    forced = set()
    if GAMMA_KIND in kinds:
        if AXIOM_A in axioms:
            facts.append(rule("gamma-under-A"))
            forced.update(k for k in (GAMMA_KIND, ABS_KIND) if k in kinds)
    elif ABS_KIND in kinds:
        facts.append(rule("abs-kink"))
        forced.add(ABS_KIND)
    if DELTA_KIND in kinds and DELTA_SQRT_KIND in kinds:
        facts.append(rule("delta-pair-density"))
        forced.update((DELTA_KIND, DELTA_SQRT_KIND))
    elif DELTA_KIND in kinds:
        facts.append(rule("delta-discontinuity"))
        forced.add(DELTA_KIND)
    elif DELTA_SQRT_KIND in kinds:
        facts.append(rule("delta-sqrt-discontinuity"))
        forced.add(DELTA_SQRT_KIND)
    return facts, sorted(forced), forced == set(kinds)


def test_fact_table_matches_reference_on_every_pattern():
    axiom_sets = [frozenset(a) for a in ((), (AXIOM_A,), (AXIOM_SQRT_IMPLICATION,),
                                         (AXIOM_A, AXIOM_SQRT_IMPLICATION))]
    patterns = [
        frozenset(c) for r in range(len(ALL_KINDS) + 1) for c in itertools.combinations(ALL_KINDS, r)
    ]
    assert len(patterns) == 16
    for kinds in patterns:
        for axioms in axiom_sets:
            facts, forced, complete = _facts_for(kinds, axioms)
            ref_facts, ref_forced, ref_complete = _reference_facts_for(kinds, axioms)
            assert [f["id"] for f in facts] == [f["id"] for f in ref_facts], (kinds, axioms)
            assert forced == ref_forced and complete == ref_complete, (kinds, axioms)


def _without(table, rule_id):
    return [r for r in table if r["id"] != rule_id]


def test_dropping_abs_kink_leaves_r3_dual_undecided(monkeypatch):
    monkeypatch.setattr(constraints, "FACT_BASE", _without(FACT_BASE, "abs-kink"))
    dual = dual_basis(gallery_space("R3-abs"))
    assert dual.status == "upper-bound"
    assert "abs-kink" not in dual.facts_used


def test_dropping_sqrt_delta_implication_leaves_e1_unknown(monkeypatch):
    cond = gallery_space("sqrt-delta", frozenset({AXIOM_SQRT_IMPLICATION}))
    e1 = Subspace.from_vectors(2, [[1, 0]])
    assert subset_standard(cond, e1).status == "Standard"
    monkeypatch.setattr(
        constraints, "SEPARATION_RULES", _without(SEPARATION_RULES, "sqrt-delta-implication")
    )
    verdict = subset_standard(cond, e1)
    assert verdict.status == "Unknown"
    assert not any("sqrt-delta-implication" in line for line in verdict.derivation)
