"""Prebuilt spaces, named axioms, and reproducible scenarios.

Every scenario is deterministic and timing-free, so repeated runs emit
byte-identical JSON.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .constraints import (
    AXIOM_A,
    AXIOM_SQRT_IMPLICATION,
    IsotropicResult,
    characteristic_decomposition,
    maximal_isotropic,
    subset_standard,
)
from .decompose import (
    certify_smooth_sum,
    complementedness_report,
    decomposability_report,
    kernel_image_check,
    nonstandard_subspace_witness,
    refute_smooth_sum_standard,
)
from .diffeology import DVSpace, LinearMap, Plot, Subspace, parse_space, plot_add, plot_scale
from .expr import ONE_E, ZERO_E, X, make_neg, to_text
from .franklin import (
    AXIOM_EXP_TRANSCENDENCE,
    FranklinMap,
    RationalityLink,
    abs_identity_terms,
    build_franklin,
    certify_rationality_link,
    verify_abs_identity,
)
from .numbers import ONE, QSqrt2

AXIOMS = {
    AXIOM_A: (
        "There exists a non-smooth function gamma such that the diffeology "
        "generated by |x| and gamma splits: a combination of |x|- and "
        "gamma-composites is smooth only when the two parts are separately "
        "smooth, and a smooth gamma-part forces the matching abs-part smooth."
    ),
    AXIOM_SQRT_IMPLICATION: (
        "Conjectural: smoothness of a combination of deltaQ(sqrt|.|)-"
        "composites forces smoothness of the matching deltaQ-composites."
    ),
    AXIOM_EXP_TRANSCENDENCE: (
        "exp(q) is transcendental for every nonzero rational q (classical; "
        "kept in the explicit axiom table of the numbers module)."
    ),
}

_SPACE_DECLS = {
    "V2-delta": "space V2-delta dim 2\ngen abs(x), abs(x)\ngen 0, deltaQ(x)\n",
    "R3-abs": "space R3-abs dim 3\ngen 0, abs(x), abs(x)\n",
    "gamma-pair": "space gamma-pair dim 2\ngen gamma(x), gamma(x)\ngen 0, abs(x)\n",
    "sqrt-delta": "space sqrt-delta dim 2\ngen deltaQ(x), deltaQ(sqrt(abs(x)))\n",
    "W-nondecomposable": "space W-nondecomposable dim 2\ngen abs(x), gamma(x)\n",
}

SPACE_NAMES = tuple(_SPACE_DECLS)


def gallery_space(name: str, axioms: frozenset = frozenset()) -> DVSpace:
    if name not in _SPACE_DECLS:
        raise KeyError(f"unknown gallery space {name!r}; known: {', '.join(SPACE_NAMES)}")
    sp = parse_space(_SPACE_DECLS[name])
    if axioms:
        sp = DVSpace(sp.name, sp.dim, sp.generators, sp.axioms | frozenset(axioms))
    return sp


# ---------------------------------------------------------------------
# The stored witness bundle for V2-delta
# ---------------------------------------------------------------------


@lru_cache(maxsize=4)
def franklin_map(n: int = 16) -> FranklinMap:
    return build_franklin(n)


def v2_delta_witnesses(space: DVSpace, fm: FranklinMap) -> dict:
    """Witness plots realizing (|x|, 0) and (0, |x|) as plots of V2-delta.

    Both rest on the |x| identity of ``franklin.abs_identity_terms``: put
    on the indicator generator (0, deltaQ(x)) it builds |x| in the second
    slot, and the abs generator (|x|, |x|) minus that plot is |x| in the
    first.
    """
    terms, tail = abs_identity_terms(RationalityLink(fm))
    d2 = Plot(space, tuple((h, 1, inner) for h, inner in terms), (ZERO_E, tail))
    abs_gen = Plot(space, ((ONE_E, 0, X),), (ZERO_E, ZERO_E))
    d1 = plot_add(abs_gen, plot_scale(d2, make_neg(ONE_E)))
    return {(0, 0): d1, (0, 1): d2}


_V2_DELTA = parse_space(_SPACE_DECLS["V2-delta"])


def gallery_witnesses(space: DVSpace, n: int = 16):
    """The builtin witness bundle for ``space``, or None.

    A space with V2-delta's dimension and generators, in the gallery's
    order, gets ``v2_delta_witnesses`` built on the order-n matched map,
    whatever it is called and whatever axioms it assumes.
    """
    if space.dim == _V2_DELTA.dim and space.generators == _V2_DELTA.generators:
        return v2_delta_witnesses(space, franklin_map(n))
    return None


# ---------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------

SCENARIOS = (
    "lemma-2.2",
    "thm-2.3",
    "cor-2.5",
    "nonsmooth-R3",
    "gamma-pair",
    "w-nondecomposable",
    "sqrt-delta",
    "ker-im-R3",
)


def _analysis(space: DVSpace, iso: IsotropicResult) -> dict:
    """The space, its dual and its isotropic subspace, as ``iso`` holds them."""
    return {
        "space": space.to_dict(),
        "dual": iso.dual.to_dict(),
        "isotropic": iso.to_dict(),
    }


def run_scenario(name: str, n: int = 16) -> dict:
    """Reproduce one of the recorded claims; deterministic output."""
    if name == "lemma-2.2":
        sp = gallery_space("V2-delta")
        out = _analysis(sp, maximal_isotropic(sp))
        out["claim"] = "the diffeological dual is zero and the isotropic subspace is everything"
        out["axioms_used"] = []
        return {"scenario": name, **out}

    if name == "thm-2.3":
        sp = gallery_space("V2-delta")
        fm = franklin_map(n)
        link = RationalityLink(fm)
        link_cert = certify_rationality_link(link)
        verdict = certify_smooth_sum(
            sp,
            Subspace.from_vectors(2, [[1, 0]]),
            Subspace.from_vectors(2, [[0, 1]]),
            witnesses=gallery_witnesses(sp, n),
        )
        identity = verify_abs_identity(link)
        return {
            "scenario": name,
            "claim": "the two axes form a smooth direct sum, via the |x| identity",
            "franklin": fm.to_dict(),
            "rationality_link": link_cert,
            "decomposition": verdict.to_dict(),
            "identity": identity,
            "axioms_used": sorted(link.axioms_used),
        }

    if name == "cor-2.5":
        sp = gallery_space("V2-delta")
        witnesses = gallery_witnesses(sp, n)
        axis_plots = (witnesses[(0, 0)], witnesses[(0, 1)])
        rng = random.Random(0)
        directions = []
        for _ in range(20):
            a = QSqrt2.from_ints(rng.randint(-9, 9), 0, rng.randint(1, 9))
            b = QSqrt2.from_ints(rng.randint(-9, 9), 0, rng.randint(1, 9))
            if a.is_zero and b.is_zero:
                a = ONE
            directions.append([a, b])
        results = [
            {
                "direction": [str(d) for d in direction],
                "witness_components": [to_text(c) for c in trees],
                "classification": verdict.to_dict(),
            }
            for direction, (trees, verdict, _) in zip(
                directions, nonstandard_subspace_witness(sp, directions, axis_plots)
            )
        ]
        ok = all(r["classification"]["status"] == "NonSmooth" for r in results)
        return {
            "scenario": name,
            "claim": "every nonzero line inherits a non-standard subset diffeology",
            "all_nonsmooth": ok,
            "directions": results,
            "axioms_used": [],
        }

    if name == "nonsmooth-R3":
        sp = gallery_space("R3-abs")
        ch = characteristic_decomposition(sp)
        refut = refute_smooth_sum_standard(
            sp,
            Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]]),
            Subspace.from_vectors(3, [[0, 0, 1]]),
        )
        return {
            "scenario": name,
            "claim": "Span(e1,e2) and Span(e3) are standard but do not give a smooth sum",
            **_analysis(sp, ch.analysis),
            "refutation": refut.to_dict(),
            "characteristic": ch.to_dict(),
            "axioms_used": [],
        }

    if name == "gamma-pair":
        sp = gallery_space("gamma-pair", frozenset({AXIOM_A}))
        iso = maximal_isotropic(sp)
        comp = complementedness_report(sp, Subspace.from_vectors(2, [[1, 0]]), isotropic=iso)
        sum_cert = certify_smooth_sum(
            sp,
            Subspace.from_vectors(2, [[1, 1]]),
            Subspace.from_vectors(2, [[0, 1]]),
        )
        return {
            "scenario": name,
            "claim": "Span(e1) is not complemented although an obvious smooth sum exists",
            **_analysis(sp, iso),
            "complementedness_e1": comp.to_dict(),
            "smooth_sum_diag": sum_cert.to_dict(),
            "axioms_used": [AXIOM_A],
        }

    if name == "w-nondecomposable":
        sp = gallery_space("W-nondecomposable", frozenset({AXIOM_A}))
        ch = characteristic_decomposition(sp)
        dec = decomposability_report(sp, characteristic=ch)
        return {
            "scenario": name,
            "claim": "the (|x|, gamma) space admits no nontrivial smooth splitting",
            **_analysis(sp, ch.analysis),
            "decomposability": dec.to_dict(),
            "axioms_used": [AXIOM_A],
        }

    if name == "sqrt-delta":
        sp = gallery_space("sqrt-delta")
        base = _analysis(sp, maximal_isotropic(sp))
        sp_cond = gallery_space("sqrt-delta", frozenset({AXIOM_SQRT_IMPLICATION}))
        standard_e1 = subset_standard(sp_cond, Subspace.from_vectors(2, [[1, 0]]))
        comp = complementedness_report(sp_cond, Subspace.from_vectors(2, [[1, 0]]))
        return {
            "scenario": name,
            "claim": (
                "the double-indicator space has zero dual unconditionally; under "
                "the conjectural square-root implication Span(e1) is standard "
                "and not complemented"
            ),
            **base,
            "conditional_standard_e1": standard_e1.to_dict(),
            "conditional_complementedness_e1": comp.to_dict(),
            "axioms_used": [AXIOM_SQRT_IMPLICATION],
        }

    if name == "ker-im-R3":
        sp = gallery_space("R3-abs")
        f = LinearMap.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        verdict = kernel_image_check(sp, f)
        return {
            "scenario": name,
            "claim": "for the rank-two coordinate projection the space is Ker (+) Im",
            "map": [[str(x) for x in row] for row in f.matrix],
            "verdict": verdict.to_dict(),
            "axioms_used": list(verdict.axioms_used),
        }

    raise KeyError(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")
