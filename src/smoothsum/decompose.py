"""Certification and refutation of smooth direct-sum decompositions.

A decomposition V = W0 + W1 is smooth when V's diffeology coincides with
the product of the two subset diffeologies.  Projections along the
splitting are linear, and plots of a generated diffeology are linear in
the generators, so the whole question reduces to the generators: the
decomposition is certified smooth when each projected generator P.g is
exhibited as a plot with values in its subspace, either algebraically,
as constants beta_m (one solve over the generators' non-smooth terms)
times generators g_m plus a smooth tail, or by a stored witness plot
replayed under exact tagged evaluation on a deterministic grid.  A
replay reads each check, the plot minus its target and each functional
of the subspace's annihilator, as a linear form in the plot's non-linear
subtrees; ``expr.replay_zero_forms`` evaluates those subtrees once per
point and tests each form for zero on integer parts, and only at a point
where the test cannot decide, or fails, does this module word the error.

Refutations go the other way: when both subset diffeologies are
certified standard, a smooth decomposition would force the whole space
standard, so one non-smooth generator component refutes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import linalg
from .constraints import (
    CharacteristicResult,
    IsotropicResult,
    all_lines_standard,
    atom_table,
    maximal_isotropic,
    characteristic_decomposition,
    subset_standard,
)
from .diffeology import (
    DVSpace,
    LinearMap,
    Subspace,
    linear_image,
    product_space,
    pushforward,
    same_space,
)
from .expr import (
    ABS_KIND,
    ATOM_EXPRS,
    Const,
    Expr,
    Smoothness,
    Sum,
    ZERO_E,
    classify_smoothness,
    is_smooth_expr,
    linear_terms,
    make_prod,
    make_sum,
    replay_zero_forms,
    to_text,
    verify_nonsmooth_witness,
)
from .franklin import grid_blocks, parse_grid
from .numbers import ONE, ZERO, DomainError, QSqrt2, common_denominator, dot_is_zero

DEFAULT_GRID = "zero,rationals:60,negatives:30,quadratic:15"


# ---------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------


@dataclass
class DecompositionVerdict:
    status: str  # "SmoothCertified" | "NonSmooth" | "Unknown"
    forward_witnesses: list
    backward_check: list
    axioms_used: tuple
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "forward_witnesses": self.forward_witnesses,
            "backward_check": self.backward_check,
            "axioms_used": list(self.axioms_used),
            "reason": self.reason,
        }


def check_algebraic_sum(n: int, w0: Subspace, w1: Subspace) -> bool:
    """dim W0 + dim W1 = n and W0 + W1 = R^n, by one exact rank."""
    if w0.ambient_dim != n or w1.ambient_dim != n:
        return False
    return w0.dim + w1.dim == n and linalg.rank(w0.basis + w1.basis) == n


def projection_pair(w0: Subspace, w1: Subspace) -> tuple:
    """The rational projections onto W0 along W1 and vice versa."""
    n = w0.ambient_dim
    columns = w0.basis + w1.basis
    # express each e_i in the combined basis
    basis_matrix = [[columns[k][d] for k in range(n)] for d in range(n)]
    inv = linalg.inverse(basis_matrix)
    if inv is None:
        raise ValueError("subspaces do not form an algebraic direct sum")
    p0 = [[ZERO] * n for _ in range(n)]
    p1 = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        coeffs = [inv[k][i] for k in range(n)]
        for k in range(w0.dim):
            for d in range(n):
                p0[d][i] += coeffs[k] * w0.basis[k][d]
        for k in range(w1.dim):
            for d in range(n):
                p1[d][i] += coeffs[w0.dim + k] * w1.basis[k][d]
    return LinearMap.from_rows(p0), LinearMap.from_rows(p1)


def _values_in_subspace(components: Sequence, w: Subspace) -> bool:
    """Symbolic check: every annihilator functional of W kills the map."""
    ann = linalg.annihilator(w.basis, w.ambient_dim)
    return all(_expanded(zip(phi, components)) == ZERO_E for phi in ann)


def _expanded(pairs: Iterable) -> Expr:
    """The sum of s * e over (s, e) pairs, every constant times a sum
    distributed (``linear_terms``), so that equal terms cancel."""
    return make_sum([make_prod([Const(c), core]) for s, e in pairs for c, core in linear_terms(e, s)])


def _replay_witness(witnesses: Sequence, grid: str) -> list:
    """Replay a batch of witnesses on the deterministic grid, by exact
    tagged evaluation: each plot equals its target componentwise and its
    values lie in its W.

    ``witnesses`` holds (the plot's component trees, target components, W)
    triples; the caller builds the trees once and keeps them.  Each check
    is a linear form that must be zero: per component, the component minus
    its target, and per functional of W's annihilator, that functional of
    the components.  ``expr.replay_zero_forms`` tests the forms of the
    whole batch on the grid, parsed once, and ``_check_point`` words each
    witness's error at a point where a test cannot decide or fails.
    Returns one entry per witness: None when it replays, else the error
    its replay alone gives, at the first failing grid point and, there,
    the first failing component (a component error before the subspace).
    A witness that fails is not checked further; a domain error or an
    indeterminate value in one witness never stops the others.  An error
    other than ``DomainError`` is a fault in the trees, not a replay
    verdict, and propagates from the first point and witness that meets
    it.  An empty batch parses no grid.
    """
    if not witnesses:
        return []
    checks = []  # per witness: (its component and target trees, its forms)
    anns = []
    for exprs, components, w in witnesses:
        pairs = list(zip(exprs, components))
        ann = linalg.annihilator(w.basis, w.ambient_dim)
        forms = [[(e, ONE), (t, -ONE)] for e, t in pairs]
        forms += [[(e, c) for c, (e, _) in zip(phi, pairs) if not c.is_zero] for phi in ann]
        checks.append(([tree for pair in pairs for tree in pair], forms))
        anns.append(ann)

    def judge(i: int, x: QSqrt2, outcomes: list) -> Optional[str]:
        return _check_point(x, zip(outcomes[::2], outcomes[1::2]), anns[i])

    return replay_zero_forms(checks, grid_blocks(parse_grid(grid)), judge)


def _check_point(x: QSqrt2, sides: Iterable, ann: list) -> Optional[str]:
    """One witness at grid point ``x``, given each component's outcome
    beside its target's: the error its replay reports there, or None."""
    vals = []
    for j, (lhs, rhs) in enumerate(sides):
        for side in (lhs, rhs):
            if isinstance(side, DomainError):
                return f"domain error at {x}, component {j}: {side}"
            if isinstance(side, Exception):
                raise side
        if len(lhs) != 1 or len(rhs) != 1:
            return f"indeterminate value at {x}, component {j}"
        (lhs,), (rhs,) = lhs, rhs
        # a float or opaque side decides no equality either way
        if not (lhs.is_exact and rhs.is_exact):
            return f"indeterminate value at {x}, component {j}"
        if lhs.value != rhs.value:
            return f"mismatch at {x}, component {j}"
        vals.append(lhs.value)
    for phi in ann:
        if not dot_is_zero(phi, vals):
            return f"value at {x} lies outside the subspace"
    return None


def certify_smooth_sum(
    space: DVSpace, w0: Subspace, w1: Subspace, witnesses: Optional[dict] = None
) -> DecompositionVerdict:
    """Certify V = W0 (+) W1 as a smooth direct sum.

    Each projected generator P.g_k, in generator/part order, settles by the
    first rule that holds: P.g_k = 0, P.g_k = g_k, or ``_combination_rule``.
    Else ``witnesses[(k, part)]``, a Plot of ``space`` realizing P.g_k in the
    subset diffeology, must settle it: every witness is replayed, in one
    batch, before it is believed, and a plot of another space settles nothing.
    """
    if not check_algebraic_sum(space.dim, w0, w1):
        return DecompositionVerdict(
            "Unknown", [], [], (), reason="not an algebraic direct sum"
        )
    witnesses = witnesses or {}
    p0, p1 = projection_pair(w0, w1)
    table = atom_table(space).coefvecs
    entries = []
    batch = []  # (plot components, target, W) of each entry that a witness must settle
    missing = None
    for k, g in enumerate(space.generators):
        for part, (proj, w) in enumerate(((p0, w0), (p1, w1))):
            comps = linear_image(proj.matrix, g)
            entry = {"generator": k, "part": part, "target": [to_text(c) for c in comps]}
            if all(_expanded([(ONE, c)]) == ZERO_E for c in comps):
                entry["rule"] = "zero-projection"
            elif comps == list(g) and _values_in_subspace(comps, w):
                entry["rule"] = "generator-in-subspace"
            elif (rule := _combination_rule(space, table, proj, k, comps, w)) is not None:
                entry.update(rule)
            elif (k, part) in witnesses:
                plot = witnesses[(k, part)]
                if not same_space(plot.space, space):
                    missing = f"witness for generator {k} part {part} is not a plot of this space"
                    break
                batch.append((plot.components(), comps, w))
            else:
                missing = f"no rule or witness for generator {k} part {part}"
                break
            entries.append(entry)
        if missing is not None:
            break
    # every witness collected above is replayed in one pass; the verdict
    # names the first entry, in generator/part order, that did not settle
    forward = []
    axioms: set = set()
    replays = iter(zip(batch, _replay_witness(batch, DEFAULT_GRID)))
    for entry in entries:
        if "rule" not in entry:
            (trees, _, _), err = next(replays)
            if err is not None:
                return DecompositionVerdict(
                    "Unknown", forward, [], tuple(sorted(axioms)),
                    reason=f"witness replay failed for generator {entry['generator']} part {entry['part']}: {err}",
                )
            entry["rule"] = "replayed-witness"
            entry["witness"] = witnesses[(entry["generator"], entry["part"])].to_dict(trees)
        forward.append(entry)
    if missing is not None:
        return DecompositionVerdict("Unknown", forward, [], tuple(sorted(axioms)), reason=missing)
    backward = [
        "subset plots are ambient plots with values in the subspace, and the "
        "generated diffeology is closed under sums, so sums of subset plots are plots of V"
    ]
    return DecompositionVerdict("SmoothCertified", forward, backward, tuple(sorted(axioms)))


def _combination_rule(space: DVSpace, table: list, proj: LinearMap, k: int,
                      comps: Sequence, w: Subspace) -> Optional[dict]:
    """The entry fields that settle ``comps`` = P.g_k algebraically, or None.

    ``_combination`` only proposes beta.  The proof is the tail P.g_k - sum
    beta_m g_m, smooth in every component, and P.g_k's values lying in W: a
    constant combination of generators plus a smooth curve is a plot.  The
    rule is named after beta: 0, +-e_m with a zero tail, or anything else."""
    target = {core: linalg.mat_vec(proj.matrix, v) for core, v in table[k].items()}
    beta = _combination(table, target, space.dim)
    if beta is None or not _values_in_subspace(comps, w):
        return None
    used = [(m, b) for m, b in enumerate(beta) if not b.is_zero]
    tail = [_expanded([(ONE, c)] + [(-b, space.generators[m][j]) for m, b in used]) for j, c in enumerate(comps)]
    if not all(is_smooth_expr(t) for t in tail):
        return None
    if not used:
        return {"rule": "componentwise-smooth-tail"}
    if len(used) == 1 and used[0][1] in (ONE, -ONE) and all(t == ZERO_E for t in tail):
        return {"rule": f"rational-multiple-of-generator-{used[0][0]}"}
    return {"rule": "generator-combination", "combination": [str(b) for b in beta],
            "tail": [to_text(t) for t in tail]}


def _combination(table: Sequence, target: dict, n: int) -> Optional[list]:
    """Constants beta with target[kind] = sum_m beta_m table[m][kind] for
    every kind on either side, by one ``linalg.solve``, or None.  Each of
    ``table`` (an ``atom_table``'s) and ``target`` maps kinds to vectors in
    Q(sqrt2)^n; a missing kind is 0, and so is beta for a zero target."""
    if all(x.is_zero for v in target.values() for x in v):
        return [ZERO] * len(table)
    zero = [ZERO] * n
    kinds = list(dict.fromkeys(itertools.chain(target, *table)))
    rows = [[vecs.get(kind, zero)[i] for vecs in table] for kind in kinds for i in range(n)]
    return linalg.solve(rows, [target.get(kind, zero)[i] for kind in kinds for i in range(n)])


def refute_smooth_sum_standard(space: DVSpace, w0: Subspace, w1: Subspace) -> DecompositionVerdict:
    """NonSmooth when both subset diffeologies are certified standard but
    some generator has a non-smooth component: a product of standard
    spaces is standard, and a standard diffeology has only smooth plots."""
    s0 = subset_standard(space, w0)
    s1 = subset_standard(space, w1)
    if s0.status != "Standard" or s1.status != "Standard":
        return DecompositionVerdict(
            "Unknown", [], [], (),
            reason="standardness certificates unavailable for one of the subspaces",
        )
    axioms = set(s0.axioms_used) | set(s1.axioms_used)
    unreplayed = []
    undecided = []
    for k, g in enumerate(space.generators):
        for j, comp in enumerate(g):
            verdict = classify_smoothness(comp, axioms=space.axioms)
            if verdict.status == Smoothness.UNKNOWN:
                undecided.append(f"generator {k} component {j}")
            elif verdict.status == Smoothness.NONSMOOTH:
                # a NonSmooth verdict counts only once its witness replays
                if not verify_nonsmooth_witness(comp, verdict, space.axioms):
                    unreplayed.append(f"generator {k} component {j}")
                    continue
                axioms |= set(verdict.axioms_used)
                return DecompositionVerdict(
                    "NonSmooth",
                    [],
                    [
                        {"subspace": 0, "standardness": s0.to_dict()},
                        {"subspace": 1, "standardness": s1.to_dict()},
                    ],
                    tuple(sorted(axioms)),
                    reason=(
                        f"generator {k} component {j} ({to_text(comp)}) is NonSmooth, "
                        "but the product of two standard subset diffeologies is the "
                        "standard diffeology, whose plots are all smooth"
                    ),
                )
    reasons = []
    if unreplayed:
        reasons.append("NonSmooth witness failed replay for " + ", ".join(unreplayed))
    if undecided:
        reasons.append("smoothness undecided for " + ", ".join(undecided))
    reason = "; ".join(reasons) or "all generators smooth"
    return DecompositionVerdict("Unknown", [], [], tuple(sorted(axioms)), reason=reason)


# ---------------------------------------------------------------------
# Non-standard subspace witnesses (one-dimensional directions)
# ---------------------------------------------------------------------


def nonstandard_subspace_witness(space: DVSpace, directions: Sequence, axis_plots: Sequence) -> list:
    """For each of ``directions``, the witness plot x -> |x| * (a, b, ...)
    showing that the line through it inherits a non-standard subset diffeology.

    ``axis_plots[j]`` is a Plot of the space equal to |x| * e_j (for
    V2-delta, the witness (0, j) of ``gallery.gallery_witnesses``); an axis
    is read where a direction is nonzero, and its first read builds its
    component trees or raises ValueError for a plot of another space.
    Component i of direction d sums d_j times each term of axis j's
    component i (for V2-delta, the tree plot_scale and plot_add build).  All
    plots are replayed on the grid against their targets in one batch; each
    plot's targets are classified in order up to the first NonSmooth one,
    whose witness is replayed too.  Returns one (component trees, as
    replayed; NonSmooth verdict; the line) per direction, or raises the
    ValueError of the first direction, in order, that fails, as one at a time would.
    """
    directions = [[QSqrt2.coerce(d) for d in direction] for direction in directions]
    # the directions before the first zero one are replayed; a zero
    # direction is reported once every direction before it has passed
    zero = next((i for i, d in enumerate(directions) if all(x.is_zero for x in d)), len(directions))
    axes: dict = {}  # axis j -> per component, the top-level terms of its tree
    batch = []
    for direction in directions[:zero]:
        parts = [[] for _ in range(space.dim)]
        for j, d in enumerate(direction):
            if d.is_zero:
                continue
            if j not in axes:
                if not same_space(axis_plots[j].space, space):
                    raise ValueError(f"axis plot {j} is not a plot of this space")
                axes[j] = [c.terms if isinstance(c, Sum) else (c,) for c in axis_plots[j].components()]
            for part, terms in zip(parts, axes[j]):
                part.extend(make_prod([Const(d), t]) for t in terms)
        # the plot realizes x -> |x| * direction; replay that on the grid,
        # then classify the realized curve, which has a non-smooth
        # component in every nonzero coordinate
        targets = [make_prod([Const(d), ATOM_EXPRS[ABS_KIND]]) for d in direction]
        batch.append(([make_sum(part) for part in parts], targets, Subspace.from_vectors(space.dim, [direction])))
    out = []
    for (trees, targets, w), err in zip(batch, _replay_witness(batch, DEFAULT_GRID)):
        if err is not None:
            raise ValueError(f"witness replay failed: {err}")
        # the first target that classifies NonSmooth; none after it is classified
        for target in targets:
            nonsmooth = classify_smoothness(target, axioms=space.axioms)
            if nonsmooth.status == Smoothness.NONSMOOTH:
                break
        else:
            raise ValueError("witness did not classify NonSmooth")
        if not verify_nonsmooth_witness(target, nonsmooth, space.axioms):
            raise ValueError(f"witness replay failed: NonSmooth witness for {to_text(target)} does not replay")
        out.append((trees, nonsmooth, w))
    if zero < len(directions):
        raise ValueError("zero direction has no nonzero subspace")
    return out


# ---------------------------------------------------------------------
# Complementedness and decomposability
# ---------------------------------------------------------------------


@dataclass
class SplittingReport:
    """A verdict on a splitting question, with the rule that decided it.

    Complementedness reports Complemented | NotComplemented | Unknown,
    decomposability Decomposable | NonDecomposable | Unknown."""

    status: str
    axioms_used: tuple
    detail: dict

    def to_dict(self) -> dict:
        return {"status": self.status, "axioms_used": list(self.axioms_used), "detail": self.detail}


def complementedness_report(space: DVSpace, w: Subspace,
                            isotropic: Optional[IsotropicResult] = None) -> SplittingReport:
    """Does W split off as a smooth direct summand of the space?

    A caller that holds the space's ``maximal_isotropic`` result passes
    it, so the dual is not computed again."""
    if w.dim in (0, space.dim):
        return SplittingReport(
            "Complemented", (), {"rule": "trivial decomposition V = V (+) 0"}
        )
    # try to certify a decomposition containing W
    complement = Subspace.from_vectors(space.dim, linalg.pivot_complement(w.basis, space.dim))
    verdict = certify_smooth_sum(space, w, complement)
    if verdict.status == "SmoothCertified":
        return SplittingReport(
            "Complemented", verdict.axioms_used, {"decomposition": verdict.to_dict()}
        )
    iso = isotropic if isotropic is not None else maximal_isotropic(space)
    if iso.status == "exact" and iso.subspace.dim == space.dim:
        st = subset_standard(space, w)
        if st.status == "Standard":
            axioms = tuple(sorted(set(st.axioms_used) | set(iso.dual.axioms_used)))
            return SplittingReport(
                "NotComplemented",
                axioms,
                {
                    "rule": (
                        "the maximal isotropic subspace is the whole space, so a "
                        "characteristic summand must be zero; a standard subspace "
                        "splitting off smoothly would be a nonzero characteristic "
                        "subspace"
                    ),
                    "standardness": st.to_dict(),
                    "certificate": "external:dual-dimension-theorem",
                },
            )
    return SplittingReport("Unknown", (), {"reason": "no certificate either way"})


def decomposability_report(space: DVSpace, witnesses: Optional[dict] = None,
                           characteristic: Optional[CharacteristicResult] = None) -> SplittingReport:
    """Does the space admit a nontrivial smooth direct-sum decomposition?

    Two readings of the corollary about spaces with proper isotropic part
    are surfaced together: such spaces are Decomposable via the
    characteristic splitting, while all other splittings of the same
    space are non-smooth.  A space isotropic everywhere is Decomposable
    when its coordinate split Span(e1) (+) Span(e2, ..., en) certifies
    with ``witnesses``.  A caller that holds the space's
    ``characteristic_decomposition`` passes it, so it is not computed
    again.
    """
    ch = characteristic if characteristic is not None else characteristic_decomposition(space)
    iso = ch.analysis
    if iso.status != "exact":
        return SplittingReport("Unknown", (), {"reason": "isotropic subspace undecided"})
    d = iso.subspace.dim
    n = space.dim
    if d == 0:
        return SplittingReport(
            "Decomposable",
            tuple(iso.dual.axioms_used),
            {"rule": "full dual: the space is standard and any algebraic splitting is smooth"},
        )
    if 0 < d < n:
        verdict = certify_smooth_sum(space, ch.complement, ch.isotropic, witnesses=witnesses)
        return SplittingReport(
            "Decomposable" if verdict.status == "SmoothCertified" else "Unknown",
            tuple(sorted(set(iso.dual.axioms_used) | set(verdict.axioms_used))),
            # the split certified is ch's, which a report shows beside this one
            {
                "certification": verdict.to_dict(),
                "note": (
                    "the characteristic splitting is smooth; other algebraic "
                    "splittings of the same space generally are not, and both "
                    "readings of the decomposability statement are reported"
                ),
            },
        )
    # isotropic = whole space
    if n >= 2:
        axes = [[int(i == j) for j in range(n)] for i in range(n)]
        verdict = certify_smooth_sum(
            space, Subspace.from_vectors(n, axes[:1]), Subspace.from_vectors(n, axes[1:]), witnesses=witnesses
        )
        if verdict.status == "SmoothCertified":
            return SplittingReport(
                "Decomposable",
                verdict.axioms_used,
                {"decomposition": verdict.to_dict()},
            )
    if space.dim == 2:
        lines = all_lines_standard(space)
        if lines.status == "Standard":
            axioms = set(iso.dual.axioms_used)
            for v in lines.verdicts:
                axioms |= set(v.axioms_used)
            return SplittingReport(
                "NonDecomposable",
                tuple(sorted(axioms)),
                {
                    "rule": (
                        "every line is standard, so a nontrivial smooth splitting "
                        "would make the space standard; but a generator component "
                        "is non-smooth"
                    ),
                    "lines": lines.to_dict(),
                },
            )
    return SplittingReport("Unknown", (), {"reason": "no certificate either way"})


# ---------------------------------------------------------------------
# Ker (+) Im checks
# ---------------------------------------------------------------------


def _integer_atom_vectors(space: DVSpace) -> list:
    """The space's ``atom_table``: entry k maps each non-smooth term of
    generator k, by kind or tree, to its coefficient vector (a generator
    without exotic content has an empty dict).  Raises ValueError on an
    irrational coefficient, which the integer-matrix search does not handle."""
    coefvecs = atom_table(space).coefvecs
    if not all(x.is_rational for vecs in coefvecs for v in vecs.values() for x in v):
        raise ValueError("irrational atom coefficients unsupported here")
    return coefvecs


def _kindwise_compatible(src_atoms: list, dst_atoms: list, matrix: list) -> bool:
    """Each src generator's atom content, pushed through the matrix, is one
    constant combination of the dst generators' (``_combination``: every
    kind on either side).  Both tables are ``_integer_atom_vectors``'s."""
    n = len(matrix)
    return all(
        _combination(dst_atoms, {kind: linalg.mat_vec(matrix, v) for kind, v in vecs.items()}, n) is not None
        for vecs in src_atoms
    )


def _is_diffeomorphism(src_atoms: list, dst_atoms: list, matrix: list) -> bool:
    """The matrix is invertible and compatible with the atom tables both
    ways: forward from the source space, and back through its inverse."""
    matrix = [[QSqrt2.coerce(x) for x in row] for row in matrix]
    inv = linalg.inverse(matrix)
    return (
        inv is not None
        and _kindwise_compatible(src_atoms, dst_atoms, matrix)
        and _kindwise_compatible(dst_atoms, src_atoms, inv)
    )


def _image_pivots(f: LinearMap, img_basis: list) -> list:
    """The codomain coordinates at which the image basis has its pivots.

    The image basis is in rref, so these coordinates read the image-basis
    coefficients straight off the ambient components."""
    pivots = []
    seen = set()
    for b in range(len(img_basis)):
        for i in range(f.codomain_dim):
            if not img_basis[b][i].is_zero and i not in seen:
                pivots.append(i)
                seen.add(i)
                break
    return pivots


def kernel_image_space(space: DVSpace, f: LinearMap) -> tuple:
    """The product space Ker(f) x Im(f) inside R^n coordinates.

    The kernel carries the subset diffeology (it must certify standard
    for the product construction used here); the image carries the
    pushforward diffeology expressed in a column-space basis.
    """
    ker = f.kernel()
    st = subset_standard(space, ker)
    if st.status != "Standard":
        raise ValueError("kernel subset diffeology not certified standard")
    img_basis = f.image_basis()
    r = len(img_basis)
    ker_space = DVSpace("ker", ker.dim, ())
    img_gens = pushforward(f, space).generators
    pivots = _image_pivots(f, img_basis)
    img_space = DVSpace(
        "im",
        r,
        tuple(tuple(fg[p] for p in pivots) for fg in img_gens),
        space.axioms,
    )
    return product_space(ker_space, img_space, name=f"{space.name}-ker-im"), st


@dataclass
class KernelImageVerdict:
    status: str  # "Diffeomorphic" | "NoDiffeomorphism" | "Unknown"
    witness_matrix: Optional[list]
    axioms_used: tuple
    detail: dict

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness_matrix": [[str(x) for x in row] for row in self.witness_matrix]
            if self.witness_matrix
            else None,
            "axioms_used": list(self.axioms_used),
            "detail": self.detail,
        }


def verify_kernel_image_witness(space: DVSpace, f: LinearMap, matrix: list) -> bool:
    """Replay a stored diffeomorphism witness from its matrix alone."""
    prod, _ = kernel_image_space(space, f)
    return _is_diffeomorphism(_integer_atom_vectors(prod), _integer_atom_vectors(space), matrix)


# Free-entry tuples one kernel-image search may enumerate.  The rank-two
# projections of R3-abs leave 7 free entries, a box of 5**7 = 78 125 at
# the default bound; standard R^4 with a rank-two map leaves all 16.
MAX_KERNEL_IMAGE_TUPLES = 100_000


def _admissible_matrices(src_atoms: list, dst_atoms: list, n: int, bound: int, max_tuples: int):
    """Integer n x n matrices with entries in [-bound, bound] that send each
    source atom vector into the span of the target's atom vectors of the
    same kind, in row-major lexicographic order.

    Each condition a . (M v) = 0, for ``a`` in the annihilator of that span,
    is one linear row over the n^2 entries.  The rows are reduced with the
    entry columns in reversed order, so each pivot entry is a rational
    combination of earlier free entries only.  The free entries run through
    the box lexicographically; a tuple whose pivot entries are not integers
    in [-bound, bound] is skipped.  Two admissible matrices first differ at
    a free entry (the pivots before it agree), so this is the box's order.
    After ``max_tuples`` tuples the search stops, yielding ``None`` if the
    box held more.
    """
    nn = n * n
    kinds = {kind for vecs in src_atoms for kind in vecs}
    ann = {kind: linalg.annihilator([d[kind] for d in dst_atoms if kind in d], n) for kind in kinds}
    rows = [
        [a[e // n] * v[e % n] for e in reversed(range(nn))]
        for vecs in src_atoms
        for kind, v in vecs.items()
        for a in ann[kind]
    ]
    reduced, pivot_cols = linalg.rref(rows)
    pivot_entries = {nn - 1 - c for c in pivot_cols}
    free = [e for e in range(nn) if e not in pivot_entries]
    slot = {e: k for k, e in enumerate(free)}
    # pivot entry = (sum of numerator * free value) / denominator
    pivots = []
    for row, c in zip(reduced, pivot_cols):
        terms = [(nn - 1 - d, -x) for d, x in enumerate(row) if d != c and not x.is_zero]
        den, parts = common_denominator([x for _, x in terms])
        pivots.append((nn - 1 - c, [(slot[e], p) for (e, _), (p, _) in zip(terms, parts)], den))

    values = range(-bound, bound + 1)
    for tup in itertools.islice(itertools.product(values, repeat=len(free)), max_tuples):
        entries = [0] * nn
        for e, x in zip(free, tup):
            entries[e] = x
        for e, terms, den in pivots:
            q, r = divmod(sum(x * tup[k] for k, x in terms), den)
            if r or abs(q) > bound:
                break
            entries[e] = q
        else:
            yield [entries[i * n : (i + 1) * n] for i in range(n)]
    if len(values) ** len(free) > max_tuples:
        yield None


def kernel_image_check(space: DVSpace, f: LinearMap, bound: int = 2) -> KernelImageVerdict:
    """Search for a linear diffeomorphism between Ker(f) x Im(f) and the
    space among integer matrices with entries in [-bound, bound].

    The first admissible matrix in row-major lexicographic order is the
    witness.  If the space is (conditionally) non-decomposable and f is
    nontrivial with nontrivial kernel, no diffeomorphism can exist; a
    space whose isotropic subspace is irrational skips that test.

    A matrix is admissible when it sends each source atom vector into the
    span of the target's atom vectors of its kind, a linear condition on
    the entries.  ``_admissible_matrices`` solves it exactly: one ``rref``
    with the entry columns reversed writes each pivot entry in terms of
    earlier free entries, so running the free entries through the box
    lexicographically yields the admissible matrices in the box's order,
    and the witness is the one an exhaustive search would find.  Each
    admissible matrix must be invertible (an integer determinant rejects
    singular ones before any Q(sqrt2) work) and compatible both ways.  At
    most ``MAX_KERNEL_IMAGE_TUPLES`` free-entry tuples are enumerated;
    past that budget the verdict is Unknown and its reason names it.
    """
    if bound < 0:
        raise ValueError(f"search bound must be non-negative, got {bound}")
    n = space.dim
    rank_f = linalg.rank(f.matrix)
    if rank_f == n:
        # Ker(f) = 0 and f is a diffeomorphism onto Im(f) with the
        # pushforward diffeology, so f^-1 (on the image's pivot
        # coordinates) carries Ker(f) x Im(f) back onto the space
        witness = linalg.inverse([f.matrix[i] for i in _image_pivots(f, f.image_basis())])
        try:
            replayed = verify_kernel_image_witness(space, f, witness)
        except ValueError as exc:
            return KernelImageVerdict("Unknown", None, (), {"reason": str(exc)})
        if not replayed:
            return KernelImageVerdict("Unknown", None, (), {"reason": "the inverse of f did not replay"})
        return KernelImageVerdict(
            "Diffeomorphic",
            witness,
            (),
            {
                "rule": (
                    "f injective: the kernel is zero, and f^-1 carries the image, "
                    "with the pushforward diffeology, back onto the space"
                )
            },
        )
    try:
        dec = decomposability_report(space)
    except ValueError:
        # an irrational isotropic subspace: the search's own guards answer
        dec = None
    if dec is not None and dec.status == "NonDecomposable" and 0 < rank_f < n:
        return KernelImageVerdict(
            "NoDiffeomorphism",
            None,
            dec.axioms_used,
            {
                "rule": (
                    "a diffeomorphism onto Ker(f) x Im(f) would be a nontrivial "
                    "smooth direct-sum decomposition, which the space does not admit"
                ),
                "decomposability": dec.to_dict(),
            },
        )
    try:
        prod, ker_standard = kernel_image_space(space, f)
        src_atoms = _integer_atom_vectors(prod)
        dst_atoms = _integer_atom_vectors(space)
    except ValueError as exc:
        return KernelImageVerdict("Unknown", None, (), {"reason": str(exc)})

    budget = MAX_KERNEL_IMAGE_TUPLES
    for matrix in _admissible_matrices(src_atoms, dst_atoms, n, bound, budget):
        if matrix is None:
            return KernelImageVerdict(
                "Unknown",
                None,
                (),
                {"reason": f"search stopped at MAX_KERNEL_IMAGE_TUPLES = {budget} free-entry tuples"},
            )
        if linalg.integer_determinant(matrix) == 0:
            continue
        if _is_diffeomorphism(src_atoms, dst_atoms, matrix):
            return KernelImageVerdict(
                "Diffeomorphic",
                [[QSqrt2(x) for x in row] for row in matrix],
                tuple(ker_standard.axioms_used),
                {
                    "rule": (
                        "forward and backward images of every generator's exotic "
                        "content solve as rational combinations of the target "
                        "generators, with smooth remainders"
                    ),
                    "kernel_standardness": ker_standard.to_dict(),
                },
            )
    return KernelImageVerdict("Unknown", None, (), {"reason": "no witness within the search bound"})
