"""Linear constraints carried by finitely generated diffeologies.

Two engines live here.

* The functional engine: a linear functional is smooth for the generated
  diffeology iff its composite with every generator curve is a smooth
  function.  ``atom_table`` reads each generator's non-smooth terms once,
  through ``expr.exotic_terms``, as coefficient vectors of canonical
  exotic atoms (and of any term no atom names), and a small auditable
  fact base turns a generator's atom pattern into exact linear equations
  on the functional's coefficients.  A generator with a term no atom
  names forces no equation, as that term may cancel an atom, so the dual
  is then an upper bound.  The diffeological dual, the maximal isotropic
  subspace and the characteristic splitting all fall out of exact
  nullspace computations.

* The subset engine: a formal plot with values in a rational subspace is
  tracked through symbols T[k, kind], one per (generator, atom kind)
  pair, standing for the exotic content that generator can contribute.
  Annihilator equations seed a span of provably smooth symbol
  combinations; separation rules grow the span; the subset diffeology is
  certified standard when every ambient coordinate's symbol vector lies
  in the span.

The tables FACT_BASE and SEPARATION_RULES are the rules that run: the
engines read them row by row and hold no second copy of any rule, so
every id in a report's ``facts_used`` or ``derivation`` is the row that
fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .diffeology import DVSpace, Subspace
from .expr import (
    ABS_KIND,
    AXIOM_A,
    AXIOM_SQRT_IMPLICATION,
    DELTA_KIND,
    DELTA_SQRT_KIND,
    GAMMA_KIND,
    exotic_terms,
    to_text,
    unnamed_terms,
)
from .numbers import ONE, ZERO, QSqrt2

ALL_KINDS = (ABS_KIND, DELTA_KIND, DELTA_SQRT_KIND, GAMMA_KIND)

# ---------------------------------------------------------------------
# Fact base
# ---------------------------------------------------------------------
#
# Each entry states which atom coefficient vectors of a generator
# composite must vanish for the composite to be smooth, under which
# axioms, with a self-contained justification.

FACT_BASE = [
    {
        "id": "abs-kink",
        "kinds": [ABS_KIND],
        "unless": [GAMMA_KIND],
        "requires_axioms": [],
        "forces_zero": [ABS_KIND],
        "justification": (
            "c*|u| + smooth has a one-sided derivative jump of 2c at a simple "
            "zero of u, so smoothness forces c = 0"
        ),
    },
    {
        "id": "gamma-under-A",
        "kinds": [GAMMA_KIND],
        "unless": [],
        "requires_axioms": [AXIOM_A],
        "forces_zero": [GAMMA_KIND, ABS_KIND],
        "justification": (
            "axiom A: a combination c1*|x| + c2*gamma(x) is smooth only when "
            "its abs part and gamma part are separately smooth, and gamma "
            "itself is not smooth; hence c1 = c2 = 0"
        ),
    },
    {
        "id": "delta-discontinuity",
        "kinds": [DELTA_KIND],
        "unless": [DELTA_SQRT_KIND],
        "requires_axioms": [],
        "forces_zero": [DELTA_KIND],
        "justification": (
            "c*deltaQ takes the value 0 on the dense set of rationals and c on "
            "the dense set of irrationals; continuity forces c = 0"
        ),
    },
    {
        "id": "delta-sqrt-discontinuity",
        "kinds": [DELTA_SQRT_KIND],
        "unless": [DELTA_KIND],
        "requires_axioms": [],
        "forces_zero": [DELTA_SQRT_KIND],
        "justification": (
            "c*deltaQ(sqrt|x|) is 0 on rationals with rational square root and "
            "c on rationals with irrational square root; both families are "
            "dense, so continuity forces c = 0"
        ),
    },
    {
        "id": "delta-pair-density",
        "kinds": [DELTA_KIND, DELTA_SQRT_KIND],
        "unless": [],
        "requires_axioms": [],
        "forces_zero": [DELTA_KIND, DELTA_SQRT_KIND],
        "justification": (
            "c1*deltaQ(x) + c2*deltaQ(sqrt|x|) takes the constants 0, c2 and "
            "c1+c2 on three dense families (rationals with rational root, "
            "rationals with irrational root, irrationals); continuity forces "
            "c1 = c2 = 0"
        ),
    },
]


def _facts_for(kinds: frozenset, axioms: frozenset):
    """Pick the fact-base rules matching an atom-kind pattern.

    A fact applies when all of its ``kinds`` are present, none of its
    ``unless`` kinds are, and its ``requires_axioms`` are assumed; it
    forces the present kinds among its ``forces_zero`` to vanish.
    (Without axiom A, gamma content leaves both the gamma and the abs part
    undecided.)  Returns (list of facts, sorted kinds forced to zero,
    complete flag); ``complete`` is False when some present kind is not
    covered by any applicable rule.
    """
    facts = [
        f
        for f in FACT_BASE
        if kinds.issuperset(f["kinds"])
        and kinds.isdisjoint(f["unless"])
        and axioms.issuperset(f["requires_axioms"])
    ]
    forced = {k for f in facts for k in f["forces_zero"] if k in kinds}
    return facts, sorted(forced), forced == kinds


# ---------------------------------------------------------------------
# Atom coefficient tables
# ---------------------------------------------------------------------


@dataclass
class AtomTable:
    """The one per-generator table of non-smooth terms: coefvecs[k] maps
    each key of generator k's components' ``exotic_terms`` (an atom kind,
    or the tree of a term no atom names) to its coefficient vector in
    Q(sqrt2)^dim.  ``notes`` names each component with an unnamed term;
    the table is complete when there is none."""

    coefvecs: list
    complete: bool
    notes: tuple


def atom_table(space: DVSpace) -> AtomTable:
    table = []
    notes = []
    for k, gen in enumerate(space.generators):
        vecs: dict = {}
        for j, comp in enumerate(gen):
            terms = exotic_terms(comp)
            if unnamed := unnamed_terms(terms):
                notes.append(
                    f"generator {k} component {j} has unrecognized exotic terms: "
                    + ", ".join(to_text(t) for t in unnamed)
                )
            for key, c in terms.items():
                vecs.setdefault(key, [ZERO] * space.dim)[j] = c
        table.append(vecs)
    return AtomTable(table, not notes, tuple(notes))


# ---------------------------------------------------------------------
# Functional engine
# ---------------------------------------------------------------------


@dataclass
class DualResult:
    status: str  # "exact" | "upper-bound"
    basis: list  # rows of QSqrt2
    dim: Optional[int]
    equations: list
    facts_used: tuple
    axioms_used: tuple
    notes: tuple

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "dim": self.dim,
            "basis": [[str(x) for x in row] for row in self.basis],
            "equations": [[str(x) for x in row] for row in self.equations],
            "facts_used": list(self.facts_used),
            "axioms_used": list(self.axioms_used),
            "notes": list(self.notes),
        }


def dual_basis(space: DVSpace) -> DualResult:
    """The diffeological dual: smooth linear functionals on the space.

    A functional f(v) = sum a_j v_j is smooth iff f composed with every
    generator curve is smooth; the fact base converts each composite's
    atom pattern into equations sum_j a_j c[kind][j] = 0.
    """
    table = atom_table(space)
    equations = []
    facts_used: list = []
    axioms_used: set = set()
    complete = table.complete
    notes = list(table.notes)
    for k, vecs in enumerate(table.coefvecs):
        kinds = frozenset(vecs.keys())
        # an unnamed term can cancel an atom (|-x| - |x| = 0), so a generator
        # with one forces no equation; the table's notes name it
        if not kinds or not kinds.issubset(ALL_KINDS):
            continue
        facts, forced, rule_complete = _facts_for(kinds, space.axioms)
        for f in facts:
            if f["id"] not in facts_used:
                facts_used.append(f["id"])
            axioms_used.update(f["requires_axioms"])
        for kind in forced:
            equations.append(list(vecs[kind]))
        if not rule_complete:
            complete = False
            missing = sorted(set(kinds) - set(forced))
            notes.append(
                f"generator {k}: atom kinds {missing} not decidable under axioms "
                f"{sorted(space.axioms)}"
            )
    basis = linalg.annihilator(equations, space.dim)
    status = "exact" if complete else "upper-bound"
    return DualResult(
        status=status,
        basis=basis,
        dim=len(basis) if complete else None,
        equations=equations,
        facts_used=tuple(facts_used),
        axioms_used=tuple(sorted(axioms_used)),
        notes=tuple(notes),
    )


@dataclass
class IsotropicResult:
    status: str  # "exact" | "lower-bound"
    subspace: Subspace
    dual: DualResult

    def to_dict(self) -> dict:
        # the dual it was computed from is reported once, beside it
        return {"status": self.status, "subspace": self.subspace.to_dict()}


def maximal_isotropic(space: DVSpace) -> IsotropicResult:
    """The common kernel of all smooth functionals.

    When the dual is only an upper bound, the computed kernel is a lower
    bound for the true isotropic subspace.
    """
    dual = dual_basis(space)
    ker = linalg.annihilator(dual.basis, space.dim)
    if any(not x.is_rational for row in ker for x in row):
        raise ValueError(
            f"the isotropic subspace of {space.name}, spanned by "
            f"{[[str(x) for x in row] for row in ker]}, is irrational; "
            "only rational subspaces are supported"
        )
    sub = Subspace.from_vectors(space.dim, ker)
    status = "exact" if dual.status == "exact" else "lower-bound"
    return IsotropicResult(status, sub, dual)


CHARACTERISTIC_CERT = "external:dual-dimension-theorem"


@dataclass
class CharacteristicResult:
    analysis: IsotropicResult  # the dual and the isotropic subspace split off
    complement: Subspace
    certificate: str

    @property
    def isotropic(self) -> Subspace:
        return self.analysis.subspace

    def to_dict(self) -> dict:
        # the dual and the isotropic subspace are reported once, beside it
        return {"complement": self.complement.to_dict(), "certificate": self.certificate}


def characteristic_decomposition(space: DVSpace) -> CharacteristicResult:
    """Split R^n as (lowest-index coordinate complement) + isotropic part.

    The certificate records the external fact that the dual dimension
    plus the isotropic dimension equals the ambient dimension for these
    finitely generated diffeologies.
    """
    iso = maximal_isotropic(space)
    comp = Subspace.from_vectors(space.dim, linalg.pivot_complement(iso.subspace.basis, space.dim))
    return CharacteristicResult(iso, comp, CHARACTERISTIC_CERT)


# ---------------------------------------------------------------------
# Subset engine
# ---------------------------------------------------------------------

SEPARATION_RULES = [
    # NOTE: there is deliberately no unconditional "delta-part separation"
    # rule.  The rational-matching identity shows that an indicator
    # combination plus a smooth tail can equal |x|, so the deltaQ-part of
    # a smooth combination need not itself be smooth.
    #
    # A rule either "splits" a smooth combination into its part of each
    # listed kind (when that part and the rest are both nonzero), or, for
    # every generator carrying both kinds of a (src, dst) pair, "implies"
    # that a smooth src symbol makes the dst symbol smooth.
    {
        "id": "abs-gamma-splitting",
        "requires_axioms": [AXIOM_A],
        "splits": [ABS_KIND, GAMMA_KIND],
        "derivation": "{id} (axiom A) extracts the {kind}-part",
        "justification": (
            "axiom A: a smooth combination with mixed abs- and gamma-content "
            "splits into a smooth abs-part and a smooth gamma-part"
        ),
    },
    {
        "id": "abs-gamma-sibling",
        "requires_axioms": [AXIOM_A],
        "implies": [(GAMMA_KIND, ABS_KIND), (ABS_KIND, GAMMA_KIND)],
        "derivation": "{id} (axiom A) on generator {k}",
        "justification": (
            "axiom A: for a generator carrying both |.| and gamma content the "
            "gamma-part is smooth iff the matching abs-part is smooth"
        ),
    },
    {
        "id": "sqrt-delta-implication",
        "requires_axioms": [AXIOM_SQRT_IMPLICATION],
        "implies": [(DELTA_SQRT_KIND, DELTA_KIND)],
        "derivation": "{id} on generator {k}",
        "justification": (
            "optional axiom: smoothness of a generator's deltaQ(sqrt|x|)-part "
            "forces smoothness of its deltaQ(x)-part"
        ),
    },
]


@dataclass
class StandardnessVerdict:
    status: str  # "Standard" | "NonStandard" | "Unknown"
    subspace: Subspace
    derivation: tuple
    axioms_used: tuple

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "subspace": self.subspace.to_dict(),
            "derivation": list(self.derivation),
            "axioms_used": list(self.axioms_used),
        }


def _span_add(span: list, v: list) -> bool:
    if linalg.in_span(span, v):
        return False
    span.append(list(v))
    return True


def subset_standard(space: DVSpace, subspace: Subspace) -> StandardnessVerdict:
    """Certify that the subset diffeology a subspace inherits is standard.

    Symbols are (generator, atom kind) pairs.  The annihilator of the
    subspace turns "the plot stays inside the subspace" into smooth
    symbol combinations; separation rules close the smooth span; the
    verdict is Standard when every coordinate's symbol vector is smooth.
    """
    table = atom_table(space)
    if not table.complete:
        return StandardnessVerdict("Unknown", subspace, table.notes, ())
    symbols = []
    for k, vecs in enumerate(table.coefvecs):
        for kind in ALL_KINDS:
            if kind in vecs:
                symbols.append((k, kind))
    if not symbols:
        return StandardnessVerdict(
            "Standard", subspace, ("no exotic content: every plot is already smooth",), ()
        )
    sym_index = {s: i for i, s in enumerate(symbols)}
    n_sym = len(symbols)

    def coefvec(sym):
        k, kind = sym
        return table.coefvecs[k][kind]

    # coordinate vectors: coordinate j receives sum_s M[j][s] * T_s
    coord_vecs = []
    for j in range(space.dim):
        coord_vecs.append([coefvec(s)[j] for s in symbols])

    derivation = []
    axioms_used: set = set()
    span: list = []

    # seed: annihilator functionals of the subspace
    ann = linalg.annihilator(subspace.basis, space.dim)
    for phi in ann:
        v = []
        for s in symbols:
            cv = coefvec(s)
            v.append(sum((phi[j] * cv[j] for j in range(space.dim)), ZERO))
        if any(not x.is_zero for x in v) and _span_add(span, v):
            derivation.append(
                "annihilator " + str([str(x) for x in phi]) + " forces the smooth combination "
                + str([str(x) for x in v])
            )

    def unit(i):
        return [ONE if m == i else ZERO for m in range(n_sym)]

    def grow(rule, v, **where) -> bool:
        if not _span_add(span, v):
            return False
        derivation.append(rule["derivation"].format(id=rule["id"], **where))
        axioms_used.update(rule["requires_axioms"])
        return True

    # close under the separation rules whose axioms the space assumes
    rules = [r for r in SEPARATION_RULES if space.axioms.issuperset(r["requires_axioms"])]
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for v in list(span):
                for kind in rule.get("splits", ()):
                    proj = [v[i] if symbols[i][1] == kind else ZERO for i in range(n_sym)]
                    rest = [v[i] - proj[i] for i in range(n_sym)]
                    if (
                        any(not x.is_zero for x in proj)
                        and any(not x.is_zero for x in rest)
                        and grow(rule, proj, kind=kind)
                    ):
                        changed = True
            for k, vecs in enumerate(table.coefvecs):
                for src, dst in rule.get("implies", ()):
                    if (
                        src in vecs
                        and dst in vecs
                        and linalg.in_span(span, unit(sym_index[(k, src)]))
                        and grow(rule, unit(sym_index[(k, dst)]), k=k)
                    ):
                        changed = True

    if linalg.rank(span + coord_vecs) == linalg.rank(span):
        derivation.append("every coordinate's exotic content is a smooth combination")
        return StandardnessVerdict("Standard", subspace, tuple(derivation), tuple(sorted(axioms_used)))
    return StandardnessVerdict("Unknown", subspace, tuple(derivation), tuple(sorted(axioms_used)))


def _critical_directions(space: DVSpace) -> list:
    """Rational directions spanned by single atom coefficient vectors
    (each is nonzero: the table holds a kind's vector only when some
    coefficient is)."""
    table = atom_table(space)
    dirs = []
    for vecs in table.coefvecs:
        for kind in ALL_KINDS:
            v = vecs.get(kind)
            if v is not None and all(x.is_rational for x in v):
                if not any(linalg.rank([d, v]) == 1 for d in dirs):
                    dirs.append(v)
    return dirs


@dataclass
class AllLinesResult:
    status: str
    checked: list
    verdicts: list

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "checked": [[str(x) for x in d] for d in self.checked],
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def all_lines_standard(space: DVSpace) -> AllLinesResult:
    """Certify that every line through 0 is standard (dimension 2 only).

    The subset verdict for a line only depends on which atom coefficient
    vectors it meets, so the axes, the finitely many critical directions
    and one generic representative cover all cases.
    """
    if space.dim != 2:
        raise ValueError("line enumeration is implemented for dimension 2")
    directions = [[ONE, ZERO], [ZERO, ONE]]
    for d in _critical_directions(space):
        if not any(linalg.rank([d0, d]) == 1 for d0 in directions):
            directions.append(d)
    t = 1
    while True:
        cand = [ONE, QSqrt2(t)]
        if not any(linalg.rank([d0, cand]) == 1 for d0 in directions):
            directions.append(cand)
            break
        t += 1
    verdicts = [subset_standard(space, Subspace.from_vectors(2, [d])) for d in directions]
    ok = all(v.status == "Standard" for v in verdicts)
    return AllLinesResult("Standard" if ok else "Unknown", directions, verdicts)
