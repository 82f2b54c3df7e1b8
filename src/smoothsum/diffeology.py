"""Finite-dimensional vector spaces with finitely generated diffeologies.

A space is R^n together with finitely many generator curves g_k: R -> R^n
given componentwise by expression trees.  The plots of the generated
vector-space diffeology that the toolkit manipulates are kept in the
closed normal form

    p(x) = sum_i  h_i(x) * g_{k_i}(H_i(x))  +  tail(x)

with h_i, H_i and the tail componentwise smooth.  The normal form is
closed under addition, scaling by smooth functions and precomposition
with smooth maps, which is exactly what generated diffeologies require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .expr import (
    Expr,
    ExprError,
    ZERO_E,
    compose,
    const,
    is_smooth_expr,
    make_prod,
    make_sum,
    parse_expr,
    to_text,
)
from .numbers import QSqrt2


def _rational_entries(v: Sequence) -> tuple:
    """The entries of v (ints, Fractions or QSqrt2) as rational QSqrt2
    values; an irrational entry raises ValueError, since subspaces and
    linear maps here are rational."""
    out = tuple(QSqrt2.coerce(x) for x in v)
    for x in out:
        if not x.is_rational:
            raise ValueError(f"irrational entry {x}: only rational subspaces and maps are supported")
    return out


@dataclass(frozen=True)
class Subspace:
    """A rational linear subspace of R^n, stored as a canonical basis."""

    ambient_dim: int
    basis: tuple  # tuple of tuples of rational QSqrt2, in reduced row echelon form

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        rows = [_rational_entries(v) for v in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        basis = linalg.span_basis(rows)
        return Subspace(ambient_dim, tuple(tuple(r) for r in basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        return linalg.in_span(self.basis, _rational_entries(v))

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "basis": [[str(x) for x in row] for row in self.basis],
        }


@dataclass(frozen=True)
class LinearMap:
    """A linear map R^m -> R^n with rational entries (rows of length m)."""

    matrix: tuple  # tuple of n rows, each a tuple of m rational QSqrt2

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "LinearMap":
        return LinearMap(tuple(_rational_entries(row) for row in rows))

    @property
    def codomain_dim(self) -> int:
        return len(self.matrix)

    @property
    def domain_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def apply(self, v: Sequence) -> list:
        return linalg.mat_vec(self.matrix, v)

    def kernel(self) -> Subspace:
        ns = linalg.nullspace(self.matrix)
        return Subspace.from_vectors(self.domain_dim, ns)

    def image_basis(self) -> list:
        cols = [[self.matrix[i][j] for i in range(self.codomain_dim)] for j in range(self.domain_dim)]
        return linalg.span_basis(cols)


@dataclass(frozen=True)
class DVSpace:
    """R^dim with the vector-space diffeology generated by ``generators``.

    Each generator is a curve R -> R^dim given componentwise by
    expressions in the single variable x.
    """

    name: str
    dim: int
    generators: tuple  # tuple of generators; each generator a tuple of dim Exprs
    axioms: frozenset = frozenset()

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.dim:
                raise ValueError("generator component count does not match dim")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "generators": [[to_text(c) for c in g] for g in self.generators],
            "axioms": sorted(self.axioms),
        }


# ---------------------------------------------------------------------
# Plots in normal form
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Plot:
    """sum_i h_i * (g_{k_i} o H_i) + tail, a plot of the generated diffeology."""

    space: DVSpace
    terms: tuple  # tuple of (h: Expr, gen_index: int, H: Expr)
    tail: tuple  # tuple of dim Exprs

    def __post_init__(self):
        for h, k, H in self.terms:
            if not (0 <= k < len(self.space.generators)):
                raise ValueError("generator index out of range")
            if not is_smooth_expr(h) or not is_smooth_expr(H):
                raise ValueError("plot scalars and reparametrizations must be smooth")
        if len(self.tail) != self.space.dim:
            raise ValueError("tail length does not match dim")
        for t in self.tail:
            if not is_smooth_expr(t):
                raise ValueError("plot tail must be smooth")

    def component_expr(self, j: int) -> Expr:
        parts = []
        for h, k, H in self.terms:
            parts.append(make_prod([h, compose(self.space.generators[k][j], H)]))
        parts.append(self.tail[j])
        return make_sum(parts)

    def components(self) -> list:
        """Every component tree, in coordinate order."""
        return [self.component_expr(j) for j in range(self.space.dim)]

    def to_dict(self, components: Optional[Sequence[Expr]] = None) -> dict:
        """The plot's report; ``components`` are its component trees when
        the caller has built them already."""
        if components is None:
            components = self.components()
        return {
            "space": self.space.name,
            "terms": [
                {"scalar": to_text(h), "generator": k, "inner": to_text(H)}
                for h, k, H in self.terms
            ],
            "tail": [to_text(t) for t in self.tail],
            "components": [to_text(c) for c in components],
        }


def same_space(a: DVSpace, b: DVSpace) -> bool:
    """Whether plots of ``a`` and of ``b`` are plots of one space."""
    return a is b or a == b


def plot_add(p: Plot, q: Plot) -> Plot:
    if not same_space(p.space, q.space):
        raise ValueError("plots live in different spaces")
    tail = tuple(make_sum([a, b]) for a, b in zip(p.tail, q.tail))
    return Plot(p.space, p.terms + q.terms, tail)


def plot_scale(p: Plot, scalar: Expr) -> Plot:
    if not is_smooth_expr(scalar):
        raise ValueError("scaling function must be smooth")
    terms = tuple((make_prod([scalar, h]), k, H) for h, k, H in p.terms)
    tail = tuple(make_prod([scalar, t]) for t in p.tail)
    return Plot(p.space, terms, tail)


# ---------------------------------------------------------------------
# Pushforwards and products
# ---------------------------------------------------------------------


def linear_image(matrix: Sequence[Sequence], components: Sequence[Expr]) -> list:
    """The curve ``matrix`` · ``components``, componentwise.

    Component i is sum_j matrix[i][j] * components[j], built with the
    canonicalising constructors, so a zero row gives the expression 0 and
    two equal images give equal trees.  This is the one place a rational
    matrix meets a curve: pushforwards, the projections of a splitting and
    the annihilator of a subspace all apply it.
    """
    return [make_sum([make_prod([const(a), c]) for a, c in zip(row, components)]) for row in matrix]


def pushforward(L: LinearMap, space: DVSpace, name: Optional[str] = None) -> DVSpace:
    """The image space R^n with the diffeology generated by L o g_k."""
    if L.domain_dim != space.dim:
        raise ValueError("map domain does not match space dimension")
    gens = tuple(tuple(linear_image(L.matrix, g)) for g in space.generators)
    return DVSpace(name or f"{space.name}-pushforward", L.codomain_dim, gens, space.axioms)


def product_space(a: DVSpace, b: DVSpace, name: Optional[str] = None) -> DVSpace:
    """Direct product with the product (sum) diffeology."""
    dim = a.dim + b.dim
    gens = []
    for g in a.generators:
        gens.append(tuple(list(g) + [ZERO_E] * b.dim))
    for g in b.generators:
        gens.append(tuple([ZERO_E] * a.dim + list(g)))
    return DVSpace(name or f"{a.name}x{b.name}", dim, tuple(gens), a.axioms | b.axioms)


# ---------------------------------------------------------------------
# Declaration format
# ---------------------------------------------------------------------
#
#   space <name> dim <n>
#   gen <expr>, <expr>, ...        (one line per generator, n components)
#   axiom <name>                   (optional, repeatable)


# Largest accepted declared dimension and generator count.  On the
# slowest 24-dimensional, 24-generator file probed (a dense random mix of
# abs, deltaQ, deltaQ(sqrt(abs)), x, x^2 and 0), `analyze` takes 1.3 s,
# `check-sum` on two coordinate halves 2.8 s and on e1 against the rest
# 6.0 s, wall, on a 2-vCPU machine; most of it is Q(sqrt2) elimination in
# the subset-standardness span.  The cost grows faster than the square of
# the size, so larger declarations are refused.
MAX_DIM = 24
MAX_GENERATORS = 24


def parse_space(text: str, bar_gamma_ref=None) -> DVSpace:
    name = None
    dim = None
    gens = []
    axioms = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if head == "space":
            fields = rest.split()
            if len(fields) != 3 or fields[1] != "dim":
                raise ExprError(f"line {lineno}: expected 'space <name> dim <n>'")
            name, dim = fields[0], int(fields[2])
            if not 1 <= dim <= MAX_DIM:
                raise ExprError(f"line {lineno}: dim must be between 1 and {MAX_DIM}, got {dim}")
        elif head == "gen":
            if len(gens) == MAX_GENERATORS:
                raise ExprError(f"line {lineno}: more than {MAX_GENERATORS} generators")
            comps = [parse_expr(c, bar_gamma_ref) for c in rest.split(",")]
            gens.append(tuple(comps))
        elif head == "axiom":
            axioms.add(rest.strip())
        else:
            raise ExprError(f"line {lineno}: unknown directive {head!r}")
    if name is None or dim is None:
        raise ExprError("missing 'space <name> dim <n>' header")
    return DVSpace(name, dim, tuple(gens), frozenset(axioms))
