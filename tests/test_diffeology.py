"""Spaces, plots, closure operations and pushforwards."""

from fractions import Fraction

import pytest

from smoothsum.diffeology import (
    LinearMap,
    Plot,
    Subspace,
    parse_space,
    plot_add,
    plot_scale,
    product_space,
    pushforward,
)
from smoothsum.expr import (
    compose,
    const,
    eval_exact,
    eval_tagged,
    is_smooth_expr,
    make_prod,
    make_sum,
    X,
    parse_expr,
    to_text,
)
from smoothsum.gallery import gallery_space
from smoothsum.numbers import QSqrt2, TaggedReal

# Plot and space helpers that only these tests use.


def generator_plot(space, k):
    """The plot x -> g_k(x) of generator k."""
    return Plot(space, ((const(1), k, X),), (const(0),) * space.dim)


def smooth_plot(space, components):
    return Plot(space, (), tuple(components))


def print_space(space) -> str:
    """The declaration-file text that ``parse_space`` reads back."""
    lines = [f"space {space.name} dim {space.dim}"]
    for g in space.generators:
        lines.append("gen " + ", ".join(to_text(c) for c in g))
    for a in sorted(space.axioms):
        lines.append(f"axiom {a}")
    return "\n".join(lines) + "\n"


def plot_eval(p, x):
    """Evaluate each component; entries may be indeterminate tuples."""
    return [eval_tagged(p.component_expr(j), x) for j in range(p.space.dim)]


def plot_precompose(p, s):
    if not is_smooth_expr(s):
        raise ValueError("precomposition map must be smooth")
    terms = tuple((compose(h, s), k, compose(H, s)) for h, k, H in p.terms)
    tail = tuple(compose(t, s) for t in p.tail)
    return Plot(p.space, terms, tail)


def pushforward_plot(L, p, target):
    """Carry a normal-form plot through L into the pushforward space."""
    tail = []
    for i in range(L.codomain_dim):
        tail.append(
            make_sum([make_prod([const(L.matrix[i][j]), p.tail[j]]) for j in range(p.space.dim)])
        )
    return Plot(target, p.terms, tuple(tail))


POINTS = [Fraction(0), Fraction(1, 3), Fraction(-2, 7), QSqrt2(Fraction(1), Fraction(1))]


def _vals(p, x):
    out = []
    for t in plot_eval(p, TaggedReal.exact(x)):
        assert not isinstance(t, tuple), "expected a determined value"
        assert t.is_exact
        out.append(t.value)
    return out


def test_component_expr_matches_eval():
    sp = gallery_space("V2-delta")
    p = generator_plot(sp, 0)
    for j in range(sp.dim):
        e = p.component_expr(j)
        for x in POINTS[:3]:
            assert eval_exact(e, x) == _vals(p, x)[j]


def test_closure_operations():
    sp = gallery_space("V2-delta")
    p = generator_plot(sp, 0)
    q = smooth_plot(sp, [parse_expr("x^2"), parse_expr("-x")])
    s = plot_add(p, q)
    for x in POINTS[:3]:
        assert _vals(s, x) == [a + b for a, b in zip(_vals(p, x), _vals(q, x))]
    scaled = plot_scale(p, parse_expr("3*x"))
    for x in POINTS[:3]:
        factor = eval_exact(parse_expr("3*x"), x)
        assert _vals(scaled, x) == [factor * a for a in _vals(p, x)]
    pre = plot_precompose(p, parse_expr("x^2-1"))
    for x in POINTS[:3]:
        inner = eval_exact(parse_expr("x^2-1"), x)
        assert _vals(pre, x) == _vals(p, inner)


def test_pushforward_linearity():
    sp = gallery_space("R3-abs")
    L = LinearMap.from_rows([[1, 2, 0], [0, 1, -1]])
    target = pushforward(L, sp)
    assert target.dim == 2
    p = generator_plot(sp, 0)
    fp = pushforward_plot(L, p, target)
    for x in POINTS[:3]:
        v = _vals(p, x)
        got = _vals(fp, x)
        for i in range(2):
            want = QSqrt2.coerce(0)
            for j in range(3):
                want = want + QSqrt2.coerce(L.matrix[i][j]) * v[j]
            assert got[i] == want


def test_product_space():
    a = gallery_space("V2-delta")
    b = gallery_space("R3-abs")
    prod = product_space(a, b)
    assert prod.dim == 5
    # generators of the product are generators of the factors padded with zeros
    assert len(prod.generators) == len(a.generators) + len(b.generators)
    for g in prod.generators:
        assert len(g) == 5


def test_space_round_trip():
    sp = gallery_space("sqrt-delta")
    text = print_space(sp)
    back = parse_space(text)
    assert back.dim == sp.dim
    assert back.axioms == sp.axioms
    assert [
        [to_text(c) for c in g] for g in back.generators
    ] == [[to_text(c) for c in g] for g in sp.generators]


def test_parse_space_declaration():
    sp = parse_space("space V dim 2\ngen abs(x), abs(x)\ngen 0, deltaQ(x)\naxiom A\n")
    assert sp.name == "V" and sp.dim == 2
    assert sp.axioms == frozenset({"A"})
    assert to_text(sp.generators[1][1]) == "deltaQ(x)"
    with pytest.raises(ValueError):
        parse_space("space V dim 2\ngen abs(x)\n")  # wrong arity


def test_subspace_canonical_form():
    w = Subspace.from_vectors(3, [[2, 0, 2], [1, 0, 1], [0, 1, 0]])
    assert w.dim == 2
    assert w.contains([3, -1, 3])
    assert not w.contains([1, 0, 0])
    assert w.contains([1, 0, 1])


def test_linear_map_kernel_image():
    f = LinearMap.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    ker = f.kernel()
    assert ker.dim == 1 and ker.contains([0, 0, 1])
    im = f.image_basis()
    assert len(im) == 2
