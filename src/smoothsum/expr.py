"""Expression trees for real functions of one variable.

The tree language has the smooth primitives (constants from Q(sqrt2), the
variable, sums, products, integer powers, exp, the affine map w, the
analytic extension barGamma of a constructed matching map) and the exotic
primitives abs, deltaQ (indicator of the irrationals) and the formal axiom
function gamma.  Trees are canonical: constants fold, sums and products
flatten, and negation is absorbed into rational coefficients, so that
printing and re-parsing is the identity on trees.

Tagged evaluation has two evaluators over one node semantics, ``_apply``:
``eval_candidates`` recurses and suits one-off calls, and a ``Plan``
evaluates a list of trees on blocks of points, each distinct subtree
once per point.  ``replay_zero_forms`` replays checks on a grid as zero
tests of linear forms over factors, the subtrees that are not sums,
products or constants, with one plan over the factors; the witness
replay of ``decompose`` and the |x| identity of ``franklin`` call it.

``exotic_terms`` is the one reading of a curve's non-smooth terms, with
a constant times a sum read term by term: the classifier here, the fact
base and subset engine of ``constraints`` (through its ``atom_table``)
and the combination solve of ``decompose`` all read it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

from .numbers import (
    INV_SQRT2,
    ONE,
    QSqrt2,
    SQRT2,
    Tag,
    TaggedReal,
    ZERO,
    add_tagged,
    exp_of_nonzero_rational,
    exp_tagged,
    mul_tagged,
    parse_qsqrt2,
    sign_of_parts,
    sqrt_tagged,
    zero_prefix,
)

# The affine map w(t) = ((sqrt2-1)/sqrt2) t + 1/sqrt2 used throughout the
# matching construction; its slope and offset are exact field elements.
W_SLOPE = QSqrt2(Fraction(1), Fraction(-1, 2))
W_OFFSET = INV_SQRT2


class ExprError(ValueError):
    pass


class NotDifferentiableError(ExprError):
    """A non-smooth primitive met outside a one-sided derivative request."""


# ---------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------


class Expr:
    """Base class; all nodes are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: QSqrt2

    def __post_init__(self):
        if not isinstance(self.value, QSqrt2):
            object.__setattr__(self, "value", QSqrt2.coerce(self.value))


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple


@dataclass(frozen=True)
class Prod(Expr):
    factors: tuple


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class App(Expr):
    name: str
    arg: Expr
    ref: object = field(default=None, compare=True)


FUNCTION_NAMES = ("abs", "exp", "sqrt", "deltaQ", "H1", "w", "barGamma", "gamma")

X = Var()
ZERO_E = Const(ZERO)
ONE_E = Const(ONE)
_MINUS_ONE = -ONE


def const(v) -> Const:
    return Const(QSqrt2.coerce(v))


# ---------------------------------------------------------------------
# Canonicalizing constructors
# ---------------------------------------------------------------------


def make_sum(terms: Iterable[Expr]) -> Expr:
    flat: list[Expr] = []
    acc = ZERO
    for t in terms:
        if isinstance(t, Sum):
            inner = list(t.terms)
        else:
            inner = [t]
        for u in inner:
            if isinstance(u, Const):
                acc = acc + u.value
            else:
                flat.append(u)
    # merge syntactically equal non-const parts: c1*S + c2*S -> (c1+c2)*S
    merged: list[tuple[QSqrt2, Expr]] = []
    for u in flat:
        c, core = _split_coefficient(u)
        for i, (c0, core0) in enumerate(merged):
            if core0 == core:
                merged[i] = (c0 + c, core0)
                break
        else:
            merged.append((c, core))
    out = [make_prod([Const(c), core]) for c, core in merged if not c.is_zero]
    if not acc.is_zero or not out:
        out.append(Const(acc))
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def make_prod(factors: Iterable[Expr]) -> Expr:
    flat: list[Expr] = []
    coef = ONE
    for f in factors:
        if isinstance(f, Prod):
            inner = list(f.factors)
        else:
            inner = [f]
        for u in inner:
            if isinstance(u, Const):
                coef = coef * u.value
            else:
                flat.append(u)
    if coef.is_zero:
        return ZERO_E
    if not flat:
        return Const(coef)
    if coef == ONE:
        return flat[0] if len(flat) == 1 else Prod(tuple(flat))
    return Prod(tuple([Const(coef)] + flat))


def make_neg(e: Expr) -> Expr:
    return make_prod([Const(_MINUS_ONE), e])


def make_pow(base: Expr, k: int) -> Expr:
    if k < 1:
        raise ExprError("powers must be positive integers")
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** k)
    if isinstance(base, Pow):
        return Pow(base.base, base.exponent * k)
    return Pow(base, k)


def make_app(name: str, arg: Expr, ref: object = None) -> Expr:
    if name not in FUNCTION_NAMES:
        raise ExprError(f"unknown function {name!r}")
    return App(name, arg, ref)


def _split_coefficient(e: Expr) -> tuple[QSqrt2, Expr]:
    """Split e as coefficient * core, with a Const-free core."""
    if isinstance(e, Const):
        return e.value, ONE_E
    if isinstance(e, Prod) and isinstance(e.factors[0], Const):
        rest = e.factors[1:]
        core = rest[0] if len(rest) == 1 else Prod(rest)
        return e.factors[0].value, core
    return ONE, e


def linear_terms(e: Expr, scale: QSqrt2 = ONE) -> Iterator[tuple]:
    """(c, core) pairs with scale * e = sum of c * core and no core a Sum:
    a constant times a sum is distributed over the sum's terms."""
    for t in e.terms if isinstance(e, Sum) else (e,):
        c, core = _split_coefficient(t)
        if isinstance(core, Sum):
            yield from linear_terms(core, scale * c)
        else:
            yield scale * c, core


def substitute(e: Expr, mapping: dict) -> Expr:
    """Structural substitution (applied pre-order), re-canonicalized."""
    if e in mapping:
        return mapping[e]
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Sum):
        return make_sum([substitute(t, mapping) for t in e.terms])
    if isinstance(e, Prod):
        return make_prod([substitute(f, mapping) for f in e.factors])
    if isinstance(e, Pow):
        return make_pow(substitute(e.base, mapping), e.exponent)
    if isinstance(e, App):
        return App(e.name, substitute(e.arg, mapping), e.ref)
    raise ExprError(f"unknown node {e!r}")


def compose(e: Expr, inner: Expr) -> Expr:
    return substitute(e, {X: inner})


# ---------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------
#
# Grammar (ASCII):
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := ['-'] atom ['^' posint]
#   atom   := rational | 'sqrt2' | 'x' | fn '(' expr ')' | '(' expr ')'
# Rationals are written p/q or p.

# Deepest accepted nesting of parentheses; a function call's parentheses
# count.  The parser and every tree walk after it recurse once per level.
# A declaration whose two generators nest abs, exp, deltaQ, sqrt or plain
# parentheses 100 deep takes 0.13-0.20 s in `analyze` and in `check-sum`,
# wall on a 2-vCPU machine, start-up included; near 250 levels the parser
# itself exhausts Python's default recursion limit.
MAX_NESTING = 100

# Largest accepted exponent, where the exponents of powers nested in a
# power's base multiply: (x^a)^b and (3^a)^b count as a*b.  A constant
# power is computed while parsing.  With x^1000, abs(x)^1000,
# (3/7)^1000*abs(x), (1+sqrt2)^1000*deltaQ(x), (x+abs(x))^1000 or
# exp(x)^1000*abs(x) in both generators, `analyze` and `check-sum` take
# 0.14-0.20 s, measured as above; (3/7)^1000000 alone ran past 30 s.
MAX_EXPONENT = 1000

# Most decimal digits accepted in each integer (p, q and d) of a constant,
# written as a literal or folded while parsing; Python reads and prints no
# integer past 4300 digits, and (3/7)^1000 has 846.  With 1000-digit
# constants in both generators of a dim-2 space (literals, or
# (3/7)^1000*(3/7)^150 folded), `analyze` and `check-sum` take 0.12-0.14
# s, measured as above; on a dense dim-4 space, 0.30-0.38 s.  The bound
# does not cap the cost of dimension: a dense dim-24 space with 20-digit
# constants takes 14 s in `analyze`.
MAX_CONSTANT_DIGITS = 1000
_CONSTANT_LIMIT = 10**MAX_CONSTANT_DIGITS
_CONSTANT_BITS = _CONSTANT_LIMIT.bit_length()
_CONSTANT_MESSAGE = f"constant past MAX_CONSTANT_DIGITS = {MAX_CONSTANT_DIGITS} digits"


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    depth = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            depth += (c == "(") - (c == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than MAX_NESTING = {MAX_NESTING}", i)
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, bar_gamma_ref=None):
        self.tokens = tokens
        self.pos = 0
        self.bar_gamma_ref = bar_gamma_ref
        # the largest product of exponents along nested powers in the
        # factor being parsed
        self.power = 1

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_expr(self) -> Expr:
        at = self.peek()[2]
        terms = [self.parse_term()]
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.parse_term()
            terms.append(t if op == "+" else make_neg(t))
        return _bounded_constants(make_sum(terms), at)

    def parse_term(self) -> Expr:
        at = self.peek()[2]
        factors = [self.parse_factor()]
        coef = _split_coefficient(factors[0])[0]
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.parse_factor())
            # the constant make_prod folds, bounded factor by factor
            coef = _bounded(coef * _split_coefficient(factors[-1])[0], at)
        return make_prod(factors)

    def parse_factor(self) -> Expr:
        neg = False
        if self.peek()[0] == "-":
            self.take()
            neg = True
        outer, self.power = self.power, 1
        at = self.peek()[2]
        e = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("int")
            digits = tok[1].lstrip("0")
            if not digits:
                raise ParseError("exponent must be a positive integer", tok[2])
            # a long digit string is past the bound before int() reads it
            k = int(digits) if len(digits) <= len(str(MAX_EXPONENT)) else MAX_EXPONENT + 1
            self.power *= k
            if self.power > MAX_EXPONENT:
                raise ParseError(
                    f"exponent past MAX_EXPONENT = {MAX_EXPONENT} (nested powers multiply)", tok[2]
                )
            if isinstance(e, Const):
                _bounded_power(e.value, k, at)
            e = make_pow(e, k)
            if isinstance(e, Const):
                _bounded(e.value, at)
        self.power = max(self.power, outer)
        return make_neg(e) if neg else e

    def parse_atom(self) -> Expr:
        kind, text, at = self.peek()
        if kind == "int":
            self.take()
            num = _literal(text, at)
            if self.peek()[0] == "/":
                self.take()
                tok = self.take("int")
                den = _literal(tok[1], tok[2])
                if den == 0:
                    raise ParseError("zero denominator", at)
                return const(Fraction(num, den))
            return const(num)
        if kind == "name":
            self.take()
            if text == "x":
                return X
            if text == "sqrt2":
                return Const(QSqrt2.sqrt2())
            if text in FUNCTION_NAMES:
                self.take("(")
                arg = self.parse_expr()
                self.take(")")
                ref = self.bar_gamma_ref if text == "barGamma" else None
                return make_app(text, arg, ref)
            raise ParseError(f"unknown name {text!r}", at)
        if kind == "(":
            self.take()
            e = self.parse_expr()
            self.take(")")
            return e
        raise ParseError(f"unexpected token {text!r}", at)


def _literal(digits: str, at: int) -> int:
    # a long digit string is past the bound before int() reads it, and
    # leading zeros count towards int()'s limit but not towards the bound
    digits = digits.lstrip("0") or "0"
    if len(digits) > MAX_CONSTANT_DIGITS:
        raise ParseError(_CONSTANT_MESSAGE, at)
    return int(digits)


def _bounded(v: QSqrt2, at: int) -> QSqrt2:
    if max(abs(v.p), abs(v.q), v.d) >= _CONSTANT_LIMIT:
        raise ParseError(_CONSTANT_MESSAGE, at)
    return v


def _bounded_power(v: QSqrt2, k: int, at: int) -> None:
    """Refuse v^k before computing it when it must pass the bound.  With
    m the largest of |p|, |q| and d, a part of the reduced v^k is at least
    m^k / ((1 + sqrt2) * 2^(k//2)): only powers of sqrt2 cancel, since
    gcd(p, q, d) = 1, and at most k//2 factors of 2 of them.  A power that
    passes this test has parts of at most about 6100 bits."""
    m_bits = max(abs(v.p), abs(v.q), v.d).bit_length() - 1
    if k * m_bits - k // 2 - 2 >= _CONSTANT_BITS:
        raise ParseError(_CONSTANT_MESSAGE, at)


def _bounded_constants(e: Expr, at: int) -> Expr:
    """``e``, once the constants a sum may have folded or merged (its
    constant term and each term's coefficient) are within the bound."""
    for t in e.terms if isinstance(e, Sum) else (e,):
        _bounded(_split_coefficient(t)[0], at)
    return e


def parse_expr(text: str, bar_gamma_ref=None) -> Expr:
    parser = _Parser(_tokenize(text), bar_gamma_ref)
    e = parser.parse_expr()
    parser.take("end")
    return e


# ---------------------------------------------------------------------
# Printer (inverse of the parser on canonical trees)
# ---------------------------------------------------------------------


def _const_text(v: QSqrt2, atomic: bool) -> str:
    s = str(v)
    if v.is_rational:
        return s
    if v == SQRT2:
        return s  # bare sqrt2 is an atom
    return f"({s})" if atomic else s


def _factor_text(e: Expr) -> str:
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Const):
        return _const_text(e.value, atomic=True)
    if isinstance(e, App):
        return f"{e.name}({to_text(e.arg)})"
    if isinstance(e, Pow):
        base = e.base
        if isinstance(base, (Var, App)):
            return f"{_factor_text(base)}^{e.exponent}"
        return f"({to_text(base)})^{e.exponent}"
    return f"({to_text(e)})"


def _term_text(e: Expr) -> tuple[bool, str]:
    """Return (negative, body) for use at sum positions."""
    coef, core = _split_coefficient(e)
    negative = coef.sign() < 0
    if negative:
        coef = -coef
    parts = []
    if core == ONE_E:
        # parenthesize mixed constants so a leading '-' binds to the whole
        return negative, _const_text(coef, atomic=True)
    if coef != ONE:
        parts.append(_const_text(coef, atomic=True))
    if isinstance(core, Prod):
        parts.extend(_factor_text(f) for f in core.factors)
    else:
        parts.append(_factor_text(core))
    return negative, "*".join(parts)


def to_text(e: Expr) -> str:
    terms = e.terms if isinstance(e, Sum) else (e,)
    out = []
    for i, t in enumerate(terms):
        negative, body = _term_text(t)
        if i == 0:
            out.append(("-" if negative else "") + body)
        else:
            out.append(("-" if negative else "+") + body)
    return "".join(out)


# ---------------------------------------------------------------------
# Tagged evaluation
# ---------------------------------------------------------------------
#
# Evaluation returns a tuple of candidate values.  A singleton means the
# value is determined; deltaQ at an Unknown tag yields the indeterminate
# pair {0, 1}, which propagates as a small candidate set.

_MAX_CANDIDATES = 4

Candidates = tuple

_ZERO_T = TaggedReal.exact(0)
_ONE_T = TaggedReal.exact(1)
# deltaQ's candidate tuples; a TaggedReal is immutable, so they are shared
_DELTA_RATIONAL = (_ZERO_T,)
_DELTA_IRRATIONAL = (_ONE_T,)
_DELTA_UNKNOWN = (_ZERO_T, _ONE_T)


def _dedupe(cands: Sequence[TaggedReal]) -> Candidates:
    seen = []
    for c in cands:
        if not any(_same(c, s) for s in seen):
            seen.append(c)
    if len(seen) > _MAX_CANDIDATES:
        return (TaggedReal.opaque(),)
    return tuple(seen)


def _same(a: TaggedReal, b: TaggedReal) -> bool:
    if a.is_exact and b.is_exact:
        return a.value == b.value
    return a.value == b.value and a.tag == b.tag and a.transcendental == b.transcendental


def _combine(xs: Candidates, ys: Candidates, op) -> Candidates:
    return _dedupe([op(x, y) for x in xs for y in ys])


def _map(xs: Candidates, fn) -> Candidates:
    out = []
    for x in xs:
        r = fn(x)
        out.extend(r if isinstance(r, tuple) else (r,))
    return _dedupe(out)


def _abs_tagged(x: TaggedReal) -> TaggedReal:
    if x.is_exact:
        # an exact x >= 0 is its own absolute value
        return x if x.value.sign() >= 0 else TaggedReal.exact(-x.value)
    value = None if x.value is None else abs(x.value)
    return TaggedReal(value, x.tag, x.transcendental)


def _delta_tagged(x: TaggedReal) -> Candidates:
    if x.tag == Tag.RATIONAL:
        return _DELTA_RATIONAL
    if x.tag == Tag.IRRATIONAL:
        return _DELTA_IRRATIONAL
    return _DELTA_UNKNOWN


def _h1_float(fx: Optional[float]) -> Optional[float]:
    """exp(-1/fx^2), or None when it cannot be formed: fx is None, or so
    small that its square is 0.0."""
    if fx is None:
        return None
    try:
        return math.exp(-1.0 / (fx * fx))
    except ZeroDivisionError:
        return None


def _h1_tagged(x: TaggedReal, approx: bool = True) -> TaggedReal:
    """H1(x) = exp(-1/x^2) for x > 0, and 0 for x <= 0.

    With ``approx`` false an inexact result carries no float; its tag and
    transcendental flag are the same.  At an exact x = (p + q sqrt2)/d > 0
    that path forms no number: x^2 = (p^2 + 2q^2 + 2pq sqrt2)/d^2 is
    rational iff pq = 0, and then -1/x^2 is a nonzero rational, whose exp
    the axiom table tags (``numbers.exp_of_nonzero_rational``).  An
    irrational x^2 leaves the tag Unknown on both paths.
    """
    v = x.value
    if not approx and type(v) is QSqrt2:
        if sign_of_parts(v.p, v.q) <= 0:
            return _ZERO_T
        return exp_of_nonzero_rational() if v.p == 0 or v.q == 0 else TaggedReal.opaque()
    s = x.sign()
    if s is not None and s <= 0:
        return _ZERO_T
    if s is not None:  # exact positive
        sq = v * v
        if sq.is_rational:
            return exp_tagged(TaggedReal.exact(-sq.inverse()))
        return TaggedReal(_h1_float(x.float_value()), Tag.UNKNOWN)
    if x.value is None or not approx:
        return TaggedReal.opaque()
    fx = x.value
    return TaggedReal(0.0 if fx <= 0 else _h1_float(fx), Tag.UNKNOWN)


def _w_tagged(x: TaggedReal) -> TaggedReal:
    return add_tagged(mul_tagged(TaggedReal.exact(W_SLOPE), x), TaggedReal.exact(W_OFFSET))


def _bar_gamma_tagged(x: TaggedReal, ref, approx: bool = True) -> TaggedReal:
    """w(f(x)) for the matching map f of ``ref``.  With ``approx`` false an
    inexact result carries no float; its tag is the same."""
    if ref is None:
        return TaggedReal.opaque()
    if x.is_exact:
        if x.value.is_zero:
            return TaggedReal.exact(INV_SQRT2)
        return TaggedReal.exact(W_SLOPE * ref.eval_exact(x.value) + W_OFFSET)
    fv = x.float_value() if approx else None
    value = None if fv is None else float(W_SLOPE) * ref.eval_float(fv) + float(W_OFFSET)
    if x.transcendental:
        # A nonconstant polynomial with coefficients in Q(sqrt2) maps a
        # transcendental number to a transcendental number, and the affine
        # map w preserves that.
        return TaggedReal.certified_transcendental(value)
    return TaggedReal.opaque() if value is None else TaggedReal(value, Tag.UNKNOWN)


def _children(e: Expr) -> tuple:
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Prod):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, App):
        return (e.arg,)
    return ()


def _fold(parts: Iterable[Candidates], start: TaggedReal, op) -> Candidates:
    """Fold ``op`` over candidate tuples from the identity ``start``."""
    out = (start,)
    for c in parts:
        if len(out) == 1 and len(c) == 1:
            # the identity op'd with an exact value is that value
            out = c if out[0] is start and c[0].is_exact else (op(out[0], c[0]),)
        else:
            out = _combine(out, c, op)
    return out


def _apply(e: Expr, kids: Sequence[Candidates], x: TaggedReal) -> Candidates:
    """The candidates of node ``e`` at ``x``, given the candidates of its
    children in the order ``_children`` lists them."""
    if isinstance(e, Const):
        return (TaggedReal.exact(e.value),)
    if isinstance(e, Var):
        return (x,)
    if isinstance(e, Sum):
        return _fold(kids, _ZERO_T, add_tagged)
    if isinstance(e, Prod):
        return _fold(kids, _ONE_T, mul_tagged)
    if isinstance(e, Pow):
        return _fold(repeat(kids[0], e.exponent), _ONE_T, mul_tagged)
    if isinstance(e, App):
        (arg,) = kids
        return _app_candidates(_app_fn(e), arg)
    raise ExprError(f"cannot evaluate {e!r}")


def _app_fn(e: App, approx: bool = True):
    """The function evaluating App node ``e`` at one candidate of its
    argument; raises ExprError for a name this module cannot evaluate.
    Each name is read from the module globals when this runs, so a plan
    built after a wrapper is installed on the module calls the wrapper.
    With ``approx`` false, the names in ``_TAG_ONLY`` evaluate without
    their float (see ``Plan``)."""
    name = e.name
    if name == "abs":
        return _abs_tagged
    if name == "exp":
        return exp_tagged if approx else partial(exp_tagged, approx=False)
    if name == "sqrt":
        return sqrt_tagged
    if name == "deltaQ":
        return _delta_tagged
    if name == "H1":
        return _h1_tagged if approx else partial(_h1_tagged, approx=False)
    if name == "w":
        return _w_tagged
    if name == "barGamma":
        ref = e.ref
        return lambda t: _bar_gamma_tagged(t, ref, approx)
    if name == "gamma":
        return lambda t: TaggedReal.opaque()
    raise ExprError(f"cannot evaluate {e!r}")


def _app_candidates(fn, arg: Candidates) -> Candidates:
    if len(arg) == 1:
        r = fn(arg[0])
        return r if isinstance(r, tuple) else (r,)
    return _map(arg, fn)


def eval_candidates(e: Expr, x: TaggedReal) -> Candidates:
    return _apply(e, [eval_candidates(c, x) for c in _children(e)], x)


def _node_key(e: Expr, kids: tuple) -> tuple:
    """Equal keys mean equal subtrees, given the children's plan slots.
    A barGamma node is keyed by the identity of its map."""
    if isinstance(e, Const):
        return ("c", e.value)
    if isinstance(e, Var):
        return ("x",)
    if isinstance(e, Sum):
        return ("+", kids)
    if isinstance(e, Prod):
        return ("*", kids)
    if isinstance(e, Pow):
        return ("^", e.exponent, kids)
    if isinstance(e, App):
        return ("a", e.name, id(e.ref), kids)
    return ("?", id(e))


# Functions that never read their argument's float, nor decide a tag
# from their own, when asked for no float
_TAG_ONLY = ("H1", "exp", "barGamma")


def _generic_column(e: Expr, kids: tuple, cols, xs: Sequence) -> list:
    """``_apply`` at each point to the children's values there, or the
    exception of the first child that raised there, or of ``_apply``."""
    out: list = []
    for i, x in enumerate(xs):
        args = [cols[k][i] for k in kids]
        failed = [a for a in args if isinstance(a, Exception)]
        if failed:
            out.append(failed[0])
            continue
        try:
            out.append(_apply(e, args, x))
        except Exception as exc:  # whatever eval_candidates would raise at that point
            out.append(exc)
    return out


def _app_column(fn, arg: int, cols, xs: Sequence) -> list:
    """fn down the argument's column, once per distinct single candidate:
    points that hold the same candidate object share one result.  The
    column keeps every candidate alive, so no id is reused within the
    step.  Where the argument raised, its exception stands.  Where fn
    raises, nothing is kept, and each point that holds that candidate
    calls fn again and records its own exception."""
    done: dict = {}  # id of a single candidate -> fn's result, as candidates
    out: list = []
    for arg_cands in cols[arg]:
        if type(arg_cands) is not tuple:  # the argument's exception
            out.append(arg_cands)
            continue
        key = id(arg_cands[0]) if len(arg_cands) == 1 else None
        r = done.get(key)
        if r is None:
            try:
                r = _app_candidates(fn, arg_cands)
            except Exception as exc:  # as in _generic_column
                r = exc
            else:
                if key is not None:
                    done[key] = r
        out.append(r)
    return out


def _point_column(fn, cols, xs: Sequence) -> list:
    """fn at each point of a block, for a function of x itself: a grid block
    wraps each point afresh, so no result is shared; a raise stays at its point."""
    out: list = []
    for x in xs:
        try:
            r = fn(x)
        except Exception as exc:  # as in _generic_column
            out.append(exc)
        else:
            out.append(r if isinstance(r, tuple) else (r,))
    return out


def _compile_step(e: Expr, kids: tuple, floats: bool):
    """The step evaluating plan node ``e``, whose children sit in slots
    ``kids``, with its float if ``floats``: a map from the plan's columns
    by slot and a block of points to the node's column, its candidates
    at each point or the exception evaluating it there raises."""
    if isinstance(e, Var):
        return lambda cols, xs: [(x,) for x in xs]
    if isinstance(e, App):
        try:
            fn = _app_fn(e, approx=floats)
        except ExprError:
            return partial(_generic_column, e, kids)  # raises at each point, as _apply does
        return partial(_point_column, fn) if isinstance(e.arg, Var) else partial(_app_column, fn, kids[0])
    return partial(_generic_column, e, kids)


class Plan:
    """Evaluate a fixed list of trees at many points, sharing the work.

    Construction numbers the distinct nodes of ``exprs`` children first,
    in the order ``eval_candidates`` first reaches them, so equal
    subtrees become one node, across trees as within one.  Nodes free of
    x are evaluated here, once; one that raises is kept for the blocks
    instead, so a plan never evaluated raises nothing.  Each other node
    becomes a step (``_compile_step``), a function node's function read
    from the module globals now: a plan built after a wrapper is
    installed calls the wrapper.  ``columns`` runs each step once over a
    block of points, children before parents: a function of x at each
    point, any other function step once per distinct argument object in
    the block (H1 without its float gives a few shared values, so
    deltaQ(H1(x)) runs about twice per block), and a sum, product or
    power by ``_apply`` at each point.

    Floats are computed only where they are read (the demand rule): at a
    root, or at a child of a node that reads floats.  deltaQ reads only
    its argument's tag.  An H1, exp or barGamma node whose float no
    reader needs is compiled without it and reads only its argument's
    exact value, tag and transcendental flag: at an exact x > 0, H1 reads
    the tag of exp(-1/x^2) off x's parts and the axiom table, and an exp
    or barGamma result without a float is one shared value.  Its exact
    value, tag and flag are the full step's.  It may merge candidates
    that differed only in their floats, but such a node is never a root,
    its readers read only what it keeps, and a map never grows a set, so
    nothing collapses to opaque; none of the three decides a tag from a
    float, so every root's outcome and error are unchanged.

    Errors are kept per node and per point.  A node that raises at a
    point holds the exception there and goes on with the other points; a
    node above it holds there the exception of its first child that
    raised, the one ``eval_candidates`` meets first.  So each tree's
    outcome at a point is what ``eval_candidates`` gives for that tree
    alone there, its candidates or the exception it raises, whatever the
    other trees and points of the block do.
    """

    def __init__(self, exprs: Sequence[Expr]):
        exprs = tuple(exprs)  # keeps every node alive, so no id is reused
        slot_by_key: dict = {}
        slot_by_id: dict = {}
        nodes: list = []  # (node, children's slots, contains x)

        def visit(e: Expr) -> int:
            slot = slot_by_id.get(id(e))
            if slot is None:
                kids = tuple(visit(c) for c in _children(e))
                key = _node_key(e, kids)
                slot = slot_by_key.get(key)
                if slot is None:
                    slot = slot_by_key[key] = len(nodes)
                    # the variable, and a node kind this module does not know, vary
                    varies = key[0] in ("x", "?") or any(nodes[k][2] for k in kids)
                    nodes.append((e, kids, varies))
                slot_by_id[id(e)] = slot
            return slot

        self._roots = [visit(e) for e in exprs]
        # Which slots some reader needs the float of: the roots, and the
        # children of every node that reads floats.  Parents sit after
        # their children, so every reader of a slot is settled before it.
        floats = [False] * len(nodes)
        for root in self._roots:
            floats[root] = True
        for slot in reversed(range(len(nodes))):
            node, kids, _ = nodes[slot]
            if isinstance(node, App) and (
                node.name == "deltaQ" or (node.name in _TAG_ONLY and not floats[slot])
            ):
                continue  # reads its argument's tag and exact value only
            for k in kids:
                floats[k] = True
        values: list = []  # per slot: candidates if evaluated once here, else None
        for node, kids, varies in nodes:
            value = None
            if not varies and all(values[k] is not None for k in kids):
                try:
                    value = _apply(node, [values[k] for k in kids], None)
                except Exception:  # raised again at each point that reaches it
                    pass
            values.append(value)
        self._constants = [(slot, value) for slot, value in enumerate(values) if value is not None]
        self._slots = len(nodes)
        self._steps = [  # (slot, step) to run at each block
            (slot, _compile_step(node, kids, floats[slot]))
            for slot, (node, kids, _) in enumerate(nodes)
            if values[slot] is None
        ]

    def columns(self, xs: Sequence[TaggedReal]) -> list:
        """Per tree, its outcome at each point of ``xs``: its candidates
        there, or the exception evaluating it alone there raises."""
        n = len(xs)
        cols: list = [None] * self._slots
        for slot, value in self._constants:
            cols[slot] = [value] * n
        for slot, step in self._steps:
            cols[slot] = step(cols, xs)
        return [cols[root] for root in self._roots]


def replay_zero_forms(checks: Sequence, blocks: Iterable, judge) -> list:
    """Replay ``checks`` on blocks of exact points as zero tests of
    linear forms in their trees, and return each check's result.

    A check is (its trees, its forms), a form a list of (tree, scale)
    pairs that must sum to zero at every point; ``blocks`` yields
    (points, the points as exact ``TaggedReal``s).  Each form is read as
    a linear combination of products of factors (``_read``), forms equal
    up to a nonzero scalar are one, and one ``Plan`` evaluates the
    distinct factors block by block.  Per block, each form gets one
    integer zero test (``numbers.zero_prefix``) up to the first point
    where a factor it reads is not one exact value.  A check is suspect
    at the first point where a factor its forms read is not exact, before
    any term cancels, or where one of its forms is nonzero.  There its
    trees' outcomes are assembled from the factor columns (``_assemble``)
    and ``judge(i, x, outcomes)`` words check i's verdict at point x:
    None clears the point and the scan resumes after it; anything else is
    the check's result, and ends its scan.  Suspect points are judged in
    point order and, at one point, in check order; what ``judge`` raises
    propagates.  No block is evaluated once every check has a result.
    """
    factors: dict = {}  # factor subtree -> its index, in the order first read
    forms: dict = {}  # normalised form -> its index
    scans = []  # per check: (its trees, the factors its forms read, its distinct forms)
    for trees, check_forms in checks:
        reads, own = set(), set()
        for pairs in check_forms:
            form: dict = {}
            for tree, scale in pairs:
                _read(tree, scale, form, factors)
            # a term that cancels still reads its factors
            reads.update(k for monomial in form for k in monomial)
            own.add(_form_index(form, forms))
        own.discard(None)  # a form that is zero as written needs no test
        scans.append((trees, tuple(sorted(reads)), sorted(own)))
    form_terms = list(forms)
    plan = Plan(list(factors))
    results: list = [None] * len(scans)
    pending = range(len(scans))
    for block, tagged in blocks:
        columns = plan.columns(tagged)
        n = len(block)
        # per factor, the points where it is not one exact value, then n
        inexact = [
            [i for i, cands in enumerate(column)
             if type(cands) is not tuple or len(cands) != 1 or type(cands[0].value) is not QSqrt2] + [n]
            for column in columns
        ]

        def next_inexact(slots, start: int) -> int:
            # the first point from ``start`` where a factor of ``slots`` is not exact, or n
            return min((inexact[k][bisect_left(inexact[k], start)] for k in slots), default=n)

        zeros: dict = {}  # form -> (a start, its first nonzero point from there)

        def first_nonzero(f: int, start: int) -> int:
            # the first point from ``start`` where form f is nonzero or a factor
            # it reads is not exact, or n; one test serves every check holding f
            zero = zeros.get(f)
            if zero is None or not zero[0] <= start <= zero[1]:
                terms = form_terms[f]
                stop = next_inexact({k for monomial, _ in terms for k in monomial}, start)
                rows = [(c, *(columns[k] for k in monomial)) for monomial, c in terms]
                zero = zeros[f] = (start, zero_prefix(rows, stop, start))
            return zero[1]

        def suspect(reads, own, start: int) -> int:
            return min([next_inexact(reads, start)] + [first_nonzero(f, start) for f in own])

        heap = [(suspect(*scans[i][1:], 0), i) for i in pending]
        heapify(heap)
        while heap and heap[0][0] < n:
            at, i = heappop(heap)
            trees, reads, own = scans[i]
            outcomes = []
            for e in trees:
                try:
                    outcomes.append(_assemble(e, tagged[at], at, factors, columns))
                except Exception as exc:  # what evaluating the tree alone raises
                    outcomes.append(exc)
            results[i] = judge(i, block[at], outcomes)
            if results[i] is None:  # cleared: scan on after it
                heappush(heap, (suspect(reads, own, at + 1), i))
        pending = [i for i in pending if results[i] is None]
        if not pending:
            break
    return results


def _read(e: Expr, scale: QSqrt2, form: dict, factors: dict) -> None:
    """Add ``scale`` times tree ``e`` to ``form``, read as a linear
    combination of products of factors.  A sum is read term by term, and
    a product with one child that is not a constant as that child,
    scaled.  Any other product is one monomial of its non-constant
    children, and any other node a monomial of one factor.  ``form`` maps
    each monomial, the sorted indices its factors have in ``factors``
    (which gains each new factor), to its coefficient; a monomial whose
    terms cancel stays, with coefficient 0."""
    if isinstance(e, Sum):
        for term in e.terms:
            _read(term, scale, form, factors)
        return
    parts = e.factors if isinstance(e, Prod) else (e,)
    rest = [f for f in parts if not isinstance(f, Const)]
    for f in parts:
        if isinstance(f, Const):
            scale = f.value if scale == ONE else scale * f.value
    if len(rest) == 1 and isinstance(e, Prod):
        _read(rest[0], scale, form, factors)
        return
    monomial = tuple(sorted(factors.setdefault(f, len(factors)) for f in rest))
    form[monomial] = form.get(monomial, ZERO) + scale


def _form_index(form: dict, forms: dict) -> Optional[int]:
    """The index in ``forms`` of ``form`` divided by its leading
    coefficient (that of its first monomial in sorted order), added if
    new; None for a form whose every coefficient is 0."""
    terms = sorted((monomial, c) for monomial, c in form.items() if not c.is_zero)
    if not terms:
        return None
    lead = terms[0][1]
    if lead != ONE:
        inverse = lead.inverse()
        terms = [(monomial, c * inverse) for monomial, c in terms]
    return forms.setdefault(tuple(terms), len(forms))


def _assemble(e: Expr, x: TaggedReal, at: int, factors: dict, columns: list) -> Candidates:
    """Tree ``e``'s candidates at ``x``, index ``at`` of the factor
    columns, as ``eval_candidates`` gives them, or what it raises: each
    node above the factors is ``_apply``'d, so no function is called."""
    k = factors.get(e)
    if k is None:
        return _apply(e, [_assemble(c, x, at, factors, columns) for c in _children(e)], x)
    outcome = columns[k][at]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def eval_tagged(e: Expr, x: TaggedReal):
    """Evaluate; returns a TaggedReal, or a tuple of candidates when the
    value is indeterminate (deltaQ at an Unknown tag)."""
    cands = eval_candidates(e, x)
    return cands[0] if len(cands) == 1 else cands


def eval_exact(e: Expr, x) -> QSqrt2:
    """Evaluate at an exact point, demanding an exact single value."""
    r = eval_tagged(e, TaggedReal.exact(x))
    if isinstance(r, tuple) or not r.is_exact:
        raise ExprError(f"no exact value for {to_text(e)} at {x}")
    return r.value


# ---------------------------------------------------------------------
# Differentiation (smooth fragment) and one-sided derivatives
# ---------------------------------------------------------------------

NONSMOOTH_PRIMITIVES = ("abs", "deltaQ", "gamma")


def is_smooth_expr(e: Expr) -> bool:
    """True when the tree uses smooth primitives only.

    sqrt is not counted smooth: it fails to be so at the boundary of its
    domain and is only ever certified inside recognized patterns.
    """
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Sum):
        return all(is_smooth_expr(t) for t in e.terms)
    if isinstance(e, Prod):
        return all(is_smooth_expr(f) for f in e.factors)
    if isinstance(e, Pow):
        return is_smooth_expr(e.base)
    if isinstance(e, App):
        if e.name in NONSMOOTH_PRIMITIVES or e.name == "sqrt":
            return False
        return is_smooth_expr(e.arg)
    return False


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative on the smooth fragment."""
    if isinstance(e, Const):
        return ZERO_E
    if isinstance(e, Var):
        return ONE_E
    if isinstance(e, Sum):
        return make_sum([differentiate(t) for t in e.terms])
    if isinstance(e, Prod):
        terms = []
        for i in range(len(e.factors)):
            fs = list(e.factors)
            fs[i] = differentiate(fs[i])
            terms.append(make_prod(fs))
        return make_sum(terms)
    if isinstance(e, Pow):
        return make_prod(
            [const(e.exponent), make_pow(e.base, e.exponent - 1) if e.exponent > 1 else ONE_E,
             differentiate(e.base)]
        )
    if isinstance(e, App):
        inner = differentiate(e.arg)
        if e.name == "exp":
            return make_prod([e, inner])
        if e.name == "w":
            return make_prod([Const(W_SLOPE), inner])
        if e.name == "barGamma":
            if e.ref is None:
                raise NotDifferentiableError("barGamma without a constructed map")
            dpoly = e.ref.derivative_expr(e.arg)
            return make_prod([Const(W_SLOPE), dpoly, inner])
        if e.name == "H1":
            raise NotDifferentiableError(
                "H1 is smooth but its derivative leaves the expression language; "
                "use one_sided_derivative at specific points"
            )
        if e.name == "sqrt":
            raise NotDifferentiableError("sqrt derivative leaves the expression language")
        raise NotDifferentiableError(f"{e.name} is not a smooth primitive")
    raise ExprError(f"cannot differentiate {e!r}")


def one_sided_derivative(e: Expr, x0, side: int) -> TaggedReal:
    """One-sided derivative at an exact point (side +1 right, -1 left).

    Supports the smooth fragment plus abs/H1 at points where their
    argument vanishes; that is all the witness machinery needs.
    """
    x0 = QSqrt2.coerce(x0)
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    if is_smooth_expr(e):
        try:
            d = differentiate(e)
        except NotDifferentiableError:
            d = None  # smooth but outside the differentiable fragment (H1)
        if d is not None:
            r = eval_tagged(d, TaggedReal.exact(x0))
            if isinstance(r, tuple):
                raise NotDifferentiableError("indeterminate derivative value")
            return r
    if isinstance(e, Sum):
        total = TaggedReal.exact(0)
        for t in e.terms:
            total = add_tagged(total, one_sided_derivative(t, x0, side))
        return total
    coef, core = _split_coefficient(e)
    if coef != ONE:
        return mul_tagged(TaggedReal.exact(coef), one_sided_derivative(core, x0, side))
    if isinstance(e, App) and e.name == "abs" and is_smooth_expr(e.arg):
        v = eval_exact(e.arg, x0)
        du = one_sided_derivative(e.arg, x0, side)
        if v.sign() != 0:
            return mul_tagged(TaggedReal.exact(v.sign()), du)
        # |u| near a zero of u: the sign of u on the chosen side is the
        # sign of side * u'(x0) when u'(x0) != 0.
        if du.is_exact and du.value.sign() != 0:
            return mul_tagged(TaggedReal.exact(side * du.value.sign()), du)
        if du.is_exact and du.value.is_zero:
            return TaggedReal.exact(0)
        raise NotDifferentiableError("cannot decide the sign of the inner map")
    if isinstance(e, App) and e.name == "H1":
        v = eval_exact(e.arg, x0) if is_smooth_expr(e.arg) else None
        if v is not None and v.sign() < 0:
            return TaggedReal.exact(0)
        if v is not None and v.sign() == 0:
            # e^{-1/t^2} is flat at 0: both one-sided derivatives vanish.
            return TaggedReal.exact(0)
        raise NotDifferentiableError("H1 derivative away from the seam is not exact")
    raise NotDifferentiableError(f"one-sided derivative unsupported for {to_text(e)}")


# ---------------------------------------------------------------------
# Non-smooth terms
# ---------------------------------------------------------------------

ABS_KIND = "abs"
DELTA_KIND = "delta"
DELTA_SQRT_KIND = "delta_sqrt"
GAMMA_KIND = "gamma"

ATOM_EXPRS = {
    ABS_KIND: App("abs", X),
    DELTA_KIND: App("deltaQ", X),
    DELTA_SQRT_KIND: App("deltaQ", App("sqrt", App("abs", X))),
    GAMMA_KIND: App("gamma", X),
}
_ATOM_BY_EXPR = {v: k for k, v in ATOM_EXPRS.items()}


def exotic_terms(e: Expr) -> dict:
    """The non-smooth terms of e, the one reading of them that the fact
    base, the classifier and the combination solve share.

    Each term of ``linear_terms`` (a constant times a sum is read term by
    term) counts under its atom's kind when its core is an atom, under its
    own tree when no atom names it (x*abs(x), abs(-x)), and nowhere when
    its core is smooth.  Coefficients of one key add, and a key whose
    coefficient is zero is dropped, so terms that cancel leave nothing."""
    coeffs: dict = {}
    for c, core in linear_terms(e):
        key = _ATOM_BY_EXPR.get(core)
        if key is None:
            if is_smooth_expr(core):
                continue
            key = core
        coeffs[key] = coeffs.get(key, ZERO) + c
    return {key: c for key, c in coeffs.items() if not c.is_zero}


def unnamed_terms(terms: dict) -> list:
    """The terms of an ``exotic_terms`` reading that no atom names, each as
    its coefficient times its tree."""
    return [make_prod([Const(c), key]) for key, c in terms.items() if key not in ATOM_EXPRS]


def _delta_part(terms: dict) -> Expr:
    """The indicator part cd*deltaQ(x) + cs*deltaQ(sqrt|x|) of an
    ``exotic_terms`` reading: the curve a dense-discontinuity witness
    evaluates."""
    kinds = (DELTA_KIND, DELTA_SQRT_KIND)
    return make_sum([make_prod([Const(terms.get(k, ZERO)), ATOM_EXPRS[k]]) for k in kinds])


# ---------------------------------------------------------------------
# Smoothness classification
# ---------------------------------------------------------------------


class Smoothness(str, Enum):
    SMOOTH = "Smooth"
    NONSMOOTH = "NonSmooth"
    UNKNOWN = "Unknown"


@dataclass
class SmoothnessVerdict:
    status: Smoothness
    witness: Optional[dict] = None
    derivation: tuple = ()
    axioms_used: tuple = ()

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "witness": self.witness,
            "derivation": list(self.derivation),
            "axioms_used": list(self.axioms_used),
        }


AXIOM_A = "A"
AXIOM_SQRT_IMPLICATION = "sqrt-implication"


def _delta_factor_split(term: Expr):
    """Split a term into (cofactor expr, deltaQ argument) when the term is
    a product with exactly one deltaQ factor; None otherwise."""
    factors = term.factors if isinstance(term, Prod) else (term,)
    delta_args = [f.arg for f in factors if isinstance(f, App) and f.name == "deltaQ"]
    if len(delta_args) != 1:
        return None
    rest = [f for f in factors if not (isinstance(f, App) and f.name == "deltaQ")]
    cofactor = make_prod(rest) if rest else ONE_E
    if not is_smooth_expr(cofactor):
        return None
    return cofactor, delta_args[0]


@dataclass
class PiecewiseRewrite:
    """Result of cancelling a matched pair of deltaQ terms.

    ``branches`` maps a region label to the expression the input is
    pointwise equal to on that region.
    """

    branches: dict
    axioms_used: tuple
    derivation: tuple


def rewrite_delta_cancellation(e: Expr, link) -> PiecewiseRewrite:
    """Cancel h*deltaQ(A) - h*deltaQ(B) against a certified rationality
    link between A and B.

    On the link region the matched pair contributes zero; on the
    complement both inner maps are constant and the deltaQ factors
    evaluate to exact constants.
    """
    terms = list(e.terms) if isinstance(e, Sum) else [e]
    splits = [(_delta_factor_split(t), i) for i, t in enumerate(terms)]
    pair = None
    exprs = {link.expr_a, link.expr_b}
    for si, i in splits:
        if si is None:
            continue
        for sj, j in splits:
            if sj is None or j <= i:
                continue
            if {si[1], sj[1]} == exprs and si[0] == make_neg(sj[0]):
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        # unconditional syntactic cancellation h*d(A) - h*d(A)
        for si, i in splits:
            if si is None:
                continue
            for sj, j in splits:
                if sj is None or j <= i:
                    continue
                if si[1] == sj[1] and si[0] == make_neg(sj[0]):
                    rest = [t for k, t in enumerate(terms) if k not in (i, j)]
                    out = make_sum(rest) if rest else ZERO_E
                    return PiecewiseRewrite(
                        {"all": out}, (), ("syntactic cancellation of identical deltaQ terms",)
                    )
        raise ExprError("no matched deltaQ pair covered by the link")
    i, j = pair
    rest = [t for k, t in enumerate(terms) if k not in (i, j)]
    on_region = make_sum(rest) if rest else ZERO_E
    # complement: each inner map is constant there, so its deltaQ factor
    # is the exact indicator value of that constant
    mapping = {}
    for arg_expr, value in link.constant_branch.items():
        indicator = 0 if QSqrt2.coerce(value).is_rational else 1
        mapping[App("deltaQ", arg_expr)] = const(indicator)
    off_region = make_sum([substitute(t, mapping) for t in terms])
    return PiecewiseRewrite(
        {link.region: on_region, link.complement_region: off_region},
        tuple(link.axioms_used),
        (
            f"matched deltaQ pair cancelled on {link.region} via the rationality link",
            f"constant branch values substituted on {link.complement_region}",
        ),
    )


def classify_smoothness(e: Expr, links=(), axioms: frozenset = frozenset()) -> SmoothnessVerdict:
    """Sound, incomplete three-valued smoothness classification.

    Smooth verdicts carry a derivation; NonSmooth verdicts carry a
    machine-checkable witness; everything else is Unknown.
    """
    if is_smooth_expr(e):
        return SmoothnessVerdict(Smoothness.SMOOTH, derivation=("built from smooth primitives",))

    for link in links:
        try:
            rw = rewrite_delta_cancellation(e, link)
        except ExprError:
            continue
        branch_verdicts = {
            region: classify_smoothness(be, links=(), axioms=axioms)
            for region, be in rw.branches.items()
        }
        if all(v.status == Smoothness.SMOOTH for v in branch_verdicts.values()):
            deriv = rw.derivation + tuple(
                f"branch {region}: {to_text(be)}" for region, be in rw.branches.items()
            )
            return SmoothnessVerdict(
                Smoothness.SMOOTH,
                derivation=deriv,
                axioms_used=tuple(sorted(set(rw.axioms_used))),
            )

    terms = exotic_terms(e)
    if unnamed := unnamed_terms(terms):
        return SmoothnessVerdict(
            Smoothness.UNKNOWN,
            derivation=tuple(f"unrecognized exotic term: {to_text(t)}" for t in unnamed),
        )
    if not terms:
        return SmoothnessVerdict(Smoothness.SMOOTH, derivation=("exotic coefficients all vanish",))

    if GAMMA_KIND in terms:
        if AXIOM_A not in axioms:
            return SmoothnessVerdict(
                Smoothness.UNKNOWN,
                derivation=("gamma term present and axiom A not assumed",),
            )
        return SmoothnessVerdict(
            Smoothness.NONSMOOTH,
            witness={
                "kind": "axiom-nonsmooth-generator",
                "gamma_coefficient": str(terms[GAMMA_KIND]),
                "abs_coefficient": str(terms.get(ABS_KIND, ZERO)),
            },
            derivation=(
                "under axiom A the abs- and gamma-parts must separately be smooth, "
                "and gamma itself is not smooth",
            ),
            axioms_used=(AXIOM_A,),
        )

    if DELTA_KIND in terms or DELTA_SQRT_KIND in terms:
        # Dense-family discontinuity: on rationals with rational square
        # root the delta part is 0; on rationals with irrational root it
        # is cs; on irrationals it is cd + cs.  A smooth function minus a
        # continuous part cannot take different constants on dense sets.
        pts = {
            "rational, rational sqrt (x=4)": QSqrt2.coerce(4),
            "rational, irrational sqrt (x=2)": QSqrt2.coerce(2),
            "irrational (x=sqrt2)": QSqrt2.sqrt2(),
        }
        delta_part = _delta_part(terms)
        values = {label: eval_exact(delta_part, p) for label, p in pts.items()}
        return SmoothnessVerdict(
            Smoothness.NONSMOOTH,
            witness={
                "kind": "dense-discontinuity",
                "delta_part": to_text(delta_part),
                "points": {label: str(p) for label, p in pts.items()},
                "values": {label: str(v) for label, v in values.items()},
            },
            derivation=(
                "the indicator part takes different constant values on dense families",
            ),
        )

    # pure abs obstruction: one-sided derivative mismatch at the kink
    c = terms[ABS_KIND]
    try:
        left = one_sided_derivative(e, ZERO, -1)
        right = one_sided_derivative(e, ZERO, +1)
    except NotDifferentiableError as exc:
        return SmoothnessVerdict(
            Smoothness.UNKNOWN,
            derivation=(f"one-sided derivatives of {to_text(e)} at 0 undecided: {exc}",),
        )
    return SmoothnessVerdict(
        Smoothness.NONSMOOTH,
        witness={
            "kind": "one-sided-derivative-mismatch",
            "point": "0",
            "left": str(left.value),
            "right": str(right.value),
            "gap": str(right.value - left.value) if left.is_exact and right.is_exact else None,
        },
        derivation=(f"abs coefficient {c} produces a derivative jump of {2 * c} at 0",),
    )


def verify_nonsmooth_witness(e: Expr, verdict: SmoothnessVerdict, axioms: frozenset = frozenset()) -> bool:
    """Replay a NonSmooth witness from its stored data alone."""
    if verdict.status != Smoothness.NONSMOOTH or verdict.witness is None:
        return False
    w = verdict.witness
    if w["kind"] == "one-sided-derivative-mismatch":
        left = one_sided_derivative(e, ZERO, -1)
        right = one_sided_derivative(e, ZERO, +1)
        return (
            left.is_exact
            and right.is_exact
            and str(left.value) == w["left"]
            and str(right.value) == w["right"]
            and left.value != right.value
        )
    if w["kind"] == "dense-discontinuity":
        terms = exotic_terms(e)
        if unnamed_terms(terms):
            return False
        delta_part = _delta_part(terms)
        values = {label: eval_exact(delta_part, parse_qsqrt2(p)) for label, p in w["points"].items()}
        if {label: str(v) for label, v in values.items()} != w["values"]:
            return False
        return len({str(v) for v in values.values()}) > 1
    if w["kind"] == "axiom-nonsmooth-generator":
        # the caller must assume axiom A itself; the witness cannot supply it
        if AXIOM_A not in axioms:
            return False
        terms = exotic_terms(e)
        return not unnamed_terms(terms) and GAMMA_KIND in terms
    return False
