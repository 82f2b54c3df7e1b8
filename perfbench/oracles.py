"""Answers the benchmark knows without asking smoothsum.

Nothing here imports smoothsum.  Elements of Q(sqrt2) are pairs (a, b) of
Fractions standing for a + b*sqrt2, with their own arithmetic, so a
verdict is judged by code that shares nothing with the code under test.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# ---------------------------------------------------------------------
# Q(sqrt2) as (a, b) pairs
# ---------------------------------------------------------------------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def q_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def q_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def q_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q_scale(k, x):
    return (k * x[0], k * x[1])


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


def q_sign(x) -> int:
    """Exact sign of a + b*sqrt2: compare a^2 with 2b^2 when the signs differ."""
    a, b = x
    sa, sb = _sgn(a), _sgn(b)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > 2 * b * b else sb


def q_abs(x):
    return q_scale(-1, x) if q_sign(x) < 0 else x


_Q_TEXT = re.compile(
    r"^(?P<a>-?\d+(?:/\d+)?)?"
    r"(?:(?P<sign>[+-])?(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt2)?$"
)


def parse_q(text: str):
    """Parse the report's `a+b*sqrt2` text form."""
    m = _Q_TEXT.match(text)
    if not m or not text:
        raise ValueError(f"not an element of Q(sqrt2): {text!r}")
    a = Fraction(m["a"]) if m["a"] else Fraction(0)
    if "sqrt2" not in text:
        return (a, Fraction(0))
    b = Fraction(m["b"]) if m["b"] else Fraction(1)
    return (a, -b if m["sign"] == "-" else b)


# ---------------------------------------------------------------------
# identity-grid: |x| = 2x dQ(H1(x)) - 2x dQ(H2(x)) + x
# ---------------------------------------------------------------------


def identity_candidates(x) -> set:
    """Every value the identity can take when both indicators are unknown:
    (2(d1 - d2) + 1) x for d1, d2 in {0, 1}."""
    return {q_scale(2 * (d1 - d2) + 1, x) for d1 in (0, 1) for d2 in (0, 1)}


# ---------------------------------------------------------------------
# franklin-build: replay the reported steps
# ---------------------------------------------------------------------

INV_SQRT2 = (Fraction(0), Fraction(1, 2))


def w_inverse(q: Fraction):
    """w(t) = (1 - 1/sqrt2) t + 1/sqrt2 is affine, so w^{-1}(q) = (2q-1) + (q-1) sqrt2."""
    return (2 * q - 1, q - 1)


def franklin_errors(doc: dict, n: int) -> list:
    """Replay `smoothsum franklin --n N --json` with exact pair arithmetic.

    Checks w(f(a_k)) = q_k where step k's correction has roots
    {0, 1, a_1, ..., a_{k-1}}, |c_k| <= 2^-k, and a derivative budget
    1 - sum |c_k| * deg_k above 0 that equals the reported lower bound.
    """
    errors = []
    rep = doc["report"]
    steps = rep["franklin"]["steps"]
    link = rep["rationality_link"]
    if len(steps) != n:
        return [f"expected {n} steps, got {len(steps)}"]
    for flag in ("ok", "monotone", "decay", "order_isomorphism"):
        if link[flag] is not True:
            errors.append(f"rationality_link.{flag} is {link[flag]!r}")
    a_seen, coeffs, budget = [], [], ONE
    for k, s in enumerate(steps, start=1):
        a, q = Fraction(s["a"]), Fraction(s["q"])
        b, c = parse_q(s["b"]), parse_q(s["c"])
        roots = [Fraction(0), Fraction(1)] + a_seen
        if s["index"] != k or s["degree"] != len(roots):
            errors.append(f"step {k}: index/degree {s['index']}/{s['degree']}")
        if not 0 < a < 1 or a in a_seen:
            errors.append(f"step {k}: a={a} not a new point of (0,1)")
        if not (q_sign(q_sub((q, Fraction(0)), INV_SQRT2)) > 0 and q < 1):
            errors.append(f"step {k}: q={q} outside (1/sqrt2, 1)")
        coeffs.append((c, roots))
        f_a = (a, Fraction(0))
        for cj, rj in coeffs:
            p = ONE
            for r in rj:
                p = q_mul(p, (a - r, Fraction(0)))
            f_a = q_add(f_a, q_mul(cj, p))
        if f_a != b or b != w_inverse(q):
            errors.append(f"step {k}: w(f({a})) != {q}")
        if q_sign(q_sub((Fraction(1, 2**k), Fraction(0)), q_abs(c))) < 0:
            errors.append(f"step {k}: |c| > 2^-{k}")
        budget = q_sub(budget, q_scale(len(roots), q_abs(c)))
        a_seen.append(a)
    if q_sign(budget) <= 0:
        errors.append("derivative budget not positive")
    if budget != parse_q(rep["franklin"]["derivative_lower_bound"]):
        errors.append("reported derivative lower bound differs from the replayed one")
    return errors


# ---------------------------------------------------------------------
# verdict-mix: expected verdict fields, from the claims in PAPER.md
# ---------------------------------------------------------------------

UNDECIDED = ("Unknown",)


def _cor25(rep):
    dirs = rep["directions"]
    return len(dirs) == 20 and all(d["classification"]["status"] == "NonSmooth" for d in dirs)


# id -> (argv, headline path, {path: expected value or predicate}).
# The headline is the verdict a user reads; "Unknown" there is undecided.
# analyze gamma-pair and analyze sqrt-delta must stay undecided: their
# claims hold only under axiom A and the conjectural sqrt implication,
# which these commands do not assume.
VERDICT_MIX = {
    "scenario lemma-2.2": (
        ["scenario", "lemma-2.2", "--json"],
        "dual.status",
        {"dual.status": "exact", "dual.dim": 0, "isotropic.subspace.dim": 2},
    ),
    "scenario thm-2.3": (
        ["scenario", "thm-2.3", "--json"],
        "decomposition.status",
        {
            "decomposition.status": "SmoothCertified",
            "identity.ok": True,
            "identity.checked": 1101,
            "rationality_link.ok": True,
            "rationality_link.monotone": True,
            "axioms_used": ["exp-transcendence"],
        },
    ),
    "scenario cor-2.5": (
        ["scenario", "cor-2.5", "--json"],
        "all_nonsmooth",
        {"all_nonsmooth": True, "": _cor25},
    ),
    "scenario nonsmooth-R3": (
        ["scenario", "nonsmooth-R3", "--json"],
        "refutation.status",
        {"refutation.status": "NonSmooth", "dual.dim": 2},
    ),
    "scenario gamma-pair": (
        ["scenario", "gamma-pair", "--json"],
        "complementedness_e1.status",
        {
            "complementedness_e1.status": "NotComplemented",
            "smooth_sum_diag.status": "SmoothCertified",
            "axioms_used": ["A"],
        },
    ),
    "scenario w-nondecomposable": (
        ["scenario", "w-nondecomposable", "--json"],
        "decomposability.status",
        {"decomposability.status": "NonDecomposable", "axioms_used": ["A"]},
    ),
    "scenario sqrt-delta": (
        ["scenario", "sqrt-delta", "--json"],
        "conditional_complementedness_e1.status",
        {
            "dual.dim": 0,
            "dual.axioms_used": [],
            "conditional_standard_e1.status": "Standard",
            "conditional_complementedness_e1.status": "NotComplemented",
        },
    ),
    "scenario ker-im-R3": (
        ["scenario", "ker-im-R3", "--json"],
        "verdict.status",
        {"verdict.status": "Diffeomorphic"},
    ),
    "analyze V2-delta": (
        ["analyze", "V2-delta", "--json"],
        "decomposability.status",
        {"dual_dim": 0, "decomposability.status": "Decomposable"},
    ),
    "analyze R3-abs": (
        ["analyze", "R3-abs", "--json"],
        "decomposability.status",
        {"dual_dim": 2, "decomposability.status": "Decomposable"},
    ),
    "analyze gamma-pair": (
        ["analyze", "gamma-pair", "--json"],
        "decomposability.status",
        {"decomposability.status": "Unknown"},
    ),
    "analyze sqrt-delta": (
        ["analyze", "sqrt-delta", "--json"],
        "decomposability.status",
        {"dual_dim": 0, "decomposability.status": "Unknown"},
    ),
    "analyze W-nondecomposable": (
        ["analyze", "W-nondecomposable", "--axiom", "A", "--json"],
        "decomposability.status",
        {"dual_dim": 0, "decomposability.status": "NonDecomposable"},
    ),
    "check-sum V2-delta": (
        ["check-sum", "V2-delta", "--w0", "1,0", "--w1", "0,1", "--json"],
        "verdict.status",
        {"verdict.status": "SmoothCertified"},
    ),
    "check-sum gamma-pair": (
        ["check-sum", "gamma-pair", "--w0", "1,1", "--w1", "0,1", "--axiom", "A", "--json"],
        "verdict.status",
        {"verdict.status": "SmoothCertified"},
    ),
    "check-sum R3-abs": (
        ["check-sum", "R3-abs", "--w0", "1,0,0;0,1,0", "--w1", "0,0,1", "--json"],
        "verdict.status",
        {"verdict.status": "NonSmooth"},
    ),
    "verify-identity": (
        ["verify-identity", "--n", "16", "--json"],
        "identity.ok",
        {"identity.ok": True, "identity.checked": 1101},
    ),
}


def _get(node, path: str):
    for key in filter(None, path.split(".")):
        node = node[key]
    return node


def verdict_errors(cmd_id: str, doc: dict) -> tuple:
    """(decided, errors) for one verdict-mix command's JSON report."""
    _, headline, expected = VERDICT_MIX[cmd_id]
    rep = doc["report"]
    errors = []
    for path, want in expected.items():
        try:
            got = _get(rep, path)
        except (KeyError, IndexError, TypeError):
            errors.append(f"{cmd_id}: no field {path!r}")
            continue
        ok = want(got) if callable(want) else got == want
        if not ok:
            errors.append(f"{cmd_id}: {path or 'report'} is {json.dumps(got)[:80]}, expected {want!r}")
    try:
        decided = _get(rep, headline) not in UNDECIDED
    except (KeyError, TypeError):
        decided = False
    return decided, errors


def strip_timing(stdout: str) -> str:
    """The JSON report without its wall-clock field, for pass-to-pass comparison."""
    doc = json.loads(stdout)
    doc.pop("timing_seconds", None)
    return json.dumps(doc, sort_keys=True)
