"""The three workloads: what one request is, how it runs, how it is judged.

Each workload is a closed loop with one client: the next request is sent
only after the previous one returns.  Requests call smoothsum in-process,
through `smoothsum.cli.main(argv)` with stdout captured, or through the
public expression evaluator.  Each output is judged as soon as its
request returns, outside the request's latency, by the oracles in
`oracles.py`, which do not import smoothsum.
"""

from __future__ import annotations

import gc
import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracles

MODULES = (
    "numbers", "intervals", "linalg", "expr", "diffeology",
    "constraints", "franklin", "decompose", "gallery", "cli",
)


def load_smoothsum() -> dict:
    """Import the package afresh (dropping any earlier import), so that
    each set-up pays for the import and starts with empty caches."""
    for name in [m for m in sys.modules if m == "smoothsum" or m.startswith("smoothsum.")]:
        del sys.modules[name]
    return {m: importlib.import_module("smoothsum." + m) for m in MODULES}


def run_cli(pkg: dict, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = pkg["cli"].main(argv)
    return rc, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    # per-layer counters that must read non-zero in a traced pass; a zero
    # means a wrapper missed an import site (or the prediction is stale)
    predicted_nonzero: tuple = ()
    # gallery.franklin_map cache misses over a whole warm run
    map_misses = 0
    # latency_tail_s is this percentile (nearest rank), fixed per workload
    # so that it falls on the same requests in every run; see README.md
    tail_pct = 100.0

    def setup(self, pkg: dict):
        """Everything before the first timed request; returns the state."""
        return pkg

    def batches(self, state, rng):
        """Endless batches of requests; the clock is read between batches."""
        raise NotImplementedError

    def trace_unit(self, state, rng) -> list:
        """The fixed list of requests a traced pass replays."""
        return next(self.batches(state, rng))

    def run(self, state, req):
        raise NotImplementedError

    def judge(self):
        """A fresh judge for one run: judge(req, output, exc) -> (decided,
        errors).  Runs right after each request, outside its latency, so
        the run keeps no outputs alive."""
        raise NotImplementedError


class CliJudge:
    """Exit code 0, the oracle's `check(req, doc) -> (decided, errors)` on
    the JSON, and the same JSON (without its timing field) every time the
    same command runs."""

    def __init__(self, check):
        self.check = check
        self.first = {}  # req -> JSON of its first run
        self.verdicts = {}  # (req, JSON) -> check result, so a repeat costs a lookup

    def __call__(self, req, output, exc) -> tuple:
        if exc is not None:
            return False, [f"{req}: raised {exc}"]
        rc, stdout, stderr = output
        if rc != 0:
            return False, [f"{req}: exit code {rc}: {stderr.strip()[:200]}"]
        try:
            stable = oracles.strip_timing(stdout)
        except ValueError as e:
            return False, [f"{req}: output is not JSON: {e}"]
        errors = []
        if self.first.setdefault(req, stable) != stable:
            errors.append(f"{req}: JSON differs from its first run")
        if (req, stable) not in self.verdicts:
            self.verdicts[req, stable] = self.check(req, json.loads(stable))
        decided, check_errors = self.verdicts[req, stable]
        # the next command starts from a collected heap, as a fresh CLI
        # process would, instead of paying for garbage this judge made
        gc.collect()
        return decided, errors + check_errors


class FranklinBuild(Workload):
    """`smoothsum franklin --n 24 --json`, cold: the map is rebuilt and
    certified by every request."""

    name = "franklin-build"
    N = 24
    ARGV = ("franklin", "--n", str(N), "--json")
    predicted_nonzero = (
        "franklin.build_franklin.s",
        "franklin.FranklinMap.eval_exact.calls",
        "franklin.simplest_in_interval.calls",
        "franklin.certify_rationality_link.s",
        "franklin.coef_bits_max",
        "intervals.poly_product_derivative.calls",
        "numbers.QSqrt2.mul.calls",
        "numbers.QSqrt2.inverse.calls",
        "numbers.floor_qsqrt2.calls",
    )

    def batches(self, state, rng):
        while True:
            yield [" ".join(self.ARGV)]

    def run(self, state, req):
        return run_cli(state, list(self.ARGV))

    def judge(self):
        def check(req, doc):
            errors = oracles.franklin_errors(doc, self.N)
            return not errors, errors

        return CliJudge(check)


class IdentityGrid(Workload):
    """One request evaluates 2x dQ(H1(x)) - 2x dQ(H2(x)) + x at one seeded
    point with `expr.eval_tagged`, the per-point step of verify-identity,
    on the n=16 map built in set-up."""

    name = "identity-grid"
    tail_pct = 90.0
    N = 16
    FAMILIES = ("small", "large", "negative", "sqrt2", "mixed")
    TRACE_POINTS = 4000
    predicted_nonzero = (
        "expr.eval_tagged.calls",
        "expr.eval_tagged.indeterminate",
        "franklin.FranklinMap.eval_float.calls",
        "numbers.exp_tagged.calls",
        "setup.franklin.build_franklin.s",
    )
    map_misses = 1
    # one warm-up point per family, so lazy caches fill before timing
    WARM_UP = (
        ("small", (Fraction(3, 7), Fraction(0))),
        ("large", (Fraction(10**12 + 39, 10**12 - 11), Fraction(0))),
        ("negative", (Fraction(-5, 3), Fraction(0))),
        ("sqrt2", (Fraction(0), Fraction(3, 5))),
        ("mixed", (Fraction(1, 3), Fraction(2, 7))),
    )

    def setup(self, pkg):
        fm = pkg["gallery"].franklin_map(self.N)
        expr = pkg["franklin"].abs_identity_expr(pkg["franklin"].RationalityLink(fm))
        state = (pkg, expr)
        for req in self.WARM_UP:
            self.run(state, req)
        return state

    @staticmethod
    def point(family: str, rng) -> tuple:
        """An exact point a + b*sqrt2 of the family, as a pair of Fractions."""
        def rat(height):
            return Fraction(rng.randint(1, height), rng.randint(1, height))

        sign = rng.choice((-1, 1))
        if family == "small":
            return (rat(1000), Fraction(0))
        if family == "large":
            return (rat(10**12), Fraction(0))
        if family == "negative":
            return (-rat(rng.choice((1000, 10**12))), Fraction(0))
        if family == "sqrt2":
            return (Fraction(0), sign * rat(30))
        # mixed: a and b nonzero and a + b*sqrt2 > 0, so x^2 is irrational
        # and the rationality of H1(x) cannot be decided
        x = (sign * rat(1000), rng.choice((-1, 1)) * rat(1000))
        return x if oracles.q_sign(x) > 0 else oracles.q_scale(-1, x)

    def points(self, rng, count: int) -> list:
        """Every run of five consecutive points has one of each family."""
        out = []
        while len(out) < count:
            out += [(f, self.point(f, rng)) for f in rng.sample(self.FAMILIES, len(self.FAMILIES))]
        return out[:count]

    def batches(self, state, rng):
        # every point is fresh, made between requests and outside their
        # spans: replaying a pool would make the tail the cost of its few
        # slowest points, which changes with the seed
        while True:
            yield self.points(rng, len(self.FAMILIES))

    def trace_unit(self, state, rng):
        return self.points(rng, self.TRACE_POINTS)

    def run(self, state, req):
        pkg, expr = state
        a, b = req[1]
        x = pkg["numbers"].TaggedReal.exact(pkg["numbers"].QSqrt2(a, b))
        return pkg["expr"].eval_tagged(expr, x)

    def judge(self):
        def judge(req, out, exc):
            family, x = req
            if exc is not None:
                err = f"raised {exc}"
            elif family == "mixed":
                cands = out if isinstance(out, tuple) else (out,)
                got = {(c.value.a, c.value.b) for c in cands if c.is_exact}
                ok = isinstance(out, tuple) and len(got) == len(cands)
                if ok and got == oracles.identity_candidates(x):
                    return False, []
                err = "expected the undecided candidate set {x, 3x, -x}"
            elif isinstance(out, tuple) or not out.is_exact:
                err = "undecided"
            elif (out.value.a, out.value.b) != oracles.q_abs(x):
                err = f"value {out.value} is not |x|"
            else:
                return True, []
            return False, [f"{family} point {x[0]}+{x[1]}*sqrt2: {err}"]

        return judge


class VerdictMix(Workload):
    """17 CLI commands per pass (8 scenarios, analyze on the 5 gallery
    spaces, 3 check-sum examples, verify-identity), in a seeded order; the
    n=16 map is warmed in set-up through gallery.franklin_map."""

    name = "verdict-mix"
    tail_pct = 85.0
    N = 16
    predicted_nonzero = (
        "diffeology.Plot.component_expr.calls",
        "constraints.dual_basis.calls",
        "constraints.subset_standard.calls",
        "constraints.atom_table.calls",
        "linalg.rref.calls",
        "linalg.solve.calls",
        "linalg.inverse.calls",
        "expr.classify_smoothness.calls",
        "expr.is_smooth_expr.calls",
        "franklin.parse_grid.points",
        "decompose.kernel_image_check.candidates",
        "cli.main.self_s",
        "setup.franklin.build_franklin.s",
    ) + tuple(f"gallery.run_scenario.{s}.s" for s in (
        "lemma-2.2", "thm-2.3", "cor-2.5", "nonsmooth-R3",
        "gamma-pair", "w-nondecomposable", "sqrt-delta", "ker-im-R3",
    ))
    map_misses = 1

    def setup(self, pkg):
        pkg["gallery"].franklin_map(self.N)
        return pkg

    def batches(self, state, rng):
        ids = list(oracles.VERDICT_MIX)
        while True:
            yield rng.sample(ids, len(ids))

    def run(self, state, req):
        return run_cli(state, oracles.VERDICT_MIX[req][0])

    def judge(self):
        return CliJudge(oracles.verdict_errors)


WORKLOADS = {w.name: w for w in (FranklinBuild(), IdentityGrid(), VerdictMix())}
