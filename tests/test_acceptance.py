"""End-to-end acceptance suite.

Each test replays one headline claim at its stated parameters and
tolerance (exact arithmetic means zero tolerance).  The constraint-solver
results are cross-checked against an independent brute-force oracle, the
determinism check is byte-level across separate processes, and the tag
soundness sweep runs ten thousand randomized DAGs.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import smoothsum
from smoothsum.constraints import dual_basis, maximal_isotropic
from smoothsum.decompose import (
    certify_smooth_sum,
    complementedness_report,
    decomposability_report,
    kernel_image_check,
    nonstandard_subspace_witness,
    refute_smooth_sum_standard,
    verify_kernel_image_witness,
)
from smoothsum.diffeology import LinearMap, Subspace
from smoothsum.expr import AXIOM_A, Smoothness
from smoothsum.franklin import RationalityLink, parse_grid, verify_abs_identity
from smoothsum.gallery import (
    SCENARIOS,
    gallery_space,
    gallery_witnesses,
)
from smoothsum.intervals import Interval, certify_positive
from smoothsum.numbers import QSqrt2, Tag, TaggedReal, add_tagged, mul_tagged, sqrt_tagged


def neg_tagged(x: TaggedReal) -> TaggedReal:
    """Tagged negation, for the random arithmetic trees below."""
    if x.is_exact:
        return TaggedReal.exact(-x.value)
    value = None if x.value is None else -x.value
    return TaggedReal(value, x.tag, x.transcendental)


# -- 1. dual and isotropic subspace of the double-absolute-value space --


def test_criterion_1_analyze_v2_delta_under_one_second():
    start = time.monotonic()
    sp = gallery_space("V2-delta")
    dual = dual_basis(sp)
    iso = maximal_isotropic(sp)
    elapsed = time.monotonic() - start
    assert dual.status == "exact" and dual.dim == 0
    assert iso.status == "exact"
    assert iso.subspace.dim == 2 and iso.subspace.ambient_dim == 2
    assert elapsed < 1.0


# -- 2. smooth axis decomposition via the |x| identity, N=16 ------------


def test_criterion_2_smooth_sum_and_identity(fm16):
    start = time.monotonic()
    sp = gallery_space("V2-delta")
    verdict = certify_smooth_sum(
        sp,
        Subspace.from_vectors(2, [[1, 0]]),
        Subspace.from_vectors(2, [[0, 1]]),
        witnesses=gallery_witnesses(sp, 16),
    )
    assert verdict.status == "SmoothCertified"

    link = RationalityLink(fm16)
    grid = "zero,rationals:1000,negatives:100"
    points = parse_grid(grid)
    # required coverage: >= 1000 points, a 100-point x<=0 set, and x=0
    assert len(points) >= 1000
    assert sum(1 for x in points if x.sign() < 0) >= 100
    assert any(x.is_zero for x in points)
    result = verify_abs_identity(link, grid=grid)
    assert result["ok"] and result["failures"] == []
    assert result["checked"] >= 1000
    # matched points are also covered, exactly
    from smoothsum.expr import eval_exact
    from smoothsum.franklin import abs_identity_expr

    e = abs_identity_expr(link)
    for s in fm16.steps:
        assert eval_exact(e, s.a) == QSqrt2.coerce(abs(s.a))
    assert time.monotonic() - start < 60.0


# -- 3. the matching construction itself --------------------------------


def test_criterion_3_franklin_certificates(fm16):
    assert len(fm16.steps) == 16
    assert fm16.check_matches()  # all matches exact in Q(sqrt2)
    assert fm16.check_order_isomorphism()
    assert fm16.check_decay()  # |c_n| * sup|p_n| <= |c_n| <= 2^-n on [0,1]
    inner = Interval(QSqrt2.coerce(Fraction(1, 100)), QSqrt2.coerce(Fraction(99, 100)))
    assert certify_positive(fm16.derivative_interval, inner)


# -- 4. the non-smooth sum in dimension three ---------------------------


def _bruteforce_r3_dual_and_isotropic():
    """Independent float-based constraint enumeration for (0,|x|,|x|)."""

    def functional_smooth(a):
        def f(t):
            return a[1] * abs(t) + a[2] * abs(t)

        h = 1e-7
        return abs((f(h) - f(0.0)) / h - (f(0.0) - f(-h)) / h) < 1e-9

    grid = list(itertools.product(range(-2, 3), repeat=3))
    smooth = [a for a in grid if functional_smooth(a)]
    killed = [
        v for v in grid if all(sum(a[i] * v[i] for i in range(3)) == 0 for a in smooth)
    ]

    def rank(rows):
        rows = [list(map(Fraction, r)) for r in rows]
        rk = 0
        for col in range(3):
            piv = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
            if piv is None:
                continue
            rows[rk], rows[piv] = rows[piv], rows[rk]
            rows[rk] = [x / rows[rk][col] for x in rows[rk]]
            for i in range(len(rows)):
                if i != rk and rows[i][col] != 0:
                    c = rows[i][col]
                    rows[i] = [x - c * y for x, y in zip(rows[i], rows[rk])]
            rk += 1
        return rk

    return rank(smooth), rank(killed), smooth, killed


def test_criterion_4_r3_nonsmooth_and_analysis():
    sp = gallery_space("R3-abs")
    verdict = refute_smooth_sum_standard(
        sp,
        Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]]),
        Subspace.from_vectors(3, [[0, 0, 1]]),
    )
    assert verdict.status == "NonSmooth"

    dual = dual_basis(sp)
    iso = maximal_isotropic(sp)
    assert dual.dim == 2
    assert iso.subspace.dim == 1 and iso.subspace.contains([0, 1, 1])

    # independent brute-force cross-check
    dual_rank, iso_rank, smooth, killed = _bruteforce_r3_dual_and_isotropic()
    assert dual_rank == dual.dim
    assert iso_rank == iso.subspace.dim
    for v in killed:
        assert iso.subspace.contains(list(v))


# -- 5. twenty random non-standard lines --------------------------------


def test_criterion_5_twenty_random_directions(fm16):
    sp = gallery_space("V2-delta")
    witnesses = gallery_witnesses(sp, 16)
    provider = (witnesses[(0, 0)], witnesses[(0, 1)])
    rng = random.Random(0)
    directions = []
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if a == 0 and b == 0:
            a = Fraction(1)
        directions.append([a, b])
    successes = 0
    for (a, b), (trees, verdict, w) in zip(directions, nonstandard_subspace_witness(sp, directions, provider)):
        assert w.contains([a, b])  # membership derivation replays
        assert verdict.status == Smoothness.NONSMOOTH
        successes += 1
    assert successes == 20


# -- 6. conditional claims under axiom A --------------------------------


def test_criterion_6_conditional_claims():
    e1 = Subspace.from_vectors(2, [[1, 0]])
    diag = Subspace.from_vectors(2, [[1, 1]])
    e2 = Subspace.from_vectors(2, [[0, 1]])

    gp = gallery_space("gamma-pair", frozenset({AXIOM_A}))
    comp = complementedness_report(gp, e1)
    assert comp.status == "NotComplemented"
    assert tuple(comp.axioms_used) == ("A",)  # exactly {A}
    sum_cert = certify_smooth_sum(gp, diag, e2)
    assert sum_cert.status == "SmoothCertified"

    w = gallery_space("W-nondecomposable", frozenset({AXIOM_A}))
    assert dual_basis(w).dim == 0
    dec = decomposability_report(w)
    assert dec.status == "NonDecomposable"
    assert tuple(dec.axioms_used) == ("A",)  # exactly {A}

    # without the axiom, both conditional claims degrade to Unknown
    assert complementedness_report(gallery_space("gamma-pair"), e1).status == "Unknown"
    assert decomposability_report(gallery_space("W-nondecomposable")).status == "Unknown"


# -- 7. kernel-image diffeomorphism checks ------------------------------


def test_criterion_7_kernel_image():
    sp = gallery_space("R3-abs")
    f = LinearMap.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    verdict = kernel_image_check(sp, f)
    assert verdict.status == "Diffeomorphic"
    assert verdict.witness_matrix is not None
    assert verify_kernel_image_witness(sp, f, verdict.witness_matrix)

    w = gallery_space("W-nondecomposable", frozenset({AXIOM_A}))
    for rows in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 2], [2, 4]]):
        g = LinearMap.from_rows(rows)
        v = kernel_image_check(w, g)
        assert v.status == "NoDiffeomorphism"
        assert "A" in v.axioms_used


# -- 8. tag soundness on randomized arithmetic DAGs ---------------------


def test_criterion_8_tag_soundness_ten_thousand_dags():
    rng = random.Random(20260826)
    unsound = 0
    for _ in range(10_000):
        nodes = [
            TaggedReal.exact(Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
            TaggedReal.exact(QSqrt2(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))),
        ]
        for _ in range(rng.randint(1, 10)):
            op = rng.choice(("add", "mul", "neg", "sqrt"))
            x = rng.choice(nodes)
            if op == "add":
                nodes.append(add_tagged(x, rng.choice(nodes)))
            elif op == "mul":
                nodes.append(mul_tagged(x, rng.choice(nodes)))
            elif op == "neg":
                nodes.append(neg_tagged(x))
            elif x.is_exact and x.value.sign() >= 0:
                nodes.append(sqrt_tagged(x))
        for t in nodes:
            if t.is_exact and t.tag != Tag.UNKNOWN:
                if (t.tag == Tag.RATIONAL) != t.value.is_rational:
                    unsound += 1
    assert unsound == 0


# -- 9. byte-level determinism of every scenario ------------------------

# SHA-256 of `smoothsum scenario <name> --json --n 8`.  A change that
# alters a scenario report must update its digest here and say why.
# lemma-2.2, nonsmooth-R3, gamma-pair, w-nondecomposable and sqrt-delta
# changed when each report came to hold one copy of the dual and of the
# isotropic subspace: `isotropic` and `characteristic` no longer repeat
# them.
SCENARIO_DIGESTS = {
    "lemma-2.2": "1c15f6db082fd0c1fcabcf4d5715c41b51beb60a6f8476db1590e493a92158c4",
    "thm-2.3": "a1dae40dea3f115029c3ac517f69c562bfa64eec0a5118b937d275fc884fdaa7",
    "cor-2.5": "2124a419928106d4b04d5b29790c28444591a83b85fac81444f6454a4608c345",
    "nonsmooth-R3": "d38224fc48cac8dd584ce68ec0c46d29ed2c5c83a6a8d3e015d53c4f1557e626",
    "gamma-pair": "53a5dfcd7671d5132a193f7092f75ebdee4a6878a4ce63677b5e6fa6cd0633e1",
    "w-nondecomposable": "07d738185cdf29c01347aecfd8adfac6c34374be8cfbac1195f3da8942e0be85",
    "sqrt-delta": "7d21f8be5b94f307f023924883f2c66566bb421213f37e5b87b41fce6c24bd49",
    "ker-im-R3": "2ca4ced30f6b0a5dd973cfc83cba92d7dba761f0fa4824d785d8fbd127a01bbc",
}


def _cli_env() -> dict:
    """Environment for a ``python -m smoothsum.cli`` child that imports the
    same package as this test run, whether or not PYTHONPATH is set."""
    src = str(Path(smoothsum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("name", SCENARIOS)
def test_criterion_9_scenario_determinism(name):
    outputs = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "smoothsum.cli", "scenario", name, "--json", "--n", "8"],
            capture_output=True,
            check=True,
            env=_cli_env(),
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0])  # well-formed
    assert hashlib.sha256(outputs[0]).hexdigest() == SCENARIO_DIGESTS[name]


# SHA-256 of the `--json` report of each command below with its
# `timing_seconds` field (if any) removed, re-serialised as the CLI prints it.  A
# change that alters a certificate report must update its digest here and
# say why.  The seven `analyze` digests changed when the report came to
# hold one copy of the dual and of the isotropic subspace: `isotropic`,
# `characteristic` and the decomposability detail no longer repeat them.
CERTIFICATE_DIGESTS = {
    ("franklin", "--n", "8"): "59193010b777042182f1d3da91c1cc64dca5d754d08e22c8ca2056537f514854",
    ("franklin", "--n", "16"): "2353cf06bf656038b9abf4cd75179d2bc3af181e46554027eea7b9d4d06ae2d2",
    ("franklin", "--n", "24"): "08671fa168d88dabc79f335310f1c9b14bbfb8ca9ba3f63962ab0bd21a99ea2b",
    ("franklin", "--n", "32"): "ec56a33020bfa7906802a9061d87a9b81b2d1bd8f3ba45cc311b41a338d250d6",
    ("verify-identity", "--n", "16"): "086d8846708d5fcd490b3afc4796d89865c4ac9db5f245432f377e540950c953",
    # the reports that replay witness plots on the grid, at the default --n 16
    ("scenario", "thm-2.3"): "4ea900dbb13aa60df50bf64efbc8a0eb916eaaff930e783d353487e1a67c6b72",
    ("scenario", "cor-2.5"): "44bd8e38e40be1793aad6e3af6ca11d52f8f69ea6a87a68ca3dd794ee990fcc4",
    ("check-sum", "V2-delta", "--w0", "1,0", "--w1", "0,1"): "a39706e1ca543da1d47b07afad4b0ea2c3aa6dcd6c268845371601d576b2ea9d",
    ("analyze", "V2-delta"): "d96169815d1708f87e3bec8a854016b90053ce527074979e59cfa29d45476494",
    # the rest of the verdict-mix commands
    ("analyze", "R3-abs"): "963df512c610fc049ab93528e4d40aef2fd131f9f37067ab3aaf535018878816",
    ("analyze", "gamma-pair"): "4b5ba6a9461115ddb96f361f8e9a421dd8c9b10f3944dbf13134d2282a63a3a7",
    ("analyze", "sqrt-delta"): "2fea17890ff4e6c884328f93514d12142d760a804c2a5cfee31b9da84ab28683",
    ("analyze", "W-nondecomposable", "--axiom", "A"): "863ac9603fd555437cd243f70d9fe5266e055f3afa932884c97ceb8a7d0e3ff1",
    ("check-sum", "gamma-pair", "--w0", "1,1", "--w1", "0,1", "--axiom", "A"): "98608f98398864cc847029094de48e7d03a5c4e3d071a47d2b397b9e068302da",
    ("check-sum", "R3-abs", "--w0", "1,0,0;0,1,0", "--w1", "0,0,1"): "d6872e0d4c1394c992c916a8c853222dd437e48c037d9cc3cd20b9294d8f7da5",
    # declaration files from DECLARATION_FILES: no dual equations at all,
    # and an irrational equation whose dual basis is rational
    ("analyze", "smooth-gens.space"): "617b2277a567f1fcdd97ccd0b2c226bfd498fc48e3573759bb7ba2af6ad4dfbb",
    ("analyze", "sqrt2-abs.space"): "e70d6909cb95af97929f70365157df13f54ba5551b0967b646351e77087e08ab",
    # an irrational dual, (-sqrt2, 1): the standardness derivation of W0
    # prints the irrational smooth combination ['sqrt2']
    ("check-sum", "irr.space", "--w0", "1,0", "--w1", "0,1"): "e57755d36a1568e9bead06c3397ed0d8fc478cbe713afdc008c63728326bd648",
}

# Written to the working directory of each certificate command, so a
# report names the file by the same relative path on every run.
DECLARATION_FILES = {
    "smooth-gens.space": "space smooth-gens dim 3\ngen x, x^2, 0\ngen exp(x), 0, x\n",
    "sqrt2-abs.space": "space sqrt2-abs dim 2\ngen sqrt2*abs(x), sqrt2*abs(x)\n",
    "irr.space": "space irr dim 2\ngen abs(x), sqrt2*abs(x)\n",
}


@pytest.mark.parametrize("argv", list(CERTIFICATE_DIGESTS), ids=" ".join)
def test_criterion_9_certificate_digests(argv, tmp_path):
    for name, text in DECLARATION_FILES.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "smoothsum.cli", *argv, "--json"],
        capture_output=True,
        check=True,
        env=_cli_env(),
        cwd=tmp_path,
    )
    doc = json.loads(proc.stdout)
    doc.pop("timing_seconds", None)  # scenario reports carry no timing
    stable = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(stable.encode()).hexdigest() == CERTIFICATE_DIGESTS[argv]
