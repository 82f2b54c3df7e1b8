"""A seeded census of small random ``check-sum`` questions.

Each case is a space of dimension 2 or 3 with one to three generators,
every component drawn from a class's atom list, split along W0 and W1,
the rows of a random invertible integer matrix (entries -2..2) cut at a
random place.  Its verdict is the one ``cmd_check_sum`` gives:
``certify_smooth_sum`` with the builtin witnesses, then, if that does
not certify, ``refute_smooth_sum_standard``.

The census pins how many questions each class decides.  A certificate
and a refutation of the same question would be a soundness bug, so every
case is also refuted on its own and the two must never both hold.
"""

import random

import pytest

from smoothsum import linalg
from smoothsum.decompose import certify_smooth_sum, refute_smooth_sum_standard
from smoothsum.diffeology import Subspace, parse_space
from smoothsum.gallery import gallery_witnesses
from smoothsum.numbers import QSqrt2

# class: (atom list, seed, cases)
CLASSES = {
    "A": (["0", "x", "abs(x)"], 1, 300),
    "B": (["0", "abs(x)", "2*abs(x)", "-abs(x)"], 2, 300),
    "C": (["0", "x", "abs(x)", "deltaQ(x)", "2*deltaQ(x)"], 3, 300),
    "D": (["0", "x", "abs(x)", "2*abs(x)", "x^2", "x*abs(x)"], 1, 300),
    "E": (["0", "x", "abs(x)", "deltaQ(x)", "gamma(x)", "x^2"], 5, 400),
}

# class: (SmoothCertified, Unknown).  With the four fixed rules that the
# generator-combination solve replaced, the counts were 80/93, 29/184,
# 15/217, 39/212 and 48/290; no NonSmooth count moved.
EXPECTED = {
    "A": (139, 34),
    "B": (162, 51),
    "C": (66, 166),
    "D": (88, 163),
    "E": (92, 246),
}


def census(atoms: list, seed: int, count: int):
    """The class's (space, W0, W1) cases, in the seeded order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice([2, 3])
        gens = [[rng.choice(atoms) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if linalg.rank([[QSqrt2(v) for v in row] for row in rows]) == n:
                break
        cut = rng.randint(1, n - 1)
        text = f"space S dim {n}\n" + "".join("gen " + ", ".join(g) + "\n" for g in gens)
        yield parse_space(text), Subspace.from_vectors(n, rows[:cut]), Subspace.from_vectors(n, rows[cut:])


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_census_verdicts(name):
    atoms, seed, count = CLASSES[name]
    counts = {"SmoothCertified": 0, "NonSmooth": 0, "Unknown": 0}
    contradictions = []
    for i, (space, w0, w1) in enumerate(census(atoms, seed, count)):
        certified = certify_smooth_sum(space, w0, w1, witnesses=gallery_witnesses(space)).status
        refuted = refute_smooth_sum_standard(space, w0, w1).status
        if certified == "SmoothCertified" and refuted == "NonSmooth":
            contradictions.append(f"{name}{i}")
        counts[certified if certified == "SmoothCertified" else refuted] += 1
    assert contradictions == []
    assert (counts["SmoothCertified"], counts["Unknown"]) == EXPECTED[name]
