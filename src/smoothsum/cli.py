"""Command-line front end.

Subcommands: analyze, check-sum, franklin, verify-identity, scenario.
Exit codes: 0 success (including Unknown verdicts), 1 verification
failure, 2 input error.  A reader closing the output pipe early changes
none of them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .constraints import characteristic_decomposition
from .decompose import (
    certify_smooth_sum,
    check_algebraic_sum,
    decomposability_report,
    refute_smooth_sum_standard,
)
from .diffeology import MAX_DIM, DVSpace, Plot, Subspace, parse_space
from .expr import ExprError, parse_expr
from .franklin import (
    IDENTITY_GRID,
    RationalityLink,
    build_franklin,
    certify_rationality_link,
    verify_abs_identity,
)
from .gallery import (
    AXIOMS,
    SCENARIOS,
    SPACE_NAMES,
    franklin_map,
    gallery_space,
    gallery_witnesses,
    run_scenario,
)


class InputError(Exception):
    pass


# Largest accepted matching-construction order: `franklin --n 32` runs in
# 0.18-0.25 s wall on a 2-vCPU machine, Python 3.11, interpreter start-up
# included, 5 runs (0.20-0.26 s in the same runs with the construction's
# budget, bounds and target windows reduced after every operation; about
# 10 s before the exact dyadic brackets), but the coefficient size grows
# quadratically in n (12 577 bits at n=32) and the cost faster still, so
# larger orders are refused.
MAX_N = 32


def _load_space(name_or_file: str, axioms) -> DVSpace:
    """The gallery space or declaration file, with the ``--axiom`` names
    added; every axiom name, from the flag or from the file, must be one
    of ``gallery.AXIOMS``."""
    ax = frozenset(axioms)
    if name_or_file in SPACE_NAMES:
        sp = gallery_space(name_or_file, ax)
    else:
        path = Path(name_or_file)
        if not path.exists():
            raise InputError(
                f"unknown space {name_or_file!r}: not a gallery name "
                f"({', '.join(SPACE_NAMES)}) and no such file"
            )
        try:
            sp = parse_space(path.read_text())
        except (ExprError, ValueError) as exc:
            raise InputError(f"cannot parse space file {name_or_file}: {exc}") from exc
        if ax:
            sp = DVSpace(sp.name, sp.dim, sp.generators, sp.axioms | ax)
    unknown = sorted(sp.axioms.difference(AXIOMS))
    if unknown:
        raise InputError(f"unknown axiom {', '.join(map(repr, unknown))}; known: {', '.join(AXIOMS)}")
    return sp


# A basis entry is p, p/q or a plain decimal.  Exponent notation is
# refused: Fraction("1e3000000") alone takes over a second.
_ENTRY = re.compile(r"[+-]?(\d+/\d+|\d+\.?\d*|\.\d+)")


def _entry(text: str) -> Fraction:
    text = text.strip()
    if not _ENTRY.fullmatch(text):
        raise ValueError(f"entry {text!r} is not p, p/q or a plain decimal")
    return Fraction(text)


def _parse_basis(text: str, dim: int) -> Subspace:
    """Vectors separated by ';', components by ',', rational entries."""
    try:
        vectors = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            vectors.append([_entry(c) for c in chunk.split(",")])
            if len(vectors) > MAX_DIM:
                raise InputError(f"a basis may list at most {MAX_DIM} vectors")
        return Subspace.from_vectors(dim, vectors)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed basis {text!r}: {exc}") from exc


def _make_report(command: str, inputs: dict, report: dict, axioms, timing=None) -> dict:
    digest = hashlib.sha256(
        json.dumps(inputs, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    out = {
        "command": command,
        "tool_version": __version__,
        "inputs": {**inputs, "digest": digest},
        "axioms_used": sorted(set(axioms)),
        "report": report,
    }
    if timing is not None:
        out["timing_seconds"] = round(timing, 3)
    return out


def _emit(report: dict, as_json: bool) -> None:
    """Print the report.  A reader that closes the pipe early, as
    ``| head`` does, has read all it wanted: the rest is dropped without a
    word, and the command keeps its exit code."""
    try:
        if as_json:
            print(json.dumps(report, indent=2, sort_keys=True, default=str))
        else:
            print(f"# {report['command']}  (smoothsum {report['tool_version']})")
            if report["axioms_used"]:
                print(f"axioms: {', '.join(report['axioms_used'])}")
            _print_tree(report["report"], indent=0)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered would fail again at exit; send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_tree(node, indent: int) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        for k, v in node.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _print_tree(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(node, list):
        for v in node:
            if isinstance(v, (dict, list)):
                _print_tree(v, indent)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{node}")


# ---------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    sp = _load_space(args.space, args.axiom)
    ch = characteristic_decomposition(sp)
    iso = ch.analysis
    dec = decomposability_report(sp, witnesses=gallery_witnesses(sp, args.n), characteristic=ch)
    report = {
        "space": sp.to_dict(),
        "dual": iso.dual.to_dict(),
        "dual_dim": iso.dual.dim,
        "isotropic": iso.to_dict(),
        "characteristic": ch.to_dict(),
        "decomposability": dec.to_dict(),
    }
    axioms = set(sp.axioms) | set(iso.dual.axioms_used) | set(dec.axioms_used)
    _emit(_make_report("analyze", {"space": args.space}, report, axioms, time.perf_counter() - t0), args.json)
    return 0


def cmd_check_sum(args) -> int:
    t0 = time.perf_counter()
    sp = _load_space(args.space, args.axiom)
    w0 = _parse_basis(args.w0, sp.dim)
    w1 = _parse_basis(args.w1, sp.dim)
    if not check_algebraic_sum(sp.dim, w0, w1):
        raise InputError("the two subspaces do not form an algebraic direct sum")
    witnesses = None
    if args.witness == "builtin":
        witnesses = gallery_witnesses(sp, args.n)
    elif args.witness not in (None, "none"):
        witnesses = _load_witness_file(args.witness, sp, args.n)
    verdict = certify_smooth_sum(sp, w0, w1, witnesses=witnesses)
    if verdict.status != "SmoothCertified":
        refutation = refute_smooth_sum_standard(sp, w0, w1)
        if refutation.status == "NonSmooth":
            verdict = refutation
        else:
            verdict.reason = f"{verdict.reason}; refutation: {refutation.reason}"
    report = {
        "space": sp.to_dict(),
        "w0": w0.to_dict(),
        "w1": w1.to_dict(),
        "verdict": verdict.to_dict(),
    }
    axioms = set(sp.axioms) | set(verdict.axioms_used)
    _emit(
        _make_report(
            "check-sum",
            {"space": args.space, "w0": args.w0, "w1": args.w1},
            report,
            axioms,
            time.perf_counter() - t0,
        ),
        args.json,
    )
    return 0


def _load_witness_file(path: str, sp: DVSpace, n: int) -> dict:
    try:
        data = json.loads(Path(path).read_text())
        fm = franklin_map(n)
        out = {}
        for entry in data:
            terms = tuple(
                (
                    parse_expr(t["scalar"], fm),
                    int(t["generator"]),
                    parse_expr(t["inner"], fm),
                )
                for t in entry["terms"]
            )
            tail = tuple(parse_expr(t, fm) for t in entry["tail"])
            out[(int(entry["generator"]), int(entry["part"]))] = Plot(sp, terms, tail)
        return out
    except (OSError, KeyError, ValueError, ExprError) as exc:
        raise InputError(f"cannot load witness file {path}: {exc}") from exc


def cmd_franklin(args) -> int:
    t0 = time.perf_counter()
    fm = build_franklin(args.n)
    link = RationalityLink(fm)
    cert = certify_rationality_link(link)
    report = {"franklin": fm.to_dict(), "rationality_link": cert}
    rep = _make_report("franklin", {"n": args.n}, report, link.axioms_used, time.perf_counter() - t0)
    _emit(rep, args.json)
    return 0 if all(cert[k] for k in ("ok", "monotone", "decay", "order_isomorphism")) else 1


def cmd_verify_identity(args) -> int:
    t0 = time.perf_counter()
    fm = franklin_map(args.n)
    link = RationalityLink(fm)
    result = verify_abs_identity(link, grid=args.grid)
    report = {"identity": result, "n": args.n, "grid": args.grid}
    rep = _make_report(
        "verify-identity", {"n": args.n, "grid": args.grid}, report, link.axioms_used, time.perf_counter() - t0
    )
    _emit(rep, args.json)
    return 0 if result["ok"] else 1


def cmd_scenario(args) -> int:
    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0
    if args.name is None:
        raise InputError("scenario name required (or --list)")
    if args.name not in SCENARIOS:
        raise InputError(f"unknown scenario {args.name!r}; known: {', '.join(SCENARIOS)}")
    result = run_scenario(args.name, args.n)
    # scenario reports are timing-free so repeated runs are byte-identical
    rep = _make_report(
        "scenario", {"scenario": args.name, "n": args.n}, result, result.get("axioms_used", [])
    )
    _emit(rep, args.json)
    return 0


@functools.cache  # each parse_args call fills a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothsum",
        description=(
            "verification toolkit for finite-dimensional vector spaces with "
            "finitely generated diffeologies"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--n", type=int, default=16, help="matching-construction order")

    def axiom(p):
        p.add_argument("--axiom", action="append", default=[], help="assume a named axiom (repeatable)")

    p = sub.add_parser("analyze", help="dual, isotropic, characteristic and decomposability")
    p.add_argument("space", help="gallery space name or declaration file")
    common(p)
    axiom(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("check-sum", help="certify or refute a smooth direct sum")
    p.add_argument("space")
    p.add_argument("--w0", required=True, help="basis: vectors ';'-separated, entries ','-separated")
    p.add_argument("--w1", required=True)
    p.add_argument("--witness", default="builtin", help="'builtin', 'none', or a witness JSON file")
    common(p)
    axiom(p)
    p.set_defaults(fn=cmd_check_sum)

    p = sub.add_parser("franklin", help="build and certify the matching map")
    common(p)
    p.set_defaults(fn=cmd_franklin)

    p = sub.add_parser("verify-identity", help="replay the |x| identity on a grid")
    p.add_argument(
        "--grid",
        default=IDENTITY_GRID,
        help="grid spec, e.g. rationals:1000,negatives:100 (seeded, deterministic)",
    )
    common(p)
    p.set_defaults(fn=cmd_verify_identity)

    p = sub.add_parser("scenario", help="run a recorded reproduction scenario")
    p.add_argument("name", nargs="?", help="scenario id")
    p.add_argument("--list", action="store_true", help="list scenario ids")
    common(p)
    p.set_defaults(fn=cmd_scenario)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes the -1,0 of `--w0 -1,0` for an option; `--w0=-1,0` it reads
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--w0", "--w1") and re.match(r"-[\d./]", argv[i + 1]):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        if not 1 <= args.n <= MAX_N:
            raise InputError(f"--n must be between 1 and {MAX_N}, got {args.n}")
        return args.fn(args)
    except (InputError, ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
