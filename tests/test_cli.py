"""Command-line interface: exit codes, report schema, stability."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from smoothsum import constraints
from smoothsum.cli import main
from smoothsum.diffeology import MAX_DIM, MAX_GENERATORS
from smoothsum.franklin import FranklinMap
from smoothsum.gallery import SPACE_NAMES, gallery_space

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def schema():
    text = resources.files("smoothsum").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text(capsys):
    code, out, err = _run(capsys, "analyze", "V2-delta", "--n", "8")
    assert code == 0
    assert "dual_dim: 0" in out


def test_analyze_json_schema(capsys, schema):
    code, out, _ = _run(capsys, "analyze", "R3-abs", "--json", "--n", "8")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["command"] == "analyze"
    assert report["report"]["dual"]["dim"] == 2
    assert "timing_seconds" in report


def test_check_sum_ok(capsys, schema):
    code, out, _ = _run(
        capsys, "check-sum", "V2-delta", "--w0", "1,0", "--w1", "0,1", "--json", "--n", "8"
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["report"]["verdict"]["status"] == "SmoothCertified"


def test_check_sum_refutes(capsys):
    code, out, _ = _run(
        capsys, "check-sum", "R3-abs", "--w0", "1,0,0;0,1,0", "--w1", "0,0,1", "--json", "--n", "8"
    )
    assert code == 0
    report = json.loads(out)
    assert report["report"]["verdict"]["status"] == "NonSmooth"


def test_check_sum_axiom_listed(capsys):
    code, out, _ = _run(
        capsys,
        "check-sum", "gamma-pair", "--w0", "1,1", "--w1", "0,1",
        "--axiom", "A", "--json", "--n", "8",
    )
    assert code == 0
    report = json.loads(out)
    assert report["axioms_used"] == ["A"]


def test_input_errors_exit_2(capsys):
    assert _run(capsys, "analyze", "no-such-space")[0] == 2
    assert _run(capsys, "check-sum", "V2-delta", "--w0", "1,0", "--w1", "2,0")[0] == 2
    assert _run(capsys, "check-sum", "V2-delta", "--w0", "oops", "--w1", "0,1")[0] == 2
    assert _run(capsys, "scenario", "bogus")[0] == 2
    assert _run(capsys, "verify-identity", "--grid", "martians:5", "--n", "8")[0] == 2


@pytest.mark.parametrize("w0", [["--w0", "-1,0"], ["--w0=-1,0"], ["--w0", "-1/2,1"]])
def test_check_sum_takes_a_negative_basis_either_way(capsys, w0):
    # a value after a space that starts with '-' is the basis, not an option
    code, out, err = _run(capsys, "check-sum", "V2-delta", *w0, "--w1", "-0,1", "--json", "--n", "8")
    assert code == 0, err
    report = json.loads(out)
    assert report["inputs"]["w0"] == w0[-1].removeprefix("--w0=")
    assert report["inputs"]["w1"] == "-0,1"
    assert report["report"]["w0"]["dim"] == 1


def test_check_sum_without_a_basis_value_still_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check-sum", "V2-delta", "--w0", "--w1", "0,1"])
    assert info.value.code == 2
    assert "argument --w0: expected one argument" in capsys.readouterr().err


def test_successive_calls_share_no_axioms(capsys):
    # the parser is built once; each call reads only its own --axiom list
    def axioms(*flags):
        code, out, err = _run(capsys, "analyze", "gamma-pair", *flags, "--json", "--n", "8")
        assert code == 0, err
        return json.loads(out)["report"]["space"]["axioms"]

    assert axioms() == []
    assert axioms("--axiom", "A") == ["A"]
    assert axioms("--axiom", "sqrt-implication") == ["sqrt-implication"]
    assert axioms("--axiom", "A", "--axiom", "sqrt-implication") == ["A", "sqrt-implication"]
    assert axioms() == []


def test_verify_identity_exit_codes(capsys, schema):
    code, out, _ = _run(
        capsys, "verify-identity", "--n", "8", "--grid", "zero,rationals:20,negatives:10", "--json"
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["report"]["identity"]["ok"]


def test_franklin_command(capsys, schema):
    code, out, _ = _run(capsys, "franklin", "--n", "8", "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert len(report["report"]["franklin"]["steps"]) == 8


def test_franklin_exits_1_without_order_isomorphism(capsys, monkeypatch):
    # the report states order_isomorphism beside ok, monotone and decay,
    # and the exit status requires all four
    def strip(out):
        report = json.loads(out)
        del report["timing_seconds"]
        return report

    code, out, _ = _run(capsys, "franklin", "--n", "8", "--json")
    assert code == 0
    expected = strip(out)
    expected["report"]["rationality_link"]["order_isomorphism"] = False
    monkeypatch.setattr(FranklinMap, "check_order_isomorphism", lambda self: False)
    code, out, _ = _run(capsys, "franklin", "--n", "8", "--json")
    assert code == 1
    assert strip(out) == expected


def test_scenario_list(capsys):
    code, out, _ = _run(capsys, "scenario", "--list")
    assert code == 0
    assert "thm-2.3" in out.splitlines()


def test_scenario_json_schema_and_stability(capsys, schema):
    outputs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "scenario", "lemma-2.2", "--json", "--n", "8")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    jsonschema.validate(report, schema)
    assert "timing_seconds" not in report


def test_space_declaration_file(tmp_path, capsys):
    f = tmp_path / "space.txt"
    f.write_text("space V dim 2\ngen abs(x), abs(x)\ngen 0, deltaQ(x)\n")
    code, out, _ = _run(capsys, "analyze", str(f), "--json", "--n", "8")
    assert code == 0
    assert json.loads(out)["report"]["dual"]["dim"] == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("space V dim 2\ngen abs(x\n")
    assert _run(capsys, "analyze", str(bad))[0] == 2


def test_check_sum_text_prints_the_combination_and_its_tail(tmp_path, capsys):
    f = tmp_path / "space.txt"
    f.write_text("space S dim 2\ngen abs(x), x\ngen 0, abs(x)\n")
    code, out, _ = _run(capsys, "check-sum", str(f), "--w0", "1,1", "--w1", "0,1")
    assert code == 0
    assert "status: SmoothCertified" in out
    # generator 0's part in W0, (|x|, |x|), is g0 + g1 plus the tail (0, -x)
    assert (
        "    rule: generator-combination\n"
        "    combination:\n      - 1\n      - 1\n"
        "    tail:\n      - 0\n      - -x\n"
    ) in out


def test_unknown_axiom_exits_2(tmp_path, capsys):
    code, _, err = _run(capsys, "analyze", "W-nondecomposable", "--axiom", "a", "--n", "8")
    assert code == 2 and "unknown axiom 'a'" in err
    f = tmp_path / "space.txt"
    f.write_text("space V dim 2\ngen abs(x), gamma(x)\naxiom typo\n")
    code, _, err = _run(capsys, "analyze", str(f), "--n", "8")
    assert code == 2 and "unknown axiom 'typo'" in err
    assert _run(capsys, "check-sum", str(f), "--w0", "1,0", "--w1", "0,1", "--n", "8")[0] == 2
    # a known axiom in the file is assumed
    f.write_text("space V dim 2\ngen abs(x), gamma(x)\naxiom A\n")
    code, out, _ = _run(capsys, "analyze", str(f), "--json", "--n", "8")
    assert code == 0
    assert json.loads(out)["report"]["decomposability"]["status"] == "NonDecomposable"


@pytest.mark.parametrize("argv", [["scenario", "lemma-2.2"], ["franklin"], ["verify-identity"]])
def test_axiom_flag_only_where_a_space_is_loaded(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--axiom", "A", "--n", "8"])
    assert exc.value.code == 2


def test_irrational_isotropic_subspace_exits_2(tmp_path, capsys):
    f = tmp_path / "irrational.txt"
    f.write_text("space V dim 2\ngen abs(x), sqrt2*abs(x)\n")
    code, _, err = _run(capsys, "analyze", str(f), "--n", "8")
    assert code == 2
    assert "irrational" in err


def test_grid_bounds_exit_2(capsys):
    code, _, err = _run(capsys, "verify-identity", "--grid", "rationals:-5", "--n", "8")
    assert code == 2 and "negative" in err
    code, _, err = _run(capsys, "verify-identity", "--grid", "rationals:60000,negatives:40001", "--n", "8")
    assert code == 2 and "100000" in err


@pytest.mark.parametrize("grid", ["", "rationals:0"])
def test_identity_on_a_grid_without_points_exits_2(capsys, grid):
    code, out, err = _run(capsys, "verify-identity", "--grid", grid, "--n", "8")
    assert code == 2 and out == ""
    assert err == f"error: grid {grid!r} has no points to check the identity on\n"


def test_malformed_grid_counts_exit_2(capsys):
    code, out, err = _run(capsys, "verify-identity", "--grid", "zero:5,rationals:2", "--n", "8")
    assert code == 2 and out == ""
    assert "'zero'" in err and "takes no count" in err and "'zero:5,rationals:2'" in err
    code, out, err = _run(capsys, "verify-identity", "--grid", "rationals:abc", "--n", "8")
    assert code == 2 and out == ""
    assert "'rationals'" in err and "'abc'" in err and "'rationals:abc'" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("argv", [["scenario", "cor-2.5", "--json"], ["scenario", "lemma-2.2"]])
def test_closed_pipe_ends_quietly(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "smoothsum.cli", *argv, "--n", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before a byte is written
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("n", ["0", "-3", "33", "100"])
def test_order_out_of_range_exits_2(capsys, n):
    for argv in (
        ["analyze", "V2-delta"],
        ["check-sum", "V2-delta", "--w0", "1,0", "--w1", "0,1"],
        ["franklin"],
        ["verify-identity"],
        ["scenario", "lemma-2.2"],
    ):
        code, _, err = _run(capsys, *argv, "--n", n)
        assert code == 2, argv
        assert "--n must be between 1 and 32" in err


def _declaration(dim: int, n_gens: int) -> str:
    gen = "gen " + ", ".join(["abs(x)"] * max(dim, 1)) + "\n"
    return f"space V dim {dim}\n" + gen * n_gens


@pytest.mark.parametrize("dim", [-1, 0, MAX_DIM + 1])
def test_declared_dim_out_of_range_exits_2(tmp_path, capsys, dim):
    f = tmp_path / "space.txt"
    f.write_text(_declaration(dim, 1))
    for argv in (["analyze", str(f)], ["check-sum", str(f), "--w0", "1", "--w1", "0"]):
        code, _, err = _run(capsys, *argv, "--n", "8")
        assert code == 2, argv
        assert f"dim must be between 1 and {MAX_DIM}, got {dim}" in err


def test_generator_count_bound(tmp_path, capsys):
    f = tmp_path / "space.txt"
    f.write_text(_declaration(1, MAX_GENERATORS))
    assert _run(capsys, "analyze", str(f), "--n", "8")[0] == 0
    f.write_text(_declaration(1, MAX_GENERATORS + 1))
    code, _, err = _run(capsys, "analyze", str(f), "--n", "8")
    assert code == 2
    assert f"more than {MAX_GENERATORS} generators" in err


def test_basis_vector_count_bound(capsys):
    too_many = ";".join(["1,0"] * (MAX_DIM + 1))
    code, _, err = _run(capsys, "check-sum", "V2-delta", "--w0", too_many, "--w1", "0,1", "--n", "8")
    assert code == 2
    assert f"at most {MAX_DIM} vectors" in err


@pytest.mark.parametrize(
    "gen,bound",
    [
        ("abs(" * 300 + "x" + ")" * 300, "MAX_NESTING"),
        ("(" * 5000 + "x" + ")" * 5000, "MAX_NESTING"),
        ("3^10000000000*x", "MAX_EXPONENT"),
        # past Python's 4300-digit int/str limit: folded, and a literal
        ("(3/7)^1000*" * 6 + "abs(x)", "MAX_CONSTANT_DIGITS"),
        ("1" * 5001 + "*abs(x)", "MAX_CONSTANT_DIGITS"),
    ],
    ids=["abs-300", "parens-5000", "power", "folded-constant", "long-literal"],
)
def test_parser_bounds_exit_2(tmp_path, gen, bound):
    # a RecursionError traceback or a hang without the bounds
    f = tmp_path / "space.txt"
    f.write_text(f"space s dim 1\ngen {gen}\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    for argv in (["analyze", str(f)], ["check-sum", str(f), "--w0", "1", "--w1", "0"]):
        proc = subprocess.run(
            [sys.executable, "-m", "smoothsum.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, argv
        assert f"{bound} = " in proc.stderr
        assert "Traceback" not in proc.stderr


def test_witness_file_parser_bound_exits_2(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps([
        {"generator": 0, "part": 0, "terms": [{"scalar": "1", "generator": 0, "inner": "(" * 300 + "x" + ")" * 300}],
         "tail": ["0", "0"]}
    ]))
    code, _, err = _run(
        capsys, "check-sum", "V2-delta", "--w0", "1,0", "--w1", "0,1", "--witness", str(witness), "--n", "8"
    )
    assert code == 2
    assert "MAX_NESTING = " in err


def test_gallery_spaces_within_bounds():
    for name in SPACE_NAMES:
        sp = gallery_space(name)
        assert 1 <= sp.dim <= MAX_DIM and len(sp.generators) <= MAX_GENERATORS


def test_witness_domain_error_is_unknown(tmp_path, capsys):
    # the plot sqrt(-x) has no real value at x > 0: the replay reports
    # where, and the verdict is Unknown instead of a traceback
    space = tmp_path / "space.txt"
    space.write_text("space s dim 2\ngen sqrt(x), sqrt(x)\n")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps([
        {"generator": 0, "part": 0, "terms": [{"scalar": "1", "generator": 0, "inner": "-1*x"}],
         "tail": ["0", "0"]}
    ]))
    code, out, _ = _run(
        capsys, "check-sum", str(space), "--w0", "1,0", "--w1", "0,1", "--witness", str(witness),
        "--json", "--n", "8",
    )
    assert code == 0
    verdict = json.loads(out)["report"]["verdict"]
    assert verdict["status"] == "Unknown"
    assert verdict["reason"].startswith("witness replay failed for generator 0 part 0: domain error at ")
    assert ", component 0: sqrt of a negative number" in verdict["reason"]


def test_sqrt_of_a_negative_irrational_in_a_replay_is_unknown(tmp_path, capsys):
    # x - sqrt(3) is an Irrational float, negative at the grid's small x;
    # a float's sign proves nothing, so its root is indeterminate, not a
    # domain error like sqrt(-x), and not an input error
    space = tmp_path / "space.txt"
    space.write_text("space s dim 2\ngen sqrt(x-sqrt(3)), sqrt(x-sqrt(3))\n")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps([
        {"generator": 0, "part": 0, "terms": [{"scalar": "1", "generator": 0, "inner": "x"}],
         "tail": ["0", "0"]}
    ]))
    code, out, err = _run(
        capsys, "check-sum", str(space), "--w0", "1,0", "--w1", "0,1", "--witness", str(witness),
        "--json", "--n", "8",
    )
    assert code == 0 and err == ""
    verdict = json.loads(out)["report"]["verdict"]
    assert verdict["status"] == "Unknown"
    assert verdict["reason"] == (
        "witness replay failed for generator 0 part 0: indeterminate value at 0, component 0; "
        "refutation: standardness certificates unavailable for one of the subspaces"
    )


def test_float_past_the_range_in_a_replay_is_not_a_crash(tmp_path, capsys):
    # e^(1000x) is past the float range at most grid points; deltaQ reads
    # only its tag, which the axiom table decides at rational x.  The
    # witness reparametrizes generator 1, which no constant combination of
    # the generators does, so only the witness can settle generator 0 part 0
    space = tmp_path / "space.txt"
    space.write_text("space s dim 2\ngen x*deltaQ(exp(1000*x)), 0\ngen 0, x*deltaQ(exp(500*x))\n")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps([
        {"generator": 0, "part": 0,
         "terms": [{"scalar": "1", "generator": 0, "inner": "x"}, {"scalar": "1/2", "generator": 1, "inner": "2*x"}],
         "tail": ["0", "0"]}
    ]))
    code, out, err = _run(
        capsys, "check-sum", str(space), "--w0", "1,1", "--w1", "0,1", "--witness", str(witness),
        "--json", "--n", "8",
    )
    assert code == 0 and "Traceback" not in err
    verdict = json.loads(out)["report"]["verdict"]
    # at x = m*sqrt2/k the tag of e^(1000x) is undecided, so the replay
    # cannot decide the plot there
    assert verdict["status"] == "Unknown"
    assert verdict["reason"].startswith("witness replay failed for generator 0 part 0: indeterminate value at ")


@pytest.mark.parametrize("entry", ["1e3", "1E3", "1e30000000", "2.5e-1", "1_000", "inf", "0x10"])
def test_basis_entry_notation_exits_2(capsys, entry):
    code, _, err = _run(capsys, "check-sum", "V2-delta", "--w0", f"{entry},0", "--w1", "0,1", "--n", "8")
    assert code == 2
    assert "malformed basis" in err and "not p, p/q or a plain decimal" in err


def test_basis_entry_plain_forms_accepted(capsys):
    code, out, _ = _run(capsys, "check-sum", "V2-delta", "--w0", " 3/2 ,.25", "--w1=-0.5,+1.", "--json", "--n", "8")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["w0"]["basis"] == [["1", "1/6"]]
    assert report["w1"]["basis"] == [["1", "-2"]]


def _count_dual_basis(monkeypatch) -> list:
    """Count constraints.dual_basis calls at every module that holds it."""
    calls = []
    original = constraints.dual_basis

    def counting(space):
        calls.append(space.name)
        return original(space)

    for name, module in list(sys.modules.items()):
        if name.startswith("smoothsum") and getattr(module, "dual_basis", None) is original:
            monkeypatch.setattr(module, "dual_basis", counting)
    return calls


@pytest.mark.parametrize(
    "decl",
    [
        "space t dim 3\ngen 0, abs(x), abs(x)\n",  # proper isotropic part
        "space t dim 2\ngen abs(x), abs(x)\ngen 0, deltaQ(x)\n",  # zero dual
        "space t dim 2\ngen x, x^2\n",  # full dual
    ],
)
def test_analyze_computes_the_dual_once(tmp_path, capsys, monkeypatch, decl):
    # for the report; decomposability_report reuses it
    f = tmp_path / "space.txt"
    f.write_text(decl)
    calls = _count_dual_basis(monkeypatch)
    assert _run(capsys, "analyze", str(f), "--json", "--n", "8")[0] == 0
    assert calls == ["t"]


def test_scenario_computes_the_dual_once(capsys, monkeypatch):
    calls = _count_dual_basis(monkeypatch)
    assert _run(capsys, "scenario", "lemma-2.2", "--json", "--n", "8")[0] == 0
    assert calls == ["V2-delta"]


def test_gamma_pair_scenario_computes_the_dual_once(capsys, monkeypatch):
    # complementedness_report takes the scenario's isotropic result
    calls = _count_dual_basis(monkeypatch)
    assert _run(capsys, "scenario", "gamma-pair", "--json", "--n", "8")[0] == 0
    assert calls == ["gamma-pair"]


@pytest.mark.parametrize(
    "scenario, spaces",
    [
        ("nonsmooth-R3", ["R3-abs"]),
        ("w-nondecomposable", ["W-nondecomposable"]),
    ],
)
def test_scenario_reuses_its_characteristic_decomposition(capsys, monkeypatch, scenario, spaces):
    # the report's dual is the one the characteristic decomposition holds
    calls = _count_dual_basis(monkeypatch)
    assert _run(capsys, "scenario", scenario, "--json", "--n", "8")[0] == 0
    assert calls == spaces


_V2_DELTA_GENERATORS = "gen abs(x), abs(x)\ngen 0, deltaQ(x)\n"


def _space_file(tmp_path, decl: str) -> str:
    f = tmp_path / "space.txt"
    f.write_text(decl)
    return str(f)


def _verdicts(capsys, space: str) -> tuple:
    """The check-sum verdict on e1 against e2 and the analyze verdict."""
    code, out, _ = _run(capsys, "check-sum", space, "--w0", "1,0", "--w1", "0,1", "--json", "--n", "8")
    assert code == 0
    check = json.loads(out)["report"]["verdict"]
    code, out, _ = _run(capsys, "analyze", space, "--json", "--n", "8")
    assert code == 0
    return check, json.loads(out)["report"]["decomposability"]


def test_renamed_v2_delta_gets_the_gallery_verdicts(tmp_path, capsys):
    renamed = _verdicts(capsys, _space_file(tmp_path, "space mine dim 2\n" + _V2_DELTA_GENERATORS))
    gallery = _verdicts(capsys, "V2-delta")
    assert renamed[0]["status"] == gallery[0]["status"] == "SmoothCertified"
    assert renamed[1]["status"] == gallery[1]["status"] == "Decomposable"
    # the same certificate, with the plots on the renamed space
    mine = json.dumps(renamed).replace('"space": "mine"', '"space": "V2-delta"')
    assert json.loads(mine) == list(gallery)


@pytest.mark.parametrize(
    "decl",
    [
        "space V2-delta dim 2\ngen abs(x), abs(x)\n",
        "space V2-delta dim 3\ngen abs(x), abs(x), 0\ngen 0, deltaQ(x), 0\n",
    ],
)
def test_a_file_named_v2_delta_gets_a_verdict(tmp_path, capsys, decl):
    space = _space_file(tmp_path, decl)
    dim = int(decl.split()[3])
    basis = ";".join(",".join(str(int(i == j)) for j in range(dim)) for i in range(1, dim))
    for argv in (
        ("analyze", space),
        ("check-sum", space, "--w0", "1" + ",0" * (dim - 1), "--w1", basis),
    ):
        code, _, err = _run(capsys, *argv, "--json", "--n", "8")
        assert code == 0, err


def test_analyze_certifies_the_coordinate_split(tmp_path, capsys):
    space = _space_file(tmp_path, "space axes dim 2\ngen abs(x), 0\ngen 0, abs(x)\n")
    check, dec = _verdicts(capsys, space)
    assert check["status"] == "SmoothCertified"
    assert dec["status"] == "Decomposable"
    assert dec["detail"]["decomposition"] == check


def test_check_sum_with_an_undecided_derivative(tmp_path, capsys):
    # the first component has no one-sided derivative to compare at 0;
    # the refutation rests on the second, which is NonSmooth
    space = _space_file(tmp_path, "space s dim 2\ngen abs(x)+barGamma(x), abs(x)\n")
    code, out, err = _run(capsys, "check-sum", space, "--w0", "1,0", "--w1", "0,1", "--json", "--n", "8")
    assert code == 0, err
    verdict = json.loads(out)["report"]["verdict"]
    assert verdict["status"] == "NonSmooth"
    assert verdict["reason"].startswith("generator 0 component 1 (abs(x)) is NonSmooth")


def test_check_sum_reports_why_the_refutation_is_unknown(tmp_path, capsys):
    # no witness certifies the sum, and the refutation cannot decide
    # generator 0: the verdict names both reasons
    space = _space_file(tmp_path, "space s dim 2\ngen abs(x)+barGamma(x), abs(x)+barGamma(x)\ngen x, 0\n")
    code, out, err = _run(capsys, "check-sum", space, "--w0", "1,0", "--w1", "0,1", "--json", "--n", "8")
    assert code == 0, err
    verdict = json.loads(out)["report"]["verdict"]
    assert verdict["status"] == "Unknown"
    assert verdict["reason"] == (
        "no rule or witness for generator 0 part 0; refutation: smoothness undecided for "
        "generator 0 component 0, generator 0 component 1"
    )
