"""Checks on the sources themselves.

`perfbench/tracer.py` names the functions it traces as (module, qualified
name) pairs.  Deleting or renaming one of them breaks the traced benchmark
run; the first test makes it break the test suite as well.  The second
keeps every module-level import in `src/` and `tests/` in use, and the
third keeps every top-level function and class of the package, and
every method of its classes, called from the package itself, and every
field of its classes read there, so code and data only the tests reach
live in the tests; a short list names the methods
kept as the API the tests check results with.
The fourth keeps the linear-algebra layer on one scalar, ``QSqrt2``:
``Fraction`` stays in parsing, the matching construction and ``numbers``.
The fifth keeps every import of the package at module level, where it
runs once, not at each call of a function.  The sixth keeps the
integer arithmetic of ``QSqrt2`` triples in ``numbers``, out of every
other module of the package.  The seventh installs the tracer on a
fresh import of the package and finds no reference to an unwrapped
original, which would fail the traced run.  The eighth keeps every
``Plan`` built in ``expr``, whose ``replay_zero_forms`` replays grids
for every caller, so a second replay path cannot grow back.  The last
two run the traced ``franklin-build`` and ``verdict-mix`` benchmark
passes, which fail when a command's report is wrong or a function they
predict to be called (``intervals.poly_product_derivative``, say) no
longer is.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import smoothsum

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for modname, qualname, *_ in targets:
        obj = importlib.import_module(f"smoothsum.{modname}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{qualname}")
    assert missing == []


def _unused_imports(path: Path, root: Path = ROOT) -> list:
    """Names bound by a module-level import that the module never reads,
    as "file:line name".  A name counts as read when it occurs as a name
    anywhere in the module, in a quoted annotation, or in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                quoted = ast.parse(ann.value, mode="eval")
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    rel = path.relative_to(root)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_module_level_imports():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(sources) > 20
    unused = [entry for path in sources for entry in _unused_imports(path)]
    assert unused == []


def test_unused_import_check_sees_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from typing import Optional\n"
        "from decimal import Decimal\n"
        "__all__ = ['Decimal']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return math.floor(x)\n"
    )
    found = _unused_imports(sample, tmp_path)
    assert found == ["sample.py:3 os", "sample.py:4 F"]


# Modules whose matrices, subspaces and maps hold QSqrt2 entries only.
SINGLE_SCALAR_MODULES = ("linalg", "diffeology", "constraints", "decompose")


def _fractions_imports(path: Path) -> list:
    """Line numbers at which ``path`` imports the stdlib fractions module,
    at module level or inside a function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "fractions" for name in names):
            found.append(node.lineno)
    return found


def test_linear_algebra_layer_does_not_import_fractions():
    package = ROOT / "src" / "smoothsum"
    found = {m: _fractions_imports(package / f"{m}.py") for m in SINGLE_SCALAR_MODULES}
    assert found == {m: [] for m in SINGLE_SCALAR_MODULES}


def test_fractions_import_check_sees_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import fractions\n"
        "from fractions import Fraction\n"
        "from .fractions import local\n"
        "import fractionsx\n"
        "def f():\n"
        "    import fractions as fr\n"
        "    return fr\n"
    )
    assert _fractions_imports(sample) == [1, 2, 6]


def _function_level_imports(package: Path, root: Path = ROOT) -> list:
    """Import statements inside a function or lambda of ``package``, as
    "file:line", each once however deeply it is nested."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                lines.update(n.lineno for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom)))
        found.extend(f"{path.relative_to(root)}:{line}" for line in sorted(lines))
    return found


def test_no_import_inside_a_function():
    assert _function_level_imports(ROOT / "src" / "smoothsum") == []


def test_function_level_import_check_sees_what_it_should(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "import math\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import os\n"
        "def f():\n"
        "    import json\n"
        "    return json\n"
        "class C:\n"
        "    def m(self):\n"
        "        from . import b\n"
        "        def inner():\n"
        "            import re\n"
        "            return re\n"
        "        return b, inner\n"
    )
    (package / "b.py").write_text(
        "async def g():\n"
        "    import asyncio\n"
        "    return asyncio\n"
    )
    found = _function_level_imports(package, tmp_path)
    assert found == ["pkg/a.py:6", "pkg/a.py:10", "pkg/a.py:12", "pkg/b.py:2"]


TRIPLE_FIELDS = ("p", "q", "d")


def _triple_field_arithmetic(path: Path) -> list:
    """Line numbers of the binary operations and augmented assignments in
    ``path`` with an operand that is an attribute named p, q or d: the
    fields of a ``QSqrt2`` triple."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            operands = (node.target, node.value)
        else:
            continue
        if any(isinstance(o, ast.Attribute) and o.attr in TRIPLE_FIELDS for o in operands):
            found.add(node.lineno)
    return sorted(found)


def test_plans_do_no_arithmetic_on_triple_fields():
    # expr's plans, the matching construction and every other module
    # leave the (p, q, d) form to numbers
    modules = [path for path in sorted((ROOT / "src" / "smoothsum").glob("*.py")) if path.name != "numbers.py"]
    assert len(modules) >= 10
    found = {path.name: _triple_field_arithmetic(path) for path in modules}
    assert found == {path.name: [] for path in modules}


def test_triple_field_arithmetic_check_sees_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(v, w, total):\n"
        "    a = v.p * w.q\n"
        "    b = 2 + w.d\n"
        "    total += v.q\n"
        "    c = v.p\n"
        "    ok = max(abs(v.p), v.d) >= 10 and v.d.bit_length() - 1 > 0\n"
        "    e = v.pq + v.value * 2\n"
        "    return (a, b, c, ok, e, -v.p)\n"
    )
    assert _triple_field_arithmetic(sample) == [2, 3, 4]


def _names_read(node: ast.AST):
    """Every name ``node`` reads, bare or as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _attributes_read(node: ast.AST):
    """Every name ``node`` reads as an attribute."""
    return (n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _unreferenced_definitions(package: Path, root: Path = ROOT) -> list:
    """Top-level functions and classes of ``package`` whose name the package
    never reads outside their own definition, as "file:line name"; methods
    of its top-level classes, dunders aside, that it never reads as an
    attribute outside their own body nor names in a string, as
    "file:line Class.method"; and fields (annotated names in the body) of
    its top-level classes that it never reads as an attribute nor names in
    a string, as "file:line Class.field".  An import is not a read, and an
    attribute of the same name is, so the check errs towards passing."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.rglob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _names_read(tree))
    attributes = Counter(name for tree in trees.values() for name in _attributes_read(tree))
    strings = {n.value for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside = sum(1 for name in _names_read(node) if name == node.name)
                if reads[node.name] == inside:
                    found.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
            members = node.body if isinstance(node, ast.ClassDef) else ()
            for member in members:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                    if not attributes[name] and name not in strings:
                        found.append(f"{path.relative_to(root)}:{member.lineno} {node.name}.{name}")
                    continue
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                method = member
                name = method.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                inside = sum(1 for read in _attributes_read(method) if read == name)
                if attributes[name] == inside and name not in strings:
                    found.append(f"{path.relative_to(root)}:{method.lineno} {node.name}.{name}")
    return found


# Methods the package never reads, kept as the API the tests check its
# results with, and why each stays
TEST_API = {
    "Subspace.contains": "the tests check membership in computed subspaces",
    "LinearMap.apply": "the tests apply computed projections to vectors",
    "Interval.contains": "the interval tests check that each enclosure holds its value",
    "Interval.width": "the interval tests check that widths add over a split",
    "TaggedReal.approx": "the tests build points that carry only a float",
}


def test_no_definition_only_tests_reach():
    found = _unreferenced_definitions(ROOT / "src" / "smoothsum")
    assert [entry for entry in found if entry.split()[1] not in TEST_API] == []
    # an entry the package has come to read, or deleted, leaves the list
    assert sorted(entry.split()[1] for entry in found) == sorted(TEST_API)


def test_unreferenced_definition_check_sees_what_it_should(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n"
        "    return helper() + Box.size + Box().read() + getattr(Box(), 'by_name')()\n"
        "def helper():\n"
        "    return 1\n"
        "class Box:\n"
        "    size = 2\n"
        "    def read(self):\n"
        "        return 0\n"
        "    def by_name(self):\n"
        "        return 0\n"
        "    def only_tested(self):\n"
        "        return 0\n"
        "    def again(self, n):\n"
        "        return self.again(n - 1) if n else 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def only_imported():\n"
        "    return 0\n"
        "def read_as_attribute():\n"
        "    return 0\n"
    )
    (package / "b.py").write_text(
        "from . import a\n"
        "from .a import only_imported, used\n"
        "class Record:\n"
        "    read: int = 0\n"
        "    named: int = 0\n"
        "    unread: int = 0\n"
        "    plain = 0\n"
        "def main():\n"
        "    return used() + a.read_as_attribute() + Record().read + getattr(Record(), 'named')\n"
    )
    found = _unreferenced_definitions(package, tmp_path)
    assert found == [
        "pkg/a.py:11 Box.only_tested",
        "pkg/a.py:13 Box.again",
        "pkg/a.py:17 recursive",
        "pkg/a.py:19 only_imported",
        "pkg/b.py:6 Record.unread",
        "pkg/b.py:8 main",
    ]


def _plan_builders(package: Path, root: Path = ROOT) -> list:
    """The modules of ``package`` that call ``Plan``, bare or as an
    attribute, as paths relative to ``root``."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = [n.func for n in ast.walk(tree) if isinstance(n, ast.Call)]
        if any(getattr(f, "id", None) == "Plan" or getattr(f, "attr", None) == "Plan" for f in calls):
            found.append(str(path.relative_to(root)))
    return found


def test_plans_are_built_in_expr_only():
    assert _plan_builders(ROOT / "src" / "smoothsum") == ["src/smoothsum/expr.py"]


def test_plan_builder_check_sees_what_it_should(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("from .expr import Plan\ndef f(ts):\n    return Plan(ts)\n")
    (package / "b.py").write_text("from . import expr\nP = expr.Plan([])\n")
    (package / "c.py").write_text("from .expr import Plan\ndef f(ts, cls=Plan):\n    return cls(ts), 'Plan(ts)'\n")
    assert _plan_builders(package, tmp_path) == ["pkg/a.py", "pkg/b.py"]


def _package_modules() -> list:
    return [name for name in sys.modules if name == "smoothsum" or name.startswith("smoothsum.")]


def test_tracer_leaves_no_unwrapped_original():
    """A module-level container, class attribute or default argument that
    keeps a traced function (say ``{"exp": exp_tagged}`` in ``expr``)
    would bypass its wrapper."""
    tracer_module = _load_tracer()
    saved = {name: sys.modules[name] for name in _package_modules()}
    try:
        for name in saved:
            del sys.modules[name]
        package = {
            path.stem: importlib.import_module(f"smoothsum.{path.stem}")
            for path in sorted((ROOT / "src" / "smoothsum").glob("*.py"))
            if path.stem != "__init__"
        }
        tracer = tracer_module.Tracer(package)
        tracer.install()
        try:
            assert tracer.leftovers() == []
        finally:
            tracer.uninstall()
    finally:
        # the other tests keep the modules they imported
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _traced_run(workload: str) -> None:
    """One second of the traced benchmark run of ``workload``, seed 1,
    judged correct with every predicted counter non-zero."""
    # PYTHONPATH points at the package this test run imports, as for the
    # CLI children of test_acceptance
    src = str(Path(smoothsum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout


def test_traced_franklin_build_run_is_correct():
    _traced_run("franklin-build")


def test_traced_verdict_mix_run_is_correct():
    # the 17 gallery commands, through every traced decision procedure
    _traced_run("verdict-mix")
