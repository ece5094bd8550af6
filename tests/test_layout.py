"""src/ holds what the tracker, the CLI and the dumps run.

Every public top-level function or class of a module of src/edgetrack is
referenced by some module of src/ other than through its own definition,
or is named by the benchmark driver, which wraps and counts program
functions by name.  A definition that only tests call belongs in the tests.

Fixed-point words stay inside realmath: no other module names a
fixed-point type or reads the ``.raw`` words of an array.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "edgetrack"
BENCHMARK_DRIVER = ROOT / "benchmarks" / "run.py"


def referenced_names(statements) -> set:
    """Names, attribute names and imported names used in the statements."""
    names = set()
    for node in (n for s in statements for n in ast.walk(s)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_has_a_caller_in_src_or_the_benchmark():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    driver = BENCHMARK_DRIVER.read_text()
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(referenced_names(t.body) for m, t in trees.items() if m != module))
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("_"):
                continue
            here = referenced_names(s for s in tree.body if s is not stmt)
            if name in elsewhere or name in here or re.search(rf"\b{name}\b", driver):
                continue
            unused.append(f"{module}:{name}")
    assert not unused, f"defined in src/ but called only from tests: {unused}"


def test_reference_scan_sees_names_attributes_and_imports():
    tree = ast.parse(
        "from .geometry import clip_near\n"
        "import numpy\n"
        "def f(x):\n"
        "    return rasterizer.points_visible(x, helper)\n"
    )
    names = referenced_names(tree.body)
    assert {"clip_near", "numpy", "points_visible", "rasterizer", "helper", "x"} <= names
    assert "f" not in names


FIXED_POINT_NAMES = {"FixedArray", "FixedBackend", "FixedPoint", "QFormat"}


def fixed_point_uses(tree) -> list:
    """Where the tree names a fixed-point type or reads a ``.raw`` word:
    (line, name) pairs."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            uses += [(node.lineno, a.name) for a in node.names if a.name in FIXED_POINT_NAMES]
        elif isinstance(node, ast.Name) and node.id in FIXED_POINT_NAMES:
            uses.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FIXED_POINT_NAMES | {"raw"}:
            uses.append((node.lineno, node.attr))
    return uses


def test_fixed_point_words_stay_inside_realmath():
    # Every stage outside realmath runs on the backend protocol: it neither
    # names the fixed-point types nor reads their words.
    found = [f"{path.name}:{line}:{name}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("realmath.py", "__init__.py")
             for line, name in fixed_point_uses(ast.parse(path.read_text()))]
    assert not found, f"fixed-point types or words outside realmath: {found}"


def test_fixed_point_scan_sees_imports_names_and_raw_reads():
    tree = ast.parse(
        "from .realmath import FixedArray, get_backend\n"
        "def f(x, be):\n"
        "    return x.raw if isinstance(x, realmath.QFormat) else be.to_float(x)\n"
    )
    assert sorted(name for _, name in fixed_point_uses(tree)) == ["FixedArray", "QFormat", "raw"]
