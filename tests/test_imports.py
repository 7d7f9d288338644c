"""Import structure.  The stuart run path stays on numpy: importing scipy
roughly doubles the peak resident memory of a run.  Every quadrature is one
plain sum, made by ``grid.integrate``, and every exported name has a reader
outside the tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nehari"

PROGRAM = """
import sys
from nehari.config import parse_config, prepare_run
from nehari.fibering import project_scale
from nehari.solver import seed_field

with open(sys.argv[1]) as fh:
    prep = prepare_run(parse_config(fh.read()))
project_scale(seed_field(prep.problem, "minus"), prep.problem, "minus")
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_stuart_run_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(ROOT / "configs" / "reference_stuart.ini")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == ""


def summation_rule_breaches(src):
    """(file, function, what) for each breach of the one summation rule in src.

    A breach is a use of ``math.fsum``, an ``np.add.reduce`` call outside
    ``grid.integrate``, or a function other than ``integrate`` named for a
    sum, as a second kernel (exact, compensated, row-wise) would be.
    """
    breaches = []

    def visit(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            if "sum" in node.name.lower():
                breaches.append((path.name, function, "defines a sum"))
        if (isinstance(node, ast.Attribute) and node.attr == "fsum") or (
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "fsum" for alias in node.names)
        ):
            breaches.append((path.name, function, "math.fsum"))
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "reduce"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "add"
            and (path.name, function) != ("grid.py", "integrate")
        ):
            breaches.append((path.name, function, "np.add.reduce"))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return breaches


def test_one_summation_rule():
    # every quadrature of the package is one plain sum through grid.integrate
    # (or the same numpy sum inline): no module uses math.fsum, and none
    # defines a second summation helper beside grid.integrate
    assert summation_rule_breaches(SRC) == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "grid.py")
)
def test_no_private_summation_helper_outside_grid(module):
    # every other module sums through the public ``grid.integrate`` only
    tree = ast.parse((SRC / module).read_text())
    helpers = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "grid"
        for alias in node.names
        if alias.name.startswith("_") and "sum" in alias.name
    ]
    helpers += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "grid"
        and node.attr.startswith("_")
        and "sum" in node.attr
    ]
    assert helpers == []


def test_ray_integrands_are_written_once():
    # fibering reads φ only through its one integrand table, so the root
    # searches and the reported values integrate the same products
    raw = {"raw_Phi", "raw_phi", "raw_dphi", "raw_d2phi"}
    tree = ast.parse((SRC / "fibering.py").read_text())
    (table,) = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["_INTEGRANDS"]
    ]
    inside = {id(node) for node in ast.walk(table)}
    uses = [
        (node.attr, node.lineno, id(node) in inside)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in raw
    ]
    assert {attr for attr, _, _ in uses} == raw
    assert [(attr, line) for attr, line, ok in uses if not ok] == []


def exported_names(path):
    """The names in the module's ``__all__``."""
    for node in ast.parse(path.read_text()).body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def read_names(path, layers):
    """Names the file reads: names, attributes and "layer.function" strings."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            layer, _, name = node.value.partition(".")
            if layer in layers and name.isidentifier():
                read.add(name)
    return read


def test_every_exported_name_has_a_reader():
    # a name in a submodule's __all__ is read in the package, the benchmark
    # or the demos, e.g. as an entry of bench/tracing.py's SPANS; the
    # re-exports of __init__.py are not readers, and neither are the tests
    layers = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    read = set()
    for folder in (SRC, ROOT / "bench", ROOT / "demos"):
        for path in folder.glob("*.py"):
            if path.name != "__init__.py":
                read |= read_names(path, layers)
    unread = sorted(
        name
        for layer in layers
        for name in exported_names(SRC / f"{layer}.py")
        if name not in read
    )
    assert unread == [], unread
