"""Import structure.  The stuart run path stays on numpy: importing scipy
roughly doubles the peak resident memory of a run.  Every correctly rounded
sum goes through ``grid``'s one summation kernel."""

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


def test_math_fsum_is_used_only_in_grid():
    # the package calls math.fsum once: the last fallback of the lone-row sum
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "fsum"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "math"
                    and any(alias.name == "fsum" for alias in node.names)
                ):
                    uses.append((path.name, getattr(top, "name", None), id(node) in calls))
    assert uses == [("grid.py", "_exact_row_sum", True)], uses


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
    # fibering reads φ only through its one integrand table, so the plain
    # sums of the root searches and the exact sums of reported values
    # integrate the same products
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
