"""The benchmark in ``bench/`` calls the library by name; those names must exist."""

import ast
import importlib
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = ("config", "solver", "fibering", "energy", "grid")


def _spans() -> tuple[str, ...]:
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "SPANS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no SPANS")


def _workload_calls() -> set[str]:
    text = (BENCH / "workloads.py").read_text()
    pattern = rf"(?<![\w.])({'|'.join(LAYERS)})\.(\w+)\("
    return {f"{layer}.{func}" for layer, func in re.findall(pattern, text)}


def _resolves(name: str) -> bool:
    layer, func = name.split(".")
    return callable(getattr(importlib.import_module(f"nehari.{layer}"), func, None))


def test_traced_spans_resolve():
    spans = _spans()
    assert "fibering.project_scale" in spans
    assert [name for name in spans if not _resolves(name)] == []


def test_workload_calls_resolve():
    calls = _workload_calls()
    assert {"solver.solve_both", "fibering.classify", "fibering.ray_energy_dt"} <= calls
    assert sorted(name for name in calls if not _resolves(name)) == []
