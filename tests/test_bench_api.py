"""The benchmark in ``bench/`` calls the library by name; those names must exist."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = ("config", "solver", "fibering", "energy", "grid")


def _tracing_constant(name: str) -> tuple[str, ...]:
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracing.py defines no {name}")


def _workload_calls() -> set[str]:
    text = (BENCH / "workloads.py").read_text()
    pattern = rf"(?<![\w.])({'|'.join(LAYERS)})\.(\w+)\("
    return {f"{layer}.{func}" for layer, func in re.findall(pattern, text)}


def _resolves(name: str) -> bool:
    layer, func = name.split(".")
    return callable(getattr(importlib.import_module(f"nehari.{layer}"), func, None))


def test_traced_spans_resolve():
    spans = _tracing_constant("SPANS")
    assert "fibering.project_scale" in spans
    assert [name for name in spans if not _resolves(name)] == []


def test_workload_calls_resolve():
    calls = _workload_calls()
    assert {"solver.solve_both", "fibering.classify", "fibering.ray_energy_dt"} <= calls
    assert sorted(name for name in calls if not _resolves(name)) == []


def test_traced_phi_patch_points_resolve():
    # the tracer also replaces config.build_phi and the PhiModel callables
    patched = set(re.findall(r"config\.(\w+)\b", (BENCH / "tracing.py").read_text()))
    assert "build_phi" in patched
    config = importlib.import_module("nehari.config")
    assert sorted(name for name in patched if not callable(getattr(config, name, None))) == []
    phi = importlib.import_module("nehari.phi")
    fields = {f.name for f in dataclasses.fields(phi.PhiModel)}
    callables = _tracing_constant("PHI_CALLABLES")
    assert callables and set(callables) <= fields
    model = phi.constant_model(1.0)
    assert all(callable(getattr(model, name)) for name in callables)
