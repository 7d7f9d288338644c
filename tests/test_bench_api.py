"""The benchmark in ``bench/`` calls the library by name; those names must
exist and accept the arguments the benchmark passes."""

import ast
import dataclasses
import importlib
import inspect
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


def _workload_calls() -> list[ast.Call]:
    """Every ``<layer>.<function>(...)`` call in bench/workloads.py."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in LAYERS
    ]


def _call_name(call: ast.Call) -> str:
    return f"{call.func.value.id}.{call.func.attr}"


def _library(name: str):
    layer, func = name.split(".")
    return getattr(importlib.import_module(f"nehari.{layer}"), func, None)


def _resolves(name: str) -> bool:
    return callable(_library(name))


def test_traced_spans_resolve():
    spans = _tracing_constant("SPANS")
    assert "fibering.project_scale" in spans
    assert [name for name in spans if not _resolves(name)] == []


def test_workload_calls_resolve():
    calls = {_call_name(call) for call in _workload_calls()}
    assert {"solver.solve_both", "fibering.classify", "fibering.ray_energy_dt"} <= calls
    assert sorted(name for name in calls if not _resolves(name)) == []


def test_workload_calls_bind_to_the_signatures():
    # a removed or renamed parameter fails here, not in the benchmark run
    unbound = []
    calls = _workload_calls()
    assert any(call.keywords for call in calls)  # solve_both(thresholds=...)
    for call in calls:
        name = _call_name(call)
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), name
        assert all(kw.arg is not None for kw in call.keywords), name
        try:
            inspect.signature(_library(name)).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords}
            )
        except TypeError as err:
            unbound.append(f"line {call.lineno}: {name}: {err}")
    assert unbound == []


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
