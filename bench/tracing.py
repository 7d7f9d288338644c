"""Outside-in tracing of the nehari layers.

The library is not modified.  Inside a ``Tracer.tracing`` block, every public
function named in ``SPANS`` is replaced, in its home module and in every
module that bound a copy with ``from … import``, by a wrapper that records a
span: name, start, end, parent span and operation id.  The φ callables are
wrapped by ``dataclasses.replace`` on the model that ``config.build_phi``
returns, so only problems prepared inside such a block have traced φ.

Spans live in flat arrays in memory and are written out once, by
``Tracer.save``.  A span's self time is its duration minus the durations of
its child spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer.function; the layer is the module that defines the function
SPANS = (
    "config.prepare_run",
    "phi.verify_hypotheses",
    "grid.estimate_sobolev",
    "grid.inner",
    "grid.integrate",
    "grid.pointwise_energy",
    "energy.energy",
    "energy.energy_gradient",
    "energy.dual_norm",
    "thresholds.compute_thresholds",
    "fibering.classify",
    "fibering.project_scale",
    "fibering.project",
    "fibering.sample_ray",
    "solver.minimize_branch",
    "solver.solve_both",
)
PHI_CALLABLES = ("raw_Phi", "raw_phi", "raw_dphi", "raw_d2phi")
MODULES = ("config", "energy", "fibering", "grid", "phi", "solver", "thresholds")
SETUP_OP = -1  # operation id of spans recorded outside an operation


class Tracer:
    """Span store, and the switch that turns recording on and off."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("i")  # indices of spans that ended in an exception
        self.elements: dict[int, int] = {}  # name id -> elements seen in operations
        self._stack = [-1]
        self.active = False
        self.op_id = SETUP_OP

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.elements[self._ids[name]] = 0
        return self._ids[name]

    def wrap(self, name: str, fn, count_elements: bool = False):
        """``fn`` with a span around each call made while the tracer is active."""
        nid = self._id(name)
        # the arrays only grow, so their bound methods stay valid
        add_name, add_parent, add_op = self.name_id.append, self.parent.append, self.op.append
        add_start, add_end, add_raised = self.start.append, self.end.append, self.raised.append
        end, stack, elements = self.end, self._stack, self.elements

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_op(self.op_id)
            add_end(0.0)
            if count_elements and self.op_id != SETUP_OP:
                elements[nid] += getattr(args[0], "size", 1)
            stack.append(idx)
            add_start(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                add_raised(idx)
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def tracing(self, op_id: int):
        """Patch the library and record spans of one operation for the block.

        ``op_id`` is ``SETUP_OP`` for set-up work outside any operation.  φ
        wrappers outlive the block, but record only inside one.
        """
        modules = [importlib.import_module(f"nehari.{m}") for m in MODULES]
        patches = []
        for name in SPANS:
            layer, func = name.split(".")
            original = getattr(importlib.import_module(f"nehari.{layer}"), func)
            wrapper = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, func, None) is original:
                    patches.append((mod, func, original))
                    setattr(mod, func, wrapper)

        config = importlib.import_module("nehari.config")
        build_phi = config.build_phi

        def traced_build_phi(spec):
            model = build_phi(spec)
            return dataclasses.replace(
                model,
                **{
                    f: self.wrap(f"phi.{f}", getattr(model, f), count_elements=True)
                    for f in PHI_CALLABLES
                },
            )

        patches.append((config, "build_phi", build_phi))
        config.build_phi = traced_build_phi
        self.op_id, self.active = op_id, True
        try:
            yield
        finally:
            self.active = False
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            raised=np.frombuffer(self.raised, dtype=np.int32),
            **self.arrays(),
        )


class SpanStats:
    """Per-name totals: calls, self time, failures, phi calls per projection."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        n = len(a["start"])
        ids = a["name_id"]
        parent = a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        width = len(tracer.names)
        in_op = a["op"] != SETUP_OP
        self._names = tracer._ids
        self._elements = tracer.elements
        self._calls_all = np.bincount(ids, minlength=width)
        self._self_all = np.bincount(ids, weights=self_time, minlength=width)
        self._calls = np.bincount(ids[in_op], minlength=width)
        self._self = np.bincount(ids[in_op], weights=self_time[in_op], minlength=width)
        raised = np.frombuffer(tracer.raised, dtype=np.int32)
        self._failures = np.bincount(ids[raised], minlength=width)

        # nearest enclosing project_scale span; parents precede children
        ps = self._names.get("fibering.project_scale", -2)
        mb = self._names.get("solver.minimize_branch", -2)
        raw_phi = self._names.get("phi.raw_phi", -2)
        inside = np.zeros(n, dtype=bool)
        ids_l, parent_l = ids.tolist(), parent.tolist()
        for i in range(n):
            p = parent_l[i]
            inside[i] = p >= 0 and (ids_l[p] == ps or inside[p])
        phi_inside = inside & (ids == raw_phi)
        projections = ids == ps
        self.phi_in_projection = int(np.count_nonzero(phi_inside))
        self.projections_in_descent = int(
            np.count_nonzero(projections & has_parent & (ids[np.maximum(parent, 0)] == mb))
        )
        ops = a["op"]
        n_ops = int(ops.max()) + 1 if n else 0
        self.projections_by_op = np.bincount(ops[projections & in_op], minlength=n_ops)
        self.phi_in_projection_by_op = np.bincount(ops[phi_inside & in_op], minlength=n_ops)

    def _get(self, table, name: str) -> float:
        idx = self._names.get(name)
        return 0.0 if idx is None else float(table[idx])

    def calls(self, name: str, setup: bool = False) -> float:
        return self._get(self._calls_all if setup else self._calls, name)

    def self_s(self, name: str, setup: bool = False) -> float:
        return self._get(self._self_all if setup else self._self, name)

    def failures(self, name: str) -> float:
        return self._get(self._failures, name)

    def elements(self, name: str) -> int:
        idx = self._names.get(name)
        return 0 if idx is None else self._elements[idx]
