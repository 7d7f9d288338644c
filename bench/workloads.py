"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Every workload is a closed loop with one client: an operation starts when
the previous one ends.  The library sees only generated config text and
``Field`` values, and is called through its public modules (``config``,
``solver``, ``fibering``, ``energy``, ``grid``), looked up at call time so
that the tracer's wrappers are the ones called inside its blocks.

Known defects.  The timed inputs are ones on which no operation fails; the
input the third defect stops is set aside and diagnosed, untimed, in every
rays run, whose ``known-defects`` line reports how it fares:

* With the shipped symmetric weights the plus-branch seed has
  B = ∫b|u|^{p+1} ≈ ±1e-18, and the case taxonomy branches on its sign.
* ``solve_both`` raises ``BracketError`` at λ = auto:0.35 on the 17³
  default config, and on the stuart config at 13³ or more.  Neither lies
  inside the solve panel.
* ``classify`` raises ``BracketError`` on a field whose concave integral is
  tiny and positive, as its root lies below the 1e-9 bracket cap: field 24
  of the rays panel, and field 103 of ``default_rng(21)`` (A = 4.3e-7,
  B < 0).
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

import numpy as np
from nehari import config, fibering, grid, solver

# the package re-exports the function ``energy`` under the module's name
energy = importlib.import_module("nehari.energy")

ROOT = Path(__file__).resolve().parent.parent
STUART_INI = ROOT / "configs" / "reference_stuart.ini"
SHIPPED_LAMBDA = "lambda = auto:0.5"
RAY_T = np.logspace(-2, 2, 201)  # the t grid of the ``nehari fibering`` command
RAY_PANEL_SEED = 0  # the rays panel is drawn once, from default_rng(RAY_PANEL_SEED)
RAY_PANEL_SIZE = 48
RAY_DEFECT_FIELDS = (24,)  # panel fields the known BracketError stops; see above
RAY_RTOL = 1e-9  # |γ'(t)| at a reported root, relative to its terms' size
ENERGY_RTOL = 1e-12


def timed_prepare(text: str):
    """``prepare_run`` on parsed config text, and its wall time in seconds."""
    run = config.parse_config(text)
    t0 = perf_counter()
    prep = config.prepare_run(run)
    return prep, perf_counter() - t0


@dataclass
class Outcome:
    op_s: float  # wall time of the operation proper
    setup_s: float | None  # wall time of the prepare_run it made, if any
    result: Any


def _ray_scale(u, t: float, cfg, concave: float, convex: float) -> float:
    """Size of the three terms of γ'(t) = t·m0 − λt^q·A − t^p·B."""
    dens = grid.pointwise_energy(u)
    m0 = grid.integrate(cfg.grid, cfg.phi.phi(dens * (t * t / 2.0)) * dens)
    return abs(t * m0) + cfg.lam * t**cfg.q * abs(concave) + t**cfg.p * abs(convex)


class Workload:
    """A named config, and the number of inputs that make one whole panel."""

    panel = 1

    def __init__(self, name: str, text: str):
        self.name = name
        self.text = text

    def setup_s(self) -> float:
        """Wall time of one more ``prepare_run`` of the workload's config."""
        return timed_prepare(self.text)[1]

    def known_defects(self, context) -> dict:
        """How the inputs set aside for a known defect fare now; untimed."""
        return {}


class SolveWorkload(Workload):
    """One operation is ``prepare_run`` + ``solve_both`` at λ = auto:f.

    The fractions f form a fixed panel that every run covers whole, in an
    order the seed shuffles.  Iteration counts are chaotic in λ (a change of
    1e-9 in f moves them by over 10%), and a run holds too few solves to
    average over λ drawn at random, so a seeded λ would make the run's
    figures follow the seed rather than the code.
    """

    def __init__(self, name: str, text: str, fracs: tuple[float, ...]):
        if SHIPPED_LAMBDA not in text:
            raise ValueError(f"{name}: config has no '{SHIPPED_LAMBDA}' line")
        super().__init__(name, text)
        self.fracs = fracs
        self.panel = len(fracs)

    def inputs(self, rng: np.random.Generator) -> Iterator[float]:
        """The panel in seeded order, again and again."""
        while True:
            yield from (float(f) for f in rng.permutation(self.fracs))

    def start(self):
        return None, None

    def run(self, frac: float, context) -> Outcome:
        text = self.text.replace(SHIPPED_LAMBDA, f"lambda = auto:{frac!r}")
        prep, setup_s = timed_prepare(text)
        t0 = perf_counter()
        pair = solver.solve_both(prep.problem, thresholds=prep.thresholds)
        op_s = perf_counter() - t0
        if pair.failures:
            # a branch the library reports as failed is a failed operation,
            # like an exception, not a wrong output
            raise RuntimeError(f"solve_both failed: {pair.failures}")
        return Outcome(op_s, setup_s, (prep, pair))

    def check(self, frac: float, outcome: Outcome) -> list[str]:
        """Criterion 8's invariants, plus an independent energy and residual."""
        prep, pair = outcome.result
        cfg = prep.problem
        problems = []
        if pair.ordering_ok is not True:
            problems.append(f"ordering_ok is {pair.ordering_ok}")
        for branch, rep in (("plus", pair.plus), ("minus", pair.minus)):
            if rep is None:
                problems.append(f"{branch}: branch missing")
                continue
            pt, inv = rep.point, rep.invariants
            want = -1.0 if branch == "plus" else 1.0  # energy sign; γ'' has the other
            checks = {
                "converged": rep.converged,
                "monotone_energy": inv["monotone_energy"],
                "energy sign": pt.energy * want > 0.0,
                "gamma2 sign": pt.gamma2 * want < 0.0,
                "residual <= tol": rep.residual_history[-1] <= cfg.residual_tol,
                "final_full_residual <= tol": inv["final_full_residual"]
                <= cfg.residual_tol,
            }
            problems += [f"{branch}: {k} fails" for k, ok in checks.items() if not ok]
            recomputed = energy.energy(pt.field, cfg)
            if abs(recomputed - pt.energy) > ENERGY_RTOL * max(1.0, abs(recomputed)):
                problems.append(f"{branch}: energy {pt.energy!r} != {recomputed!r}")
            residual = abs(energy.nehari_residual(pt.field, cfg))
            scale = _ray_scale(
                pt.field,
                1.0,
                cfg,
                energy.concave_integral(pt.field, cfg),
                energy.convex_integral(pt.field, cfg),
            )
            if not residual <= RAY_RTOL * scale:
                problems.append(f"{branch}: |G(u)| = {residual:.3e} off the manifold")
        return problems

    def counts(self, outcome: Outcome) -> dict:
        prep, pair = outcome.result
        out: dict = {"frac": prep.run.lam_value}
        for branch in ("minus", "plus"):
            rep = getattr(pair, branch)
            if rep is not None:
                out[f"iterations.{branch}"] = rep.iterations
                out[f"steps.{branch}"] = len(rep.energy_history) - 1
                out[f"restarts.{branch}"] = rep.restarts
        return out


class RaysWorkload(Workload):
    """The ``nehari fibering`` work on a fixed panel of random smooth fields.

    The panel is drawn once, from ``default_rng(RAY_PANEL_SEED)``, and every
    run covers it whole, in an order the seed shuffles.  Fields differ in
    cost by their case (none, one or two projections), so fields drawn from
    the run's seed made its figures follow the seed rather than the code.
    """

    def __init__(self, name: str, text: str):
        super().__init__(name, text)
        grid_ = config.parse_config(text).grid
        rng = np.random.default_rng(RAY_PANEL_SEED)
        fields = [grid.random_smooth_field(grid_, rng) for _ in range(RAY_PANEL_SIZE)]
        self.defect_fields = {i: fields[i] for i in RAY_DEFECT_FIELDS}
        self.fields = [u for i, u in enumerate(fields) if i not in self.defect_fields]
        self.panel = len(self.fields)

    def inputs(self, rng: np.random.Generator) -> Iterator:
        """The panel in seeded order, again and again."""
        while True:
            yield from (self.fields[i] for i in rng.permutation(self.panel))

    def known_defects(self, cfg) -> dict:
        out = {}
        for i, u in self.defect_fields.items():
            try:
                fibering.classify(u, cfg)
                out[f"field {i}"] = "classify no longer raises"
            except Exception as exc:
                out[f"field {i}"] = f"{type(exc).__name__}: {exc}"
        return out

    def start(self):
        """The problem, prepared once; its prepare_run time is a set-up sample."""
        prep, setup_s = timed_prepare(self.text)
        return prep.problem, setup_s

    def run(self, u, cfg) -> Outcome:
        t0 = perf_counter()
        diag = fibering.classify(u, cfg)
        points = [
            fibering.project(u, cfg, "plus" if sign > 0 else "minus")
            for _, sign in diag.roots
            if sign != 0
        ]
        table = fibering.sample_ray(u, cfg, RAY_T)
        return Outcome(perf_counter() - t0, None, (cfg, diag, points, table))

    def check(self, u, outcome: Outcome) -> list[str]:
        cfg, diag, points, table = outcome.result
        problems = []
        for t, sign in diag.roots:
            slope = fibering.ray_energy_dt(u, t, cfg)
            scale = _ray_scale(u, t, cfg, diag.concave, diag.convex)
            if not abs(slope) <= RAY_RTOL * scale:
                problems.append(f"root t={t!r}: |gamma'| = {abs(slope):.3e}")
            curvature = fibering.ray_energy_dt2(u, t, cfg)
            if sign != 0 and not curvature * sign > 0.0:
                problems.append(f"root t={t!r}: gamma'' = {curvature!r}, sign {sign}")
        roots = {(1 if s > 0 else -1): t for t, s in diag.roots if s != 0}
        for pt in points:
            want = 1 if pt.branch == "plus" else -1
            t = roots.get(want)
            if t is None or not math.isclose(pt.scale, t, rel_tol=1e-9):
                problems.append(f"{pt.branch}: scale {pt.scale!r} is not root {t!r}")
            if not pt.gamma2 * want > 0.0:
                problems.append(f"{pt.branch}: gamma2 {pt.gamma2!r} on the wrong branch")
            # G(t·u) = t·γ'(t), so its terms are t times those of γ'(t)
            scale = pt.scale * _ray_scale(u, pt.scale, cfg, diag.concave, diag.convex)
            if not pt.constraint <= RAY_RTOL * scale:
                problems.append(f"{pt.branch}: |G| = {pt.constraint:.3e} off the manifold")
        if not all(np.all(np.isfinite(v)) for v in table.values()):
            problems.append("sample_ray has non-finite values")
        return problems

    def counts(self, outcome: Outcome) -> dict:
        _, diag, points, _ = outcome.result
        return {
            "case": diag.case,
            "roots": [s for _, s in diag.roots],
            "branches": [p.branch for p in points],
        }


WORKLOADS = {
    wl.name: wl
    for wl in (
        SolveWorkload(
            "solve-stuart-9", STUART_INI.read_text(), (0.41, 0.47, 0.5, 0.53, 0.59)
        ),
        RaysWorkload("rays-stuart-9", STUART_INI.read_text()),
    )
}
