"""Projected-descent minimization of the energy on the two Nehari branches.

Each iterate is kept exactly on the manifold by the fibering projection
(the one-dimensional scaling root), so the method is plain descent in the
tangential direction with a backtracking line search that re-projects every
trial point.  On the manifold the gradient is automatically orthogonal to
the ray direction; a vanishing tangential residual makes the Lagrange
multiplier vanish as well (the second ray derivative is nonzero on both
branches), and the stopping test asserts the full, unprojected gradient
norm.

A trial point's energy is the J that its projection returns: the exact
quadrature of Φ at the t*-scaled density of the projection's own ray,
equal to ``energy`` of the projected field to round-off, not bitwise.  The
Armijo test uses the step slope −‖d‖², which is ⟨g,d⟩ because d is minus
the tangential part of the gradient g.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import ProblemConfig, dual_norm, energy_gradient
from .errors import NehariError, ProjectionError, SeedingError
from .fibering import NehariPoint, project_scale, sample_ray
from .grid import Field, inner, random_smooth_field
from .thresholds import ThresholdReport

logger = logging.getLogger(__name__)

__all__ = [
    "SolveReport",
    "SolvePair",
    "MultistartReport",
    "seed_field",
    "minimize_branch",
    "solve_both",
    "multistart",
]

ARMIJO = 1e-4
SHRINK = 0.5
ALPHA_MIN = 1e-20
ENERGY_SLACK = 1e-14


@dataclass(frozen=True)
class SolveReport:
    branch: str
    point: NehariPoint
    iterations: int
    restarts: int
    converged: bool
    energy_history: tuple[float, ...]
    residual_history: tuple[float, ...]
    invariants: dict

    def as_dict(self) -> dict:
        return {
            "branch": self.branch,
            "point": self.point.as_dict(),
            "iterations": self.iterations,
            "restarts": self.restarts,
            "converged": self.converged,
            "energy_history": list(self.energy_history),
            "residual_history": list(self.residual_history),
            "invariants": dict(self.invariants),
        }


@dataclass(frozen=True)
class SolvePair:
    """Both branch results; a failed branch carries its error text instead."""

    minus: Optional[SolveReport]
    plus: Optional[SolveReport]
    failures: dict
    ordering_ok: Optional[bool]

    def as_dict(self) -> dict:
        return {
            "minus": self.minus.as_dict() if self.minus else None,
            "plus": self.plus.as_dict() if self.plus else None,
            "failures": dict(self.failures),
            "ordering_ok": self.ordering_ok,
        }


@dataclass(frozen=True)
class MultistartReport:
    branch: str
    energies: tuple[float, ...]
    converged: tuple[bool, ...]
    spread: float

    def as_dict(self) -> dict:
        return {
            "branch": self.branch,
            "energies": list(self.energies),
            "converged": list(self.converged),
            "spread": self.spread,
        }


def _gaussian_bump(cfg: ProblemConfig, center_index: tuple[int, ...], sigma: float) -> Field:
    grid = cfg.grid
    coords = grid.coords()
    center = [grid.axis_coords(k)[center_index[k]] for k in range(grid.dim)]
    r2 = np.zeros(grid.shape)
    for c, x in zip(center, coords):
        r2 = r2 + (x - c) ** 2
    return Field(grid, np.exp(-r2 / sigma**2))


def seed_field(cfg: ProblemConfig, branch: str, sigma: float | None = None) -> Field:
    """Smooth bump concentrated where the branch-relevant weight peaks.

    The rising branch needs a positive concave integral, so the bump sits at
    the maximizer of a; the falling branch needs a positive convex integral
    and uses b.  If the bump does not project onto the requested branch it
    is narrowed (width halved, up to 6 times); the SeedingError raised after
    that carries the last projection's diagnosis.  Ties in the weight
    maximum break to the lowest lexicographic node index.
    """
    return _projected_seed(cfg, branch, sigma)[0]


def _projected_seed(
    cfg: ProblemConfig, branch: str, sigma: float | None = None
) -> tuple[Field, tuple[Field, float, float]]:
    """:func:`seed_field`'s bump together with its ``project_scale`` result."""
    weight = cfg.a if branch == "plus" else cfg.b
    if not (np.any(weight.values > 0)):
        raise SeedingError(
            f"branch {branch!r} unreachable: its weight field has no positive values"
        )
    flat_index = int(np.argmax(weight.values))  # first max in C order
    center = np.unravel_index(flat_index, cfg.grid.shape)
    if sigma is None:
        sigma = min(cfg.grid.lengths) / 4.0
    for _ in range(7):
        candidate = _gaussian_bump(cfg, center, sigma)
        try:
            return candidate, project_scale(candidate, cfg, branch)
        except ProjectionError as err:
            last = err
        sigma /= 2.0
    raise SeedingError(
        f"no admissible seed for branch {branch!r} after narrowing",
        diagnosis=lambda: last.diagnosis,
    )


def _descent_state(u: Field, cfg: ProblemConfig):
    """Gradient data at an on-manifold iterate, each quadrature summed once.

    Returns (g, d, slope, tan_res, full_res, gu): the slope along d is
    −‖d‖² (see the module docstring) and gu = ⟨g,u⟩ is the Nehari residual.
    """
    grid = cfg.grid
    grad_arr = energy_gradient(u, cfg)
    g = grad_arr / grid.cell_volume  # pointwise (L²-representative) gradient
    full_res = dual_norm(grad_arr, grid)
    gu = inner(grid, g, u.values)
    uu = inner(grid, u.values, u.values)
    d = -(g - (gu / uu) * u.values)
    dd = max(inner(grid, d, d), 0.0)
    return g, d, -dd, math.sqrt(dd), full_res, gu


def minimize_branch(
    cfg: ProblemConfig,
    branch: str,
    seed: Field | None = None,
    thresholds: ThresholdReport | None = None,
) -> SolveReport:
    """Minimize the energy over one Nehari branch by projected descent.

    Starts from ``seed``, or from :func:`seed_field` when none is given.  A
    given seed that does not project onto the branch is replaced once by
    :func:`seed_field` at half the default width, and ``restarts`` is then
    1.  No other restart exists: :func:`seed_field` returns only seeds that
    project, and the line search shrinks the step past every trial that
    does not.  Stops when both the tangential and the full gradient dual
    norms fall below the configured residual tolerance.  It runs at any λ:
    ``thresholds`` only adds the δ_λ floor invariant on the minus branch,
    and judging λ against the thresholds is left to the caller.
    """
    t_start = time.perf_counter()
    restarts = 0
    if seed is None:
        start = _projected_seed(cfg, branch)[1]
    else:
        try:
            start = project_scale(seed, cfg, branch)
        except ProjectionError as err:
            logger.info(
                "branch %s: the given seed does not project (%s); reseeding", branch, err
            )
            start = _projected_seed(cfg, branch, sigma=min(cfg.grid.lengths) / 8.0)[1]
            restarts = 1
    return _run_descent(cfg, branch, start, thresholds, restarts, t_start)


def _run_descent(
    cfg: ProblemConfig,
    branch: str,
    start: tuple[Field, float, float],
    thresholds: ThresholdReport | None,
    restarts: int,
    t_start: float,
) -> SolveReport:
    """Projected descent from ``start``, a ``project_scale`` result."""
    u, t_star, start_energy = start
    energy_history = [start_energy]
    residual_history: list[float] = []
    max_constraint = 0.0
    converged = False
    prev_u: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    state = _descent_state(u, cfg)

    for iterations in range(1, cfg.max_iter + 1):
        g, d, slope, tan_res, full_res, gu = state
        residual_history.append(tan_res)
        max_constraint = max(max_constraint, abs(gu))
        if tan_res <= cfg.residual_tol and full_res <= cfg.residual_tol:
            converged = True
            break
        current = energy_history[-1]
        slack = ENERGY_SLACK * (1.0 + abs(current))
        # decreases smaller than this drown in evaluation rounding of J
        vis_floor = 0.5 * np.finfo(float).eps * (1.0 + abs(current))

        # Barzilai-Borwein warm start for the backtracking search, capped at
        # the nominal unit step; Armijo acceptance below keeps monotonicity.
        alpha = 1.0
        if prev_u is not None:
            du = u.values - prev_u
            dg = g - prev_g
            denom = inner(cfg.grid, du, dg)
            if denom > 0.0:
                alpha = min(1.0, inner(cfg.grid, du, du) / denom)
                alpha = max(alpha, ALPHA_MIN)
        prev_u, prev_g = u.values, g

        accepted = None
        while alpha >= ALPHA_MIN:
            trial_values = u.values + alpha * d
            try:
                trial_u, trial_scale, trial_energy = project_scale(
                    Field(cfg.grid, trial_values), cfg, branch
                )
            except ProjectionError:
                alpha *= SHRINK
                continue
            decrease_needed = -ARMIJO * alpha * slope
            if trial_energy <= current - decrease_needed:
                accepted = (trial_u, trial_energy, trial_scale)
                break
            if decrease_needed < vis_floor and trial_energy <= current + slack:
                # rounding plateau: the certified decrease is unmeasurable,
                # but the step is non-increasing within evaluation noise
                accepted = (trial_u, trial_energy, trial_scale)
                break
            alpha *= SHRINK
        if accepted is None:
            break  # no decrease available along the tangential direction
        u, new_energy, t_star = accepted
        energy_history.append(new_energy)
        state = _descent_state(u, cfg)  # read by the report if max_iter stops here

    *_, full_res, gu = state  # the final field's own gradient data
    # γ'' and J of the final field from one fresh ray of that field, not from
    # the projection that produced the history; the two J agree to round-off
    fresh = sample_ray(u, cfg, [1.0])
    recomputed = fresh["gamma"][0]
    point = NehariPoint(
        u, branch, energy_history[-1], abs(gu), fresh["gamma_dt2"][0], t_star
    )
    invariants = {
        "monotone_energy": all(
            new <= old + ENERGY_SLACK * (1.0 + abs(old))
            for old, new in zip(energy_history, energy_history[1:])
        )
        and abs(recomputed - point.energy) <= 1e-12 * max(1.0, abs(point.energy)),
        "max_constraint_residual": max_constraint,
        "final_full_residual": full_res,
        "final_energy": point.energy,
        "energy_sign_ok": (point.energy < 0.0)
        if branch == "plus"
        else (point.energy > 0.0),
        "gamma2_sign_ok": (point.gamma2 > 0.0)
        if branch == "plus"
        else (point.gamma2 < 0.0),
    }
    if thresholds is not None and branch == "minus":
        floor = thresholds.delta_lambda(cfg.lam)
        invariants["delta_lambda_floor"] = floor
        invariants["delta_lambda_bound_ok"] = point.energy >= floor - 1e-9
    if not converged:
        logger.warning(
            "branch %s stopped after %d iterations with residual %.3e (tol %.1e)",
            branch,
            iterations,
            residual_history[-1],
            cfg.residual_tol,
        )
    wall = time.perf_counter() - t_start
    logger.info(
        "branch %s: %d iterations, energy %.6e, residual %.3e, %.2fs",
        branch,
        iterations,
        point.energy,
        residual_history[-1],
        wall,
    )
    return SolveReport(
        branch=branch,
        point=point,
        iterations=iterations,
        restarts=restarts,
        converged=converged,
        energy_history=tuple(energy_history),
        residual_history=tuple(residual_history),
        invariants=invariants,
    )


def solve_both(cfg: ProblemConfig, thresholds: ThresholdReport | None = None) -> SolvePair:
    """Run both branches and check the sign ordering of the two energies.

    The rising-branch minimizer is the negative-energy ground state; the
    falling-branch minimizer has positive energy.  A failing branch is
    reported, not raised, so the other branch's result survives; so is a
    failure diagnosis that cannot itself be computed.
    """
    reports: dict[str, Optional[SolveReport]] = {"minus": None, "plus": None}
    failures: dict[str, str] = {}
    for branch in ("minus", "plus"):
        try:
            reports[branch] = minimize_branch(cfg, branch, thresholds=thresholds)
        except NehariError as err:
            failures[branch] = str(err)
            try:
                diag = getattr(err, "diagnosis", None)
            except NehariError as diag_err:
                failures[branch + "_diagnosis"] = {
                    "error": f"{type(diag_err).__name__}: {diag_err}"
                }
            else:
                if diag is not None:
                    failures[branch + "_diagnosis"] = diag.as_dict()
    ordering: Optional[bool] = None
    if reports["minus"] and reports["plus"]:
        ordering = (
            reports["plus"].point.energy < 0.0 < reports["minus"].point.energy
            and reports["plus"].point.energy < reports["minus"].point.energy
        )
    return SolvePair(
        minus=reports["minus"],
        plus=reports["plus"],
        failures=failures,
        ordering_ok=ordering,
    )


def multistart(
    cfg: ProblemConfig,
    branch: str,
    n_starts: int = 5,
    seed: int = 0,
    thresholds: ThresholdReport | None = None,
) -> MultistartReport:
    """Consistency check: perturbed seeds should reach the same energy.

    ``spread`` is the relative energy range over the starts; it is reported,
    not judged, since the theory guarantees existence, not uniqueness.
    """
    rng = np.random.default_rng(seed)
    base, base_start = _projected_seed(cfg, branch)
    energies = []
    converged = []
    for k in range(n_starts):
        if k == 0:  # descend from the base seed's own projection
            report = _run_descent(
                cfg, branch, base_start, thresholds, 0, time.perf_counter()
            )
        else:
            bump = random_smooth_field(cfg.grid, rng, max_mode=2)
            scale = 0.2 * float(np.max(np.abs(base.values)))
            scale /= max(float(np.max(np.abs(bump.values))), 1e-30)
            start = Field(cfg.grid, base.values + scale * bump.values)
            report = minimize_branch(cfg, branch, seed=start, thresholds=thresholds)
        energies.append(report.point.energy)
        converged.append(report.converged)
    lo, hi = min(energies), max(energies)
    spread = (hi - lo) / max(abs(lo), abs(hi), 1e-30)
    return MultistartReport(
        branch=branch,
        energies=tuple(energies),
        converged=tuple(converged),
        spread=spread,
    )
