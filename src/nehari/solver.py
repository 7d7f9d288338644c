"""Minimization of the energy on the two Nehari branches.

Each iterate is kept exactly on the manifold by the fibering projection
(the one-dimensional scaling root), and the backtracking line search
re-projects every trial point.  On the manifold the gradient is
automatically orthogonal to the ray direction; a vanishing tangential
residual makes the Lagrange multiplier vanish as well (the second ray
derivative is nonzero on both branches).  The stopping test reads one
residual, the full, unprojected gradient dual norm, which bounds the
tangential one that the history records.

The search direction is H¹-preconditioned L-BFGS.  The two-loop recursion
(Nocedal, Math. Comp. 1980) runs on the L² gradient g with the last
``MEMORY`` pairs (s, y) of iterate and gradient differences, and starts
from H₀ = γ·W P W.  P = (I − Δ_h)⁻¹ is the Sobolev-gradient preconditioner
(Neuberger, LNM 1670).  W = (1 + D/c)^{-1/2} is a diagonal refreshed at
every iterate, with D = λq·max(−a, 0)·|u|^{q−1} the positive part of the
concave term's curvature and c = 1 + Σ_k 4/h_k² the top of P⁻¹'s symbol:
where a < 0 the concave term is an absorption, the N⁺ solution has a dead
core, and D there outruns the scale that P sees (Nocedal & Wright,
*Numerical Optimization* §7.2, on an H₀ that changes with the iterate).
W is exactly 1 where a ≥ 0, so a problem with a ≥ 0 runs with H₀ = γ·P,
and where u = 0, a node that W = 0 would freeze.  γ = ⟨s,y⟩/⟨y,W P W y⟩
comes from the newest pair and the W of the iterate the direction is
built at.  The result d is made tangent to the ray in the H¹ metric,
d ← d − (⟨d,u⟩_{H¹}/⟨u,u⟩_{H¹})·u with ⟨x,u⟩_{H¹} = ⟨x, u − Δ_h u⟩.  A
pair with ⟨s,y⟩ ≤ ``CURVATURE_RTOL``·|s||y| is skipped.  A direction with
⟨g,d⟩ ≥ 0 clears the memory, and the empty memory gives the scaled
Sobolev gradient −(W P W g − (⟨W P W g, u⟩_{H¹}/⟨u,u⟩_{H¹})·u).  With
this H₀ the iteration counts grow slowly with the grid (stuart plus: 21
at 9³, 46 at 33³).  The direction's inner products are plain numpy sums,
not BLAS dots, so a run is bit-reproducible whatever the BLAS threading.

The line search starts at the step 1 and accepts by Armijo with the slope
⟨g,d⟩.  A trial point's energy is the J that its projection returns: the
quadrature of Φ at the t*-scaled density of the projection's own ray,
equal to ``energy`` of the projected field to round-off, not bitwise.
Every quadrature is a plain sum (see ``grid``), whose error
(~log₂n·ε·Σ|x|) lies far below ``ENERGY_SLACK`` and the residual
tolerance; the reported J and γ'' of a branch come from one fresh ray of
its final field.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .energy import ProblemConfig, energy_gradient
from .errors import NehariError, ProjectionError, SeedingError
from .fibering import NehariPoint, project_scale, sample_ray
from .grid import Field, _dirichlet_solver, _gaussian, laplacian
from .thresholds import ThresholdReport

logger = logging.getLogger(__name__)

__all__ = [
    "SolveReport",
    "SolvePair",
    "seed_field",
    "minimize_branch",
    "solve_both",
]

ARMIJO = 1e-4
SHRINK = 0.5
ALPHA_MIN = 1e-20
ENERGY_SLACK = 1e-14
MEMORY = 8  # L-BFGS pairs kept
CURVATURE_RTOL = 1e-14  # a pair needs ⟨s,y⟩ above this times |s||y|


@dataclass(frozen=True)
class SolveReport:
    """One branch's result.

    The histories are per iterate: ``energy_history`` and ``scale_history``
    (the projection scale t*) start at the seed, ``residual_history`` has
    one entry per iteration, and ``alpha_history`` and
    ``backtrack_history`` one per accepted step.  ``counters`` totals the
    line search's projections, the failed ones, its step halvings, and the
    L-BFGS memory resets; ``failed_projection_reasons`` counts the failed
    projections per ``ProjectionError.reason``.
    """

    branch: str
    point: NehariPoint
    iterations: int
    restarts: int
    stop_reason: str  # "converged", "max_iter" or "no_decrease"
    energy_history: tuple[float, ...]
    residual_history: tuple[float, ...]
    alpha_history: tuple[float, ...]
    backtrack_history: tuple[int, ...]
    scale_history: tuple[float, ...]
    counters: dict
    invariants: dict

    @property
    def converged(self) -> bool:
        """Whether the descent stopped at the residual tolerance."""
        return self.stop_reason == "converged"

    def as_dict(self) -> dict:
        return {
            "branch": self.branch,
            "point": self.point.as_dict(),
            "iterations": self.iterations,
            "restarts": self.restarts,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "energy_history": list(self.energy_history),
            "residual_history": list(self.residual_history),
            "counters": dict(self.counters),
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
    grid = cfg.grid
    flat_index = int(np.argmax(weight.values))  # first max in C order
    node = np.unravel_index(flat_index, grid.shape)
    center = [grid.axis_coords(k)[i] for k, i in enumerate(node)]
    if sigma is None:
        sigma = min(grid.lengths) / 4.0
    for _ in range(7):
        candidate = Field(grid, _gaussian(grid, center, sigma))
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

    Returns (g, tan_res, full_res, gu): the pointwise (L²-representative)
    gradient g, the L² norm of its part orthogonal to u and the dual norm
    of the whole gradient, and the Nehari residual gu = ⟨g,u⟩.  ∫g², ⟨g,u⟩
    and ⟨u,u⟩ are h·:func:`_dot`, the plain sums the direction uses, and the
    tangential residual is √max(∫g² − ⟨g,u⟩²/⟨u,u⟩, 0): it never exceeds
    full_res, so the stop test reads full_res alone.
    """
    h = cfg.grid.cell_volume
    g = energy_gradient(u, cfg) / h
    squares, gu, uu = h * _dot(g, g), h * _dot(g, u.values), h * _dot(u.values, u.values)
    tan_res = math.sqrt(max(squares - gu * gu / uu, 0.0))
    return g, tan_res, math.sqrt(squares), gu


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Plain sum of products, for search directions only (see the module docstring)."""
    return float((x * y).sum())


class _LBFGS:
    """The two-loop recursion with H₀ = γ·W P W, tangent to the ray in H¹.

    P = (I − Δ_h)⁻¹, and W = (1 + D/c)^{-1/2} is diagonal, with
    D = λq·max(−a, 0)·|u|^{q−1} the concave term's positive curvature at the
    iterate u and c = 1 + Σ_k 4/h_k² the top of P⁻¹'s symbol.  W is read as
    √(s/(s + κ)), with s = |u|^{1−q} and κ = λq·max(−a, 0)/c: exactly 1
    where a ≥ 0.  Where u = 0, D has no finite value and W is 1: W = 0
    there would zero every later direction at those nodes, so a field that
    vanishes on part of {a < 0} would stay 0 there.
    """

    def __init__(self, cfg: ProblemConfig) -> None:
        self.precondition = _dirichlet_solver(cfg.grid, shift=1.0)
        top = 1.0 + sum(4.0 / h**2 for h in cfg.grid.spacing)
        self.kappa = cfg.lam * cfg.q / top * np.maximum(-cfg.a.values, 0.0)
        self.exponent = 1.0 - cfg.q
        self.pairs: deque = deque(maxlen=MEMORY)  # (s, y, 1/⟨s,y⟩), newest last
        self.newest_sy = 1.0  # ⟨s,y⟩ of the newest pair

    def clear(self) -> None:
        self.pairs.clear()

    def push(self, s: np.ndarray, y: np.ndarray) -> float | None:
        """Store the pair; return its curvature ⟨s,y⟩ instead if that is too small."""
        sy = _dot(s, y)
        if sy <= CURVATURE_RTOL * math.sqrt(_dot(s, s) * _dot(y, y)):
            return sy
        self.pairs.append((s, y, 1.0 / sy))
        self.newest_sy = sy
        return None

    def start(self, u: Field) -> Callable[[np.ndarray], np.ndarray]:
        """x ↦ W P W x at the iterate u: H₀ without its scale γ."""
        s = np.abs(u.values) ** self.exponent
        w = np.ones_like(s)
        np.divide(s, s + self.kappa, out=w, where=s > 0.0)
        np.sqrt(w, out=w)
        return lambda x: w * self.precondition(w * x)

    def direction(self, g: np.ndarray, u: Field) -> np.ndarray:
        start = self.start(u)
        gamma = 1.0  # the empty memory's direction is the W P W gradient
        if self.pairs:
            y = self.pairs[-1][1]
            gamma = self.newest_sy / _dot(y, start(y))
        q = g
        coeffs = []
        for s, y, rho in reversed(self.pairs):
            coeffs.append(rho * _dot(s, q))
            q = q - coeffs[-1] * y
        r = gamma * start(q)
        for (s, y, rho), c in zip(self.pairs, reversed(coeffs)):
            r = r + (c - rho * _dot(y, r)) * s
        hu = u.values - laplacian(u)  # the H¹ Riesz map of u
        return -(r - (_dot(r, hu) / _dot(u.values, hu)) * u.values)


def minimize_branch(
    cfg: ProblemConfig,
    branch: str,
    seed: Field | None = None,
    thresholds: ThresholdReport | None = None,
) -> SolveReport:
    """Minimize the energy over one Nehari branch by projected L-BFGS descent.

    Starts from ``seed``, or from :func:`seed_field` when none is given.  A
    given seed that does not project onto the branch is replaced once by
    :func:`seed_field` at half the default width, and ``restarts`` is then
    1.  No other restart exists: :func:`seed_field` returns only seeds that
    project, and the line search shrinks the step past every trial that
    does not.  ``stop_reason`` says why it stopped: ``converged`` once the
    full gradient dual norm falls below the residual tolerance (the
    tangential residual in ``residual_history`` never exceeds it),
    ``max_iter``, or ``no_decrease`` when the line search finds
    no decrease along the search direction.  It runs at any λ:
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
    """L-BFGS descent from ``start``, a ``project_scale`` result."""
    u, t_star, start_energy = start
    grid = cfg.grid
    energy_history = [start_energy]
    residual_history: list[float] = []
    alpha_history: list[float] = []
    backtrack_history: list[int] = []
    scale_history = [t_star]
    counters = dict.fromkeys(
        ("projections", "failed_projections", "backtracks", "memory_resets"), 0
    )
    failed_reasons: dict[str, int] = {}
    max_constraint = 0.0
    stop_reason = "max_iter"
    memory = _LBFGS(cfg)
    state = _descent_state(u, cfg)

    for iterations in range(1, cfg.max_iter + 1):
        g, tan_res, full_res, gu = state
        residual_history.append(tan_res)
        max_constraint = max(max_constraint, abs(gu))
        if full_res <= cfg.residual_tol:
            stop_reason = "converged"
            break
        d = memory.direction(g, u)
        slope = grid.cell_volume * _dot(g, d)
        if slope >= 0.0 and memory.pairs:
            logger.info(
                "branch %s, iteration %d: <g,d> = %.3e >= 0; L-BFGS memory cleared, "
                "scaled Sobolev gradient used",
                branch,
                iterations,
                slope,
            )
            memory.clear()
            counters["memory_resets"] += 1
            d = memory.direction(g, u)
            slope = grid.cell_volume * _dot(g, d)
        if not slope < 0.0:
            stop_reason = "no_decrease"  # not even the scaled Sobolev gradient descends
            break
        current = energy_history[-1]
        slack = ENERGY_SLACK * (1.0 + abs(current))
        # decreases smaller than this drown in evaluation rounding of J
        vis_floor = 0.5 * np.finfo(float).eps * (1.0 + abs(current))

        alpha, backtracks = 1.0, 0
        accepted = None
        while alpha >= ALPHA_MIN:
            counters["projections"] += 1
            try:
                trial = project_scale(Field(grid, u.values + alpha * d), cfg, branch)
            except ProjectionError as err:
                counters["failed_projections"] += 1
                failed_reasons[err.reason] = failed_reasons.get(err.reason, 0) + 1
            else:
                trial_energy = trial[2]
                decrease_needed = -ARMIJO * alpha * slope
                if trial_energy <= current - decrease_needed:
                    accepted = trial
                    break
                if decrease_needed < vis_floor and trial_energy <= current + slack:
                    # rounding plateau: the certified decrease is unmeasurable,
                    # but the step is non-increasing within evaluation noise
                    accepted = trial
                    break
            alpha *= SHRINK
            backtracks += 1
        counters["backtracks"] += backtracks
        if accepted is None:
            stop_reason = "no_decrease"  # along the search direction
            break
        new_u, t_star, new_energy = accepted
        # the new state is read by the report if max_iter stops here
        new_state = _descent_state(new_u, cfg)
        curvature = memory.push(new_u.values - u.values, new_state[0] - g)
        if curvature is not None:
            logger.info(
                "branch %s, iteration %d: <s,y> = %.3e too small; L-BFGS pair skipped",
                branch,
                iterations,
                curvature,
            )
        u, state = new_u, new_state
        energy_history.append(new_energy)
        alpha_history.append(alpha)
        backtrack_history.append(backtracks)
        scale_history.append(t_star)

    *_, full_res, gu = state  # the final field's own gradient data
    # the reported J and γ'' come from one fresh ray of the final field; the
    # history's last J, from the projection that made that field, must agree
    # with it to round-off
    fresh = sample_ray(u, cfg, [1.0])
    point = NehariPoint(u, branch, fresh["gamma"][0], abs(gu), fresh["gamma_dt2"][0], t_star)
    invariants = {
        "monotone_energy": all(
            new <= old + ENERGY_SLACK * (1.0 + abs(old))
            for old, new in zip(energy_history, energy_history[1:])
        )
        and abs(energy_history[-1] - point.energy) <= 1e-12 * max(1.0, abs(point.energy)),
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
        invariants["delta_lambda_floor"] = floor  # None where the thresholds give no floor
        if floor is not None:
            invariants["delta_lambda_bound_ok"] = point.energy >= floor - 1e-9
    if stop_reason != "converged":
        logger.warning(
            "branch %s stopped (%s) after %d iterations with residual %.3e (tol %.1e)",
            branch,
            stop_reason,
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
        stop_reason=stop_reason,
        energy_history=tuple(energy_history),
        residual_history=tuple(residual_history),
        alpha_history=tuple(alpha_history),
        backtrack_history=tuple(backtrack_history),
        scale_history=tuple(scale_history),
        counters={**counters, "failed_projection_reasons": failed_reasons},
        invariants=invariants,
    )


def solve_both(cfg: ProblemConfig, thresholds: ThresholdReport | None = None) -> SolvePair:
    """Run both branches and check the sign ordering of the two energies.

    The rising-branch minimizer is the negative-energy ground state; the
    falling-branch minimizer has positive energy.  A failing branch is
    reported, not raised, so the other branch's result survives, and logs
    one warning with its error type and message; a failure diagnosis that
    cannot itself be computed is reported too.
    """
    reports: dict[str, Optional[SolveReport]] = {"minus": None, "plus": None}
    failures: dict[str, str] = {}
    for branch in ("minus", "plus"):
        try:
            reports[branch] = minimize_branch(cfg, branch, thresholds=thresholds)
        except NehariError as err:
            failures[branch] = str(err)
            logger.warning("branch %s failed: %s: %s", branch, type(err).__name__, err)
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

