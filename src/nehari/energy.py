"""Discrete energy functional, its exact gradient, and its residual norms.

The functional is

    J(u) = ∫ Φ((u² + |∇u|²)/2) − (λ/(q+1)) ∫ a|u|^{q+1} − (1/(p+1)) ∫ b|u|^{p+1},

with all integrals the grid quadrature and ∇ the edge differences of
``grid.gradient``.  The gradient returned here is the exact derivative of
this discrete J with respect to node values (adjoint-of-stencil assembly),
not a discretization of the continuum Euler-Lagrange operator: directional
derivatives therefore match finite differences of J to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .grid import Field, Grid, _edge_diff, integrate, pointwise_energy
from .phi import PhiModel, _check_exponents

__all__ = [
    "ProblemConfig",
    "energy",
    "energy_gradient",
    "dual_norm",
    "nehari_residual",
    "concave_integral",
    "convex_integral",
]


def _check_lambda(lam: float) -> float:
    """λ as a float, under the rule 0 < λ < inf."""
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam}")
    return lam


@dataclass(frozen=True)
class ProblemConfig:
    """Full problem data: grid, operator family, weights, exponents, tolerances."""

    grid: Grid
    phi: PhiModel
    a: Field
    b: Field
    lam: float
    q: float
    p: float
    residual_tol: float = 1e-6
    max_iter: int = 5000

    def __post_init__(self) -> None:
        _check_lambda(self.lam)
        _check_exponents(self.q, self.p, self.grid.critical_exponent())
        for name, w in (("a", self.a), ("b", self.b)):
            if w.grid != self.grid:
                raise DomainError(f"weight {name} lives on a different grid")
        if not self.residual_tol > 0:
            raise DomainError(f"residual_tol must be positive, got {self.residual_tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be at least 1, got {self.max_iter}")

    def with_lambda(self, lam: float) -> "ProblemConfig":
        return replace(self, lam=float(lam))


def _check_field(u: Field, cfg: ProblemConfig) -> None:
    if u.grid != cfg.grid:
        raise DomainError("field lives on a different grid than the problem")


def _concave_density(u: Field, cfg: ProblemConfig) -> np.ndarray:
    """Node values of a |u|^{q+1}."""
    return cfg.a.values * np.abs(u.values) ** (cfg.q + 1.0)


def _convex_density(u: Field, cfg: ProblemConfig) -> np.ndarray:
    """Node values of b |u|^{p+1}."""
    return cfg.b.values * np.abs(u.values) ** (cfg.p + 1.0)


def concave_integral(u: Field, cfg: ProblemConfig) -> float:
    """∫ a |u|^{q+1}."""
    _check_field(u, cfg)
    return integrate(cfg.grid, _concave_density(u, cfg))


def convex_integral(u: Field, cfg: ProblemConfig) -> float:
    """∫ b |u|^{p+1}."""
    _check_field(u, cfg)
    return integrate(cfg.grid, _convex_density(u, cfg))


def energy(u: Field, cfg: ProblemConfig) -> float:
    """J(u) by direct quadrature."""
    _check_field(u, cfg)
    dens = pointwise_energy(u)
    bulk = integrate(cfg.grid, cfg.phi.Phi(dens / 2.0))
    return (
        bulk
        - cfg.lam / (cfg.q + 1.0) * concave_integral(u, cfg)
        - 1.0 / (cfg.p + 1.0) * convex_integral(u, cfg)
    )


def energy_gradient(u: Field, cfg: ProblemConfig) -> np.ndarray:
    """Exact partial derivatives ∂J/∂u_i of the discrete functional.

    Plain dot products against direction arrays give directional
    derivatives.  The concave term's derivative |u|^{q-1}u is extended by
    zero at u = 0 (its continuous limit for q > 0).
    """
    _check_field(u, cfg)
    grid = cfg.grid
    vals = u.values
    coeff = np.asarray(cfg.phi.phi(pointwise_energy(u) / 2.0), dtype=float)

    out = coeff * vals
    # transpose of the gradient: the flux form −Σ_k D₋(φ_{k+½} D₊u), with φ on
    # an edge the mean over its two nodes, or its one node's on the boundary
    for k, h in enumerate(grid.spacing):
        c = coeff.swapaxes(0, k)
        flux = _edge_diff(vals, k, h)
        flux[0] *= c[0]
        flux[1:-1] *= 0.5 * (c[1:] + c[:-1])
        flux[-1] *= c[-1]
        out.swapaxes(0, k)[...] -= np.diff(flux, axis=0) / h
    out -= cfg.lam * cfg.a.values * np.sign(vals) * np.abs(vals) ** cfg.q
    out -= cfg.b.values * np.sign(vals) * np.abs(vals) ** cfg.p
    return grid.cell_volume * out


def dual_norm(grad_arr: np.ndarray, grid: Grid) -> float:
    """Quadrature-weighted dual norm sqrt(Σ g_i²/w_i) of a gradient array.

    Equals the L² norm of the pointwise gradient field, so its magnitude is
    grid-resolution independent.  The package itself never calls it; it stays
    because ``bench/tracing.py`` names it in ``SPANS``.
    """
    return math.sqrt(integrate(grid, (grad_arr / grid.cell_volume) ** 2))


def nehari_residual(u: Field, cfg: ProblemConfig) -> float:
    """G(u) = ⟨J'(u), u⟩ = ∫ φ(·)(u²+|∇u|²) − λ∫a|u|^{q+1} − ∫b|u|^{p+1}.

    Zero exactly on the Nehari manifold.
    """
    _check_field(u, cfg)
    g = energy_gradient(u, cfg) / cfg.grid.cell_volume
    return integrate(cfg.grid, g * u.values)
