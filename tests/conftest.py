import inspect
from pathlib import Path

import numpy as np
import pytest

from nehari import fibering
from nehari.energy import ProblemConfig, concave_integral, convex_integral
from nehari.grid import (
    Field,
    Grid,
    integrate,
    make_weight,
    pointwise_energy,
    random_smooth_field,
)
from nehari.phi import constant_model, stuart_model
from nehari.solver import minimize_branch, seed_field

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def two_lobe_weights(grid):
    """Sign-changing Gaussian pairs: a split along axis 0, b along axis 1."""
    L = grid.lengths
    mid = [0.5 * x for x in L]

    def spec(axis):
        cp, cn = list(mid), list(mid)
        cp[axis] = 0.3 * L[axis]
        cn[axis] = 0.7 * L[axis]
        s = 0.18 * min(L)
        return {
            "kind": "gaussians",
            "center_pos": cp,
            "center_neg": cn,
            "sigma_pos": s,
            "sigma_neg": s,
        }

    a = make_weight(grid, spec(0))
    b = make_weight(grid, spec(min(1, grid.dim - 1)))
    return a, b


def make_problem(nodes=(5, 5, 5), phi=None, lam=1.0, q=0.5, p=3.0, **kw):
    grid = Grid(nodes=nodes, lengths=(1.0,) * len(nodes))
    a, b = two_lobe_weights(grid)
    return ProblemConfig(
        grid=grid,
        phi=phi if phi is not None else stuart_model(6.0),
        a=a,
        b=b,
        lam=lam,
        q=q,
        p=p,
        **kw,
    )


def smooth_fields(grid, count, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return [random_smooth_field(grid, rng).scaled(scale) for _ in range(count)]


def perturbed_starts(cfg, branch, n_starts, seed, thresholds=None):
    """Descents on ``branch`` from its seed field and n_starts − 1 perturbations.

    Each perturbation adds a smooth random bump (modes up to 2), drawn in
    turn from ``default_rng(seed)`` and scaled to 0.2·max|seed field|.
    """
    rng = np.random.default_rng(seed)
    base = seed_field(cfg, branch)
    starts = [base]
    for _ in range(n_starts - 1):
        bump = random_smooth_field(cfg.grid, rng, max_mode=2)
        scale = 0.2 * float(np.max(np.abs(base.values)))
        scale /= max(float(np.max(np.abs(bump.values))), 1e-30)
        starts.append(Field(cfg.grid, base.values + scale * bump.values))
    return [minimize_branch(cfg, branch, seed=u, thresholds=thresholds) for u in starts]


def ray_value(formula, u, t, cfg):
    """The ray formula ``formula`` ("gamma", "balance", "peak_eq_dt", …) of u at t.

    ``formula`` names a ``fibering._Ray`` method; it is fed the exact
    integrals its parameters name, through the one reader of reported values.
    """
    fn = getattr(fibering._Ray, formula)
    names = list(inspect.signature(fn).parameters)[2:]  # after (self, t)
    return fibering._Ray(u, cfg).at(float(t), fn, *names)


def second_derivative_forms(u, cfg):
    """The two on-manifold expressions (via_b, via_a) for the second ray derivative at 1.

    ``via_b`` eliminates the concave integral, ``via_a`` the convex one;
    off the manifold they differ by (p−q)·G(u).
    """
    dens = pointwise_energy(u)
    coeff = np.asarray(cfg.phi.phi(dens / 2.0), dtype=float)
    dcoeff = np.asarray(cfg.phi.dphi(dens / 2.0), dtype=float)
    curv = integrate(cfg.grid, dcoeff * dens**2)
    bulk = integrate(cfg.grid, coeff * dens)
    A = concave_integral(u, cfg)
    B = convex_integral(u, cfg)
    via_b = curv + (1.0 - cfg.q) * bulk - (cfg.p - cfg.q) * B
    via_a = curv - (cfg.p - 1.0) * bulk + cfg.lam * (cfg.p - cfg.q) * A
    return via_b, via_a


def manifold_energies(u, cfg):
    """The two reduced energies (via_b, via_a), equal to J(u) whenever G(u) = 0."""
    dens = pointwise_energy(u)
    bulk_Phi = integrate(cfg.grid, cfg.phi.Phi(dens / 2.0))
    bulk_phi = integrate(cfg.grid, np.asarray(cfg.phi.phi(dens / 2.0)) * dens)
    A = concave_integral(u, cfg)
    B = convex_integral(u, cfg)
    q1 = cfg.q + 1.0
    p1 = cfg.p + 1.0
    via_b = bulk_Phi - bulk_phi / q1 + (1.0 / q1 - 1.0 / p1) * B
    via_a = bulk_Phi - bulk_phi / p1 - cfg.lam * (1.0 / q1 - 1.0 / p1) * A
    return via_b, via_a


@pytest.fixture(scope="session")
def cfg_small():
    """stuart operator on a 5^3 grid; lam sized for a rich case taxonomy
    whose crossings stay inside the bracket caps."""
    return make_problem(lam=1.0)


@pytest.fixture(scope="session")
def cfg_const():
    """Constant coefficient (semilinear limit) on a 5^3 grid."""
    return make_problem(phi=constant_model(1.0))


@pytest.fixture(scope="session")
def grid_small(cfg_small):
    return cfg_small.grid
