import math

import numpy as np
import pytest

from nehari.energy import (
    ProblemConfig,
    convex_integral,
    dual_norm,
    energy,
    energy_gradient,
    nehari_residual,
)
from nehari.errors import DomainError
from nehari.fibering import ROOT_RTOL, project, ray_energy_dt
from nehari.grid import Field, Grid, dirichlet_energy, integrate, laplacian, pointwise_energy
from nehari.phi import constant_model, stuart_model

from conftest import (
    make_problem,
    manifold_energies,
    ray_value,
    second_derivative_forms,
    smooth_fields,
    two_lobe_weights,
)


def zero_weight_problem(phi, lam=1.0, nodes=(5, 5, 5)):
    grid = Grid(nodes=nodes, lengths=(1.0,) * len(nodes))
    zero = Field(grid, np.zeros(grid.shape))
    return ProblemConfig(grid=grid, phi=phi, a=zero, b=zero, lam=lam, q=0.5, p=3.0)


def test_config_validation():
    grid = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    a, b = two_lobe_weights(grid)
    with pytest.raises(DomainError):
        ProblemConfig(grid=grid, phi=constant_model(), a=a, b=b, lam=0.0, q=0.5, p=3.0)
    base = dict(grid=grid, phi=constant_model(), a=a, b=b, lam=1.0, q=0.5, p=3.0)
    for key, value in (
        ("lam", math.nan),
        ("lam", math.inf),
        ("q", 1.2),
        ("q", 0.0),
        ("q", 1.0),
        ("p", 1.0),
        ("p", 5.0),  # p + 1 must stay below 2* = 6 in three dimensions
        ("residual_tol", math.nan),
    ):
        with pytest.raises(DomainError):
            ProblemConfig(**{**base, key: value})
    # low dimension: the critical exponent is +inf, large p admitted
    g1 = Grid(nodes=(9,), lengths=(1.0,))
    z = Field(g1, np.zeros(g1.shape))
    ProblemConfig(grid=g1, phi=constant_model(), a=z, b=z, lam=1.0, q=0.5, p=7.0)


def test_energy_zero_field(cfg_small):
    u = Field(cfg_small.grid, np.zeros(cfg_small.grid.shape))
    assert energy(u, cfg_small) == 0.0


def test_energy_quadratic_limit():
    # phi = 1, no weights: J(u) = (||u||_2^2 + ||grad u||_2^2)/2
    cfg = zero_weight_problem(constant_model(1.0))
    u = smooth_fields(cfg.grid, 1, seed=1)[0]
    expect = 0.5 * integrate(cfg.grid, pointwise_energy(u))
    assert abs(energy(u, cfg) - expect) <= 1e-14 * abs(expect)


def test_energy_closed_form_vs_quadrature_antiderivative():
    # stuart bulk term evaluated with the closed-form antiderivative vs a
    # numerically integrated antiderivative of phi
    from scipy.integrate import quad

    model = stuart_model(6.0)
    cfg = zero_weight_problem(model)
    u = smooth_fields(cfg.grid, 1, seed=2, scale=0.5)[0]
    dens = pointwise_energy(u) / 2.0

    flat = np.unique(dens.ravel())
    table = {}
    for s in flat:
        val, err = quad(lambda t: float(model.phi(t)), 0.0, float(s), limit=200)
        table[float(s)] = val
    quad_Phi = np.vectorize(lambda s: table[float(s)])(dens)
    expect = integrate(cfg.grid, quad_Phi)
    assert abs(energy(u, cfg) - expect) <= 1e-10 * (1.0 + abs(expect))


def test_gradient_zero_field(cfg_small):
    u = Field(cfg_small.grid, np.zeros(cfg_small.grid.shape))
    assert np.all(energy_gradient(u, cfg_small) == 0.0)


def test_gradient_matches_finite_differences(cfg_small):
    # also a 1-D grid and an even, anisotropic 3-D one
    anisotropic = Grid(nodes=(4, 7, 6), lengths=(1.0, 0.5, 2.0))
    a, b = two_lobe_weights(anisotropic)
    for cfg in (
        cfg_small,
        make_problem(nodes=(6,)),
        ProblemConfig(
            grid=anisotropic, phi=stuart_model(6.0), a=a, b=b, lam=1.0, q=0.5, p=3.0
        ),
    ):
        rng = np.random.default_rng(3)
        u = smooth_fields(cfg.grid, 1, seed=3)[0]
        grad = energy_gradient(u, cfg)
        step = 1e-5 * (1.0 + math.sqrt(dirichlet_energy(u)))
        worst = 0.0
        for _ in range(20):
            v = rng.standard_normal(cfg.grid.shape)
            analytic = float(np.vdot(grad, v))
            jp = energy(Field(cfg.grid, u.values + step * v), cfg)
            jm = energy(Field(cfg.grid, u.values - step * v), cfg)
            fd = (jp - jm) / (2.0 * step)
            worst = max(worst, abs(analytic - fd) / (1.0 + abs(fd)))
        assert worst <= 1e-6, cfg.grid


def test_gradient_linear_case_stencil():
    # phi = 1 with zero weights: gradient = cellvol * (u - laplacian u)
    cfg = zero_weight_problem(constant_model(1.0))
    u = smooth_fields(cfg.grid, 1, seed=4)[0]
    grad = energy_gradient(u, cfg)
    expect = cfg.grid.cell_volume * (u.values - laplacian(u))
    assert np.allclose(grad, expect, rtol=1e-13, atol=1e-16)


def test_residual_quadratic_limit():
    cfg = zero_weight_problem(constant_model(1.0))
    u = smooth_fields(cfg.grid, 1, seed=5)[0]
    expect = integrate(cfg.grid, pointwise_energy(u))
    assert abs(nehari_residual(u, cfg) - expect) <= 1e-13 * abs(expect)


def test_residual_equals_ray_slope(cfg_small):
    for u in smooth_fields(cfg_small.grid, 20, seed=6):
        G = nehari_residual(u, cfg_small)
        slope = ray_energy_dt(u, 1.0, cfg_small)
        assert abs(G - slope) <= 1e-12 * max(abs(G), abs(slope), 1e-30)


def test_projected_residual_small(cfg_small):
    # |G| at the root is bounded by the bisection width times the local
    # curvature, so the natural scale is the second ray derivative there
    for u in smooth_fields(cfg_small.grid, 5, seed=7):
        try:
            point = project(u, cfg_small, "minus")
        except Exception:
            continue
        assert point.constraint <= ROOT_RTOL * max(1.0, abs(point.gamma2))


def test_second_derivative_forms_identity(cfg_small):
    for u in smooth_fields(cfg_small.grid, 100, seed=8):
        via_b, via_a = second_derivative_forms(u, cfg_small)
        G = nehari_residual(u, cfg_small)
        lhs = via_b - via_a
        rhs = (cfg_small.p - cfg_small.q) * G
        scale = max(abs(via_b), abs(via_a), 1e-30)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_second_derivative_constant_phi_closed_form():
    cfg = make_problem(phi=constant_model(1.0))
    u = smooth_fields(cfg.grid, 1, seed=9)[0]
    via_b, _ = second_derivative_forms(u, cfg)
    E = integrate(cfg.grid, pointwise_energy(u))
    B = convex_integral(u, cfg)
    expect = (1.0 - cfg.q) * E - (cfg.p - cfg.q) * B
    assert abs(via_b - expect) <= 1e-12 * max(abs(expect), 1.0)


def test_manifold_energies_on_projection(cfg_small):
    for u in smooth_fields(cfg_small.grid, 6, seed=10):
        for branch in ("plus", "minus"):
            try:
                point = project(u, cfg_small, branch)
            except Exception:
                continue
            J = energy(point.field, cfg_small)
            via_b, via_a = manifold_energies(point.field, cfg_small)
            tol = 1e-10 * (1.0 + abs(J))
            assert abs(via_b - J) <= tol
            assert abs(via_a - J) <= tol


def test_manifold_energies_off_manifold_shift(cfg_small):
    # off the manifold the two reduced energies differ from J by
    # G/(q+1) and G/(p+1) respectively
    u = smooth_fields(cfg_small.grid, 1, seed=11)[0]
    J = energy(u, cfg_small)
    G = nehari_residual(u, cfg_small)
    via_b, via_a = manifold_energies(u, cfg_small)
    assert abs(via_b - (J - G / (cfg_small.q + 1.0))) <= 1e-12 * (1.0 + abs(J))
    assert abs(via_a - (J - G / (cfg_small.p + 1.0))) <= 1e-12 * (1.0 + abs(J))


def test_coercivity_bound_on_projections(cfg_const):
    # J >= (rho0/2 - rho1/(p+1)) * E_u - lam*(1/(q+1)-1/(p+1))*sup|a|*int|u|^{q+1}
    # realized on projected fields, where J equals the reduced energy
    cfg = cfg_const
    gap = 0.5 - 1.0 / (cfg.p + 1.0)
    sup_a = float(np.max(np.abs(cfg.a.values)))
    count = 0
    for u in smooth_fields(cfg.grid, 30, seed=12):
        for branch in ("plus", "minus"):
            try:
                point = project(u, cfg, branch)
            except Exception:
                continue
            count += 1
            E = integrate(cfg.grid, pointwise_energy(point.field))
            mass = integrate(cfg.grid, np.abs(point.field.values) ** (cfg.q + 1.0))
            lower = gap * E - cfg.lam * (1.0 / (cfg.q + 1.0) - 1.0 / (cfg.p + 1.0)) * sup_a * mass
            assert energy(point.field, cfg) >= lower - 1e-9
    assert count >= 10


def test_ray_energy_matches_scaled_energy(cfg_small):
    rng = np.random.default_rng(13)
    for u in smooth_fields(cfg_small.grid, 5, seed=13):
        for t in rng.uniform(0.1, 3.0, size=10):
            lhs = ray_value("gamma", u, float(t), cfg_small)
            rhs = energy(u.scaled(float(t)), cfg_small)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_dual_norm_is_quadrature_weighted():
    # sqrt(sum g_i^2 / w_i) equals the L2 quadrature norm of the pointwise
    # gradient array: the magnitude carries no grid-volume factor
    for n in (5, 9):
        cfg = make_problem(nodes=(n, n, n), phi=constant_model(1.0), lam=0.05)
        u = smooth_fields(cfg.grid, 1, seed=14)[0]
        grad = energy_gradient(u, cfg)
        expect = math.sqrt(
            integrate(cfg.grid, (grad / cfg.grid.cell_volume) ** 2)
        )
        assert abs(dual_norm(grad, cfg.grid) - expect) <= 1e-12 * expect
