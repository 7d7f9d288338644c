import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nehari import fibering
from nehari import grid as grid_module
from nehari.energy import concave_integral, convex_integral, energy
from nehari.config import parse_config, prepare_run
from nehari.errors import BracketError, DomainError, ProjectionError
from nehari.fibering import (
    CASE_BOTH_NO_ROOT,
    CASE_BOTH_TANGENT,
    CASE_BOTH_TWO_ROOTS,
    CASE_CONCAVE_ONLY,
    CASE_CONVEX_ONLY,
    CASE_NEITHER,
    classify,
    project,
    project_scale,
    ray_energy_dt,
    ray_energy_dt2,
    sample_ray,
)
from nehari.grid import Field, Grid, integrate, pointwise_energy, random_smooth_field
from nehari.phi import constant_model, stuart_model
from nehari.solver import seed_field, solve_both

from conftest import (
    CONFIG_DIR,
    make_problem,
    ray_value,
    second_derivative_forms,
    smooth_fields,
)


def fixed_sign_problem(sign_a, sign_b, nodes=(5, 5, 5), phi=None, lam=1.0):
    """Problem whose weights have one sign, to force specific ray cases."""
    from nehari.energy import ProblemConfig

    grid = Grid(nodes=nodes, lengths=(1.0,) * len(nodes))
    a = Field(grid, np.full(grid.shape, float(sign_a)))
    b = Field(grid, np.full(grid.shape, float(sign_b)))
    return ProblemConfig(
        grid=grid,
        phi=phi if phi is not None else stuart_model(6.0),
        a=a,
        b=b,
        lam=lam,
        q=0.5,
        p=3.0,
    )


def scan_root_count(u, cfg, points=100000):
    """Oracle: sign changes of the ray slope on a dense log grid."""
    t = np.logspace(-6, 6, points)
    dens = pointwise_energy(u)
    A = concave_integral(u, cfg)
    B = convex_integral(u, cfg)
    vol = cfg.grid.cell_volume
    vals = np.empty(points)
    dens_flat = dens.ravel()
    chunk = 512
    for i in range(0, points, chunk):
        ts = t[i : i + chunk][:, None]
        arg = dens_flat[None, :] * (ts**2 / 2.0)
        m0 = vol * np.sum(cfg.phi.raw_phi(arg) * dens_flat[None, :], axis=1)
        vals[i : i + len(ts)] = (
            ts[:, 0] * m0 - cfg.lam * ts[:, 0] ** cfg.q * A - ts[:, 0] ** cfg.p * B
        )
    signs = np.sign(vals)
    signs = signs[signs != 0.0]
    return int(np.sum(np.diff(signs) != 0.0))


def test_ray_energy_at_one_is_energy(cfg_small):
    for u in smooth_fields(cfg_small.grid, 10, seed=20):
        assert (
            abs(ray_value("gamma", u, 1.0, cfg_small) - energy(u, cfg_small))
            <= 1e-12 * (1.0 + abs(energy(u, cfg_small)))
        )


def test_ray_slope_closed_form_constant_phi(cfg_const):
    cfg = cfg_const
    u = smooth_fields(cfg.grid, 1, seed=21)[0]
    E = integrate(cfg.grid, pointwise_energy(u))
    A = concave_integral(u, cfg)
    B = convex_integral(u, cfg)
    for t in (0.2, 1.0, 2.7):
        expect = t * E - cfg.lam * t**cfg.q * A - t**cfg.p * B
        assert abs(ray_energy_dt(u, t, cfg) - expect) <= 1e-12 * max(abs(expect), 1.0)


def test_derivatives_match_finite_differences(cfg_small):
    rng = np.random.default_rng(22)
    fields = smooth_fields(cfg_small.grid, 10, seed=22)
    for u in fields:
        t = float(rng.uniform(0.3, 3.0))
        h = 1e-6 * t
        fd1 = (
            ray_value("gamma", u, t + h, cfg_small) - ray_value("gamma", u, t - h, cfg_small)
        ) / (2 * h)
        d1 = ray_energy_dt(u, t, cfg_small)
        assert abs(d1 - fd1) <= 1e-7 * (1.0 + abs(fd1))
        fd2 = (
            ray_energy_dt(u, t + h, cfg_small) - ray_energy_dt(u, t - h, cfg_small)
        ) / (2 * h)
        d2 = ray_energy_dt2(u, t, cfg_small)
        assert abs(d2 - fd2) <= 1e-7 * (1.0 + abs(fd2))
        fdm = (
            ray_value("balance", u, t + h, cfg_small) - ray_value("balance", u, t - h, cfg_small)
        ) / (2 * h)
        dm = ray_value("balance_dt", u, t, cfg_small)
        assert abs(dm - fdm) <= 1e-7 * (1.0 + abs(fdm))
        fde = (
            ray_value("peak_eq", u, t + h, cfg_small) - ray_value("peak_eq", u, t - h, cfg_small)
        ) / (2 * h)
        de = ray_value("peak_eq_dt", u, t, cfg_small)
        assert abs(de - fde) <= 1e-7 * (1.0 + abs(fde))


def test_slope_factorization(cfg_small):
    # gamma'(t) = t^q (m(t) - lam*A) exactly
    rng = np.random.default_rng(23)
    for u in smooth_fields(cfg_small.grid, 10, seed=23):
        A = concave_integral(u, cfg_small)
        t = float(rng.uniform(0.1, 5.0))
        lhs = ray_energy_dt(u, t, cfg_small)
        rhs = t**cfg_small.q * (ray_value("balance", u, t, cfg_small) - cfg_small.lam * A)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_scaled_second_derivative_identity(cfg_small):
    # gamma''_{tu}(1) = t^{q+2} m'(t) for every u and t (via the manifold form)
    rng = np.random.default_rng(24)
    for u in smooth_fields(cfg_small.grid, 20, seed=24):
        t = float(rng.uniform(0.2, 4.0))
        via_b, _ = second_derivative_forms(u.scaled(t), cfg_small)
        rhs = t ** (cfg_small.q + 2.0) * ray_value("balance_dt", u, t, cfg_small)
        assert abs(via_b - rhs) <= 1e-8 * max(abs(via_b), abs(rhs), 1e-30)


def test_balance_monotone_when_convex_nonpositive():
    cfg = fixed_sign_problem(+1.0, -1.0)
    rng = np.random.default_rng(25)
    for u in smooth_fields(cfg.grid, 5, seed=25):
        for t in rng.uniform(0.05, 8.0, size=10):
            assert ray_value("balance_dt", u, float(t), cfg) > 0.0


def test_peak_equation_constant_phi_closed_form(cfg_const):
    # phi = c: eta(t) = (1-q) c t^{1-p} E_u
    cfg = cfg_const
    u = smooth_fields(cfg.grid, 1, seed=26)[0]
    E = integrate(cfg.grid, pointwise_energy(u))
    for t in (0.4, 1.0, 3.1):
        expect = (1.0 - cfg.q) * t ** (1.0 - cfg.p) * E
        assert abs(ray_value("peak_eq", u, t, cfg) - expect) <= 1e-12 * abs(expect)


def test_peak_equation_strictly_decreasing(cfg_small):
    # eta'(t) < 0 whenever the concavity hypothesis holds, and eta decreases
    rng = np.random.default_rng(27)
    fields = smooth_fields(cfg_small.grid, 5, seed=27)
    for u in fields:
        for t in rng.uniform(0.05, 6.0, size=10):
            assert ray_value("peak_eq_dt", u, float(t), cfg_small) < 0.0
    for u in fields:
        pairs = rng.uniform(0.05, 6.0, size=(10, 2))
        for t1, t2 in pairs:
            lo, hi = min(t1, t2), max(t1, t2)
            if hi - lo < 1e-9:
                continue
            at_hi, at_lo = (ray_value("peak_eq", u, t, cfg_small) for t in (hi, lo))
            assert at_hi < at_lo


def test_balance_peak_constant_phi_closed_form(cfg_const):
    # phi = 1: t_tilde = [((1-q)E)/((p-q)B)]^{1/(p-1)}
    cfg = cfg_const
    for u in smooth_fields(cfg.grid, 10, seed=28):
        B = convex_integral(u, cfg)
        if B <= 0:
            continue
        E = integrate(cfg.grid, pointwise_energy(u))
        expect = (((1.0 - cfg.q) * E) / ((cfg.p - cfg.q) * B)) ** (1.0 / (cfg.p - 1.0))
        got = classify(u, cfg).t_tilde
        assert abs(got - expect) <= 1e-10 * expect


def test_balance_peak_bracket_signs(cfg_small):
    for u in smooth_fields(cfg_small.grid, 10, seed=29):
        if convex_integral(u, cfg_small) <= 0:
            continue
        t = classify(u, cfg_small).t_tilde
        assert ray_value("balance_dt", u, t * (1.0 - 1e-3), cfg_small) > 0.0
        assert ray_value("balance_dt", u, t * (1.0 + 1e-3), cfg_small) < 0.0


def test_balance_peak_matches_dense_scan(cfg_small):
    # log-grid argmax of the balance curve agrees within one grid cell
    found = 0
    for u in smooth_fields(cfg_small.grid, 10, seed=30):
        if convex_integral(u, cfg_small) <= 0:
            continue
        found += 1
        t_grid = np.logspace(-3, 4, 100000)
        vals = np.array([ray_value("balance", u, float(t), cfg_small) for t in t_grid[::100]])
        coarse = t_grid[::100]
        k = int(np.argmax(vals))
        lo = coarse[max(k - 1, 0)]
        hi = coarse[min(k + 1, len(coarse) - 1)]
        t = classify(u, cfg_small).t_tilde
        assert lo <= t <= hi
        if found >= 3:
            break
    assert found >= 1


def test_balance_limits(cfg_small):
    # m -> 0 as t -> 0+ at the t^{1-q} rate, and the sign at t = 1e6
    # follows the convex-integral dichotomy
    report = None
    from nehari.phi import verify_hypotheses

    report = verify_hypotheses(cfg_small.phi, cfg_small.q, cfg_small.p)
    for u in smooth_fields(cfg_small.grid, 10, seed=31):
        E = integrate(cfg_small.grid, pointwise_energy(u))
        B = convex_integral(u, cfg_small)
        t0 = 1e-8
        bound = 2.0 * report.rho1 * t0 ** (1.0 - cfg_small.q) * E + 2.0 * abs(B) * t0 ** (
            cfg_small.p - cfg_small.q
        )
        assert abs(ray_value("balance", u, t0, cfg_small)) <= bound
        # a q-adapted shrink reaches any fixed smallness target
        t1 = min(t0, (1e-7 / (report.rho1 * E)) ** (1.0 / (1.0 - cfg_small.q)))
        assert abs(ray_value("balance", u, t1, cfg_small)) <= 1e-6 * E
        big = ray_value("balance", u, 1e6, cfg_small)
        if B > 0:
            assert big < 0.0
        else:
            assert big > 0.0


def test_bare_peak_constant_phi_closed_form(cfg_const):
    # phi = 1: h'(t)=0 at t = (E/B)^{1/(p-1)}, and scaling t_max(cu) = t_max(u)/c
    cfg = cfg_const
    done = 0
    for u in smooth_fields(cfg.grid, 10, seed=32):
        B = convex_integral(u, cfg)
        if B <= 0:
            continue
        E = integrate(cfg.grid, pointwise_energy(u))
        expect = (E / B) ** (1.0 / (cfg.p - 1.0))
        diag = classify(u, cfg)
        t_max, value = diag.t_max, diag.bare_peak_value
        assert abs(t_max - expect) <= 1e-9 * expect
        t_max2 = classify(u.scaled(2.0), cfg).t_max
        assert abs(t_max2 - t_max / 2.0) <= 1e-9 * t_max
        assert abs(value - ray_value("bare", u, t_max, cfg)) == 0.0
        done += 1
        if done >= 3:
            break
    assert done >= 1


def test_bare_peak_requires_positive_convex(cfg_small):
    # with B <= 0 neither peak exists, and classify reports neither
    cfg = fixed_sign_problem(+1.0, -1.0)
    u = smooth_fields(cfg.grid, 1, seed=33)[0]
    diag = classify(u, cfg)
    assert diag.convex <= 0.0
    assert diag.t_tilde is None and diag.t_max is None
    assert diag.bare_peak_value is None


def test_case_neither(cfg_small):
    cfg = fixed_sign_problem(-1.0, -1.0)
    for u in smooth_fields(cfg.grid, 3, seed=34):
        diag = classify(u, cfg)
        assert diag.case == CASE_NEITHER
        assert diag.roots == ()
        # the ray slope stays positive: no crossing anywhere
        for t in (0.1, 1.0, 10.0):
            assert ray_energy_dt(u, t, cfg) > 0.0


def test_case_concave_only(cfg_small):
    cfg = fixed_sign_problem(+1.0, -1.0)
    for u in smooth_fields(cfg.grid, 3, seed=35):
        diag = classify(u, cfg)
        assert diag.case == CASE_CONCAVE_ONLY
        assert len(diag.roots) == 1
        t1, sign = diag.roots[0]
        assert sign == 1
        # global minimum with negative value
        assert ray_value("gamma", u, t1, cfg) < 0.0


def test_case_convex_only(cfg_small):
    cfg = fixed_sign_problem(-1.0, +1.0)
    for u in smooth_fields(cfg.grid, 3, seed=36):
        diag = classify(u, cfg)
        assert diag.case == CASE_CONVEX_ONLY
        assert len(diag.roots) == 1
        t2, sign = diag.roots[0]
        assert sign == -1
        assert t2 > diag.t_tilde
        # global maximum with positive value
        assert ray_value("gamma", u, t2, cfg) > 0.0


def test_case_both_two_roots(cfg_small):
    cfg = fixed_sign_problem(+1.0, +1.0, lam=0.5)
    for u in smooth_fields(cfg.grid, 3, seed=37):
        diag = classify(u, cfg)
        assert diag.case == CASE_BOTH_TWO_ROOTS
        (t3, s3), (t4, s4) = diag.roots
        assert s3 == 1 and s4 == -1
        assert t3 < diag.t_tilde < t4


def test_case_both_no_root(cfg_small):
    # large lam pushes the concave level above the balance peak
    cfg = fixed_sign_problem(+1.0, +1.0, lam=1e6)
    u = smooth_fields(cfg.grid, 1, seed=38)[0]
    diag = classify(u, cfg)
    assert diag.case == "both_positive_no_root"
    assert diag.roots == ()
    for t in (0.1, 1.0, 10.0):
        assert ray_energy_dt(u, t, cfg) < 0.0


def test_case_both_tangent_band():
    # at λ = m(t̃)/A the balance peak touches the concave level λA: the ray is
    # tangent while the gap m(t̃) − λA lies within the plain sums' error
    # bound, ~4e-13·λA on this ray; 1e-12 off, it has two roots or none
    cfg = fixed_sign_problem(+1.0, +1.0, nodes=(9, 9, 9))
    x, y, z = cfg.grid.coords()
    u = Field(cfg.grid, np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z))
    t_tilde = classify(u, cfg).t_tilde
    lam = ray_value("balance", u, t_tilde, cfg) / concave_integral(u, cfg)
    for factor in (1.0 - 1e-13, 1.0, 1.0 + 1e-13):
        diag = classify(u, cfg.with_lambda(lam * factor))
        assert diag.case == CASE_BOTH_TANGENT
        assert [sign for _, sign in diag.roots] == [0]
    for branch in ("plus", "minus"):
        with pytest.raises(ProjectionError, match="tangent"):
            project(u, cfg.with_lambda(lam), branch)
    # scaled so that the peak sits at t = 1, the projection's first point is
    # the tangency itself: its level and its slope read 0, so the peak is
    # still solved
    at_peak = u.scaled(t_tilde)
    lam_at_peak = ray_value("balance", at_peak, 1.0, cfg) / concave_integral(at_peak, cfg)
    for branch in ("plus", "minus"):
        with pytest.raises(ProjectionError, match="tangent"):
            project(at_peak, cfg.with_lambda(lam_at_peak), branch)
    below = classify(u, cfg.with_lambda(lam * (1.0 - 1e-12)))
    assert below.case == CASE_BOTH_TWO_ROOTS
    assert [sign for _, sign in below.roots] == [1, -1]
    assert classify(u, cfg.with_lambda(lam * (1.0 + 1e-12))).case == CASE_BOTH_NO_ROOT


@pytest.mark.parametrize(
    "gap, case, reason",
    [
        (1e-3, CASE_BOTH_TWO_ROOTS, None),
        (1e-6, CASE_BOTH_TWO_ROOTS, None),
        (0.0, CASE_BOTH_TANGENT, "ray is tangent to the manifold"),
        (-1e-3, CASE_BOTH_NO_ROOT, "balance peak below the concave level (no crossing)"),
    ],
)
def test_ray_case_is_invariant_under_the_scaling_symmetry(gap, case, reason):
    # with φ ≡ 1, b → κb and λ → κ^{−(1−q)/(p−1)}λ only rescale every root by
    # κ^{−1/(p−1)}, so no case may change; λ puts the peak gap m(t̃) − λA at
    # ``gap``·λA, with m(t̃) = (p−1)/(p−q)·t̃^{1−q}E in closed form
    cfg = fixed_sign_problem(+1.0, +1.0, nodes=(9, 9, 9), phi=constant_model(1.0))
    q, p = cfg.q, cfg.p
    x, y, z = cfg.grid.coords()
    u = Field(cfg.grid, np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z))
    E = integrate(cfg.grid, pointwise_energy(u))
    A, B = concave_integral(u, cfg), convex_integral(u, cfg)
    t_tilde = ((1.0 - q) * E / ((p - q) * B)) ** (1.0 / (p - 1.0))
    lam = (p - 1.0) / (p - q) * t_tilde ** (1.0 - q) * E / ((1.0 + gap) * A)
    base = None
    for kappa in (1.0, 1e-8, 1e20, 1e30, 1e40):
        scaled = fixed_sign_problem(
            +1.0,
            kappa,
            nodes=(9, 9, 9),
            phi=constant_model(1.0),
            lam=kappa ** (-(1.0 - q) / (p - 1.0)) * lam,
        )
        diag = classify(u, scaled)
        assert diag.case == case, kappa
        if reason is not None:
            for branch in ("plus", "minus"):
                with pytest.raises(ProjectionError) as failed:
                    project(u, scaled, branch)
                assert failed.value.reason == reason, kappa
            continue
        scales = [project(u, scaled, branch).scale for branch in ("plus", "minus")]
        base = base or scales
        for t, t_base in zip(scales, base):
            assert math.isclose(t, kappa ** (-1.0 / (p - 1.0)) * t_base, rel_tol=1e-9), kappa


def test_classification_matches_scan_oracle():
    # lam is sized so every concave-level crossing lands inside the scan
    # window of the oracle; fields are normalized to unit energy integral
    cfg = make_problem(lam=300.0)
    seen = set()
    for u in smooth_fields(cfg.grid, 30, seed=39):
        E = integrate(cfg.grid, pointwise_energy(u))
        u = u.scaled(1.0 / math.sqrt(E))
        diag = classify(u, cfg)
        seen.add(diag.case)
        assert not [t for t, s in diag.roots if s == 0]
        assert scan_root_count(u, cfg, points=20000) == len(diag.roots)
    assert len(seen) >= 3  # taxonomy variety, not a single-case sweep


def test_classify_rejects_zero_field(cfg_small):
    with pytest.raises(DomainError):
        classify(Field(cfg_small.grid, np.zeros(cfg_small.grid.shape)), cfg_small)


def test_projection_idempotent(cfg_small):
    for u in smooth_fields(cfg_small.grid, 10, seed=40):
        for branch in ("plus", "minus"):
            try:
                point = project(u, cfg_small, branch)
            except ProjectionError:
                continue
            again = project(point.field, cfg_small, branch)
            assert abs(again.scale - 1.0) <= 1e-9


def test_projection_signs_and_convex_only_positive_energy(cfg_small):
    cfg = fixed_sign_problem(-1.0, +1.0)
    for u in smooth_fields(cfg.grid, 3, seed=41):
        point = project(u, cfg, "minus")
        assert point.gamma2 < 0.0
        assert point.energy > 0.0
        with pytest.raises(ProjectionError):
            project(u, cfg, "plus")


def test_projection_scaled_second_derivative(cfg_small):
    # at the returned point: gamma''(1) of the projected field equals
    # t^{q+2} m'(t) of the input ray at the projection scale
    for u in smooth_fields(cfg_small.grid, 10, seed=42):
        for branch in ("plus", "minus"):
            try:
                point = project(u, cfg_small, branch)
            except ProjectionError:
                continue
            t = point.scale
            rhs = t ** (cfg_small.q + 2.0) * ray_value("balance_dt", u, t, cfg_small)
            assert abs(point.gamma2 - rhs) <= 1e-8 * max(abs(point.gamma2), abs(rhs))


def test_projection_error_carries_diagnosis(cfg_small):
    cfg = fixed_sign_problem(-1.0, -1.0)
    u = smooth_fields(cfg.grid, 1, seed=43)[0]
    with pytest.raises(ProjectionError) as err:
        project(u, cfg, "plus")
    assert err.value.diagnosis is not None
    assert err.value.diagnosis.case == CASE_NEITHER


def test_bare_peak_clears_threshold_floor():
    # h(t_max) >= delta for fields with positive convex integral
    from nehari.grid import estimate_sobolev
    from nehari.phi import verify_hypotheses
    from nehari.thresholds import compute_thresholds

    cfg = make_problem(nodes=(7, 7, 7), phi=constant_model(1.0), lam=1.0)
    hyp = verify_hypotheses(cfg.phi, cfg.q, cfg.p)
    sob = {
        cfg.q + 1.0: estimate_sobolev(cfg.grid, cfg.q + 1.0),
        cfg.p + 1.0: estimate_sobolev(cfg.grid, cfg.p + 1.0),
    }
    th = compute_thresholds(hyp, sob, cfg)
    checked = 0
    for u in smooth_fields(cfg.grid, 100, seed=44):
        if convex_integral(u, cfg) <= 0.0:
            continue
        value = classify(u, cfg).bare_peak_value
        assert value >= th.delta - 1e-9
        checked += 1
        if checked >= 50:
            break
    assert checked >= 50


def test_sample_ray_table(cfg_small):
    u = smooth_fields(cfg_small.grid, 1, seed=45)[0]
    table = sample_ray(u, cfg_small, [0.5, 1.0, 2.0])
    assert table["t"] == [0.5, 1.0, 2.0]
    assert len(table["gamma"]) == 3
    assert abs(table["gamma"][1] - energy(u, cfg_small)) <= 1e-12 * (
        1.0 + abs(energy(u, cfg_small))
    )


def test_sample_ray_matches_public_functions_bitwise(cfg_small, cfg_const, cfg_stuart9):
    for cfg in (cfg_small, cfg_const, cfg_stuart9):
        u = smooth_fields(cfg.grid, 1, seed=46)[0]
        # more than two blocks of t, the last one partial
        rows = fibering.SAMPLE_BLOCK_ELEMENTS // cfg.grid.size
        t_values = [0.01, 0.7, 1.0, 3.3, 50.0] + np.logspace(-2.5, 2.5, 2 * rows).tolist()
        table = sample_ray(u, cfg, t_values)
        assert table["t"] == t_values
        for i, t in enumerate(t_values):
            # each column is named after its ray formula
            for key in ("gamma", "gamma_dt", "gamma_dt2", "balance", "peak_eq"):
                assert table[key][i] == ray_value(key, u, t, cfg), (cfg.phi.kind, key, t)


def counting_phi(cfg):
    """cfg with a φ whose raw evaluators count their calls in ``calls``."""
    calls = []

    def count(name):
        fn = getattr(cfg.phi, name)
        return lambda s: calls.append(name) or fn(s)

    names = ("raw_Phi", "raw_phi", "raw_dphi", "raw_d2phi")
    phi = dataclasses.replace(cfg.phi, **{k: count(k) for k in names})
    return dataclasses.replace(cfg, phi=phi), calls


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_sample_ray_checks_every_t_before_any_phi_work(cfg_small, bad):
    cfg, calls = counting_phi(cfg_small)
    u = smooth_fields(cfg.grid, 1, seed=46)[0]
    with pytest.raises(DomainError) as expected:
        ray_energy_dt(u, bad, cfg)
    calls.clear()
    with pytest.raises(DomainError) as err:
        sample_ray(u, cfg, [0.5, 1.0, bad, 2.0])
    assert str(err.value) == str(expected.value)
    assert str(err.value) == f"ray derivative functions need a finite t > 0, got {bad}"
    assert calls == []


def test_sample_ray_sums_zero_rows_without_fsum(cfg_const, monkeypatch):
    # constant φ has φ' ≡ 0, so every m_1 row of the table is ±0.0; those
    # rows, and every other row here, are plain sums without math.fsum.  201
    # t on a 5³ grid are 3 blocks of at most 96 t: sample_ray sums one
    # integrate stack per block and integrand (bulk, m0, m1), after the
    # ray's own stack of E, A, B and their sizes; a loop over t would make 603
    u = smooth_fields(cfg_const.grid, 1, seed=46)[0]
    t_values = np.logspace(-2, 2, 201)
    fsum_calls, stacks = [], []
    proxy = types.SimpleNamespace(**vars(math))
    proxy.fsum = lambda values: fsum_calls.append(1) or math.fsum(values)
    monkeypatch.setattr(grid_module, "math", proxy)
    integrate_ = fibering.integrate
    monkeypatch.setattr(
        fibering,
        "integrate",
        lambda grid, values: stacks.append(len(values)) or integrate_(grid, values),
    )
    table = sample_ray(u, cfg_const, t_values)
    assert fsum_calls == []
    assert stacks == [5] + [96, 96, 96] * 2 + [9, 9, 9]
    assert table["gamma_dt2"][100] == ray_energy_dt2(u, t_values[100], cfg_const)


def test_sample_ray_memory_does_not_grow_with_the_t_list(cfg_stuart9):
    u = smooth_fields(cfg_stuart9.grid, 1, seed=48)[0]
    sample_ray(u, cfg_stuart9, [1.0, 2.0])  # warm up lazy set-up

    def peak(count: int) -> int:
        t_values = np.logspace(-2, 2, count)
        tracemalloc.start()
        try:
            sample_ray(u, cfg_stuart9, t_values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(201), peak(2001)
    assert large <= 1.5 * small, (small, large)


@pytest.mark.parametrize(
    "sign_a, sign_b, lam",
    [(-1.0, -1.0, 1.0), (1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (1.0, 1.0, 1e6)],
)
def test_project_scale_matches_classify_roots(sign_a, sign_b, lam):
    cfg = fixed_sign_problem(sign_a, sign_b, lam=lam)
    for k, u in enumerate(smooth_fields(cfg.grid, 3, seed=47)):
        u = u.scaled(10.0 ** (k - 1))  # the projection starts at input scale 1
        roots = {sign: t for t, sign in classify(u, cfg).roots}
        for branch, sign in (("plus", 1), ("minus", -1)):
            if sign in roots:
                field, t_star, J = project_scale(u, cfg, branch)
                assert abs(t_star - roots[sign]) <= 1e-12 * roots[sign]
                # J comes from the projection's ray, not from energy()
                E = energy(field, cfg)
                assert abs(J - E) <= 1e-12 * abs(E)
                assert abs(project(u, cfg, branch).energy - E) <= 1e-12 * abs(E)
            else:
                with pytest.raises(ProjectionError):
                    project_scale(u, cfg, branch)


@pytest.fixture(scope="module")
def cfg_stuart9():
    return prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text())).problem


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_amp=st.floats(-3.0, 3.0),
    log_lam=st.floats(-2.0, 1.0),
    branch=st.sampled_from(["plus", "minus"]),
)
def test_project_scale_energy_or_projection_error(cfg_stuart9, seed, log_amp, log_lam, branch):
    # a smooth stuart 9^3 field of peak amplitude 1e-3..1e3, at 0.01..10 times
    # the reference lambda: J is energy() to round-off, or the branch is refused
    cfg = cfg_stuart9.with_lambda(cfg_stuart9.lam * 10.0**log_lam)
    u = random_smooth_field(cfg.grid, np.random.default_rng(seed))
    u = u.scaled(10.0**log_amp / float(np.max(np.abs(u.values))))
    try:
        field, _, J = project_scale(u, cfg, branch)
    except ProjectionError:
        return
    assert abs(J - energy(field, cfg)) <= 1e-12 * max(1.0, abs(J))


# the roots and their γ'' signs that each case admits
CASE_ROOT_SIGNS = {
    CASE_NEITHER: (),
    CASE_CONCAVE_ONLY: (1,),
    CASE_CONVEX_ONLY: (-1,),
    CASE_BOTH_NO_ROOT: (),
    CASE_BOTH_TANGENT: (0,),
    CASE_BOTH_TWO_ROOTS: (1, -1),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_amp=st.floats(-3.0, 3.0),
    log_lam=st.floats(-2.0, 1.0),
)
def test_classify_roots_match_their_case(cfg_stuart9, seed, log_amp, log_lam):
    # a smooth stuart 9^3 field of peak amplitude 1e-3..1e3, at 0.01..10 times
    # the reference lambda: classify never raises, its case follows the signs
    # of A and B, and each root is a crossing with γ'' of the reported sign
    cfg = cfg_stuart9.with_lambda(cfg_stuart9.lam * 10.0**log_lam)
    u = random_smooth_field(cfg.grid, np.random.default_rng(seed))
    u = u.scaled(10.0**log_amp / float(np.max(np.abs(u.values))))
    diag = classify(u, cfg)
    if diag.convex <= 0.0:
        assert diag.case == (CASE_CONCAVE_ONLY if diag.concave > 0.0 else CASE_NEITHER)
    elif diag.concave <= 0.0:
        assert diag.case == CASE_CONVEX_ONLY
    else:
        assert diag.case in (CASE_BOTH_NO_ROOT, CASE_BOTH_TANGENT, CASE_BOTH_TWO_ROOTS)
    assert tuple(sign for _, sign in diag.roots) == CASE_ROOT_SIGNS[diag.case]
    dens = pointwise_energy(u)
    for t, sign in diag.roots:
        m0 = integrate(cfg.grid, cfg.phi.phi(dens * (t * t / 2.0)) * dens)
        size = t * m0 + cfg.lam * t**cfg.q * abs(diag.concave) + t**cfg.p * abs(diag.convex)
        assert abs(ray_energy_dt(u, t, cfg)) <= 1e-9 * size
        if sign != 0:
            assert np.sign(ray_energy_dt2(u, t, cfg)) == sign


def test_classify_finds_a_root_below_one_billionth():
    # field 24 of default_rng(0): A > 0 is so small that the rising root
    # lies at t ~ 2e-10 of the input scale
    prep = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text()))
    cfg = prep.problem
    rng = np.random.default_rng(0)
    u = [random_smooth_field(cfg.grid, rng) for _ in range(25)][24]
    diag = classify(u, cfg)
    assert [sign for _, sign in diag.roots] == [1, -1]
    dens = pointwise_energy(u)
    for t, _ in diag.roots:
        m0 = integrate(cfg.grid, cfg.phi.phi(dens * (t * t / 2.0)) * dens)
        scale = t * m0 + cfg.lam * t**cfg.q * abs(diag.concave) + t**cfg.p * abs(diag.convex)
        assert abs(ray_energy_dt(u, t, cfg)) <= 1e-9 * scale


def test_failed_projection_defers_its_diagnosis(monkeypatch):
    import nehari.fibering as fibering

    calls = []

    def failing_classify(u, cfg):
        calls.append(u)
        raise BracketError("diagnosis failed")

    monkeypatch.setattr(fibering, "classify", failing_classify)
    cfg = fixed_sign_problem(-1.0, -1.0)
    u = smooth_fields(cfg.grid, 1, seed=43)[0]
    with pytest.raises(ProjectionError) as err:
        fibering.project_scale(u, cfg, "plus")
    assert calls == []
    with pytest.raises(BracketError):
        err.value.diagnosis
    assert len(calls) == 1


def test_bare_peak_beyond_a_million():
    # phi = 1 and B tiny: t_max = (E/B)^{1/(p-1)} ~ 6e7, far from the input scale
    cfg = fixed_sign_problem(1.0, 1e-13, phi=constant_model(1.0))
    u = smooth_fields(cfg.grid, 1, seed=48)[0]
    E = integrate(cfg.grid, pointwise_energy(u))
    B = convex_integral(u, cfg)
    expect = (E / B) ** (1.0 / (cfg.p - 1.0))
    assert expect > 1e6
    diag = classify(u, cfg)
    assert abs(diag.t_max - expect) <= 1e-9 * expect
    assert diag.case == CASE_BOTH_TWO_ROOTS
    assert [sign for _, sign in diag.roots] == [1, -1]


def test_bare_peak_is_the_maximum_on_a_dense_grid(cfg_small):
    checked = 0
    for u in smooth_fields(cfg_small.grid, 10, seed=49):
        if convex_integral(u, cfg_small) <= 0.0:
            continue
        value = classify(u, cfg_small).bare_peak_value
        grid_max = max(ray_value("bare", u, t, cfg_small) for t in np.logspace(-3, 3, 2001))
        assert value >= grid_max - 1e-14 * abs(value)
        checked += 1
        if checked >= 3:
            break
    assert checked == 3


def test_classify_reads_few_phi_values():
    # mean raw_phi calls per classify over the default_rng(0) stuart 9^3
    # fields with B > 0, whose roots are all walked to and refined
    prep = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text()))
    calls = []
    raw_phi = prep.problem.phi.raw_phi

    def counted_phi(s):
        calls.append(1)
        return raw_phi(s)

    phi = dataclasses.replace(prep.problem.phi, raw_phi=counted_phi)
    cfg = dataclasses.replace(prep.problem, phi=phi)
    rng = np.random.default_rng(0)
    per_field = []
    for _ in range(48):
        u = random_smooth_field(cfg.grid, rng)
        if convex_integral(u, cfg) <= 0.0:
            continue
        calls.clear()
        classify(u, cfg)
        per_field.append(len(calls))
    assert len(per_field) >= 20
    # 54.75 per field; 74.0 when a converged Newton step from the bracket's
    # end was sent back to bisection
    assert sum(per_field) / len(per_field) <= 65.0, sum(per_field) / len(per_field)


def test_refine_stops_at_a_converged_step_from_the_bracket_end():
    # f is 1e-18 at t = 1, far below half an ulp of t in Newton's step, so the
    # step rounds back onto that end of the bracket [0.5, 1]: the root is
    # found, and no bisection walks back to it from the far end
    calls = []

    def fdf(t):
        calls.append(t)
        return fibering._Point(t, (t - 1.0) + 1e-18, 1.0)

    ends = fdf(0.5), fdf(1.0)
    calls.clear()
    assert fibering._refine(fdf, *ends) == 1.0
    assert len(calls) <= 1, len(calls)


def test_reprojecting_a_solution_reads_few_phi_values():
    # a converged solution lies on its branch at t = 1: the search's first
    # point with m ≥ λA reads positive, or reads 0 with a balance slope of
    # the branch's sign, so the peak (order-2 moments) is never solved
    prep = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text()))
    pair = solve_both(prep.problem, thresholds=prep.thresholds)
    assert not pair.failures
    cfg, calls = counting_phi(prep.problem)
    for report in (pair.plus, pair.minus):
        calls.clear()
        point = project(report.point.field, cfg, report.branch)
        assert "raw_d2phi" not in calls, report.branch
        assert calls.count("raw_phi") <= 5, (report.branch, calls.count("raw_phi"))
        assert abs(point.scale - 1.0) <= 1e-12


def test_projection_scale_does_not_depend_on_the_descent_sums():
    # project_scale, the descent's projection, and project take t* from the
    # same E, A, B and the same root search, and J from the same ray.  Over the timed rays panel (field 24 set aside,
    # as the benchmark does) and the branch seeds of both reference configs
    cases = []
    for name in ("stuart", "constant"):
        cfg = prepare_run(parse_config((CONFIG_DIR / f"reference_{name}.ini").read_text())).problem
        cases += [(cfg, seed_field(cfg, branch), branch) for branch in ("plus", "minus")]
    stuart = cases[0][0]
    rng = np.random.default_rng(0)
    for i, u in enumerate([random_smooth_field(stuart.grid, rng) for _ in range(48)]):
        if i != 24:
            roots = classify(u, stuart).roots
            cases += [(stuart, u, "plus" if s > 0 else "minus") for _, s in roots if s != 0]
    assert len(cases) > 50
    for cfg, u, branch in cases:
        point = project(u, cfg, branch)
        _, t_star, J = project_scale(u, cfg, branch)
        assert t_star == point.scale
        assert abs(J - point.energy) <= 1e-13 * max(1.0, abs(point.energy))


def test_project_reads_its_own_ray(cfg_small, monkeypatch):
    # the report's |G| and γ″(1) are formulas in the projection's ray at t*:
    # one density, no gradient, and the same values as a fresh read
    import importlib

    energy_module = importlib.import_module("nehari.energy")
    fibering_module = importlib.import_module("nehari.fibering")

    calls = {"density": 0, "gradient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        fibering_module, "pointwise_energy", counted("density", pointwise_energy)
    )
    monkeypatch.setattr(
        energy_module, "energy_gradient", counted("gradient", energy_module.energy_gradient)
    )
    checked = 0
    for u in smooth_fields(cfg_small.grid, 10, seed=44):
        for branch in ("plus", "minus"):
            before = dict(calls)
            try:
                point = project(u, cfg_small, branch)
            except ProjectionError:
                continue
            assert calls["density"] - before["density"] == 1
            assert calls["gradient"] == before["gradient"]
            gamma2 = ray_energy_dt2(point.field, 1.0, cfg_small)
            residual = energy_module.nehari_residual(point.field, cfg_small)
            assert abs(point.gamma2 - gamma2) <= 1e-12 * abs(gamma2)
            assert abs(point.constraint - abs(residual)) <= 1e-12 * abs(gamma2)
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize(
    "seed, index, signs",
    [
        (0, 24, [1, -1]),  # field 24 of the benchmark's rays panel: A = 2.05e-6
        (21, 103, [1]),  # A = 4.3e-7 and B < 0
    ],
    ids=["rng0-field24", "rng21-field103"],
)
def test_tiny_concave_integral_roots_below_the_old_bracket_cap(seed, index, signs):
    # stuart 9³ fields whose plus root lies below t = 1e-9; classify once
    # raised BracketError on both.  Each root and its projection meet the
    # benchmark's own check: |γ'| within 1e-9 of its terms' size, and the
    # sign of γ'' that the root reports
    cfg = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text())).problem
    rng = np.random.default_rng(seed)
    u = [random_smooth_field(cfg.grid, rng) for _ in range(index + 1)][index]
    diag = classify(u, cfg)
    assert [sign for _, sign in diag.roots] == signs
    assert diag.roots[0][0] < 1e-9
    dens = pointwise_energy(u)
    for t, sign in diag.roots:
        m0 = integrate(cfg.grid, cfg.phi.phi(dens * (t * t / 2.0)) * dens)
        size = t * abs(m0) + cfg.lam * t**cfg.q * abs(diag.concave) + t**cfg.p * abs(diag.convex)
        assert abs(ray_energy_dt(u, t, cfg)) <= 1e-9 * size
        assert ray_energy_dt2(u, t, cfg) * sign > 0.0
        point = project(u, cfg, "plus" if sign > 0 else "minus")
        assert math.isclose(point.scale, t, rel_tol=1e-9)
        assert point.constraint <= 1e-9 * t * size  # G(t·u) = t·γ'(t)
        assert point.gamma2 * sign > 0.0


def test_seed_cases_read_their_signs_against_the_error_bound():
    # on reference_stuart.ini the mirror-symmetric weights give the minus
    # seed an exact A of 0 and the plus seed an exact B of 0; their plain
    # sums leave ~1e-16 of ∫|terms| (A ≈ −8.9e-19, B ≈ −1.1e-19), inside the
    # bound SIGN_C·n·ε·∫|terms|.  Each sign reads as 0, the nonpositive
    # side, so the seeds keep their cases also when negating a or b turns
    # the noise positive, and classify raises on none of these rays
    cfg = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text())).problem
    minus, plus = seed_field(cfg, "minus"), seed_field(cfg, "plus")
    negated_a = dataclasses.replace(cfg, a=Field(cfg.grid, -cfg.a.values))
    negated_b = dataclasses.replace(cfg, b=Field(cfg.grid, -cfg.b.values))
    bound = fibering.SIGN_C * cfg.grid.size * np.finfo(float).eps
    diags = [classify(minus, problem) for problem in (cfg, negated_a)]
    assert diags[0].concave < 0.0 < diags[1].concave == -diags[0].concave
    for diag in diags:
        size = integrate(cfg.grid, np.abs(cfg.a.values) * np.abs(minus.values) ** (cfg.q + 1.0))
        assert abs(diag.concave) <= bound * size
        assert diag.case == CASE_CONVEX_ONLY
        assert [sign for _, sign in diag.roots] == [-1]
    diags = [classify(plus, problem) for problem in (cfg, negated_b)]
    assert diags[0].convex < 0.0 < diags[1].convex == -diags[0].convex
    for diag in diags:
        size = integrate(cfg.grid, np.abs(cfg.b.values) * np.abs(plus.values) ** (cfg.p + 1.0))
        assert abs(diag.convex) <= bound * size
        assert diag.case == CASE_CONCAVE_ONLY
        assert [sign for _, sign in diag.roots] == [1]


@pytest.mark.parametrize(
    "x, size, n, sign",
    [
        (0.0, 1.0, 729, 0),
        (1e-18, 1.0, 729, 0),  # far inside n·ε·size = 1.6e-13
        (-1.6e-13, 1.0, 729, 0),
        (1.7e-13, 1.0, 729, 1),
        (-1.7e-13, 1.0, 729, -1),
        (-1e-300, 1e-300, 1, -1),  # one term of one sign is its own size
    ],
)
def test_bounded_sign_reads_noise_as_zero(x, size, n, sign):
    assert fibering._bounded_sign(x, size, n) == sign


def test_rays_panel_signs_lie_far_outside_the_error_bound():
    # on the benchmark's 48 stuart 9³ fields the smallest |A| or |B| is
    # 5.5e-4 of ∫|terms| (field 24's A; 1.08e-2 on the other 47), against
    # n·ε = 1.6e-13: every bounded sign is the plain sum's own sign, with a
    # margin of more than 1e9
    cfg = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text())).problem
    bound = fibering.SIGN_C * cfg.grid.size * np.finfo(float).eps
    rng = np.random.default_rng(0)
    for _ in range(48):
        u = random_smooth_field(cfg.grid, rng)
        ray = fibering._Ray(u, cfg)
        for value, sign, weight, power in (
            (ray.concave, ray.concave_sign, cfg.a, cfg.q + 1.0),
            (ray.convex, ray.convex_sign, cfg.b, cfg.p + 1.0),
        ):
            size = integrate(cfg.grid, np.abs(weight.values) * np.abs(u.values) ** power)
            assert abs(value) > 1e9 * bound * size
            assert sign == (1 if value > 0.0 else -1)
