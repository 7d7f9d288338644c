import dataclasses
import importlib
import math

import numpy as np
import pytest

import nehari.solver as solver
from nehari.config import parse_config, prepare_run
from nehari.energy import ProblemConfig, concave_integral, convex_integral
from nehari.errors import (
    BracketError,
    DomainError,
    ProjectionError,
    SeedingError,
)
from nehari.fibering import CASE_BOTH_NO_ROOT, classify
from nehari.grid import Field, Grid, estimate_sobolev, make_weight
from nehari.phi import constant_model, stuart_model, verify_hypotheses
from nehari.solver import minimize_branch, multistart, seed_field, solve_both
from nehari.thresholds import compute_thresholds

from conftest import CONFIG_DIR, make_problem, two_lobe_weights


def with_thresholds(cfg0, fraction=0.5):
    report = verify_hypotheses(cfg0.phi, cfg0.q, cfg0.p)
    sob = {
        cfg0.q + 1.0: estimate_sobolev(cfg0.grid, cfg0.q + 1.0),
        cfg0.p + 1.0: estimate_sobolev(cfg0.grid, cfg0.p + 1.0),
    }
    th = compute_thresholds(report, sob, cfg0)
    return cfg0.with_lambda(fraction * th.lambda0), th


def test_seed_concentrates_in_positive_lobe(cfg_const):
    cfg, _ = with_thresholds(cfg_const)
    seed = seed_field(cfg, "plus")
    assert concave_integral(seed, cfg) > 0.0
    peak = np.unravel_index(int(np.argmax(seed.values)), cfg.grid.shape)
    weight_peak = np.unravel_index(int(np.argmax(cfg.a.values)), cfg.grid.shape)
    assert peak == weight_peak
    seed_minus = seed_field(cfg, "minus")
    assert convex_integral(seed_minus, cfg) > 0.0


def test_seed_error_when_branch_unreachable():
    grid = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    a, _ = two_lobe_weights(grid)
    b_neg = Field(grid, -np.ones(grid.shape))
    cfg = ProblemConfig(
        grid=grid, phi=constant_model(1.0), a=a, b=b_neg, lam=1.0, q=0.5, p=3.0
    )
    with pytest.raises(SeedingError):
        seed_field(cfg, "minus")


def test_seed_error_carries_the_last_diagnosis():
    # λ so large that no bump width reaches the rising branch
    grid = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    ones = Field(grid, np.ones(grid.shape))
    cfg = ProblemConfig(
        grid=grid, phi=constant_model(1.0), a=ones, b=ones, lam=1e6, q=0.5, p=3.0
    )
    with pytest.raises(SeedingError) as err:
        seed_field(cfg, "plus")
    diag = err.value.diagnosis
    assert diag.case == CASE_BOTH_NO_ROOT
    narrowest = solver._gaussian_bump(cfg, (0, 0, 0), 0.25 / 2.0**6)
    assert diag == classify(narrowest, cfg)


def test_seed_tie_breaks_to_first_lexicographic_node():
    grid = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    a = Field(grid, np.ones(grid.shape))  # every node ties
    _, b = two_lobe_weights(grid)
    cfg = ProblemConfig(
        grid=grid, phi=constant_model(1.0), a=a, b=b, lam=1.0, q=0.5, p=3.0
    )
    seed = seed_field(cfg, "plus")
    peak = np.unravel_index(int(np.argmax(seed.values)), grid.shape)
    assert peak == (0, 0, 0)


def test_minimize_plus_branch_negative_energy(cfg_const):
    cfg, th = with_thresholds(cfg_const)
    report = minimize_branch(cfg, "plus", thresholds=th)
    assert report.converged
    assert report.point.energy < 0.0
    assert report.point.gamma2 > 0.0
    assert report.invariants["monotone_energy"]
    assert report.residual_history[-1] <= cfg.residual_tol
    assert report.invariants["final_full_residual"] <= cfg.residual_tol


def test_minimize_minus_branch_positive_energy(cfg_const):
    cfg, th = with_thresholds(cfg_const)
    report = minimize_branch(cfg, "minus", thresholds=th)
    assert report.converged
    assert report.point.energy > 0.0
    assert report.point.gamma2 < 0.0
    assert report.invariants["monotone_energy"]


def test_iterates_stay_on_manifold(cfg_const):
    cfg, th = with_thresholds(cfg_const)
    report = minimize_branch(cfg, "plus", thresholds=th)
    # |G| at every iterate is tracked; the scale is the energy integral
    assert report.invariants["max_constraint_residual"] <= 1e-8


def test_solve_both_sign_ordering(cfg_const):
    cfg, th = with_thresholds(cfg_const)
    pair = solve_both(cfg, thresholds=th)
    assert not pair.failures
    assert pair.ordering_ok
    assert pair.plus.point.energy < 0.0 < pair.minus.point.energy


def test_plus_energy_deepens_with_lambda(cfg_const):
    cfg_half, th = with_thresholds(cfg_const, fraction=0.5)
    cfg_tenth = cfg_const.with_lambda(th.lambda0 / 10.0)
    r_half = minimize_branch(cfg_half, "plus", thresholds=th)
    r_tenth = minimize_branch(cfg_tenth, "plus", thresholds=th)
    assert r_half.point.energy < r_tenth.point.energy < 0.0


def test_disjoint_positive_lobes_both_branches():
    grid = Grid(nodes=(7, 7, 7), lengths=(1.0, 1.0, 1.0))
    a = make_weight(
        grid,
        {
            "kind": "gaussians",
            "center_pos": [0.25, 0.25, 0.25],
            "center_neg": [0.75, 0.75, 0.75],
            "sigma_pos": 0.12,
            "sigma_neg": 0.12,
        },
    )
    b = make_weight(
        grid,
        {
            "kind": "gaussians",
            "center_pos": [0.75, 0.25, 0.75],
            "center_neg": [0.25, 0.75, 0.25],
            "sigma_pos": 0.12,
            "sigma_neg": 0.12,
        },
    )
    cfg0 = ProblemConfig(
        grid=grid, phi=constant_model(1.0), a=a, b=b, lam=1.0, q=0.5, p=3.0
    )
    cfg, th = with_thresholds(cfg0)
    pair = solve_both(cfg, thresholds=th)
    assert not pair.failures
    assert pair.ordering_ok


def test_multistart_consistency(cfg_const):
    cfg, th = with_thresholds(cfg_const)
    report = multistart(cfg, "plus", n_starts=3, seed=7, thresholds=th)
    assert len(report.energies) == 3
    # every start converges, and none ends below the first start's minimizer
    assert all(report.converged)
    floor = report.energies[0] - 1e-6 * abs(report.energies[0])
    assert min(report.energies) >= floor


def test_stuart_solve_small():
    cfg0 = make_problem(nodes=(5, 5, 5), phi=stuart_model(6.0))
    cfg, th = with_thresholds(cfg0)
    pair = solve_both(cfg, thresholds=th)
    assert not pair.failures
    assert pair.ordering_ok
    for rep in (pair.plus, pair.minus):
        assert rep.converged
        assert rep.invariants["monotone_energy"]
        diag = classify(rep.point.field, cfg)
        assert any(abs(t - 1.0) <= 1e-6 for t, _ in diag.roots)


def test_seed_narrowing_reaches_positive_lobe():
    # wide bumps average the weight to a negative value; narrowing must
    # concentrate on the positive spike before the branch opens up
    grid = Grid(nodes=(9, 9, 9), lengths=(1.0, 1.0, 1.0))
    x, y, z = grid.coords()
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2
    a_vals = 2.0 * np.exp(-r2 / 0.004) - 0.8
    a = Field(grid, a_vals)
    _, b = two_lobe_weights(grid)
    cfg = ProblemConfig(
        grid=grid, phi=constant_model(1.0), a=a, b=b, lam=1.0, q=0.5, p=3.0
    )
    wide = seed_field.__globals__["_gaussian_bump"](
        cfg, np.unravel_index(int(np.argmax(a_vals)), grid.shape), min(grid.lengths) / 4.0
    )
    assert concave_integral(wide, cfg) < 0.0  # the default width would fail
    seed = seed_field(cfg, "plus")
    assert concave_integral(seed, cfg) > 0.0


def test_projection_reads_few_phi_values():
    # mean raw_phi calls per projection over whole stuart 9^3 solves at two
    # of the benchmark panel's lambda fractions, together over 1000 projections
    prep = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text()))
    counts = {"phi": 0, "projections": 0, "inside": False}
    raw_phi = prep.problem.phi.raw_phi

    def counted_phi(s):
        counts["phi"] += counts["inside"]
        return raw_phi(s)

    project_scale = solver.project_scale

    def counted_projection(*args):
        counts["projections"] += 1
        counts["inside"] = True
        try:
            return project_scale(*args)
        finally:
            counts["inside"] = False

    phi = dataclasses.replace(prep.problem.phi, raw_phi=counted_phi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "project_scale", counted_projection)
        for fraction in (0.47, 0.5):
            lam = fraction * prep.thresholds.lambda0
            cfg = dataclasses.replace(prep.problem, phi=phi, lam=lam)
            pair = solve_both(cfg, thresholds=prep.thresholds)
            assert not pair.failures and pair.ordering_ok
    assert counts["projections"] > 1000
    assert counts["phi"] / counts["projections"] <= 15.0


def test_descent_sums_each_quadrature_once():
    # exact sums per descent iteration over a whole stuart 9^3 solve: a trial
    # takes its energy from its projection, so energy() is never called
    import nehari.fibering as fibering
    import nehari.grid as grid_module

    # the package re-exports the function ``energy`` under the module's name
    energy_module = importlib.import_module("nehari.energy")
    prep = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text()))
    counts = {"fsum": 0, "energy": 0}
    fsum, energy = grid_module._fsum, energy_module.energy

    def counted_fsum(values):
        counts["fsum"] += 1
        return fsum(values)

    def counted_energy(*args):
        counts["energy"] += 1
        return energy(*args)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (grid_module, energy_module, fibering, solver):
            if getattr(mod, "_fsum", None) is fsum:
                mp.setattr(mod, "_fsum", counted_fsum)
            if getattr(mod, "energy", None) is energy:
                mp.setattr(mod, "energy", counted_energy)
        pair = solve_both(prep.problem, thresholds=prep.thresholds)
    assert not pair.failures and pair.ordering_ok
    iterations = pair.minus.iterations + pair.plus.iterations
    assert iterations > 500
    assert counts["energy"] == 0
    assert counts["fsum"] / iterations <= 14.0


def test_report_reads_one_fresh_ray_per_branch(monkeypatch):
    # every ray of a stuart 9^3 solve belongs to a projection, but for the one
    # fresh ray of each final field that gives the report its J and γ''
    import nehari.fibering as fibering

    prep = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text()))
    counts = {"rays": 0, "project_scale": 0}
    project_scale = solver.project_scale

    class CountedRay(fibering._Ray):
        def __init__(self, *args):
            counts["rays"] += 1
            super().__init__(*args)

    def counted(*args):
        counts["project_scale"] += 1
        return project_scale(*args)

    monkeypatch.setattr(fibering, "_Ray", CountedRay)
    monkeypatch.setattr(solver, "project_scale", counted)
    pair = solve_both(prep.problem, thresholds=prep.thresholds)
    assert not pair.failures and pair.ordering_ok
    assert counts["rays"] == counts["project_scale"] + 2


def test_seed_that_does_not_project_reseeds_once():
    # a bump centred where a is most negative has A < 0: no rising crossing
    cfg, th = with_thresholds(make_problem(phi=constant_model(1.0)))
    sink = np.unravel_index(int(np.argmin(cfg.a.values)), cfg.grid.shape)
    bad = solver._gaussian_bump(cfg, sink, min(cfg.grid.lengths) / 4.0)
    with pytest.raises(ProjectionError):
        solver.project_scale(bad, cfg, "plus")
    report = minimize_branch(cfg, "plus", seed=bad, thresholds=th)
    assert report.restarts == 1
    narrowed = seed_field(cfg, "plus", sigma=min(cfg.grid.lengths) / 8.0)
    start = solver.project_scale(narrowed, cfg, "plus")
    expected = solver._run_descent(cfg, "plus", start, th, 1, 0.0)
    assert report.as_dict() == expected.as_dict()
    assert np.array_equal(report.point.field.values, expected.point.field.values)


def test_problem_needs_an_iteration(cfg_const):
    with pytest.raises(DomainError):
        dataclasses.replace(cfg_const, max_iter=0)


def test_solve_both_reports_a_failing_diagnosis(monkeypatch, cfg_const):
    def failing_projection(u, cfg, branch):
        raise BracketError("diagnosis failed")

    monkeypatch.setattr(solver, "project_scale", failing_projection)
    pair = solve_both(cfg_const)
    assert pair.failures == {"minus": "diagnosis failed", "plus": "diagnosis failed"}

    def lost_projection(cfg, branch, **kwargs):
        raise ProjectionError("lost", diagnosis=lambda: failing_projection(None, cfg, branch))

    monkeypatch.setattr(solver, "minimize_branch", lost_projection)
    pair = solve_both(cfg_const)
    assert pair.failures["plus"] == "lost"
    assert pair.failures["plus_diagnosis"] == {"error": "BracketError: diagnosis failed"}


def test_monotone_energy_fails_when_projection_misreports(monkeypatch, cfg_const):
    cfg, th = with_thresholds(cfg_const)
    assert minimize_branch(cfg, "plus", thresholds=th).invariants["monotone_energy"]
    project_scale = solver.project_scale

    def understated(u, cfg, branch):
        field, t_star, J = project_scale(u, cfg, branch)
        return field, t_star, J - 1e-6 * max(1.0, abs(J))

    monkeypatch.setattr(solver, "project_scale", understated)
    report = minimize_branch(cfg, "plus", thresholds=th)
    # the history still passes the descent's own rule; only J of the
    # final field, computed afresh, can show the misreport
    history = report.energy_history
    slack = solver.ENERGY_SLACK
    assert all(new <= old + slack * (1 + abs(old)) for old, new in zip(history, history[1:]))
    assert not report.invariants["monotone_energy"]


def test_default_seed_is_projected_once(monkeypatch, cfg_const):
    cfg, th = with_thresholds(cfg_const)
    project_scale = solver.project_scale
    calls = {"project_scale": 0, "at_descent": None}

    def counted(u, cfg, branch):
        calls["project_scale"] += 1
        return project_scale(u, cfg, branch)

    class Stop(Exception):
        pass

    def first_step(*args):
        calls["at_descent"] = calls["project_scale"]
        raise Stop

    monkeypatch.setattr(solver, "project_scale", counted)
    monkeypatch.setattr(solver, "_run_descent", first_step)
    for branch in ("plus", "minus"):
        calls["project_scale"] = 0
        with pytest.raises(Stop):
            minimize_branch(cfg, branch, thresholds=th)
        assert calls["at_descent"] == 1, branch


def test_descent_builds_one_gradient_per_iteration(monkeypatch):
    # the start's |G|, the reported |G| and the final full residual are read
    # from the descent states; only a run stopped by max_iter builds one more
    energy_module = importlib.import_module("nehari.energy")
    prep = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text()))
    energy_gradient = energy_module.energy_gradient
    calls = {"n": 0}

    def counted(*args):
        calls["n"] += 1
        return energy_gradient(*args)

    for mod in (energy_module, solver):
        monkeypatch.setattr(mod, "energy_gradient", counted)
    for branch in ("minus", "plus"):
        calls["n"] = 0
        report = minimize_branch(prep.problem, branch, thresholds=prep.thresholds)
        assert report.converged
        assert calls["n"] == report.iterations, branch
    calls["n"] = 0
    capped = dataclasses.replace(prep.problem, max_iter=5)
    report = minimize_branch(capped, "minus", thresholds=prep.thresholds)
    assert not report.converged and report.iterations == 5
    assert calls["n"] == 6


def test_multistart_projects_its_base_seed_once(monkeypatch, cfg_const):
    cfg, th = with_thresholds(cfg_const)
    project_scale = solver.project_scale
    calls = {"n": 0}

    def counted(u, cfg, branch):
        calls["n"] += 1
        return project_scale(u, cfg, branch)

    monkeypatch.setattr(solver, "project_scale", counted)
    single = minimize_branch(cfg, "plus", thresholds=th)
    one_solve, calls["n"] = calls["n"], 0
    report = multistart(cfg, "plus", n_starts=1, thresholds=th)
    assert calls["n"] == one_solve
    assert report.energies == (single.point.energy,)


def test_one_dimensional_refinement_converges_at_second_order():
    # constant phi, fixed lambda, n = 15/31/63: both energies converge at
    # second order and neither solution is a grid-scale artifact
    energies = {"minus": [], "plus": []}
    for n in (15, 31, 63):
        cfg = make_problem(nodes=(n,), phi=constant_model(1.0), lam=3.0)
        j = np.arange(1, n + 1)
        sines = np.sin(np.pi * np.outer(j, j) / (n + 1))  # DST-I modes
        for branch, found in energies.items():
            report = minimize_branch(cfg, branch)
            assert report.converged, (n, branch)
            found.append(report.point.energy)
            coeffs = sines @ report.point.field.values
            upper_share = np.sum(coeffs[j > n / 2] ** 2) / np.sum(coeffs**2)
            assert upper_share < 1e-2, (n, branch, upper_share)
    for branch, (coarse, mid, fine) in energies.items():
        order = math.log2((mid - coarse) / (fine - mid))
        assert order >= 1.8, (branch, order)
