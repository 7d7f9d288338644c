import dataclasses

import numpy as np
import pytest

import nehari.solver as solver
from nehari.config import parse_config, prepare_run
from nehari.energy import ProblemConfig, concave_integral, convex_integral
from nehari.errors import BracketError, ProjectionError, SeedingError, SolverError
from nehari.fibering import classify
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
        grid=grid, phi=constant_model(1.0), a=a.field, b=b_neg, lam=1.0, q=0.5, p=3.0
    )
    with pytest.raises(SeedingError):
        seed_field(cfg, "minus")


def test_seed_tie_breaks_to_first_lexicographic_node():
    grid = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    a = Field(grid, np.ones(grid.shape))  # every node ties
    _, b = two_lobe_weights(grid)
    cfg = ProblemConfig(
        grid=grid, phi=constant_model(1.0), a=a, b=b.field, lam=1.0, q=0.5, p=3.0
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


def test_solver_refuses_inadmissible_lambda(cfg_const):
    cfg, th = with_thresholds(cfg_const)
    bad = cfg.with_lambda(10.0 * max(th.lambda1, th.lambda2))
    with pytest.raises(SolverError):
        minimize_branch(bad, "plus", thresholds=th)
    # force runs anyway (outcome depends on the case structure at this lam)
    try:
        minimize_branch(bad, "plus", thresholds=th, force=True)
    except Exception:
        pass


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
        grid=grid, phi=constant_model(1.0), a=a.field, b=b.field, lam=1.0, q=0.5, p=3.0
    )
    cfg, th = with_thresholds(cfg0)
    pair = solve_both(cfg, thresholds=th)
    assert not pair.failures
    assert pair.ordering_ok


def test_multistart_consistency(cfg_const):
    cfg, th = with_thresholds(cfg_const)
    report = multistart(cfg, "plus", n_starts=3, seed=7, thresholds=th)
    assert len(report.energies) == 3
    assert report.spread <= 1e-6 or report.distinct_minimizers


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
        grid=grid, phi=constant_model(1.0), a=a, b=b.field, lam=1.0, q=0.5, p=3.0
    )
    wide = seed_field.__globals__["_gaussian_bump"](
        cfg, np.unravel_index(int(np.argmax(a_vals)), grid.shape), min(grid.lengths) / 4.0
    )
    assert concave_integral(wide, cfg) < 0.0  # the default width would fail
    seed = seed_field(cfg, "plus")
    assert concave_integral(seed, cfg) > 0.0


def test_projection_reads_few_phi_values():
    # mean raw_phi calls per projection over a whole stuart 9^3 solve
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
    cfg = dataclasses.replace(prep.problem, phi=phi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "project_scale", counted_projection)
        pair = solve_both(cfg, thresholds=prep.thresholds)
    assert not pair.failures and pair.ordering_ok
    assert counts["projections"] > 1000
    assert counts["phi"] / counts["projections"] <= 15.0


def test_solve_both_reports_a_failing_diagnosis(monkeypatch, cfg_const):
    def failing_classify(u, cfg):
        raise BracketError("diagnosis failed")

    monkeypatch.setattr(solver, "classify", failing_classify)
    pair = solve_both(cfg_const)
    assert pair.failures == {"minus": "diagnosis failed", "plus": "diagnosis failed"}

    def lost_projection(cfg, branch, **kwargs):
        raise ProjectionError("lost", diagnosis=lambda: failing_classify(None, cfg))

    monkeypatch.setattr(solver, "minimize_branch", lost_projection)
    pair = solve_both(cfg_const)
    assert pair.failures["plus"] == "lost"
    assert pair.failures["plus_diagnosis"] == {"error": "BracketError: diagnosis failed"}
