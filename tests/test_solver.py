import dataclasses
import importlib
import itertools
import logging
import math
import sys
import types
import warnings

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
from nehari.fibering import CASE_BOTH_NO_ROOT, classify, sample_ray
from nehari.grid import (
    Field,
    Grid,
    _dirichlet_solver,
    _gaussian,
    estimate_sobolev,
    make_weight,
    random_smooth_field,
)
from nehari.phi import constant_model, stuart_model, verify_hypotheses
from nehari.solver import minimize_branch, seed_field, solve_both
from nehari.thresholds import compute_thresholds

from conftest import CONFIG_DIR, make_problem, perturbed_starts, two_lobe_weights

PANEL_FRACTIONS = (0.41, 0.47, 0.5, 0.53, 0.59)  # the solve benchmark's λ/λ₀


def node_bump(cfg, node, sigma):
    """The seed's Gaussian, centred on a grid node."""
    grid = cfg.grid
    center = [grid.axis_coords(k)[i] for k, i in enumerate(node)]
    return Field(grid, _gaussian(grid, center, sigma))


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


def test_failed_branch_logs_its_error(caplog):
    # b < 0 everywhere leaves the minus branch unreachable: solve_both reports
    # it in ``failures`` and logs one warning with its error type and message
    grid = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    a, _ = two_lobe_weights(grid)
    b_neg = Field(grid, -np.ones(grid.shape))
    cfg = ProblemConfig(
        grid=grid, phi=constant_model(1.0), a=a, b=b_neg, lam=1.0, q=0.5, p=3.0
    )
    with caplog.at_level(logging.WARNING, logger="nehari.solver"):
        pair = solve_both(cfg)
    assert pair.minus is None and pair.plus is not None
    failed = [r for r in caplog.records if "failed" in r.getMessage()]
    assert [(r.levelno, r.getMessage()) for r in failed] == [
        (logging.WARNING, f"branch minus failed: SeedingError: {pair.failures['minus']}")
    ]


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
    narrowest = node_bump(cfg, (0, 0, 0), 0.25 / 2.0**6)
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
    reports = perturbed_starts(cfg, "plus", n_starts=3, seed=7, thresholds=th)
    energies = [rep.point.energy for rep in reports]
    assert len(energies) == 3
    # every start converges, and none ends below the first start's minimizer
    assert all(rep.converged for rep in reports)
    floor = energies[0] - 1e-6 * abs(energies[0])
    assert min(energies) >= floor


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
    wide = node_bump(
        cfg, np.unravel_index(int(np.argmax(a_vals)), grid.shape), min(grid.lengths) / 4.0
    )
    assert concave_integral(wide, cfg) < 0.0  # the default width would fail
    seed = seed_field(cfg, "plus")
    assert concave_integral(seed, cfg) > 0.0


def test_projection_reads_few_phi_values():
    # mean raw_phi calls per projection over whole 9^3 solves of both
    # reference configs at the benchmark panel's five lambda fractions,
    # together over 200 projections
    counts = {"phi": 0, "projections": 0, "inside": False}
    project_scale = solver.project_scale

    def counted_projection(*args):
        counts["projections"] += 1
        counts["inside"] = True
        try:
            return project_scale(*args)
        finally:
            counts["inside"] = False

    def counted(raw_phi):
        def counted_phi(s):
            counts["phi"] += counts["inside"]
            return raw_phi(s)

        return counted_phi

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "project_scale", counted_projection)
        for name in ("stuart", "constant"):
            text = (CONFIG_DIR / f"reference_{name}.ini").read_text()
            prep = prepare_run(parse_config(text))
            phi = dataclasses.replace(
                prep.problem.phi, raw_phi=counted(prep.problem.phi.raw_phi)
            )
            for fraction in PANEL_FRACTIONS:
                lam = fraction * prep.thresholds.lambda0
                cfg = dataclasses.replace(prep.problem, phi=phi, lam=lam)
                pair = solve_both(cfg, thresholds=prep.thresholds)
                assert not pair.failures and pair.ordering_ok
    # 342 projections at 5.54 calls each; 8.08 when a converged Newton step
    # from the bracket's end was sent back to bisection
    assert counts["projections"] > 200
    assert counts["phi"] / counts["projections"] <= 6.0, counts["phi"] / counts["projections"]


def test_descent_sums_each_quadrature_once():
    # exact sums per descent iteration over whole 9^3 solves of both
    # reference configs at the benchmark panel's five lambda fractions: a
    # trial takes its energy from its projection, so energy() is never
    # called; every correctly rounded sum goes through grid._exact_sums,
    # where each row of a batch counts as one sum and a 1-D array as one
    # row; a stacked row that the stack's shared σ cannot certify is summed
    # alone under its own σ.  The descent's own quadratures are plain: no
    # exact sum is made inside _descent_state, and inside project_scale
    # only the ray's E, A, B stack, which decides the branch case, is exact
    import nehari.fibering as fibering
    import nehari.grid as grid_module

    # the package re-exports the function ``energy`` under the module's name
    energy_module = importlib.import_module("nehari.energy")
    preps = [
        prepare_run(parse_config((CONFIG_DIR / f"reference_{name}.ini").read_text()))
        for name in ("stuart", "constant")
    ]
    counts = {"sums": 0, "energy": 0, "fsum": 0, "retries": 0, "plain_frames": 0}
    exact_sums = grid_module._exact_sums
    exact_row_sum = grid_module._exact_row_sum
    energy = energy_module.energy
    stacked = [False]
    plain_frames = {solver._descent_state.__code__, fibering.project_scale.__code__}
    ray_init = fibering._Ray.__init__.__code__

    def counted_exact_sums(rows):
        counts["sums"] += 1 if np.ndim(rows) == 1 else len(rows)
        # only _exact_sums calls _exact_row_sum: for a lone row, or a retry
        stacked[0] = np.ndim(rows) == 2 and len(rows) > 1
        callers = []
        frame = sys._getframe(1)
        while frame is not None:
            callers.append(frame.f_code)
            frame = frame.f_back
        if ray_init not in callers and plain_frames.intersection(callers):
            counts["plain_frames"] += 1
        return exact_sums(rows)

    def counted_exact_row_sum(row):
        counts["retries"] += stacked[0]
        return exact_row_sum(row)

    def counted_energy(*args):
        counts["energy"] += 1
        return energy(*args)

    def counted_fsum(values):
        counts["fsum"] += 1
        return math.fsum(values)

    proxy = types.SimpleNamespace(**vars(math))
    proxy.fsum = counted_fsum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "math", proxy)
        mp.setattr(grid_module, "_exact_row_sum", counted_exact_row_sum)
        for mod in (grid_module, energy_module, fibering, solver):
            if getattr(mod, "_exact_sums", None) is exact_sums:
                mp.setattr(mod, "_exact_sums", counted_exact_sums)
            if getattr(mod, "energy", None) is energy:
                mp.setattr(mod, "energy", counted_energy)
        iterations = 0
        for prep, fraction in itertools.product(preps, PANEL_FRACTIONS):
            cfg = dataclasses.replace(prep.problem, lam=fraction * prep.thresholds.lambda0)
            pair = solve_both(cfg, thresholds=prep.thresholds)
            assert not pair.failures and pair.ordering_ok
            iterations += pair.minus.iterations + pair.plus.iterations
    assert iterations > 200
    assert counts["energy"] == 0
    assert counts["plain_frames"] == 0
    assert counts["sums"] / iterations <= 4.0
    # measured over 317 iterations: 3.62 sums, 0.21 fsum calls (what the
    # extraction's certificate rejects) and 0.75 own-σ retries per iteration
    assert counts["fsum"] / iterations <= 0.4
    assert counts["retries"] / iterations <= 1.0


@pytest.mark.parametrize("name", ["constant", "stuart"])
def test_reported_energy_is_the_exact_energy_of_the_final_field(name):
    # the descent's energies are plain sums; the reported J is the exact
    # γ(1) of the final field's own ray, bitwise
    prep = prepare_run(parse_config((CONFIG_DIR / f"reference_{name}.ini").read_text()))
    pair = solve_both(prep.problem, thresholds=prep.thresholds)
    assert not pair.failures
    for report in (pair.minus, pair.plus):
        exact = sample_ray(report.point.field, prep.problem, [1.0])["gamma"][0]
        assert report.point.energy == exact, report.branch
        assert report.invariants["final_energy"] == exact, report.branch


@pytest.mark.parametrize("name", ["constant", "stuart"])
def test_prepare_run_sums_without_fsum(name, monkeypatch):
    # both Sobolev iterations sum lone rows exactly (three Dirichlet axes and
    # the L^order norm, for the start and the best iterate), and the
    # extraction certifies every one
    import nehari.grid as grid_module

    calls = []
    proxy = types.SimpleNamespace(**vars(math))
    proxy.fsum = lambda values: calls.append(1) or math.fsum(values)
    monkeypatch.setattr(grid_module, "math", proxy)
    prepare_run(parse_config((CONFIG_DIR / f"reference_{name}.ini").read_text()))
    assert calls == []


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
    bad = node_bump(cfg, sink, min(cfg.grid.lengths) / 4.0)
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


def test_monotone_energy_fails_when_the_last_history_energy_is_off(monkeypatch, cfg_const):
    # the history's J are the plain sums of the projections and the reported
    # J is exact: an error of 1e-10 relative in the last history entry
    # alone, the final accepted trial's J, turns the invariant False
    cfg, th = with_thresholds(cfg_const)
    project_scale = solver.project_scale
    projected = []
    offset = {"at": None}

    def counted(u, cfg, branch):
        field, t_star, J = project_scale(u, cfg, branch)
        projected.append(J)
        if len(projected) == offset["at"]:
            J -= 1e-10 * max(1.0, abs(J))
        return field, t_star, J

    monkeypatch.setattr(solver, "project_scale", counted)
    for branch in ("plus", "minus"):
        projected.clear()
        offset["at"] = None
        base = minimize_branch(cfg, branch, thresholds=th)
        assert base.converged and base.invariants["monotone_energy"], branch
        # an accepted trial ends its line search, and no projection follows
        # the last one: the last projection that succeeded made the field
        assert projected[-1] == base.energy_history[-1]
        offset["at"] = len(projected)
        projected.clear()
        report = minimize_branch(cfg, branch, thresholds=th)
        last = base.energy_history[-1]
        assert report.energy_history[:-1] == base.energy_history[:-1]
        assert report.energy_history[-1] == last - 1e-10 * max(1.0, abs(last))
        assert report.point.energy == base.point.energy
        assert not report.invariants["monotone_energy"], branch


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


def test_descent_builds_one_gradient_per_iteration(monkeypatch, caplog):
    # the start's |G|, the reported |G| and the final full residual are read
    # from the descent states; only a run stopped by max_iter builds one more,
    # and each run's stop_reason says which way it stopped
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
        assert report.converged and report.as_dict()["stop_reason"] == "converged"
        assert calls["n"] == report.iterations, branch
    calls["n"] = 0
    capped = dataclasses.replace(prep.problem, max_iter=5)
    report = minimize_branch(capped, "minus", thresholds=prep.thresholds)
    assert not report.converged and report.iterations == 5
    assert report.stop_reason == "max_iter"
    assert "branch minus stopped (max_iter) after 5 iterations" in caplog.text
    assert calls["n"] == 6


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


def test_three_dimensional_plus_energy_converges_at_second_order():
    # reference_constant.ini at fixed lambda = 10 (auto:f would move λ with h):
    # the plus branch converges on 13³/17³/21³ in 26/26/31 iterations to
    # J₊ = −1.0306e-5, −1.0087e-5, −9.978e-6.  The observed order p is the root
    # of (J₁₃ − J₁₇)/(J₁₇ − J₂₁) = (h₁₃ᵖ − h₁₇ᵖ)/(h₁₇ᵖ − h₂₁ᵖ), h = 1/(n+1)
    # (Roache, J. Fluids Eng. 1994), and reads 2.106.  Halving the boundary
    # edge weight in both the energy and its gradient reads 1.39.
    text = (CONFIG_DIR / "reference_constant.ini").read_text()
    text = text.replace("lambda = auto:0.5", "lambda = 10")
    sizes, energies = (13, 17, 21), []
    for n in sizes:
        prep = prepare_run(parse_config(text.replace("nodes = 9", f"nodes = {n}")))
        assert prep.problem.grid.nodes == (n, n, n) and prep.problem.lam == 10.0
        report = minimize_branch(prep.problem, "plus", thresholds=prep.thresholds)
        assert report.converged, (n, report.stop_reason)
        energies.append(report.point.energy)
    h = [1.0 / (n + 1) for n in sizes]
    ratio = (energies[0] - energies[1]) / (energies[1] - energies[2])

    def h_ratio(p):  # rises with p: 1.40 at p = 0.5, 3.97 at p = 5
        return (h[0] ** p - h[1] ** p) / (h[1] ** p - h[2] ** p)

    lo, hi = 0.5, 5.0
    assert h_ratio(lo) < ratio < h_ratio(hi), energies
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h_ratio(mid) < ratio else (lo, mid)
    assert 1.8 <= lo <= 2.4, (lo, energies)


@pytest.mark.parametrize("name, minus_growth", [("constant", 2.0), ("stuart", 3.0)])
def test_iteration_counts_do_not_grow_with_the_grid(name, minus_growth):
    # lambda = auto:0.5: both branches converge on 9^3 and 17^3, and the plus
    # branch on 25^3; a count that grows like h⁻² (3.2× from 9³ to 17³)
    # fails.  Measured minus/plus: constant 13/17 -> 24/26 -> plus 28, stuart
    # 13/21 -> 33/33 -> plus 39.  Stuart minus may grow 3×, since its 17^3
    # N⁻ bump sharpens to a grid-scale spike.  The plus branch may grow 2×:
    # with H₀ = γ·P, without the dead-core scaling W, stuart plus read
    # 31 -> 71 -> 94.
    text = (CONFIG_DIR / f"reference_{name}.ini").read_text()
    counts = {"minus": [], "plus": []}
    for n in (9, 17, 25):
        prep = prepare_run(parse_config(text.replace("nodes = 9", f"nodes = {n}")))
        assert prep.problem.grid.nodes == (n, n, n)
        for branch in ("minus", "plus") if n < 25 else ("plus",):
            report = minimize_branch(prep.problem, branch, thresholds=prep.thresholds)
            assert report.stop_reason == "converged", (n, branch)
            counts[branch].append(report.iterations)
    for branch, growth in (("minus", minus_growth), ("plus", 2.0)):
        assert max(counts[branch]) <= growth * min(counts[branch]), (branch, counts)


def test_counters_add_up_over_the_line_searches():
    # every trial is one projection: the accepted one of each step, and one
    # per halving; a failed projection is always followed by a halving.  The
    # 1-D stuart minus branch at λ₀/2 fails one projection, where no 9³
    # reference solve fails any
    cfg, th = with_thresholds(make_problem(nodes=(15,), phi=stuart_model(6.0)))
    report = minimize_branch(cfg, "minus", thresholds=th)
    assert report.converged
    counters = report.counters
    steps = len(report.alpha_history)
    assert steps == len(report.backtrack_history) == report.iterations - 1
    assert len(report.scale_history) == len(report.energy_history) == steps + 1
    assert counters["backtracks"] == sum(report.backtrack_history) > 0
    assert counters["projections"] == steps + counters["backtracks"]
    assert 0 < counters["failed_projections"] <= counters["backtracks"]
    assert report.alpha_history == tuple(
        solver.SHRINK**k for k in report.backtrack_history
    )
    assert report.scale_history[-1] == report.point.scale


def test_ascent_direction_clears_the_memory(monkeypatch, caplog, cfg_const):
    # an L-BFGS direction that does not descend is replaced by the Sobolev
    # gradient of an emptied memory, and the log says why
    direction = solver._LBFGS.direction

    def ascending(self, g, u):
        d = direction(self, g, u)
        return -d if self.pairs else d

    monkeypatch.setattr(solver._LBFGS, "direction", ascending)
    caplog.set_level(logging.INFO, logger="nehari.solver")
    report = minimize_branch(cfg_const, "minus")
    assert report.converged
    resets = report.counters["memory_resets"]
    assert resets == report.iterations - 2  # every step after the first
    assert caplog.text.count("L-BFGS memory cleared") == resets


def test_start_matrix_is_symmetric_and_positive():
    # H₀/γ = W P W at the solved stuart 9^3 N⁺ field, whose dead core puts W
    # far below 1: ⟨x, H₀y⟩ = ⟨H₀x, y⟩ to round-off, and ⟨x, H₀x⟩ > 0
    prep = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text()))
    cfg = prep.problem
    u = minimize_branch(cfg, "plus", thresholds=prep.thresholds).point.field
    memory = solver._LBFGS(cfg)
    start = memory.start(u)
    rng = np.random.default_rng(5)
    for _ in range(8):
        x, y = (
            random_smooth_field(cfg.grid, rng).values + rng.standard_normal(cfg.grid.shape)
            for _ in range(2)
        )
        hx, hy = start(x), start(y)
        norm = np.linalg.norm
        assert abs(np.vdot(x, hy) - np.vdot(hx, y)) <= 1e-14 * (
            norm(x) * norm(hy) + norm(hx) * norm(y)
        )
        assert np.vdot(x, hx) > 0.0
    assert not np.allclose(start(x), memory.precondition(x), rtol=1e-3, atol=0.0)


def test_start_matrix_is_the_h1_preconditioner_where_the_field_vanishes():
    # W is 1 where a ≥ 0 and, since |u|^{q−1} has no finite value there, where
    # u = 0: a field that is 0 exactly where a < 0 gives H₀/γ bitwise
    # P = (I − Δ_h)⁻¹, and |u|^{1−q} at u = 0 raises no warning
    cfg, _ = with_thresholds(make_problem(nodes=(7, 7, 7), phi=stuart_model(6.0)))
    rng = np.random.default_rng(11)
    keep = cfg.a.values >= 0.0
    assert 0.0 < keep.mean() < 1.0
    u = Field(cfg.grid, np.where(keep, random_smooth_field(cfg.grid, rng).values, 0.0))
    x = rng.standard_normal(cfg.grid.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solver._LBFGS(cfg).start(u)(x)
    want = _dirichlet_solver(cfg.grid, shift=1.0)(x)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_start_matrix_is_the_h1_preconditioner_without_absorption():
    # with a ≥ 0 everywhere no node has a dead core: W ≡ 1 and H₀/γ is
    # bitwise P = (I − Δ_h)⁻¹
    cfg0, _ = with_thresholds(make_problem(nodes=(7, 7, 7), phi=stuart_model(6.0)))
    cfg = dataclasses.replace(cfg0, a=Field(cfg0.grid, np.abs(cfg0.a.values)))
    rng = np.random.default_rng(13)
    u = random_smooth_field(cfg.grid, rng)
    x = rng.standard_normal(cfg.grid.shape)
    got = solver._LBFGS(cfg).start(u)(x)
    want = _dirichlet_solver(cfg.grid, shift=1.0)(x)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_seed_with_zeros_on_the_absorbing_set_converges():
    # a given seed that is 0 exactly where a < 0 converges with no nan, inf
    # or RuntimeWarning; with W = 0 at those nodes, every direction would be
    # 0 there too, and the descent ran to max_iter at residual 0.28
    prep = prepare_run(parse_config((CONFIG_DIR / "reference_stuart.ini").read_text()))
    cfg = prep.problem
    keep = cfg.a.values >= 0.0
    seed = Field(cfg.grid, np.where(keep, seed_field(cfg, "plus").values, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = minimize_branch(cfg, "plus", seed=seed, thresholds=prep.thresholds)
    assert report.converged and report.restarts == 0
    assert np.all(np.isfinite(report.energy_history + report.residual_history))
    assert report.point.energy < 0.0 and report.invariants["monotone_energy"]
