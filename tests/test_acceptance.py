"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; tolerances are pinned here, not configurable.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from nehari.cli import main as cli_main
from nehari.config import parse_config, prepare_run
from nehari.energy import (
    concave_integral,
    convex_integral,
    energy,
    energy_gradient,
    nehari_residual,
)
from nehari.errors import ProjectionError
from nehari.fibering import (
    CASE_CONCAVE_ONLY,
    CASE_CONVEX_ONLY,
    classify,
    project,
    ray_energy_dt,
)
from nehari.grid import (
    Field,
    Grid,
    dirichlet_energy,
    estimate_sobolev,
    integrate,
    pointwise_energy,
)
from nehari.phi import constant_model, stuart_min_offset, stuart_model, verify_hypotheses
from nehari.solver import solve_both
from nehari.thresholds import compute_thresholds

from conftest import (
    make_problem,
    perturbed_starts,
    ray_value,
    second_derivative_forms,
    smooth_fields,
)
from test_fibering import scan_root_count
from test_grid import oracle_first_eigenvalue

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def record(number, description, ok):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def normalized_fields(cfg, count, seed):
    out = []
    for u in smooth_fields(cfg.grid, count, seed=seed):
        E = integrate(cfg.grid, pointwise_energy(u))
        out.append(u.scaled(1.0 / math.sqrt(E)))
    return out


def test_criterion_1_gradient_exactness():
    cfg = make_problem(nodes=(5, 5, 5), phi=stuart_model(6.0), lam=1.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    u = smooth_fields(cfg.grid, 1, seed=101)[0]
    grad = energy_gradient(u, cfg)
    step = 1e-5 * (1.0 + math.sqrt(dirichlet_energy(u)))
    for _ in range(20):
        v = rng.standard_normal(cfg.grid.shape)
        analytic = float(np.vdot(grad, v))
        jp = energy(Field(cfg.grid, u.values + step * v), cfg)
        jm = energy(Field(cfg.grid, u.values - step * v), cfg)
        fd = (jp - jm) / (2.0 * step)
        worst = max(worst, abs(analytic - fd) / (1.0 + abs(fd)))
    record(1, f"gradient vs finite differences, max rel err {worst:.2e} <= 1e-6", worst <= 1e-6)


def test_criterion_2_identity_suite():
    cfg = make_problem(nodes=(5, 5, 5), phi=stuart_model(6.0), lam=1.0)
    rng = np.random.default_rng(102)
    worst = {"slope_vs_G": 0.0, "forms": 0.0, "factorization": 0.0, "scaled_d2": 0.0, "ray_at_1": 0.0}
    for u in smooth_fields(cfg.grid, 100, seed=102):
        G = nehari_residual(u, cfg)
        slope1 = ray_energy_dt(u, 1.0, cfg)
        worst["slope_vs_G"] = max(
            worst["slope_vs_G"], abs(G - slope1) / max(abs(G), abs(slope1), 1e-30)
        )
        via_b, via_a = second_derivative_forms(u, cfg)
        worst["forms"] = max(
            worst["forms"],
            abs(via_b - via_a - (cfg.p - cfg.q) * G) / max(abs(via_b), abs(via_a), 1e-30),
        )
        t = float(rng.uniform(0.2, 4.0))
        A = concave_integral(u, cfg)
        lhs = ray_energy_dt(u, t, cfg)
        rhs = t**cfg.q * (ray_value("balance", u, t, cfg) - cfg.lam * A)
        worst["factorization"] = max(
            worst["factorization"], abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
        )
        fb, _ = second_derivative_forms(u.scaled(t), cfg)
        rhs2 = t ** (cfg.q + 2.0) * ray_value("balance_dt", u, t, cfg)
        worst["scaled_d2"] = max(
            worst["scaled_d2"], abs(fb - rhs2) / max(abs(fb), abs(rhs2), 1e-30)
        )
        J = energy(u, cfg)
        worst["ray_at_1"] = max(
            worst["ray_at_1"], abs(ray_value("gamma", u, 1.0, cfg) - J) / max(abs(J), 1e-30)
        )
    ok = (
        worst["slope_vs_G"] <= 1e-12
        and worst["forms"] <= 1e-10
        and worst["factorization"] <= 1e-12
        and worst["scaled_d2"] <= 1e-8
        and worst["ray_at_1"] <= 1e-12
    )
    record(
        2,
        "identity suite on 100 fields: "
        f"slope=G {worst['slope_vs_G']:.1e}<=1e-12, "
        f"forms {worst['forms']:.1e}<=1e-10, "
        f"factorization {worst['factorization']:.1e}<=1e-12, "
        f"scaled-d2 {worst['scaled_d2']:.1e}<=1e-8, "
        f"ray(1)=J {worst['ray_at_1']:.1e}<=1e-12",
        ok,
    )


def test_criterion_3_analytic_derivatives():
    cfg = make_problem(nodes=(5, 5, 5), phi=stuart_model(6.0), lam=1.0)
    rng = np.random.default_rng(103)
    worst = 0.0
    for u in smooth_fields(cfg.grid, 10, seed=103):
        t = float(rng.uniform(0.3, 3.0))
        h = 1e-6 * t
        pairs = (
            ("balance", "balance_dt"),
            ("peak_eq", "peak_eq_dt"),
            ("gamma_dt", "gamma_dt2"),
        )
        for func, deriv in pairs:
            fd = (ray_value(func, u, t + h, cfg) - ray_value(func, u, t - h, cfg)) / (2.0 * h)
            an = ray_value(deriv, u, t, cfg)
            worst = max(worst, abs(an - fd) / (1.0 + abs(fd)))
    record(3, f"balance/peak/ray derivative checks, max rel err {worst:.2e} <= 1e-7", worst <= 1e-7)


def test_criterion_4_peak_equation_monotone():
    rng = np.random.default_rng(104)
    violations = 0
    pairs_checked = 0
    for phi in (stuart_model(6.0), constant_model(1.0), stuart_model(9.0)):
        cfg = make_problem(nodes=(5, 5, 5), phi=phi, lam=1.0)
        assert verify_hypotheses(phi, cfg.q, cfg.p).passes["phi5"]
        fields = smooth_fields(cfg.grid, 5, seed=104)
        for u in fields:
            for _ in range(50 // len(fields) + 1):
                t1, t2 = sorted(rng.uniform(0.05, 6.0, size=2))
                if t2 - t1 < 1e-6:
                    continue
                pairs_checked += 1
                if not ray_value("peak_eq", u, t2, cfg) < ray_value("peak_eq", u, t1, cfg):
                    violations += 1
    record(
        4,
        f"strict decrease of the peak equation on {pairs_checked} t-pairs, {violations} violations",
        violations == 0 and pairs_checked >= 50,
    )


def test_criterion_5_case_taxonomy():
    cfg = make_problem(nodes=(5, 5, 5), phi=stuart_model(6.0), lam=300.0)
    matches = 0
    sign_ok = True
    total = 100
    for u in normalized_fields(cfg, total, seed=105):
        diag = classify(u, cfg)
        if scan_root_count(u, cfg, points=100000) == len(diag.roots):
            matches += 1
        if diag.case == CASE_CONCAVE_ONLY:
            sign_ok = sign_ok and [s for _, s in diag.roots] == [1]
        if diag.case == CASE_CONVEX_ONLY:
            sign_ok = sign_ok and [s for _, s in diag.roots] == [-1]
    record(
        5,
        f"case taxonomy: {matches}/{total} scan-oracle matches, branch signs ok={sign_ok}",
        matches == total and sign_ok,
    )


def test_criterion_6_thresholds():
    from test_thresholds import synthetic_problem, synthetic_report, unit_sobolev

    q, p = 0.5, 1.5
    th_norm = compute_thresholds(
        synthetic_report(q, p), unit_sobolev(q, p), synthetic_problem(q, p)
    )
    lambda1_exact = abs(th_norm.lambda1 - 1.0) <= 1e-15

    delta_pos = True
    boundary = True
    for model in (constant_model(1.0), stuart_model(6.0), constant_model(4.0)):
        cfg0 = make_problem(nodes=(7, 7, 7), phi=model)
        hyp = verify_hypotheses(model, cfg0.q, cfg0.p)
        if not hyp.passes["phi1"]:
            continue
        sob = {
            cfg0.q + 1.0: estimate_sobolev(cfg0.grid, cfg0.q + 1.0),
            cfg0.p + 1.0: estimate_sobolev(cfg0.grid, cfg0.p + 1.0),
        }
        th = compute_thresholds(hyp, sob, cfg0)
        delta_pos = delta_pos and th.delta > 0.0
        boundary = boundary and abs(th.delta_lambda(th.lambda2)) <= 1e-12

    cfg0 = make_problem(nodes=(7, 7, 7), phi=constant_model(1.0))
    hyp = verify_hypotheses(cfg0.phi, cfg0.q, cfg0.p)
    sob = {
        cfg0.q + 1.0: estimate_sobolev(cfg0.grid, cfg0.q + 1.0),
        cfg0.p + 1.0: estimate_sobolev(cfg0.grid, cfg0.p + 1.0),
    }
    th = compute_thresholds(hyp, sob, cfg0)
    cfg = cfg0.with_lambda(th.lambda0 / 2.0)
    floor = th.delta_lambda(cfg.lam)
    projected = 0
    floor_ok = True
    for u in smooth_fields(cfg.grid, 200, seed=106):
        if convex_integral(u, cfg) <= 0.0:
            continue
        try:
            point = project(u, cfg, "minus")
        except ProjectionError:
            continue
        projected += 1
        floor_ok = floor_ok and point.energy >= floor - 1e-9
        if projected >= 50:
            break
    record(
        6,
        f"thresholds: lambda1=1 exact {lambda1_exact}, delta>0 {delta_pos}, "
        f"delta_lambda(lambda2)=0 {boundary}, falling-branch floor on {projected} fields {floor_ok}",
        lambda1_exact and delta_pos and boundary and floor_ok and projected >= 50,
    )


def test_criterion_7_example_family():
    from scipy.optimize import minimize_scalar

    min_offset_ok = stuart_min_offset(0.5, 3.0) == 5.0
    report = verify_hypotheses(stuart_model(6.0), 0.5, 3.0)
    all_pass = report.all_pass
    rho2_ok = report.rho2 <= 584901.0 / 800000.0 + 1e-9
    r4 = minimize_scalar(
        lambda s: -s * (1.0 + s) ** -4,
        bracket=(0.1, 0.4, 1.0),
        method="golden",
        options={"xtol": 1e-14},
    )
    r5 = minimize_scalar(
        lambda s: -s * s * (1.0 + s) ** -5,
        bracket=(0.3, 0.7, 1.5),
        method="golden",
        options={"xtol": 1e-14},
    )
    extrema_ok = (
        abs(-r4.fun - 27.0 / 256.0) <= 1e-9
        and abs(r4.x - 1.0 / 3.0) <= 1e-6
        and abs(-r5.fun - 108.0 / 3125.0) <= 1e-9
        and abs(r5.x - 2.0 / 3.0) <= 1e-6
    )
    record(
        7,
        f"example family: min offset 5 {min_offset_ok}, offset-6 all-pass {all_pass}, "
        f"rho2 bound {rho2_ok}, extrema 27/256 and 108/3125 {extrema_ok}",
        min_offset_ok and all_pass and rho2_ok and extrema_ok,
    )


@pytest.mark.parametrize("config_name", ["reference_constant.ini", "reference_stuart.ini"])
def test_criterion_8_theorem_end_to_end(config_name):
    run = parse_config((CONFIG_DIR / config_name).read_text())
    prep = prepare_run(run)
    cfg = prep.problem
    pair = solve_both(cfg, thresholds=prep.thresholds)
    ok = not pair.failures and pair.ordering_ok is True
    details = []
    for branch, rep in (("plus", pair.plus), ("minus", pair.minus)):
        ok = ok and rep is not None and rep.converged
        ok = ok and rep.residual_history[-1] <= 1e-6
        ok = ok and rep.invariants["final_full_residual"] <= 1e-6
        ok = ok and rep.invariants["monotone_energy"]
        if branch == "plus":
            ok = ok and rep.point.energy < 0.0 and rep.point.gamma2 > 0.0
        else:
            ok = ok and rep.point.energy > 0.0 and rep.point.gamma2 < 0.0
            # the paper's falling-branch floor J >= delta_lambda > 0
            ok = ok and rep.invariants["delta_lambda_bound_ok"]
        details.append(f"{branch}: J={rep.point.energy:.4g} res={rep.residual_history[-1]:.1e}")
    details.append(f"delta_lambda floor {pair.minus.invariants['delta_lambda_floor']:.4g}")
    starts = perturbed_starts(cfg, "plus", 5, run.seed, thresholds=prep.thresholds)
    energies = [rep.point.energy for rep in starts]
    lo, hi = min(energies), max(energies)
    spread = (hi - lo) / max(abs(lo), abs(hi), 1e-30)
    converged = all(rep.converged for rep in starts)
    # every start converges, and none ends below the reported ground state
    floor = pair.plus.point.energy
    ms_ok = converged and lo >= floor - 1e-6 * abs(floor)
    record(
        8,
        f"{config_name}: {'; '.join(details)}; ordering {pair.ordering_ok}; "
        f"multistart spread {spread:.1e}, all converged {converged}, "
        f"lowest start {lo:.10g} vs {floor:.10g}",
        ok and ms_ok,
    )


def test_criterion_9_sobolev_sanity():
    nodes, lengths = (9, 9, 9), (1.0, 1.0, 1.0)
    est = estimate_sobolev(Grid(nodes=nodes, lengths=lengths), 2.0)
    oracle = oracle_first_eigenvalue(nodes, lengths) ** -0.5
    continuum = 1.0 / (math.pi * math.sqrt(3.0))
    rel_oracle = abs(est.value - oracle) / oracle
    rel_continuum = abs(est.value - continuum) / continuum
    record(
        9,
        f"S_2 on 9^3: vs eigen oracle {rel_oracle:.2e} <= 1e-6, vs continuum {rel_continuum:.2%} <= 5%",
        rel_oracle <= 1e-6 and rel_continuum <= 0.05,
    )


def test_criterion_10_determinism(tmp_path):
    text = (CONFIG_DIR / "reference_stuart.ini").read_text()
    text = text.replace("nodes = 9", "nodes = 5")
    cfgp = tmp_path / "quick.ini"
    cfgp.write_text(text)
    payloads = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        for command in ("verify-phi", "thresholds", "fibering", "solve", "gradcheck"):
            assert cli_main([command, "--config", str(cfgp), "--out", str(out)]) == 0
        blob = {}
        for path in sorted(out.iterdir()):
            blob[path.name] = path.read_bytes()
            if path.suffix == ".json":
                json.loads(path.read_text())  # strict-parser validity
        payloads.append(blob)
    same = payloads[0].keys() == payloads[1].keys() and all(
        payloads[0][k] == payloads[1][k] for k in payloads[0]
    )
    record(
        10,
        f"two identical runs of all subcommands: {len(payloads[0])} files byte-identical",
        same,
    )
