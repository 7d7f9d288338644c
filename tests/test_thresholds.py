import numpy as np
import pytest

from nehari.energy import ProblemConfig, convex_integral
from nehari.errors import ConfigError, DomainError
from nehari.fibering import project
from nehari.grid import Field, Grid, SobolevEstimate, estimate_sobolev
from nehari.phi import HypothesisReport, constant_model, verify_hypotheses
from nehari.thresholds import (
    ADMISSIBLE,
    INADMISSIBLE,
    MARGINAL,
    admissibility,
    compute_thresholds,
)

from conftest import make_problem, smooth_fields


def synthetic_report(q, p, rho0=1.0, rho1=1.0, rho3=1.0, rho5=1.0):
    passes = {f"phi{i}": True for i in range(1, 8)}
    return HypothesisReport(
        passes=passes,
        rho0=rho0,
        rho1=rho1,
        rho2=1.0,
        rho3=rho3,
        rho4=rho3,
        rho5=rho5,
        rho6=1.0,
        phi_inf=1.0,
        margins={},
        q=q,
        p=p,
    )


def synthetic_problem(q, p, a_value=1.0, b_value=1.0, nodes=(5, 5, 5)):
    grid = Grid(nodes=nodes, lengths=(1.0,) * len(nodes))
    a = Field(grid, np.full(grid.shape, a_value))
    b = Field(grid, np.full(grid.shape, b_value))
    return ProblemConfig(
        grid=grid, phi=constant_model(1.0), a=a, b=b, lam=1.0, q=q, p=p
    )


def unit_sobolev(q, p):
    return {
        q + 1.0: SobolevEstimate(order=q + 1.0, value=1.0, method="synthetic", iterations=0),
        p + 1.0: SobolevEstimate(order=p + 1.0, value=1.0, method="synthetic", iterations=0),
    }


def test_lambda1_normalized_inputs_exact():
    # rho3 = rho5 = sup|a| S^{q+1} = sup|b| S^{p+1} = 1 and p - q = 1: every
    # factor collapses and lambda1 = 1 exactly
    q, p = 0.5, 1.5
    report = synthetic_report(q, p)
    cfg = synthetic_problem(q, p)
    th = compute_thresholds(report, unit_sobolev(q, p), cfg)
    assert abs(th.lambda1 - 1.0) <= 1e-15


def test_lambda1_direct_evaluation():
    # rho5 = rho3 = 1, p = 3, q = 0.5, unit embedding factors:
    # lambda1 = (1/2.5) * (1/2.5)^{0.25}
    q, p = 0.5, 3.0
    report = synthetic_report(q, p)
    cfg = synthetic_problem(q, p)
    th = compute_thresholds(report, unit_sobolev(q, p), cfg)
    expect = (1.0 / 2.5) * (1.0 / 2.5) ** 0.25
    assert abs(th.lambda1 - expect) <= 1e-15
    assert abs(th.lambda1 - 0.3181082915068203) <= 1e-12


def test_delta_positive_under_phi1():
    # any certified phi1 forces rho0 > 2 rho1/(p+1), hence delta > 0
    for model, q, p in (
        (constant_model(1.0), 0.5, 3.0),
        (constant_model(3.0), 0.2, 2.0),
    ):
        report = verify_hypotheses(model, q, p)
        assert report.passes["phi1"]
        cfg = synthetic_problem(q, p)
        th = compute_thresholds(report, unit_sobolev(q, p), cfg)
        assert th.delta > 0.0
        assert th.lambda0 == min(th.lambda1, th.lambda2) > 0.0


def test_delta_lambda_boundary_and_monotone():
    q, p = 0.5, 3.0
    report = synthetic_report(q, p)
    cfg = synthetic_problem(q, p)
    th = compute_thresholds(report, unit_sobolev(q, p), cfg)
    assert abs(th.delta_lambda(th.lambda2)) <= 1e-12
    lams = np.linspace(0.05 * th.lambda2, 0.999 * th.lambda2, 40)
    vals = [th.delta_lambda(l) for l in lams]
    assert all(v > 0.0 for v in vals[:-1])
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_lambda1_monotone_in_weight_sup_norms():
    q, p = 0.5, 3.0
    report = synthetic_report(q, p)
    base = compute_thresholds(report, unit_sobolev(q, p), synthetic_problem(q, p))
    up_a = compute_thresholds(
        report, unit_sobolev(q, p), synthetic_problem(q, p, a_value=1.1)
    )
    dn_a = compute_thresholds(
        report, unit_sobolev(q, p), synthetic_problem(q, p, a_value=0.9)
    )
    up_b = compute_thresholds(
        report, unit_sobolev(q, p), synthetic_problem(q, p, b_value=1.1)
    )
    dn_b = compute_thresholds(
        report, unit_sobolev(q, p), synthetic_problem(q, p, b_value=0.9)
    )
    assert up_a.lambda1 < base.lambda1 < dn_a.lambda1
    assert up_b.lambda1 < base.lambda1 < dn_b.lambda1


def test_thresholds_require_certification():
    q, p = 0.5, 3.0
    report = synthetic_report(q, p)
    bad = HypothesisReport(
        passes={**report.passes, "phi3": False},
        rho0=report.rho0,
        rho1=report.rho1,
        rho2=report.rho2,
        rho3=report.rho3,
        rho4=report.rho4,
        rho5=report.rho5,
        rho6=report.rho6,
        phi_inf=report.phi_inf,
        margins={},
        q=q,
        p=p,
    )
    with pytest.raises(ConfigError):
        compute_thresholds(bad, unit_sobolev(q, p), synthetic_problem(q, p))
    with pytest.raises(ConfigError):
        compute_thresholds(report, {}, synthetic_problem(q, p))


def test_admissibility_verdicts():
    q, p = 0.5, 1.5  # p - q = 1 and unit inputs make lambda1 = 1
    report = synthetic_report(q, p)
    cfg = synthetic_problem(q, p)
    th = compute_thresholds(report, unit_sobolev(q, p), cfg)
    assert admissibility(th.lambda0 / 2.0, th) == ADMISSIBLE
    # strict inequality at the ceiling itself
    assert admissibility(th.lambda0, th) in (MARGINAL, INADMISSIBLE)
    assert admissibility(2.0 * max(th.lambda1, th.lambda2), th) == INADMISSIBLE
    if min(th.lambda1, th.lambda2) < max(th.lambda1, th.lambda2):
        mid = 0.5 * (th.lambda0 + max(th.lambda1, th.lambda2))
        assert admissibility(mid, th) == MARGINAL
    with pytest.raises(DomainError):
        admissibility(0.0, th)


def test_falling_branch_floor_on_projections():
    # every falling-branch projection of a smooth field under admissible
    # lam keeps its energy above delta_lambda
    cfg0 = make_problem(nodes=(7, 7, 7), phi=constant_model(1.0))
    report = verify_hypotheses(cfg0.phi, cfg0.q, cfg0.p)
    sob = {
        cfg0.q + 1.0: estimate_sobolev(cfg0.grid, cfg0.q + 1.0),
        cfg0.p + 1.0: estimate_sobolev(cfg0.grid, cfg0.p + 1.0),
    }
    th = compute_thresholds(report, sob, cfg0)
    cfg = cfg0.with_lambda(th.lambda0 / 2.0)
    floor = th.delta_lambda(cfg.lam)
    assert floor > 0.0
    checked = 0
    for u in smooth_fields(cfg.grid, 120, seed=50):
        if convex_integral(u, cfg) <= 0.0:
            continue
        try:
            point = project(u, cfg, "minus")
        except Exception:
            continue
        assert point.energy >= floor - 1e-9
        checked += 1
        if checked >= 50:
            break
    assert checked >= 50


def test_report_serialization():
    q, p = 0.5, 3.0
    th = compute_thresholds(
        synthetic_report(q, p), unit_sobolev(q, p), synthetic_problem(q, p)
    )
    payload = th.as_dict()
    assert payload["lambda0"] == min(payload["lambda1"], payload["lambda2"])
    assert "rho0" in payload["provenance"]
    assert "sobolev" in payload["provenance"]
