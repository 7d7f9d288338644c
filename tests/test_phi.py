import numpy as np
import pytest

from nehari import phi as phi_module
from nehari.errors import DomainError
from nehari.phi import (
    constant_model,
    stuart_min_offset,
    stuart_model,
    tabulated_model,
    verify_hypotheses,
)


def test_evaluate_constant():
    model = constant_model(1.0)
    values = (model.Phi(2.0), model.phi(2.0), model.dphi(2.0), model.d2phi(2.0))
    assert values == (2.0, 1.0, 0.0, 0.0)


def test_evaluate_stuart_at_zero():
    model = stuart_model(5.0)
    assert model.Phi(0.0) == 0.0
    assert model.phi(0.0) == 6.0
    assert model.dphi(0.0) == -3.0
    assert model.d2phi(0.0) == 12.0


def test_stuart_slope_combination_at_third():
    # |phi'(s)|*s at s = 1/3 equals 3*(27/256) = 81/256
    model = stuart_model(5.0)
    s = 1.0 / 3.0
    d1 = float(model.dphi(s))
    assert abs(abs(d1) * s - 81.0 / 256.0) < 1e-15


def test_negative_s_rejected():
    model = stuart_model(5.0)
    with pytest.raises(DomainError):
        model.Phi(-1e-9)
    with pytest.raises(DomainError):
        model.phi(np.array([0.5, -0.5]))


def test_antiderivative_consistency():
    # Phi'(s) = phi(s) by central differences on 100 log-spaced points
    for model in (constant_model(2.5), stuart_model(6.0)):
        s = np.logspace(-6, 5, 100)
        h = 1e-6 * (1.0 + s)
        fd = (model.Phi(s + h) - model.Phi(np.maximum(s - h, 0.0))) / (
            (s + h) - np.maximum(s - h, 0.0)
        )
        err = np.abs(fd - model.phi(s)) / (1.0 + np.abs(model.phi(s)))
        assert float(np.max(err)) <= 1e-6


def test_constant_hypotheses_pass():
    report = verify_hypotheses(constant_model(1.0), 0.5, 3.0)
    assert report.all_pass
    # rho0 ~ rho1 ~ 1 and the stiffness gap max{0.75, 0.5} leaves room
    assert 0.75 * report.rho1 < report.rho0 <= 1.0 <= report.rho1


def test_stuart6_all_pass_and_rho2_bound():
    report = verify_hypotheses(stuart_model(6.0), 0.5, 3.0)
    assert report.all_pass
    # the sum of the two extrema 3*27/256 + 12*108/3125 bounds the certified value
    assert report.rho2 <= 584901.0 / 800000.0 + 1e-9
    # certified lower margin for the pinch combination
    assert report.rho3 >= (1.0 - 0.5) * 6.0 - 81.0 / 128.0


def test_stuart1_fails_bounds_but_is_convex():
    # A=1 breaks the phi1 gap (needs A > (q+1)/(1-q) = 3), while the map
    # t -> Phi(t^2) is genuinely strictly convex: its second derivative
    # 2A + 2(1+s^2)^-3 - 12 s^2 (1+s^2)^-4 has minimum 2A - 0.610... > 0.
    s = np.concatenate([[0.0], np.logspace(-8, 8, 200001)])
    f6pp = 2.0 + 2.0 * (1 + s**2) ** -3 - 12.0 * s**2 * (1 + s**2) ** -4
    assert int(np.sum(np.diff(np.sign(f6pp)) != 0)) == 0  # oracle: no sign change
    report = verify_hypotheses(stuart_model(1.0), 0.5, 3.0)
    assert not report.passes["phi1"]
    assert report.passes["phi6"]
    assert not report.all_pass


def test_stuart_above_min_offset_passes():
    for q, p in ((0.5, 3.0), (0.3, 2.0), (0.7, 2.5)):
        A = stuart_min_offset(q, p) + 0.5
        report = verify_hypotheses(stuart_model(A), q, p)
        assert report.all_pass, (q, p, report.passes)


def test_pinch_margin_matches_reduction():
    # (1-q) phi(s) + 2 phi'(s) s >= (1-q) A - 81/128 on every sample
    q, p, A = 0.5, 3.0, 6.0
    model = stuart_model(A)
    s = phi_module._samples()
    comb = (1.0 - q) * model.phi(s) + 2.0 * model.dphi(s) * s
    assert float(np.min(comb)) >= (1.0 - q) * A - 81.0 / 128.0


def test_weighted_slope_extremum_location():
    # max of s(1+s)^-4 equals 27/256 at s = 1/3 (golden-section refinement)
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda s: -s * (1.0 + s) ** -4,
        bracket=(0.1, 0.4, 1.0),
        method="golden",
        options={"xtol": 1e-14},
    )
    assert abs(-res.fun - 27.0 / 256.0) <= 1e-9
    assert abs(res.x - 1.0 / 3.0) <= 1e-6
    res5 = minimize_scalar(
        lambda s: -s * s * (1.0 + s) ** -5,
        bracket=(0.3, 0.7, 1.5),
        method="golden",
        options={"xtol": 1e-14},
    )
    assert abs(-res5.fun - 108.0 / 3125.0) <= 1e-9
    assert abs(res5.x - 2.0 / 3.0) <= 1e-6


def _offset_terms(q, p):
    return (
        (q + 1.0) / (1.0 - q),
        2.0 / (p + 1.0),
        5.0,
        81.0 / (128.0 * (1.0 - q)),
        (5184.0 / 3125.0 + (p + q) * 81.0 / 128.0) / ((1.0 - q) * (p - 1.0)),
    )


def test_stuart_min_offset_values():
    assert stuart_min_offset(0.5, 3.0) == 5.0
    assert stuart_min_offset(1e-12, 3.0) == 5.0
    # q=0.9, p=1.1: the exponent-combination term dominates all others
    terms = _offset_terms(0.9, 1.1)
    assert stuart_min_offset(0.9, 1.1) == max(terms)
    assert max(terms) == terms[4]
    assert abs(terms[4] - 292.4505) < 1e-3


def test_stuart_min_offset_domain():
    with pytest.raises(DomainError):
        stuart_min_offset(1.0, 3.0)
    with pytest.raises(DomainError):
        stuart_min_offset(0.5, 1.0)


def test_tabulated_matches_closed_form():
    base = stuart_model(6.0)
    s = np.concatenate([[0.0], np.logspace(-4, 7, 4000)])
    model = tabulated_model(s, base.phi(s))
    probe = np.logspace(-3, 6, 50)
    assert np.allclose(model.phi(probe), base.phi(probe), rtol=1e-6)
    assert np.allclose(model.Phi(probe), base.Phi(probe), rtol=1e-4, atol=1e-8)
    report = verify_hypotheses(model, 0.5, 3.0)
    for name in ("phi1", "phi3", "phi4", "phi7"):
        assert report.passes[name], name


def test_tabulated_validation():
    with pytest.raises(DomainError):
        tabulated_model([0.1, 0.2, 0.3, 0.4], [1, 1, 1, 1])  # must start at 0
    with pytest.raises(DomainError):
        tabulated_model([0.0, 0.2, 0.2, 0.4], [1, 1, 1, 1])  # strictly increasing
    with pytest.raises(DomainError):
        tabulated_model([0.0, 0.1, 0.2, 0.3], [1, 1, -1, 1])  # positive values


def test_verify_hypotheses_domain():
    with pytest.raises(DomainError):
        verify_hypotheses(constant_model(1.0), 1.2, 3.0)
    with pytest.raises(DomainError):
        verify_hypotheses(constant_model(1.0), 0.5, 0.9)
