import copy
import logging
import math
import pickle
import re
import types
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nehari import grid as grid_module
from nehari.errors import ConfigError, DomainError
from nehari.grid import (
    Field,
    Grid,
    MAX_LENGTH,
    MIN_LENGTH,
    _dirichlet_solver,
    _exact_sums,
    dirichlet_energy,
    estimate_sobolev,
    gradient,
    integrate,
    laplacian,
    load_field,
    make_weight,
    pointwise_energy,
    random_smooth_field,
    save_field,
)

from conftest import smooth_fields


def oracle_first_eigenvalue(nodes, lengths):
    """Independently assembled compact-stencil Dirichlet Laplacian, eigsh."""
    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import eigsh

    A = None
    for k, (n, L) in enumerate(zip(nodes, lengths)):
        h = L / (n + 1)
        M = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / h**2
        term = None
        for j, nj in enumerate(nodes):
            blk = M if j == k else identity(nj, format="csr")
            term = blk if term is None else kron(term, blk, format="csr")
        A = term if A is None else A + term
    v0 = np.ones(A.shape[0])
    return float(eigsh(A, k=1, which="SA", v0=v0, maxiter=5000)[0][0])


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(nodes=(2, 5, 5), lengths=(1.0, 1.0, 1.0))
    with pytest.raises(ConfigError):
        Grid(nodes=(5, 5), lengths=(1.0,))
    with pytest.raises(ConfigError):
        Grid(nodes=(5,), lengths=(-1.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            Grid(nodes=(5,), lengths=(bad,))
    with pytest.raises(ConfigError, match=r"^\[grid\] lengths: side lengths must be at most"):
        Grid(nodes=(5, 5), lengths=(1.0, 1e101))
    assert Grid(nodes=(5,), lengths=(MAX_LENGTH,)).lengths == (MAX_LENGTH,)
    # the smallest side: the default widths 0.18·min L keep a normal σ²
    with pytest.raises(ConfigError, match=r"^\[grid\] lengths: side lengths must be at least"):
        Grid(nodes=(5, 5), lengths=(1.0, 0.5 * MIN_LENGTH))
    assert Grid(nodes=(5,), lengths=(MIN_LENGTH,)).lengths == (MIN_LENGTH,)
    # a node count is never truncated; a whole float is taken as its integer
    with pytest.raises(ConfigError, match=r"^\[grid\] nodes: node counts must be whole"):
        Grid(nodes=(3.9, 3, 3), lengths=(1.0, 1.0, 1.0))
    assert Grid(nodes=(3.0, 4, 5), lengths=(1.0, 1.0, 1.0)).nodes == (3, 4, 5)


def test_gradient_zero_field():
    g = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    u = Field(g, np.zeros(g.shape))
    assert np.all(gradient(u) == 0.0)


def test_gradient_hat_peak():
    # edge differences of a one-node hat of height h: +-1 on its two edges,
    # each seen from both its nodes with weight 1/sqrt(2); a boundary edge
    # is seen from one node only and keeps weight 1
    g = Grid(nodes=(9,), lengths=(1.0,))
    h = g.spacing[0]
    w = math.sqrt(0.5)
    vals = np.zeros(9)
    vals[4] = h
    forward, backward = gradient(Field(g, vals))
    assert abs(forward[3] - w) < 1e-14 and abs(forward[4] + w) < 1e-14
    assert abs(backward[4] - w) < 1e-14 and abs(backward[5] + w) < 1e-14
    assert np.count_nonzero(forward) == 2 and np.count_nonzero(backward) == 2
    vals = np.zeros(9)
    vals[0] = h
    forward, backward = gradient(Field(g, vals))
    assert abs(backward[0] - 1.0) < 1e-14  # the boundary edge
    assert abs(forward[0] + w) < 1e-14 and abs(backward[1] + w) < 1e-14
    assert np.count_nonzero(forward) == 1 and np.count_nonzero(backward) == 2


def test_gradient_second_order_accuracy():
    # sampled sin product: the forward difference along x_0, unweighted, is
    # pi cos(pi x_0) * others at the edge midpoint x_0 + h/2 to O(h^2)
    def exact_err(n):
        g = Grid(nodes=(n, n, n), lengths=(1.0, 1.0, 1.0))
        x, y, z = g.coords()
        u = Field(g, np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z))
        mid = x + 0.5 * g.spacing[0]
        exact = np.pi * np.cos(np.pi * mid) * np.sin(np.pi * y) * np.sin(np.pi * z)
        weight = np.full(n, math.sqrt(0.5))
        weight[-1] = 1.0  # the last forward edge ends on the boundary
        forward = gradient(u)[0] / weight[:, None, None]
        return float(np.max(np.abs(forward - exact)))

    e9, e17 = exact_err(9), exact_err(17)
    # halving h divides the error by about 4
    assert e17 < e9 / 3.0


def test_integrate_constant():
    g = Grid(nodes=(5, 6, 7), lengths=(1.0, 2.0, 0.5))
    value = integrate(g, np.ones(g.shape))
    expect = 1.0
    for n, L in zip(g.nodes, g.lengths):
        expect *= (n / (n + 1)) * L
    assert abs(value - expect) < 1e-15


def test_integrate_sin_squared():
    g = Grid(nodes=(199,), lengths=(1.0,))
    x = g.axis_coords(0)
    val = integrate(g, np.sin(np.pi * x) ** 2)
    assert abs(val - 0.5) < 1e-4  # O(h^2), and the integrand vanishes at the boundary


def test_integrate_antisymmetric_cancellation():
    # h = 1/8 keeps the node coordinates exact in binary, so mirror nodes
    # carry exactly opposite values and the correctly rounded sum is zero
    g = Grid(nodes=(7, 7), lengths=(1.0, 1.0))
    x, y = g.coords()
    w = (x - 0.5) * np.exp(-((y - 0.5) ** 2))
    assert integrate(g, w) == 0.0


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("nodes", [(11,), (5, 6), (4, 5, 6)])
def test_integrate_stack_is_the_single_calls_bitwise(nodes, k):
    g = Grid(nodes=nodes, lengths=(1.0, 2.0, 0.5)[: len(nodes)])
    rng = np.random.default_rng(len(nodes) * 10 + k)
    shape = (k,) + g.shape
    stack = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    got = integrate(g, stack)
    singles = [integrate(g, values) for values in stack]
    assert isinstance(got, list) and all(type(v) is float for v in got + singles)
    assert np.array(got).view(np.int64).tolist() == np.array(singles).view(np.int64).tolist()


@pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4), (4, 5, 1), (2, 3, 4, 5), (20,), ()])
def test_integrate_rejects_other_shapes(shape):
    # a wrong trailing shape, and a stack with two leading axes
    g = Grid(nodes=(4, 5), lengths=(1.0, 1.0))
    message = f"integrand shape {shape} does not match grid shape (4, 5)"
    with pytest.raises(DomainError, match=re.escape(message)):
        integrate(g, np.ones(shape))


def test_norms_zero_and_scaling():
    g = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    assert dirichlet_energy(Field(g, np.zeros(g.shape))) == 0.0
    u = smooth_fields(g, 1, seed=3)[0]
    e1 = dirichlet_energy(u)
    e3 = dirichlet_energy(u.scaled(3.0))
    assert abs(e3 - 9.0 * e1) <= 1e-12 * max(e1, 1.0)


def test_norms_sin_gradient():
    g = Grid(nodes=(199,), lengths=(1.0,))
    x = g.axis_coords(0)
    grad_l2 = math.sqrt(dirichlet_energy(Field(g, np.sin(np.pi * x))))
    # cos^2 does not vanish at the boundary: node-rule error is O(h) there
    assert abs(grad_l2 - math.pi / math.sqrt(2.0)) < 2.0 / 200.0 * math.pi


def test_summation_by_parts_exact():
    rng = np.random.default_rng(11)
    for g in (
        Grid(nodes=(6, 5, 7), lengths=(1.0, 1.3, 0.7)),
        Grid(nodes=(6,), lengths=(1.0,)),
        Grid(nodes=(4, 7, 6), lengths=(1.0, 0.5, 2.0)),
    ):
        for _ in range(5):
            u = Field(g, rng.standard_normal(g.shape))
            v = Field(g, rng.standard_normal(g.shape))
            lhs = integrate(g, v.values * laplacian(u))
            rhs = -integrate(g, np.sum(gradient(u) * gradient(v), axis=0))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize(
    "nodes, lengths",
    [((6,), (1.0,)), ((4, 7, 6), (1.0, 0.5, 2.0)), ((9, 9, 9), (1.0, 1.0, 1.0))],
)
def test_gradient_squared_is_dirichlet_energy(nodes, lengths):
    # the energy and the Sobolev certificate share one quadratic form: each
    # edge counted once, boundary edges included, node noise and the
    # checkerboard as well as smooth fields
    g = Grid(nodes=nodes, lengths=lengths)
    checkerboard = (-1.0) ** np.indices(g.shape).sum(axis=0)
    noise = np.random.default_rng(21).standard_normal(g.shape)
    for u in smooth_fields(g, 3, seed=21) + [Field(g, checkerboard), Field(g, noise)]:
        lhs = integrate(g, np.sum(gradient(u) ** 2, axis=0))
        rhs = dirichlet_energy(u)
        assert abs(lhs - rhs) <= 1e-13 * rhs


def test_low_dimension_grid_logs_no_warning(caplog):
    # the infinite critical exponent below dimension 3 is documented on
    # critical_exponent, not announced by every grid
    with caplog.at_level(logging.WARNING):
        Grid(nodes=(15,), lengths=(1.0,))
        Grid(nodes=(5, 5), lengths=(1.0, 1.0))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_integrate_linear_monotone_triangle():
    g = Grid(nodes=(7, 7), lengths=(1.0, 1.0))
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(g.shape)
        y = rng.standard_normal(g.shape)
        ax = integrate(g, 2.5 * x - 0.5 * y)
        assert abs(ax - (2.5 * integrate(g, x) - 0.5 * integrate(g, y))) < 1e-12
        assert integrate(g, np.abs(x)) >= 0.0


def test_pointwise_energy_definition():
    g = Grid(nodes=(5, 5), lengths=(1.0, 1.0))
    u = smooth_fields(g, 1, seed=7)[0]
    dens = pointwise_energy(u)
    grad = gradient(u)
    assert grad.shape == (4, 5, 5)  # forward and backward per axis
    assert np.array_equal(
        dens, u.values**2 + (grad[0] ** 2 + grad[1] ** 2 + grad[2] ** 2 + grad[3] ** 2)
    )


def test_sobolev_matches_eigen_oracle_cube():
    nodes, lengths = (9, 9, 9), (1.0, 1.0, 1.0)
    est = estimate_sobolev(Grid(nodes=nodes, lengths=lengths), 2.0)
    oracle = oracle_first_eigenvalue(nodes, lengths) ** -0.5
    assert abs(est.value - oracle) <= 1e-6 * oracle
    continuum = 1.0 / (math.pi * math.sqrt(3.0))
    assert abs(est.value - continuum) <= 0.05 * continuum


def test_sobolev_matches_eigen_oracle_interval():
    nodes, lengths = (49,), (1.0,)
    est = estimate_sobolev(Grid(nodes=nodes, lengths=lengths), 2.0)
    oracle = oracle_first_eigenvalue(nodes, lengths) ** -0.5
    assert abs(est.value - oracle) <= 1e-6 * oracle
    assert abs(est.value - 1.0 / math.pi) <= 0.05 / math.pi


def test_sobolev_refinement_stability():
    for order in (1.5, 4.0):
        e9 = estimate_sobolev(Grid(nodes=(9, 9, 9), lengths=(1.0, 1.0, 1.0)), order)
        e17 = estimate_sobolev(Grid(nodes=(17, 17, 17), lengths=(1.0, 1.0, 1.0)), order)
        assert abs(e17.value - e9.value) <= 0.05 * e9.value


def test_sobolev_order_domain():
    g = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        estimate_sobolev(g, 6.0)  # 2* = 6 for dim 3
    with pytest.raises(DomainError):
        estimate_sobolev(g, 1.0)
    g1 = Grid(nodes=(9,), lengths=(1.0,))
    estimate_sobolev(g1, 7.0)  # any order >= 1 in low dimension
    # no critical exponent caps the order below dim 3, so a non-finite one is
    # rejected up front, not met as a non-finite iterate
    for low in (g1, Grid(nodes=(7, 7), lengths=(1.0, 1.0))):
        for order in (math.nan, math.inf):
            with pytest.raises(DomainError, match="Sobolev order must be >= 1"):
                estimate_sobolev(low, order)


def test_sobolev_matches_eigen_oracle_anisotropic_even():
    nodes, lengths = (4, 7, 6), (1.0, 0.5, 2.0)
    est = estimate_sobolev(Grid(nodes=nodes, lengths=lengths), 2.0)
    oracle = oracle_first_eigenvalue(nodes, lengths) ** -0.5
    assert abs(est.value - oracle) <= 1e-6 * oracle


def test_sobolev_never_below_trial_fields():
    # any field's ratio is a lower bound on the best constant
    def ratio(u, order):
        lp = integrate(u.grid, np.abs(u.values) ** order) ** (1.0 / order)
        return lp / math.sqrt(dirichlet_energy(u))

    def bump(g, width):
        r2 = 0.0
        for k, x in enumerate(g.coords()):
            c = g.axis_coords(k)[g.nodes[k] // 2]
            r2 = r2 + ((x - c) / (width * g.lengths[k])) ** 2
        return Field(g, np.exp(-r2))

    cases = [
        ((6, 6, 6), 4.0),
        ((6, 6, 6), 5.9),
        ((4, 4, 4), 4.0),
        ((255,), 4.0),
        ((255,), 7.0),
        ((9, 9, 9), 1.5),
        ((9, 9, 9), 4.0),
    ]
    for nodes, order in cases:
        g = Grid(nodes=nodes, lengths=(1.0,) * len(nodes))
        rng = np.random.default_rng(0)
        trials = [bump(g, w) for w in (0.35, 0.2, 0.1, 0.05)]
        trials += [random_smooth_field(g, rng) for _ in range(20)]
        value = estimate_sobolev(g, order).value
        for u in trials:
            assert value >= ratio(u, order) * (1.0 - 1e-12), (nodes, order)


def test_sobolev_reference_values():
    expected = {
        (9, 1.5): 0.1628378198,
        (9, 4.0): 0.2822447138,
        (17, 1.5): 0.1628289196,
        (17, 4.0): 0.2748365926,
    }
    for (n, order), value in expected.items():
        est = estimate_sobolev(Grid(nodes=(n, n, n), lengths=(1.0, 1.0, 1.0)), order)
        assert est.method == "inverse-power"
        assert abs(est.value - value) <= 1e-8 * value, (n, order)


def test_sobolev_values_are_bitwise_stable():
    # the shift argument of the sine-transform solver leaves shift 0 untouched;
    # the boxes off the cube give the lone-row sums other row lengths and
    # other (n + 1).bit_length().  Each entry is (value, the value before the
    # iteration summed plainly): the exact ratio of the best iterate stays
    # within 2 ulp of the exact ratio the all-exact iteration reported.  The
    # (1, 2, 0.5) box runs halved, and its S of order 1.5 is scaled back by
    # the rounded factor 2^{1/2}: 3 ulp
    expected = {
        ((9, 9, 9), (1.0, 1.0, 1.0), 1.5): ("0x1.4d7dea36689c1p-3", "0x1.4d7dea36689c1p-3"),
        ((9, 9, 9), (1.0, 1.0, 1.0), 4.0): ("0x1.2104c2374b23dp-2", "0x1.2104c2374b23cp-2"),
        ((17, 17, 17), (1.0, 1.0, 1.0), 1.5): ("0x1.4d793fb71150fp-3", "0x1.4d793fb71150fp-3"),
        ((17, 17, 17), (1.0, 1.0, 1.0), 4.0): ("0x1.196ec3a209a8fp-2", "0x1.196ec3a209a8ep-2"),
        ((5, 6, 7), (1.0, 2.0, 0.5), 1.5): ("0x1.fb28fe1b5b269p-4", "0x1.fb28fe1b5b266p-4"),
        ((5, 6, 7), (1.0, 2.0, 0.5), 4.0): ("0x1.1aab2bf7eead7p-2", "0x1.1aab2bf7eead7p-2"),
        ((13,), (1.0,), 3.0): ("0x1.5c19d83730796p-2", "0x1.5c19d83730795p-2"),
        ((6, 9), (1.0, 1.5), 5.0): ("0x1.5725fe01660e6p-2", "0x1.5725fe01660e5p-2"),
    }
    for (nodes, lengths, order), (value, before) in expected.items():
        est = estimate_sobolev(Grid(nodes=nodes, lengths=lengths), order)
        assert est.value.hex() == value, (nodes, order)
        before = float.fromhex(before)
        ulps = 2.0 if max(lengths) < 2.0 else 3.0
        assert abs(est.value - before) <= ulps * math.ulp(before), (nodes, order)


@pytest.mark.parametrize("length", [1.0, 1e-3])
def test_sobolev_constants_of_high_order_stay_finite(length):
    # in 1-D every order is admissible; the iterate is put at unit seminorm
    # before its powers are taken, so |v|^order neither underflows to a
    # zero norm nor overflows.  The values are the all-exact iteration's
    expected = {
        1.0: {
            15.0: "0x1.b227b362b7b3bp-2",
            25.0: "0x1.c76800dad6d1bp-2",
            40.0: "0x1.d776a7a2fc17cp-2",
        },
        1e-3: {
            15.0: "0x1.153377d1017dep-7",
            25.0: "0x1.5d94f97324759p-7",
            40.0: "0x1.916b4b2d64640p-7",
        },
    }[length]
    iterations = {15.0: 11, 25.0: 14, 40.0: 18}
    for order, before in expected.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_sobolev(Grid(nodes=(33,), lengths=(length,)), order)
        before = float.fromhex(before)
        assert est.iterations == iterations[order], order
        assert abs(est.value - before) <= 1e-14 * before, order


def test_sobolev_makes_its_exact_sums_outside_the_loop(monkeypatch):
    # the iteration sums plainly; only the start ratio and the reported one
    # are exact, each one L^order sum and one Dirichlet sum per axis, so the
    # count does not grow with the iterations (8 to 82 here)
    calls = []

    def counted(rows):
        calls.append(1)
        return _exact_sums(rows)

    monkeypatch.setattr(grid_module, "_exact_sums", counted)
    iterations = set()
    for nodes, lengths, order in [
        ((9, 9, 9), (1.0, 1.0, 1.0), 1.5),
        ((9, 9, 9), (1.0, 1.0, 1.0), 4.0),
        ((4, 7, 6), (1.0, 0.5, 2.0), 2.0),
        ((6, 9), (1.0, 1.5), 5.0),
        ((13,), (1.0,), 3.0),
    ]:
        calls.clear()
        est = estimate_sobolev(Grid(nodes=nodes, lengths=lengths), order)
        iterations.add(est.iterations)
        assert len(calls) == 2 * (1 + len(nodes)), (nodes, order, est.iterations)
    assert min(iterations) < 10 and max(iterations) > 70


@pytest.mark.parametrize(
    "nodes, lengths",
    [((31,), (1.0,)), ((6, 9), (1.0, 1.5)), ((5, 7, 6), (1.0, 1.7, 0.6))],
)
def test_dirichlet_form_of_a_solve_is_its_inner_product(nodes, lengths):
    # v = (−Δ_h)⁻¹f exactly, so v's Dirichlet form is the quadrature of v·f:
    # the Sobolev iteration reads it from one plain sum
    grid = Grid(nodes=nodes, lengths=lengths)
    rng = np.random.default_rng(8)
    fields = [random_smooth_field(grid, rng).values, rng.standard_normal(grid.shape)]
    for f in fields + [np.abs(fields[0]) ** 3.0]:
        v = _dirichlet_solver(grid)(f)
        form = grid.cell_volume * float((v * f).sum())
        exact = dirichlet_energy(Field(grid, v))
        assert abs(form - exact) <= 1e-13 * exact


@pytest.mark.parametrize("length", [1e-100, 1e60])
def test_sobolev_constants_follow_the_power_law_on_far_boxes(length):
    # S of the box scaled by c is c^{1+N/r−N/2} times the unit box's; the
    # iteration runs on a box of order 1, so nothing under- or overflows
    nodes = (5, 6, 7)
    unit = Grid(nodes=nodes, lengths=(1.0, 2.0, 0.5))
    far = Grid(nodes=nodes, lengths=tuple(length * L for L in unit.lengths))
    for order in (1.5, 4.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_sobolev(far, order)
        ref = estimate_sobolev(unit, order)
        assert est.iterations == ref.iterations
        law = ref.value * length ** (1.0 + 3.0 / order - 1.5)
        assert math.isfinite(est.value) and abs(est.value - law) <= 1e-12 * law, order


@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_shifted_dirichlet_solver_inverts_the_stencil(shift):
    grid = Grid(nodes=(5, 7, 6), lengths=(1.0, 1.7, 0.6))
    u = random_smooth_field(grid, np.random.default_rng(4)).values
    u = u + 0.1 * np.random.default_rng(5).standard_normal(grid.shape)
    rhs = shift * u - laplacian(Field(grid, u))
    back = _dirichlet_solver(grid, shift)(rhs)
    assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))


def _sign_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if "not sign-changing" in r.getMessage()]


def test_make_weight_affine_sign_changing(caplog):
    g = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    w = make_weight(g, {"kind": "affine", "const": -0.5, "coeffs": [1.0]})
    assert np.any(w.values > 0.0) and np.any(w.values < 0.0)
    assert _sign_warnings(caplog) == []


def test_make_weight_gaussians_sign_changing(caplog):
    g = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    w = make_weight(
        g,
        {
            "kind": "gaussians",
            "center_pos": [0.3, 0.5, 0.5],
            "center_neg": [0.7, 0.5, 0.5],
            "sigma_pos": 0.15,
            "sigma_neg": 0.15,
        },
    )
    assert np.any(w.values > 0.0) and np.any(w.values < 0.0)
    assert _sign_warnings(caplog) == []


def test_make_weight_constant_flagged(caplog):
    g = Grid(nodes=(5, 5, 5), lengths=(1.0, 1.0, 1.0))
    w = make_weight(g, {"kind": "affine", "const": 1.0})
    # standing assumption violated: logged, not raised
    assert np.all(w.values == 1.0)
    assert _sign_warnings(caplog) == ["weight of kind 'affine' is not sign-changing on the grid"]


def test_make_weight_dimension_mismatch():
    g = Grid(nodes=(5, 5), lengths=(1.0, 1.0))
    with pytest.raises(ConfigError):
        make_weight(g, {"kind": "affine", "coeffs": [1.0, 1.0, 1.0]})
    with pytest.raises(ConfigError):
        make_weight(g, {"kind": "sinusoid", "freq": [1.0]})


def test_field_csv_roundtrip(tmp_path):
    g = Grid(nodes=(4, 5, 3), lengths=(1.0, 0.5, 2.0))
    u = smooth_fields(g, 1, seed=9)[0]
    path = tmp_path / "field.csv"
    save_field(str(path), u)
    back = load_field(str(path))
    assert back.grid == g
    assert np.array_equal(back.values, u.values)  # repr round-trips exactly


def test_dirichlet_energy_positive_definite():
    g = Grid(nodes=(6, 6), lengths=(1.0, 1.0))
    rng = np.random.default_rng(2)
    for _ in range(10):
        vals = rng.standard_normal(g.shape)
        assert dirichlet_energy(Field(g, vals)) > 0.0


def test_make_weight_sinusoid_values(caplog):
    g = Grid(nodes=(7, 7), lengths=(1.0, 1.0))
    w = make_weight(g, {"kind": "sinusoid", "freq": [1.0, 2.0], "phase": [0.0, 0.5]})
    x, y = g.coords()
    expect = np.sin(2 * np.pi * x) * np.sin(4 * np.pi * y + 0.5)
    assert np.allclose(w.values, expect, rtol=1e-13, atol=1e-15)
    assert np.any(w.values > 0.0) and np.any(w.values < 0.0)
    assert _sign_warnings(caplog) == []


def test_make_weight_from_csv(tmp_path):
    g = Grid(nodes=(4, 4), lengths=(1.0, 1.0))
    u = smooth_fields(g, 1, seed=17)[0]
    path = tmp_path / "w.csv"
    save_field(str(path), u)
    w = make_weight(g, {"kind": "csv", "path": str(path)})
    assert np.array_equal(w.values, u.values)
    other = Grid(nodes=(5, 5), lengths=(1.0, 1.0))
    with pytest.raises(ConfigError):
        make_weight(other, {"kind": "csv", "path": str(path)})


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "csv"}, "path"),
        ({"kind": "gaussians", "center_neg": [0.7, 0.5], "sigma_pos": 0.2}, "center_pos"),
        ({"kind": "triangle"}, "kind"),
        (
            {
                "kind": "gaussians",
                "center_pos": [0.3, 0.5],
                "center_neg": [0.7, 0.5],
                "sigma_pos": 0.2,
            },
            "sigma_neg",
        ),
    ],
)
def test_make_weight_names_the_missing_key(spec, key):
    g = Grid(nodes=(4, 4), lengths=(1.0, 1.0))
    with pytest.raises(ConfigError) as err:
        make_weight(g, spec)
    assert (err.value.section, err.value.key) == ("weights", key)


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "affine", "sigma_pos": 1.0}, "sigma_pos"),
        ({"kind": "sinusoid", "freq": [1.0, 1.0], "const": 0.5}, "const"),
        ({"kind": "csv", "path": "w.csv", "phase": [0.0, 0.0]}, "phase"),
    ],
)
def test_make_weight_rejects_keys_its_kind_does_not_read(spec, key):
    g = Grid(nodes=(4, 4), lengths=(1.0, 1.0))
    with pytest.raises(ConfigError) as err:
        make_weight(g, spec)
    assert (err.value.section, err.value.key) == ("weights", key)
    assert err.value.message == f"not read by kind {spec['kind']!r}"


def test_grid_geometry_cache_keeps_equality_and_hash():
    grid = Grid(nodes=(5, 6, 7), lengths=(1.0, 2.0, 0.5))
    spacing, volume = grid.spacing, grid.cell_volume
    assert spacing == (1.0 / 6, 2.0 / 7, 0.5 / 8)
    assert volume == spacing[0] * spacing[1] * spacing[2]
    fresh = Grid(nodes=(5, 6, 7), lengths=(1.0, 2.0, 0.5))
    assert grid == fresh and hash(grid) == hash(fresh)
    assert repr(grid) == repr(fresh)
    for twin in (pickle.loads(pickle.dumps(grid)), copy.copy(grid)):
        assert twin == grid and hash(twin) == hash(grid)
        assert twin.spacing == spacing and twin.cell_volume == volume


# -- the vectorised exact row sums --------------------------------------------


@st.composite
def hard_row(draw, n: int) -> np.ndarray:
    """One row of n floats built to hit a hard case of correct rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "cancel", "tie", "zeros", "subnormal", "special"]))
    # with the ±2**40 spread below, magnitudes reach 2**±997, about 1e±300
    base = draw(st.integers(-957, 957))
    spread = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-40, 41, n) + base)
    row = np.zeros(n)
    if kind == "spread":
        row = spread
    elif kind == "cancel":
        # pairs x, −x and a remainder of nothing, a few ulps, or a subnormal
        m = (n - 1) // 2
        row[:m], row[m : 2 * m] = spread[:m], -spread[:m]
        row[-1] = draw(st.sampled_from([0.0, 2.0**-60 * abs(spread[0]), 5e-324]))
    elif kind == "tie":
        # 1 ± 2⁻ʲ, j ∈ {52, 53, 54}, is a tie or next to one, and next to a
        # power of two; ±2⁻¹¹⁰ breaks the tie or not; c, −c cancel exactly
        c = float(rng.standard_normal())
        terms = [
            1.0,
            draw(st.sampled_from([1.0, -1.0])) * 2.0 ** -draw(st.sampled_from([52, 53, 54])),
            draw(st.sampled_from([0.0, 2.0**-110, -(2.0**-110)])),
            c,
            -c,
        ]
        row[:5] = np.ldexp(terms, base)
    elif kind == "zeros":
        row = np.where(rng.random(n) < draw(st.floats(0.0, 1.0)), -0.0, 0.0)
    elif kind == "subnormal":
        row = rng.integers(-(2**20), 2**20, n) * 5e-324
        row[0] = draw(st.sampled_from([0.0, 2.0**-1000, -(2.0**-1022)]))
    else:
        row = spread.copy()
        special = [math.inf, -math.inf, math.nan, 1.7e308]
        row[0] = draw(st.sampled_from(special))
        row[-1] = draw(st.sampled_from(special + [1.0]))
    return rng.permutation(row)


@st.composite
def hard_rows(draw) -> np.ndarray:
    n = draw(st.integers(5, 1000))
    layout = draw(
        st.sampled_from(
            ["lone", "one-row stack", "stack", "Fortran-ordered stack", "mixed-scale stack"]
        )
    )
    if layout == "lone":
        return draw(hard_row(n))
    if layout == "one-row stack":
        return draw(hard_row(n))[None, :]
    if layout == "mixed-scale stack":
        # the stack's σ comes from its largest row: the rows 2⁻³⁰ and 2⁻⁷⁰
        # below it mostly fail its test and are retried under their own σ; the
        # row below 2⁻⁹⁰⁰ goes on to fsum, and the row of zeros gives +0.0
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shift = draw(st.integers(-40, 40))
        scales = np.ldexp([1.0, 2.0**-30, 2.0**-70, 2.0**-950], shift)
        rows = [rng.standard_normal(n) * s for s in scales]
        rows.append(np.zeros(n))
        if draw(st.booleans()):
            rows.append(draw(hard_row(n)))
        return rng.permutation(np.stack(rows))
    rows = np.stack([draw(hard_row(n)) for _ in range(draw(st.integers(2, 5)))])
    if layout == "Fortran-ordered stack":
        # the transpose of a C-ordered array: the same values, not C-contiguous
        return np.asfortranarray(rows)
    return rows


def test_exact_sums_are_fsum_bitwise():
    paths: Counter = Counter()

    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(rows=hard_rows())
    def check(rows):
        expected = []
        for row in np.atleast_2d(rows):
            try:
                expected.append(math.fsum(row.tolist()))
            except (OverflowError, ValueError) as exc:
                # the kernel sums rows in order: it raises the first row's error
                with pytest.raises(type(exc)):
                    _exact_sums(rows)
                return
        fallbacks, retries = [], []
        proxy = types.SimpleNamespace(**vars(math))
        proxy.fsum = lambda values: fallbacks.append(1) or math.fsum(values)
        exact_row_sum = grid_module._exact_row_sum

        def row_sum(row):
            before = len(fallbacks)
            value = exact_row_sum(row)
            retries.append("fsum" if len(fallbacks) > before else "certified")
            return value

        with mock.patch.object(grid_module, "math", proxy), mock.patch.object(
            grid_module, "_exact_row_sum", row_sum
        ):
            got = _exact_sums(rows)
        kind = "lone" if len(expected) == 1 else "stacked"
        paths[kind, "fallback"] += len(fallbacks)
        paths[kind, "extracted"] += len(expected) - len(fallbacks)
        if kind == "stacked":
            paths.update(("retried", outcome) for outcome in retries)
        if rows.ndim == 1:
            assert type(got) is float
            got = np.array([got])
        assert got.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()

    check()
    # both paths ran for lone rows and for stacks: ties, zeros, subnormals
    # and specials fall back
    ran = [(kind, path) for kind in ("lone", "stacked") for path in ("extracted", "fallback")]
    # stacked rows the shared σ cannot certify were retried alone: some were
    # certified under their own σ, and some went on to fsum
    ran += [("retried", "certified"), ("retried", "fsum")]
    assert all(paths[key] > 0 for key in ran), paths


def test_exact_sums_of_empty_rows_and_stacks():
    # fsum of no terms is +0.0; a stack of no rows is an empty array
    zero_length = _exact_sums(np.empty((2, 0)))
    assert zero_length.view(np.int64).tolist() == np.zeros(2).view(np.int64).tolist()
    assert _exact_sums(np.empty((0, 5))).shape == (0,)
    g = Grid(nodes=(3, 4), lengths=(1.0, 1.0))
    assert integrate(g, np.empty((0, *g.shape))) == []


def test_exact_sums_of_one_row_is_fsum():
    row = np.array([[1.0, 2.0**-53, 2.0**-110]])
    assert _exact_sums(row).tolist() == [math.fsum(row[0].tolist())] == [1.0 + 2.0**-52]
