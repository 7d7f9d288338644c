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

    ``formula`` names a ``fibering._Ray`` method; it is fed the integrals
    its parameters name, read at t alone through the ray's one reader, as
    ``sample_ray`` reads its table.
    """
    fn = getattr(fibering._Ray, formula)
    names = list(inspect.signature(fn).parameters)[2:]  # after (self, t)
    ray, ts = fibering._Ray(u, cfg), np.array([float(t)])
    return fn(ray, ts, *ray.read(ts, *names)).item()


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
    whose crossings lie within a few decades of unit scale."""
    return make_problem(lam=1.0)


@pytest.fixture(scope="session")
def cfg_const():
    """Constant coefficient (semilinear limit) on a 5^3 grid."""
    return make_problem(phi=constant_model(1.0))


@pytest.fixture(scope="session")
def grid_small(cfg_small):
    return cfg_small.grid


def _draw_weight(rng, lengths):
    """One weights section of a random kind: gaussians, affine or sinusoid."""
    dim = len(lengths)
    kind = rng.choice(["gaussians", "affine", "sinusoid"])
    if kind == "gaussians":
        centers = [" ".join(f"{rng.uniform(0.1, 0.9) * L:.6g}" for L in lengths) for _ in "pn"]
        sigmas = rng.uniform(0.1, 0.4, 2) * min(lengths)
        amps = 10.0 ** rng.uniform(-0.5, 0.5, 2)
        keys = {
            "amp_pos": amps[0],
            "center_pos": centers[0],
            "sigma_pos": sigmas[0],
            "amp_neg": amps[1],
            "center_neg": centers[1],
            "sigma_neg": sigmas[1],
        }
    elif kind == "affine":
        coeffs = [rng.uniform(-2.0, 2.0) / L for L in lengths]
        keys = {"const": rng.uniform(-1.0, 1.0), "coeffs": " ".join(f"{c:.6g}" for c in coeffs)}
    else:
        keys = {
            "freq": " ".join(f"{rng.uniform(0.3, 1.5) / L:.6g}" for L in lengths),
            "phase": " ".join(f"{rng.uniform(0.0, 2.0 * np.pi):.6g}" for _ in range(dim)),
        }
    lines = [f"kind = {kind}"] + [
        f"{k} = {v:.6g}" if isinstance(v, float) else f"{k} = {v}" for k, v in keys.items()
    ]
    return "\n".join(lines)


def problem_class_draws(seed, count, q_range=(0.4, 0.9)):
    """``count`` seeded configs drawn from the paper's problem class, as INI text.

    The ranges: 1-D to 3-D; 5–15 nodes per axis (at most 9 in 3-D); sides
    10^±0.5; q in ``q_range``; p in (1.3, p_max − 0.2), with p_max 5 in 3-D
    and 7 otherwise; constant φ (value 10^±0.5) or stuart φ (offset 2–12);
    ``gaussians``, ``affine`` or ``sinusoid`` weights; λ = auto:f with f in
    (0.05, 0.95); ``max_iter`` 3000.  A draw is kept only if both weights
    change sign on its grid and its hypotheses certify (``prepare_run``
    resolves auto:f); weights that keep one sign lie outside the paper.
    """
    from nehari.config import parse_config, prepare_run
    from nehari.errors import ConfigError

    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < count:
        dim = int(rng.integers(1, 4))
        nodes = rng.integers(5, 10 if dim == 3 else 16, dim)
        lengths = 10.0 ** rng.uniform(-0.5, 0.5, dim)
        q = rng.uniform(*q_range)
        p = rng.uniform(1.3, (5.0 if dim == 3 else 7.0) - 0.2)
        if rng.random() < 0.5:
            phi = f"kind = constant\nvalue = {10.0 ** rng.uniform(-0.5, 0.5):.6g}"
        else:
            phi = f"kind = stuart_example\noffset = {rng.uniform(2.0, 12.0):.6g}"
        text = (
            f"[phi]\n{phi}\n\n[grid]\ndim = {dim}\n"
            f"nodes = {' '.join(map(str, nodes))}\n"
            f"lengths = {' '.join(f'{L:.6g}' for L in lengths)}\n\n"
            f"[weights.a]\n{_draw_weight(rng, lengths)}\n\n"
            f"[weights.b]\n{_draw_weight(rng, lengths)}\n\n"
            f"[problem]\nq = {q:.6g}\np = {p:.6g}\nlambda = auto:{rng.uniform(0.05, 0.95):.6g}\n\n"
            "[solver]\nmax_iter = 3000\n"
        )
        try:
            problem = prepare_run(parse_config(text)).problem
        except ConfigError:  # the hypotheses do not certify
            continue
        if all((w.values > 0).any() and (w.values < 0).any() for w in (problem.a, problem.b)):
            kept.append(text)
    return kept
