from pathlib import Path

import numpy as np
import pytest

from nehari.energy import ProblemConfig
from nehari.grid import Grid, make_weight, random_smooth_field
from nehari.phi import constant_model, stuart_model

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


@pytest.fixture(scope="session")
def cfg_small():
    """stuart operator on a 5^3 grid; lam sized for a rich case taxonomy
    whose crossings stay inside the bracket caps."""
    return make_problem(lam=1.0)


@pytest.fixture(scope="session")
def cfg_const():
    """Constant coefficient (semilinear limit) on a 5^3 grid."""
    return make_problem(phi=constant_model(1.0))


@pytest.fixture(scope="session")
def grid_small(cfg_small):
    return cfg_small.grid
