"""Two-branch Nehari-manifold solver for a quasilinear concave-convex problem.

The package discretizes the Dirichlet problem

    -div( φ((u²+|∇u|²)/2) ∇u ) + φ((u²+|∇u|²)/2) u
        = λ a(x) |u|^{q-1} u + b(x) |u|^{p-1} u     in Ω,   u = 0 on ∂Ω,

with 0 < q < 1 < p, sign-changing weights a, b, and a bounded positive
coefficient family φ, on a uniform box grid.  It certifies the structural
hypotheses on φ, computes the admissibility thresholds for λ, analyzes the
energy along rays t·u (the fibering map), projects fields onto the two
Nehari branches, and minimizes the energy on each branch to produce the
negative-energy ground state and the positive-energy second solution.
"""

from .energy import ProblemConfig, energy, energy_gradient, nehari_residual
from .errors import (
    BracketError,
    ConfigError,
    DomainError,
    NehariError,
    ProjectionError,
    SeedingError,
)
from .fibering import FiberingDiagnosis, NehariPoint, classify, project
from .grid import Field, Grid, estimate_sobolev, integrate, make_weight
from .phi import (
    HypothesisReport,
    PhiModel,
    constant_model,
    stuart_min_offset,
    stuart_model,
    tabulated_model,
    verify_hypotheses,
)
from .solver import SolveReport, minimize_branch, multistart, seed_field, solve_both
from .thresholds import ThresholdReport, admissibility, compute_thresholds

__version__ = "0.1.0"

__all__ = [
    "ProblemConfig",
    "energy",
    "energy_gradient",
    "nehari_residual",
    "NehariError",
    "DomainError",
    "ConfigError",
    "BracketError",
    "ProjectionError",
    "SeedingError",
    "FiberingDiagnosis",
    "NehariPoint",
    "classify",
    "project",
    "Field",
    "Grid",
    "estimate_sobolev",
    "integrate",
    "make_weight",
    "HypothesisReport",
    "PhiModel",
    "constant_model",
    "stuart_min_offset",
    "stuart_model",
    "tabulated_model",
    "verify_hypotheses",
    "SolveReport",
    "minimize_branch",
    "multistart",
    "seed_field",
    "solve_both",
    "ThresholdReport",
    "admissibility",
    "compute_thresholds",
    "__version__",
]
