"""One-dimensional analysis along rays t ↦ t·u and Nehari projection.

For a fixed nonzero field u, the ray energy γ(t) = J(t·u) is controlled by
three scalar integrals: the concave weighted integral A = ∫a|u|^{q+1}, the
convex one B = ∫b|u|^{p+1}, and the energy integral ∫(u²+|∇u|²).  Scalings
placing t·u on the Nehari manifold are exactly the crossings of the balance
curve

    m(t) = t^{1-q} ∫ φ((u²+|∇u|²)t²/2)(u²+|∇u|²) − t^{p-q} B

with the level λ·A, since γ'(t) = t^q (m(t) − λA).  The balance curve is
strictly increasing when B ≤ 0 and unimodal when B > 0; its unique peak is
the root of the strictly decreasing peak equation η(t) = (p−q)B, and
m'(t) = t^{p−q−1}(η(t) − (p−q)B), so the sign of m' tells on which side of
the peak a scaling lies.

Every ray quantity comes from one engine, built once per field.  Every root
(a branch crossing, the balance peak, a critical point of the bare energy)
is refined by one routine: Newton steps inside a sign-changing bracket,
replaced by bisection whenever a step would leave the bracket (rtsafe), and
stopped at the problem's relative ``root_tol``.  A branch crossing is
bracketed from a warm start at the input scale t = 1, next to which the
trial points of a descent lie: since m is unimodal, the signs of m − λA and
of m' at points spaced by factors of 2 place a bracket that holds that
crossing and no other.  The peak is solved only when they cannot, when the
tangency rule needs it, or when a diagnosis reports it.  Brackets are capped
at [smallest normal double, 1e9]; every downward search meets a guaranteed
sign change before 0⁺.  Reported values use the exact compensated
quadrature; root loops use plain deterministic vector sums on the
unit-energy copy of the ray (the stopping tolerance, not summation error,
limits root accuracy).
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Optional

import numpy as np

from .energy import (
    ProblemConfig,
    concave_integral,
    convex_integral,
    energy,
    nehari_residual,
)
from .errors import BracketError, DomainError, ProjectionError
from .grid import Field, integrate, pointwise_energy

__all__ = [
    "FiberingDiagnosis",
    "NehariPoint",
    "CASE_NEITHER",
    "CASE_CONCAVE_ONLY",
    "CASE_CONVEX_ONLY",
    "CASE_BOTH_NO_ROOT",
    "CASE_BOTH_TANGENT",
    "CASE_BOTH_TWO_ROOTS",
    "ray_energy",
    "ray_energy_dt",
    "ray_energy_dt2",
    "ray_balance",
    "ray_balance_dt",
    "peak_equation",
    "peak_equation_dt",
    "bare_ray_energy",
    "bare_ray_peak",
    "balance_peak",
    "classify",
    "project",
    "project_scale",
    "sample_ray",
]

BRACKET_LO_CAP = sys.float_info.min
BRACKET_HI_CAP = 1e9
BRACKET_GROW = 2.0
TANGENT_RTOL = 1e-10
MAX_REFINE = 200

CASE_NEITHER = "neither_positive"
CASE_CONCAVE_ONLY = "concave_only"
CASE_CONVEX_ONLY = "convex_only"
CASE_BOTH_NO_ROOT = "both_positive_no_root"
CASE_BOTH_TANGENT = "both_positive_tangent"
CASE_BOTH_TWO_ROOTS = "both_positive_two_roots"


class _Ray:
    """The ray t ↦ t·u of one field: its density and integrals, built once.

    Built from a field, it works in input units and sums exactly, for
    reported values.  :meth:`unit` gives the unit-energy copy that root
    searches use, with plain vector sums.  The integrals at a scaling t are
    Φ's bulk and the moments m_k = ∫ φ^{(k)}(ρt²/2) ρ^{k+1}, ρ = u² + |∇u|²;
    every ray function is a formula in those.
    """

    def __init__(self, u: Field, cfg: ProblemConfig):
        if u.grid != cfg.grid:
            raise DomainError("field lives on a different grid than the problem")
        self.grid = cfg.grid
        self.phi, self.q, self.p, self.lam = cfg.phi, cfg.q, cfg.p, cfg.lam
        self.root_tol = cfg.root_tol
        self.density = pointwise_energy(u)
        self.density2 = self.density**2
        self.energy_int = integrate(cfg.grid, self.density)
        self.concave = concave_integral(u, cfg)
        self.convex = convex_integral(u, cfg)
        self.exact = True
        self.scale = 1.0  # the scaling of this ray that gives the input field

    def unit(self) -> "_Ray":
        """Copy rescaled to unit energy integral; its ``scale`` is √E."""
        if self.energy_int <= 0.0:
            raise DomainError("ray analysis needs a nonzero field")
        s = math.sqrt(self.energy_int)
        unit = copy.copy(self)
        unit.density = self.density / (s * s)
        unit.density2 = unit.density**2
        unit.energy_int = 1.0
        unit.concave = self.concave / s ** (self.q + 1.0)
        unit.convex = self.convex / s ** (self.p + 1.0)
        unit.exact = False
        unit.scale = s
        return unit

    def _sum(self, values: np.ndarray) -> float:
        if self.exact:
            return integrate(self.grid, values)
        return self.grid.cell_volume * float(np.sum(values))

    def bulk(self, t: float) -> float:
        return self._sum(self.phi.raw_Phi(self.density * (t * t / 2.0)))

    def moments(self, t: float, order: int = 1) -> list[float]:
        """[m_0, …, m_order] at t."""
        arg = self.density * (t * t / 2.0)
        out = [self._sum(self.phi.raw_phi(arg) * self.density)]
        if order >= 1:
            out.append(self._sum(self.phi.raw_dphi(arg) * self.density2))
        if order >= 2:
            out.append(self._sum(self.phi.raw_d2phi(arg) * self.density2 * self.density))
        return out

    def gamma(self, t: float, bulk: float) -> float:
        q, p = self.q, self.p
        return (
            bulk
            - self.lam / (q + 1.0) * t ** (q + 1.0) * self.concave
            - 1.0 / (p + 1.0) * t ** (p + 1.0) * self.convex
        )

    def gamma_dt(self, t: float, m0: float) -> float:
        return t * m0 - self.lam * t**self.q * self.concave - t**self.p * self.convex

    def gamma_dt2(self, t: float, m0: float, m1: float) -> float:
        q, p = self.q, self.p
        return (
            m0
            + t * t * m1
            - self.lam * q * t ** (q - 1.0) * self.concave
            - p * t ** (p - 1.0) * self.convex
        )

    def balance(self, t: float, m0: float) -> float:
        return t ** (1.0 - self.q) * m0 - t ** (self.p - self.q) * self.convex

    def balance_dt(self, t: float, m0: float, m1: float) -> float:
        q, p = self.q, self.p
        return (
            (1.0 - q) * t**-q * m0
            + t ** (2.0 - q) * m1
            - (p - q) * t ** (p - q - 1.0) * self.convex
        )

    def peak_eq(self, t: float, m0: float, m1: float) -> float:
        return t ** (1.0 - self.p) * ((1.0 - self.q) * m0 + t * t * m1)

    def peak_eq_dt(self, t: float, m0: float, m1: float, m2: float) -> float:
        q, p = self.q, self.p
        return (
            (1.0 - q) * (1.0 - p) * t**-p * m0
            + (4.0 - p - q) * t ** (2.0 - p) * m1
            + t ** (4.0 - p) * m2
        )

    def bare(self, t: float, bulk: float) -> float:
        return bulk - t ** (self.p + 1.0) / (self.p + 1.0) * self.convex

    @cached_property
    def peak(self) -> float:
        """Maximizer of the balance curve (B > 0), searched from ``scale``."""
        if self.convex <= 0.0:
            raise DomainError("balance peak requires ∫b|u|^{p+1} > 0")
        target = (self.p - self.q) * self.convex

        def g(t: float) -> _Point:
            m0, m1, m2 = self.moments(t, 2)
            return _Point(t, self.peak_eq(t, m0, m1) - target, self.peak_eq_dt(t, m0, m1, m2))

        start = g(self.scale)
        up = start.f >= 0.0  # η decreases: the root lies above a nonnegative point
        return _refine(g, *_walk(g, start, up, lambda pt: (pt.f >= 0.0) != up), self.root_tol)


# -- public ray functions (input units, exact quadrature) --------------------


def _check_t(t: float) -> float:
    t = float(t)
    if t <= 0.0:
        raise DomainError(f"ray derivative functions need t > 0, got {t}")
    return t


def ray_energy(u: Field, t: float, cfg: ProblemConfig) -> float:
    """γ(t) = J(t·u); defined for t >= 0 with γ(0) = 0."""
    t = float(t)
    if t < 0.0:
        raise DomainError(f"ray energy needs t >= 0, got {t}")
    ray = _Ray(u, cfg)
    return ray.gamma(t, ray.bulk(t))


def ray_energy_dt(u: Field, t: float, cfg: ProblemConfig) -> float:
    """γ'(t) = t∫φ(·t²)(u²+|∇u|²) − λt^q A − t^p B."""
    t = _check_t(t)
    ray = _Ray(u, cfg)
    return ray.gamma_dt(t, *ray.moments(t, 0))


def ray_energy_dt2(u: Field, t: float, cfg: ProblemConfig) -> float:
    """γ''(t), the exact second derivative of the ray energy."""
    t = _check_t(t)
    ray = _Ray(u, cfg)
    return ray.gamma_dt2(t, *ray.moments(t))


def ray_balance(u: Field, t: float, cfg: ProblemConfig) -> float:
    """Balance curve m(t); crossings of λ∫a|u|^{q+1} are Nehari scalings."""
    t = _check_t(t)
    ray = _Ray(u, cfg)
    return ray.balance(t, *ray.moments(t, 0))


def ray_balance_dt(u: Field, t: float, cfg: ProblemConfig) -> float:
    """m'(t); its sign at a crossing is the sign of the second ray derivative there."""
    t = _check_t(t)
    ray = _Ray(u, cfg)
    return ray.balance_dt(t, *ray.moments(t))


def peak_equation(u: Field, t: float, cfg: ProblemConfig) -> float:
    """Strictly decreasing auxiliary η(t); η(t) = (p−q)B locates the balance peak."""
    t = _check_t(t)
    ray = _Ray(u, cfg)
    return ray.peak_eq(t, *ray.moments(t))


def peak_equation_dt(u: Field, t: float, cfg: ProblemConfig) -> float:
    """η'(t); strictly negative whenever the concavity hypothesis holds."""
    t = _check_t(t)
    ray = _Ray(u, cfg)
    return ray.peak_eq_dt(t, *ray.moments(t, 2))


def bare_ray_energy(u: Field, t: float, cfg: ProblemConfig) -> float:
    """Ray energy with the concave term dropped."""
    t = float(t)
    if t < 0.0:
        raise DomainError(f"bare ray energy needs t >= 0, got {t}")
    ray = _Ray(u, cfg)
    return ray.bare(t, ray.bulk(t))


# -- brackets and the root routine -------------------------------------------


class _Point(NamedTuple):
    """A scaling t with the target f(t) and its derivative there."""

    t: float
    f: float
    df: float


def _walk(fdf, start: _Point, up: bool, stop) -> tuple[_Point, _Point]:
    """Scale by the growth factor (up or down) from ``start`` until ``stop(point)``.

    Returns the last two points evaluated.
    """
    step = BRACKET_GROW if up else 1.0 / BRACKET_GROW
    point = start
    while True:
        t = point.t * step
        if t < BRACKET_LO_CAP:
            raise BracketError(
                f"no sign change above the lower bracket cap {BRACKET_LO_CAP:g}"
            )
        if t > BRACKET_HI_CAP:
            raise BracketError(
                f"no sign change below the upper bracket cap {BRACKET_HI_CAP:g}"
            )
        prev, point = point, fdf(t)
        if stop(point):
            return prev, point


def _refine(fdf, a: _Point, b: _Point, rtol: float) -> float:
    """Root of f between a and b, where f < 0 at exactly one of them.

    Newton steps start at the end with the smaller |f|.  A step that would
    leave the bracket, or that is not at most half the step before last, is
    replaced by bisection (rtsafe, Numerical Recipes §9.4).  Stops when a
    step moves t by at most ``rtol``·t.
    """
    neg, pos = (a.t, b.t) if a.f < 0.0 else (b.t, a.t)
    t, f, df = min(a, b, key=lambda pt: abs(pt.f))
    step = step_old = abs(b.t - a.t)
    for _ in range(MAX_REFINE):
        if f == 0.0:
            return t
        lo, hi = min(neg, pos), max(neg, pos)
        newton = t - f / df if df != 0.0 else math.nan
        if not (lo < newton < hi and abs(2.0 * f) <= abs(step_old * df)):
            newton = 0.5 * (lo + hi)
        step_old, step = step, abs(newton - t)
        t = newton
        if step <= rtol * t:
            return t
        _, f, df = fdf(t)
        if f < 0.0:
            neg = t
        else:
            pos = t
    return t


class _BranchUnavailable(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _branch_root(ray: _Ray, branch: str) -> float:
    """Crossing of m = λA on the branch's side of the peak, for a unit ray.

    ``plus`` is the rising crossing, ``minus`` the falling one.  From the
    warm start ``ray.scale`` the search walks toward the peak until
    f = m − λA ≥ 0, then away from it on the branch's side until f < 0.
    The peak is solved only when the walk passes it with f < 0 throughout,
    or when the first f ≥ 0 is too small to rule out a tangent ray.
    """
    lamA, B = ray.lam * ray.concave, ray.convex
    rising = branch == "plus"
    if rising and lamA <= 0.0:
        raise _BranchUnavailable("concave integral is nonpositive")
    if not rising and B <= 0.0:
        raise _BranchUnavailable("convex integral is nonpositive")
    tangent_tol = TANGENT_RTOL * (1.0 + abs(lamA))

    def fdf(t: float) -> _Point:
        m0, m1 = ray.moments(t)
        return _Point(t, ray.balance(t, m0) - lamA, ray.balance_dt(t, m0, m1))

    neg: Optional[_Point] = None
    pos = fdf(ray.scale)
    if pos.f < 0.0:
        up = B <= 0.0 or pos.df > 0.0
        prev, pos = _walk(
            fdf, pos, up, lambda pt: pt.f >= 0.0 or (B > 0.0 and (pt.df > 0.0) != up)
        )
        if up == rising:  # the walk came from the branch's side
            neg = prev
    if pos.f < 0.0 or (B > 0.0 and lamA > 0.0 and pos.f <= tangent_tol):
        pos = fdf(ray.peak)
        if abs(pos.f) <= tangent_tol:
            raise _BranchUnavailable("ray is tangent to the manifold")
        if pos.f < 0.0:
            raise _BranchUnavailable("balance peak below the concave level (no crossing)")
        neg = None
    if neg is None:
        pos, neg = _walk(fdf, pos, not rising, lambda pt: pt.f < 0.0)
    return _refine(fdf, neg, pos, ray.root_tol)


def _root_sign(ray: _Ray, t: float) -> int:
    """Sign of the second ray derivative at a crossing, via the balance slope."""
    m0, m1 = ray.moments(t)
    slope = ray.balance_dt(t, m0, m1)
    q, p = ray.q, ray.p
    size = (
        (1.0 - q) * t**-q * abs(m0)
        + t ** (2.0 - q) * abs(m1)
        + (p - q) * t ** (p - q - 1.0) * abs(ray.convex)
    )
    if abs(slope) <= 1e-9 * size:
        return 0
    return 1 if slope > 0.0 else -1


def balance_peak(u: Field, cfg: ProblemConfig) -> float:
    """Scaling at which the balance curve attains its unique maximum (B > 0)."""
    ray = _Ray(u, cfg)
    if ray.convex <= 0.0:
        raise DomainError("balance peak requires ∫b|u|^{p+1} > 0")
    unit = ray.unit()
    return unit.peak / unit.scale


def bare_ray_peak(u: Field, cfg: ProblemConfig) -> tuple[float, float]:
    """(t_max, value) of the bare ray energy; requires B > 0.

    The slope h'(t)/t = m_0 − t^{p−1}B is positive for small t and negative
    for large t; a log scan brackets every sign change, each is refined, and
    the global maximizer found is returned.
    """
    ray = _Ray(u, cfg)
    if ray.convex <= 0.0:
        raise DomainError("bare ray peak requires ∫b|u|^{p+1} > 0")
    unit = ray.unit()
    p, B = unit.p, unit.convex

    def slope(t: float) -> _Point:
        m0, m1 = unit.moments(t)
        return _Point(t, m0 - t ** (p - 1.0) * B, t * m1 - (p - 1.0) * t ** (p - 2.0) * B)

    # the scan reads m_0 alone; refinement starts with a bisection step
    scan = [
        _Point(t, unit.moments(t, 0)[0] - t ** (p - 1.0) * B, math.nan)
        for t in np.logspace(-6, 6, 241)
    ]
    candidates = [
        _refine(slope, a, b, unit.root_tol)
        for a, b in zip(scan, scan[1:])
        if (a.f < 0.0) != (b.f < 0.0)
    ]
    if not candidates:
        raise BracketError("no critical point of the bare ray energy on the scan")
    t_norm = max(candidates, key=lambda t: unit.bare(t, unit.bulk(t)))
    # exact-quadrature value at the located peak, in input units
    t_input = t_norm / unit.scale
    return t_input, ray.bare(t_input, ray.bulk(t_input))


@dataclass(frozen=True)
class FiberingDiagnosis:
    """Sign case, balance peak, and all Nehari crossings of one ray."""

    concave: float  # ∫ a |u|^{q+1}
    convex: float  # ∫ b |u|^{p+1}
    energy_int: float  # ∫ (u² + |∇u|²)
    case: str
    t_tilde: Optional[float]
    roots: tuple[tuple[float, int], ...]
    t_max: Optional[float]
    bare_peak_value: Optional[float]

    def as_dict(self) -> dict:
        return {
            "concave_integral": self.concave,
            "convex_integral": self.convex,
            "energy_integral": self.energy_int,
            "case": self.case,
            "t_tilde": self.t_tilde,
            "roots": [{"t": t, "gamma2_sign": s} for t, s in self.roots],
            "t_max": self.t_max,
            "bare_peak_value": self.bare_peak_value,
        }


@dataclass(frozen=True)
class NehariPoint:
    """A field projected onto one Nehari branch."""

    field: Field
    branch: str
    energy: float
    constraint: float  # |G| at the projected field
    gamma2: float  # second ray derivative at 1 for the projected field
    scale: float  # t* applied to the input field

    def as_dict(self) -> dict:
        return {
            "branch": self.branch,
            "energy": self.energy,
            "constraint": self.constraint,
            "gamma2": self.gamma2,
            "scale": self.scale,
        }


def classify(u: Field, cfg: ProblemConfig) -> FiberingDiagnosis:
    """Full sign-case taxonomy of the ray through u.

    Cases: both weighted integrals nonpositive (no crossing); concave
    positive only (one crossing, rising balance); convex positive only (one
    crossing past the peak); both positive (none, tangent, or two crossings
    depending on λ against the balance peak).  Crossings come from the same
    search as :func:`project_scale`.
    """
    ray = _Ray(u, cfg)
    unit = ray.unit()
    lamA = unit.lam * unit.concave

    t_tilde: Optional[float] = None
    branches: tuple[str, ...] = ()
    roots: list[tuple[float, int]] = []
    if unit.convex <= 0.0:
        if lamA <= 0.0:
            case = CASE_NEITHER
        else:
            case, branches = CASE_CONCAVE_ONLY, ("plus",)
    else:
        t_tilde = unit.peak
        gap = unit.balance(t_tilde, *unit.moments(t_tilde, 0)) - lamA
        if lamA <= 0.0:
            case, branches = CASE_CONVEX_ONLY, ("minus",)
        elif abs(gap) <= TANGENT_RTOL * (1.0 + abs(lamA)):
            case = CASE_BOTH_TANGENT
            roots.append((t_tilde, 0))
        elif gap < 0.0:
            case = CASE_BOTH_NO_ROOT
        else:
            case, branches = CASE_BOTH_TWO_ROOTS, ("plus", "minus")
    for branch in branches:
        t = _branch_root(unit, branch)
        roots.append((t, _root_sign(unit, t)))

    t_max: Optional[float] = None
    bare_value: Optional[float] = None
    if unit.convex > 0.0:
        t_max, bare_value = bare_ray_peak(u, cfg)

    return FiberingDiagnosis(
        concave=ray.concave,
        convex=ray.convex,
        energy_int=ray.energy_int,
        case=case,
        t_tilde=(t_tilde / unit.scale) if t_tilde is not None else None,
        roots=tuple((t / unit.scale, s) for t, s in roots),
        t_max=t_max,
        bare_peak_value=bare_value,
    )


def project_scale(u: Field, cfg: ProblemConfig, branch: str) -> tuple[Field, float]:
    """Projection without the report payload: the scaled field and t*.

    The search starts at t = 1.  The branch sign is verified through the
    balance slope at the root (exact identity with the second ray derivative
    of the scaled field).  A ProjectionError computes its diagnosis only
    when it is read.
    """
    if branch not in ("plus", "minus"):
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
    unit = _Ray(u, cfg).unit()
    diagnosis = partial(classify, u, cfg)
    try:
        t_star_n = _branch_root(unit, branch)
    except _BranchUnavailable as stop:
        raise ProjectionError(
            f"branch {branch!r} unavailable: {stop.reason}", diagnosis=diagnosis
        ) from None
    sign = _root_sign(unit, t_star_n)
    want = 1 if branch == "plus" else -1
    if sign != want:
        raise ProjectionError(
            f"branch {branch!r} unavailable: balance slope sign {sign} at the root",
            diagnosis=diagnosis,
        )
    t_star = t_star_n / unit.scale
    return u.scaled(t_star), t_star


def project(u: Field, cfg: ProblemConfig, branch: str) -> NehariPoint:
    """Scale u onto the requested Nehari branch.

    branch "plus" needs a crossing with positive balance slope (rising
    side), branch "minus" one with negative slope (falling side past the
    peak).  Raises ProjectionError, carrying the diagnosis, if the ray does
    not reach the branch.
    """
    projected, t_star = project_scale(u, cfg, branch)
    gamma2 = ray_energy_dt2(projected, 1.0, cfg)
    return NehariPoint(
        field=projected,
        branch=branch,
        energy=energy(projected, cfg),
        constraint=abs(nehari_residual(projected, cfg)),
        gamma2=gamma2,
        scale=t_star,
    )


def sample_ray(u: Field, cfg: ProblemConfig, t_values) -> dict[str, list[float]]:
    """Tabulate γ, γ', γ'', m, η along the ray (for diagnosis CSV output).

    The field is read once; each t costs one Φ bulk and one (m_0, m_1).
    """
    ray = _Ray(u, cfg)
    out: dict[str, list[float]] = {
        key: [] for key in ("t", "gamma", "gamma_dt", "gamma_dt2", "balance", "peak_eq")
    }
    for t in t_values:
        t = _check_t(t)
        bulk, (m0, m1) = ray.bulk(t), ray.moments(t)
        out["t"].append(t)
        out["gamma"].append(ray.gamma(t, bulk))
        out["gamma_dt"].append(ray.gamma_dt(t, m0))
        out["gamma_dt2"].append(ray.gamma_dt2(t, m0, m1))
        out["balance"].append(ray.balance(t, m0))
        out["peak_eq"].append(ray.peak_eq(t, m0, m1))
    return out
