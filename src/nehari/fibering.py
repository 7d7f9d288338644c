"""One-dimensional analysis along rays t ↦ t·u and Nehari projection.

For a fixed nonzero field u, the ray energy γ(t) = J(t·u) is controlled by
three scalar integrals: the concave weighted integral A = ∫a|u|^{q+1}, the
convex one B = ∫b|u|^{p+1}, and the energy integral ∫(u²+|∇u|²).  Scalings
placing t·u on the Nehari manifold are exactly the crossings of the balance
curve

    m(t) = t^{1-q} ∫ φ((u²+|∇u|²)t²/2)(u²+|∇u|²) − t^{p-q} B

with the level λ·A, since γ'(t) = t^q (m(t) − λA).  The balance curve is
strictly increasing when B ≤ 0 and unimodal when B > 0; its unique peak is
the root of the peak equation η(t) = (p−q)B, where η is strictly
decreasing under φ5, and m'(t) = t^{p−q−1}(η(t) − (p−q)B), so the sign of
m' tells on which side of the peak a scaling lies.  The bare energy
h(t) = ∫Φ − t^{p+1}B/(p+1) has h'(t) = t^p (t^{1−p}m_0(t) − B), and
t^{1−p}m_0 is strictly decreasing under φ4, so for B > 0 h has one
maximum too.

Every ray quantity comes from one engine, built once per field.  Every root
(a branch crossing, the balance peak, the bare peak) is found by walking
by factors of 2 from a warm start at the input scale t = 1 to a sign
change, and refined by one routine: Newton steps inside a sign-changing
bracket, replaced by bisection whenever a step would leave the bracket
(rtsafe), and stopped at the relative step ``ROOT_RTOL``.  The two
peaks are roots of decreasing functions, so the sign at the start says
which way to walk.  Trial points of a descent lie next to a branch
crossing: since m is unimodal, the signs of m − λA and of m' at the walk's
points place a bracket that holds that crossing and no other.  A first
point with m − λA inside the tangency band may lie on a tangent ray; the
peak is the maximum of m, so one probe a factor 2 toward the peak with
m − λA above the band rules that out, and settles a descent's trial points,
which sit at their own crossing.  The balance peak is solved only when the
signs cannot place the bracket, when no probe settles the band, or when a
diagnosis reports it.  Brackets are capped at [smallest normal
double, 1e9]; every downward search meets a guaranteed sign change before
0⁺.  The integrands (Φ's bulk and the moments m_k) are written once, in
one table, and summed two ways.  Root loops use plain deterministic vector
sums on the unit-energy copy of the ray (the stopping tolerance, not
summation error, limits root accuracy).  Reported values come from one
exact evaluator, which sums (t, node) blocks through ``grid.integrate``,
so a value read at one t has the bits it has in a table of many; every
single-t ray function reads it through one reader.  The balance peak t̃
and the bare peak t_max are reported by :func:`classify` only.  A
projection reports J(t*·u) as γ(t*) of the ray it has already built: one
exact Φ sum at the t*-scaled density, with A and B scaled by powers of
t*.  That equals ``energy`` of the projected field to round-off, not
bitwise.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .energy import ProblemConfig, _check_field, _concave_density, _convex_density
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
    "classify",
    "project",
    "project_scale",
    "sample_ray",
]

BRACKET_LO_CAP = sys.float_info.min
BRACKET_HI_CAP = 1e9
BRACKET_GROW = 2.0
TANGENT_RTOL = 1e-10  # the tangency band is |m − λA| ≤ TANGENT_RTOL·(1 + |λA|)
SLOPE_RTOL = 1e-9  # a balance slope within this share of its terms' size reads as 0
ROOT_RTOL = 1e-12  # a root search stops at a step of at most ROOT_RTOL·t
MAX_REFINE = 200
# (t, node) entries per block of the exact evaluator: 16 values of t on a 9³
# grid, under 100 kB per array; it, not the number of t, bounds working memory
SAMPLE_BLOCK_ELEMENTS = 12_000

CASE_NEITHER = "neither_positive"
CASE_CONCAVE_ONLY = "concave_only"
CASE_CONVEX_ONLY = "convex_only"
CASE_BOTH_NO_ROOT = "both_positive_no_root"
CASE_BOTH_TANGENT = "both_positive_tangent"
CASE_BOTH_TWO_ROOTS = "both_positive_two_roots"


# Φ's bulk and the moments m_k = ∫ φ^{(k)}(s) ρ^{k+1} at s = ρt²/2: the one
# place φ meets the density, for both the plain and the exact sums
_INTEGRANDS = {
    "bulk": lambda ray, s: ray.phi.raw_Phi(s),
    "m0": lambda ray, s: ray.phi.raw_phi(s) * ray.density,
    "m1": lambda ray, s: ray.phi.raw_dphi(s) * ray.density2,
    "m2": lambda ray, s: ray.phi.raw_d2phi(s) * ray.density2 * ray.density,
}


class _Ray:
    """The ray t ↦ t·u of one field: its density and integrals, built once.

    The integrals at a scaling t are Φ's bulk and the moments m_k, from
    ``_INTEGRANDS``; every ray function is a formula in those.
    :meth:`integrals` sums them exactly, in input units, and :meth:`at`
    feeds them to one formula at one t, for reported values; :meth:`unit`
    gives the unit-energy copy that root searches use, with :meth:`moments`'
    plain sums of the same integrands.
    """

    def __init__(self, u: Field, cfg: ProblemConfig):
        _check_field(u, cfg)
        self.grid = cfg.grid
        self.phi, self.q, self.p, self.lam = cfg.phi, cfg.q, cfg.p, cfg.lam
        self.density = pointwise_energy(u)
        self.density2 = self.density**2
        rows = np.stack([self.density, _concave_density(u, cfg), _convex_density(u, cfg)])
        self.energy_int, self.concave, self.convex = integrate(cfg.grid, rows)
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
        unit.scale = s
        return unit

    def moments(self, t: float, order: int = 1) -> list[float]:
        """[m_0, …, m_order] at t: the ``_INTEGRANDS`` by plain sums, for root searches."""
        s = self.density * (t * t / 2.0)
        h = self.grid.cell_volume
        return [h * float(_INTEGRANDS[f"m{k}"](self, s).sum()) for k in range(order + 1)]

    def integrals(self, t_values, *names: str) -> Iterator[tuple[float, ...]]:
        """A tuple of the exact integrals ``names`` ("bulk", "m0", "m1", "m2") per t.

        φ is evaluated on (t, node) blocks of ``SAMPLE_BLOCK_ELEMENTS`` entries
        at most, one integrand at a time, each summed as one ``integrate`` stack.
        """
        ts = np.asarray(t_values, dtype=float)
        per_block = max(1, SAMPLE_BLOCK_ELEMENTS // self.density.size)
        for start in range(0, ts.size, per_block):
            block = ts[start : start + per_block]
            s = np.multiply.outer(block * block / 2.0, self.density)
            yield from zip(*[integrate(self.grid, _INTEGRANDS[k](self, s)) for k in names])

    def at(self, t: float, formula, *names: str) -> float:
        """``formula`` (a ray method below) at t, fed the exact integrals ``names``."""
        return formula(self, t, *next(self.integrals([t], *names)))

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
        """Maximizer of the balance curve (B > 0): the root of η = (p−q)B."""
        target = (self.p - self.q) * self.convex

        def g(t: float) -> _Point:
            m0, m1, m2 = self.moments(t, 2)
            return _Point(t, self.peak_eq(t, m0, m1) - target, self.peak_eq_dt(t, m0, m1, m2))

        return self._decreasing_root(g)

    @cached_property
    def bare_peak(self) -> float:
        """Maximizer of the bare ray energy (B > 0): the root of t^{1−p}m_0 = B."""
        p = self.p

        def g(t: float) -> _Point:
            m0, m1 = self.moments(t)
            return _Point(
                t, t ** (1.0 - p) * m0 - self.convex, t**-p * ((1.0 - p) * m0 + t * t * m1)
            )

        return self._decreasing_root(g)

    def _decreasing_root(self, g) -> float:
        """Root of a strictly decreasing g, walked to from ``scale`` and refined."""
        start = g(self.scale)
        up = start.f >= 0.0  # the root lies above a nonnegative point
        return _refine(g, *_walk(g, start, up, lambda pt: (pt.f >= 0.0) != up))


# -- public ray functions (input units, exact quadrature) --------------------


def _check_t(t: float, energy: str = "") -> float:
    """t as a float, finite and > 0; an ``energy`` (γ or h, named so) is also defined at 0."""
    t = float(t)
    if energy:
        if not 0.0 <= t < math.inf:
            raise DomainError(f"{energy} needs a finite t >= 0, got {t}")
    elif not 0.0 < t < math.inf:
        raise DomainError(f"ray derivative functions need a finite t > 0, got {t}")
    return t


def ray_energy(u: Field, t: float, cfg: ProblemConfig) -> float:
    """γ(t) = J(t·u); defined for t >= 0 with γ(0) = 0."""
    t = _check_t(t, "ray energy")
    return _Ray(u, cfg).at(t, _Ray.gamma, "bulk")


def ray_energy_dt(u: Field, t: float, cfg: ProblemConfig) -> float:
    """γ'(t) = t∫φ(·t²)(u²+|∇u|²) − λt^q A − t^p B."""
    t = _check_t(t)
    return _Ray(u, cfg).at(t, _Ray.gamma_dt, "m0")


def ray_energy_dt2(u: Field, t: float, cfg: ProblemConfig) -> float:
    """γ''(t), the exact second derivative of the ray energy."""
    t = _check_t(t)
    return _Ray(u, cfg).at(t, _Ray.gamma_dt2, "m0", "m1")


def ray_balance(u: Field, t: float, cfg: ProblemConfig) -> float:
    """Balance curve m(t); crossings of λ∫a|u|^{q+1} are Nehari scalings."""
    t = _check_t(t)
    return _Ray(u, cfg).at(t, _Ray.balance, "m0")


def ray_balance_dt(u: Field, t: float, cfg: ProblemConfig) -> float:
    """m'(t); its sign at a crossing is the sign of the second ray derivative there."""
    t = _check_t(t)
    return _Ray(u, cfg).at(t, _Ray.balance_dt, "m0", "m1")


def peak_equation(u: Field, t: float, cfg: ProblemConfig) -> float:
    """Strictly decreasing auxiliary η(t); η(t) = (p−q)B locates the balance peak."""
    t = _check_t(t)
    return _Ray(u, cfg).at(t, _Ray.peak_eq, "m0", "m1")


def peak_equation_dt(u: Field, t: float, cfg: ProblemConfig) -> float:
    """η'(t); strictly negative whenever the concavity hypothesis holds."""
    t = _check_t(t)
    return _Ray(u, cfg).at(t, _Ray.peak_eq_dt, "m0", "m1", "m2")


def bare_ray_energy(u: Field, t: float, cfg: ProblemConfig) -> float:
    """Ray energy with the concave term dropped."""
    t = _check_t(t, "bare ray energy")
    return _Ray(u, cfg).at(t, _Ray.bare, "bulk")


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


def _refine(fdf, a: _Point, b: _Point) -> float:
    """Root of f between a and b, where f < 0 at exactly one of them.

    Newton steps start at the end with the smaller |f|.  A step that would
    leave the bracket, or that is not at most half the step before last, is
    replaced by bisection (rtsafe, Numerical Recipes §9.4).  Stops when a
    step moves t by at most ``ROOT_RTOL``·t.
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
        if step <= ROOT_RTOL * t:
            return t
        _, f, df = fdf(t)
        if f < 0.0:
            neg = t
        else:
            pos = t
    return t


def _tangent_tol(lamA: float) -> float:
    return TANGENT_RTOL * (1.0 + abs(lamA))


class _BranchUnavailable(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _branch_root(ray: _Ray, branch: str) -> float:
    """Crossing of m = λA on the branch's side of the peak, for a unit ray.

    ``plus`` is the rising crossing, ``minus`` the falling one.  From the
    warm start ``ray.scale`` the search walks toward the peak until
    f = m − λA ≥ 0, then away from it on the branch's side until f < 0.
    A first f ≥ 0 within the tangency band may sit on a tangent ray.  On
    the branch's side of the peak, one probe a factor 2 toward it with f
    above the band rules that out (m(peak) ≥ m(probe)), and the search goes
    on from that first point.  The peak is solved only when the walk passes
    it with f < 0 throughout, or when a first f in the band lies at m' = 0
    or past the peak, or its probe does not clear the band or falls beyond
    the bracket caps.
    """
    lamA, B = ray.lam * ray.concave, ray.convex
    rising = branch == "plus"
    if rising and lamA <= 0.0:
        raise _BranchUnavailable("concave integral is nonpositive")
    if not rising and B <= 0.0:
        raise _BranchUnavailable("convex integral is nonpositive")
    tangent_tol = _tangent_tol(lamA)

    def fdf(t: float) -> _Point:
        m0, m1 = ray.moments(t)
        return _Point(t, ray.balance(t, m0) - lamA, ray.balance_dt(t, m0, m1))

    def probe_clears_band(pt: _Point) -> bool:
        """Whether a probe toward the peak from ``pt`` lies above the band."""
        if pt.df == 0.0 or (pt.df > 0.0) != rising:
            return False
        t = pt.t * BRACKET_GROW if rising else pt.t / BRACKET_GROW
        return BRACKET_LO_CAP <= t <= BRACKET_HI_CAP and fdf(t).f > tangent_tol

    neg: Optional[_Point] = None
    pos = fdf(ray.scale)
    if pos.f < 0.0:
        up = B <= 0.0 or pos.df > 0.0
        prev, pos = _walk(
            fdf, pos, up, lambda pt: pt.f >= 0.0 or (B > 0.0 and (pt.df > 0.0) != up)
        )
        if up == rising:  # the walk came from the branch's side
            neg = prev
    if pos.f < 0.0 or (
        B > 0.0 and lamA > 0.0 and pos.f <= tangent_tol and not probe_clears_band(pos)
    ):
        pos = fdf(ray.peak)
        if abs(pos.f) <= tangent_tol:
            raise _BranchUnavailable("ray is tangent to the manifold")
        if pos.f < 0.0:
            raise _BranchUnavailable("balance peak below the concave level (no crossing)")
        neg = None
    if neg is None:
        pos, neg = _walk(fdf, pos, not rising, lambda pt: pt.f < 0.0)
    return _refine(fdf, neg, pos)


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
    if abs(slope) <= SLOPE_RTOL * size:
        return 0
    return 1 if slope > 0.0 else -1


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
        elif abs(gap) <= _tangent_tol(lamA):
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
        t_max = unit.bare_peak / unit.scale
        bare_value = ray.at(t_max, _Ray.bare, "bulk")

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


def _project_ray(u: Field, cfg: ProblemConfig, branch: str) -> tuple[_Ray, float]:
    """The exact ray of u and its branch crossing t*, in input units.

    The search starts at t = 1.  The branch sign is verified through the
    balance slope at the root (exact identity with the second ray derivative
    of the scaled field).  A ProjectionError computes its diagnosis only
    when it is read.
    """
    if branch not in ("plus", "minus"):
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
    ray = _Ray(u, cfg)
    unit = ray.unit()
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
    return ray, t_star_n / unit.scale


def project_scale(
    u: Field, cfg: ProblemConfig, branch: str
) -> tuple[Field, float, float]:
    """Projection without the report payload: the scaled field, t* and J.

    J = γ(t*) comes from the ray's exact sums (see the module docstring).
    """
    ray, t_star = _project_ray(u, cfg, branch)
    return u.scaled(t_star), t_star, ray.at(t_star, _Ray.gamma, "bulk")


def project(u: Field, cfg: ProblemConfig, branch: str) -> NehariPoint:
    """Scale u onto the requested Nehari branch.

    branch "plus" needs a crossing with positive balance slope (rising
    side), branch "minus" one with negative slope (falling side past the
    peak).  Raises ProjectionError, carrying the diagnosis, if the ray does
    not reach the branch.  The report reads the projection's own ray at t*:
    for the scaled field, G = t*·γ′(t*) and γ″(1) = t*²·γ″(t*).
    """
    ray, t = _project_ray(u, cfg, branch)
    bulk, m0, m1 = next(ray.integrals([t], "bulk", "m0", "m1"))
    J, G = ray.gamma(t, bulk), t * ray.gamma_dt(t, m0)
    return NehariPoint(u.scaled(t), branch, J, abs(G), t * t * ray.gamma_dt2(t, m0, m1), t)


def sample_ray(u: Field, cfg: ProblemConfig, t_values) -> dict[str, list[float]]:
    """Tabulate γ, γ', γ'', m, η along the ray (for diagnosis CSV output).

    Every t is checked before any φ evaluation.  The field is read once, and
    Φ's bulk, m_0 and m_1 come from the ray's one exact evaluator, so each
    value is bitwise that of the public ray functions.
    """
    ts = np.array([_check_t(t) for t in t_values])
    ray = _Ray(u, cfg)
    # the columns become Python floats only at the end: lists grown per t
    # would add ~170 bytes per t to the working memory
    table = np.empty((6, ts.size))
    table[0] = ts
    for j, (bulk, m0, m1) in enumerate(ray.integrals(ts, "bulk", "m0", "m1")):
        t = ts.item(j)
        table[1:, j] = (
            ray.gamma(t, bulk),
            ray.gamma_dt(t, m0),
            ray.gamma_dt2(t, m0, m1),
            ray.balance(t, m0),
            ray.peak_eq(t, m0, m1),
        )
    keys = ("t", "gamma", "gamma_dt", "gamma_dt2", "balance", "peak_eq")
    return dict(zip(keys, table.tolist()))
