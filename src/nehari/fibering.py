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
(rtsafe), and stopped at the relative step ``ROOT_RTOL``, a converged
Newton step from the bracket's end included.  The two
peaks are roots of decreasing functions, so the sign at the start says
which way to walk.  Trial points of a descent lie next to a branch
crossing: since m is unimodal, the signs of m − λA and of m' at the walk's
points place a bracket that holds that crossing and no other.  A first
point whose m − λA reads positive proves the peak lies above the level, so
the ray is not tangent.  The balance peak is solved only when the signs
cannot place the bracket, when the first point's level reads 0 and its
slope does not read the branch's sign, or when a diagnosis reports it.
Brackets are capped at [smallest normal double, 1e9]; every downward
search meets a guaranteed sign change before 0⁺.

The integrands (Φ's bulk and the moments m_k) are written once, in one
table, and read by one reader, :meth:`_Ray.read`: each integral is one
plain sum through ``grid.integrate``.  Root searches read it at a float t
on the unit-energy copy of the ray (the stopping tolerance, not summation
error, limits root accuracy); reported values read it at a float t or at
an array of t, in (t, node) blocks, so a value read at one t has the bits
it has in a table of many.  A ray's A, B and E come from one stack of
quadratures with ∫|a||u|^{q+1} and ∫|b||u|^{p+1}.  Every sign the engine
decides (A, B, the level m − λA, the balance slope) reads against the plain
sum's error bound SIGN_C·n·ε·∫|terms|: within it a sign reads as 0, so A
or B is nonpositive and a level at the peak is tangent.  The balance peak
t̃ and the bare peak t_max are reported by :func:`classify` only.  A
projection reports J(t*·u) as γ(t*) of the ray it has already built: one
Φ sum at the t*-scaled density, with A and B scaled by powers of t*, equal
to ``energy`` of the projected field to round-off, not bitwise.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Optional

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
    "ray_energy_dt",
    "ray_energy_dt2",
    "classify",
    "project",
    "project_scale",
    "sample_ray",
]

BRACKET_LO_CAP = sys.float_info.min
BRACKET_HI_CAP = 1e9
BRACKET_GROW = 2.0
ROOT_RTOL = 1e-12  # a root search stops at a step of at most ROOT_RTOL·t
MAX_REFINE = 200
SIGN_C = 1.0  # a decided sign reads as 0 within SIGN_C·n·ε·∫|terms|
# (t, node) entries per block of an array read: 16 values of t on a 9³
# grid, under 100 kB per array; it, not the number of t, bounds working memory
SAMPLE_BLOCK_ELEMENTS = 12_000

CASE_NEITHER = "neither_positive"
CASE_CONCAVE_ONLY = "concave_only"
CASE_CONVEX_ONLY = "convex_only"
CASE_BOTH_NO_ROOT = "both_positive_no_root"
CASE_BOTH_TANGENT = "both_positive_tangent"
CASE_BOTH_TWO_ROOTS = "both_positive_two_roots"


# Φ's bulk and the moments m_k = ∫ φ^{(k)}(s) ρ^{k+1} at s = ρt²/2: the one
# place φ meets the density
_INTEGRANDS = {
    "bulk": lambda ray, s: ray.phi.raw_Phi(s),
    "m0": lambda ray, s: ray.phi.raw_phi(s) * ray.density,
    "m1": lambda ray, s: ray.phi.raw_dphi(s) * ray.density2,
    "m2": lambda ray, s: ray.phi.raw_d2phi(s) * ray.density2 * ray.density,
}


class _Ray:
    """The ray t ↦ t·u of one field: its density and integrals, built once.

    The integrals at a scaling t are Φ's bulk and the moments m_k, from
    ``_INTEGRANDS``; every ray function is a formula in those, written for a
    float t and for an array of t alike.  :meth:`read` is the one reader of
    those integrals: root searches read it at a float t on the unit-energy
    copy that :meth:`unit` gives (through :meth:`moments`), reported values
    at a float t or an array of t in input units.
    """

    def __init__(self, u: Field, cfg: ProblemConfig):
        _check_field(u, cfg)
        self.grid = cfg.grid
        self.phi, self.q, self.p, self.lam = cfg.phi, cfg.q, cfg.p, cfg.lam
        self.density = pointwise_energy(u)
        self.density2 = self.density**2
        terms = np.stack([_concave_density(u, cfg), _convex_density(u, cfg)])
        rows = np.concatenate([self.density[None], terms, np.abs(terms)])
        E, A, B, A_size, B_size = integrate(cfg.grid, rows)
        self.energy_int, self.concave, self.convex = E, A, B
        self.concave_size, self.convex_size = A_size, B_size  # their terms' sizes
        # the signs that decide the case; positive scalings keep them
        self.concave_sign = _bounded_sign(A, A_size, cfg.grid.size)
        self.convex_sign = _bounded_sign(B, B_size, cfg.grid.size)
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
        unit.concave = _over_power(self.concave, s, self.q + 1.0)
        unit.convex = _over_power(self.convex, s, self.p + 1.0)
        unit.concave_size = _over_power(self.concave_size, s, self.q + 1.0)
        unit.convex_size = _over_power(self.convex_size, s, self.p + 1.0)
        unit.scale = s
        return unit

    def read(self, t, *names: str):
        """The ``_INTEGRANDS`` ``names`` ("bulk", "m0", "m1", "m2") at t, one row per name.

        A float t gives a float per name, with no array of t.  A 1-D array
        of t gives an array row per name, with φ evaluated on (t, node)
        blocks of ``SAMPLE_BLOCK_ELEMENTS`` entries at most; a value read
        there has the bits it has at its t alone.
        """
        if isinstance(t, float):
            s = self.density * (t * t / 2.0)
            return [integrate(self.grid, _INTEGRANDS[k](self, s)) for k in names]
        rows = np.empty((len(names), t.size))
        per_block = max(1, SAMPLE_BLOCK_ELEMENTS // self.density.size)
        for start in range(0, t.size, per_block):
            block = t[start : start + per_block]
            s = np.multiply.outer(block * block / 2.0, self.density)
            for row, k in zip(rows, names):
                row[start : start + block.size] = integrate(self.grid, _INTEGRANDS[k](self, s))
        return rows

    def moments(self, t: float, order: int = 1) -> list[float]:
        """[m_0, …, m_order] at a float t."""
        return self.read(t, *(f"m{k}" for k in range(order + 1)))

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

    def level_sign(self, t: float, f: float) -> int:
        """Bounded sign of f = m(t) − λA; its first term t^{1−q}m_0 is f + λA + t^{p−q}B."""
        lam, tb = self.lam, t ** (self.p - self.q)
        size = f + lam * (self.concave + self.concave_size) + tb * (self.convex + self.convex_size)
        return _bounded_sign(f, size, self.grid.size)

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


def _over_power(x: float, s: float, a: float) -> float:
    """x / s**a, also where s**a over- or underflows a float: with s = m·2^k,
    s**a = m**a·2^φ·2^j, j = ⌊ka⌋ and φ = ka − j, and ldexp divides by 2^j."""
    try:
        power = s**a
    except OverflowError:
        power = math.inf
    if sys.float_info.min <= power < math.inf:
        return x / power
    m, k = math.frexp(s)
    j = math.floor(k * a)
    return math.ldexp(x / (m**a * 2.0 ** (k * a - j)), -j)


def _bounded_sign(x: float, size: float, n: int) -> int:
    """Sign of a quadrature x of n terms whose magnitudes have quadrature ``size``.

    A plain sum of n terms is off by at most n·ε·Σ|terms| (Higham §4.2),
    ε = 2⁻⁵² the machine epsilon; that bound, times ``SIGN_C``, also covers
    the rounding of each term.  Within it the sign is noise and reads as 0.
    """
    if abs(x) <= SIGN_C * n * sys.float_info.epsilon * size:
        return 0
    return 1 if x > 0.0 else -1


# -- public ray functions (input units) --------------------------------------


def _check_t(t: float) -> float:
    """t as a float, finite and > 0."""
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError(f"ray derivative functions need a finite t > 0, got {t}")
    return t


def ray_energy_dt(u: Field, t: float, cfg: ProblemConfig) -> float:
    """γ'(t) = t∫φ(·t²)(u²+|∇u|²) − λt^q A − t^p B."""
    ts = np.array([_check_t(t)])
    ray = _Ray(u, cfg)
    return ray.gamma_dt(ts, *ray.read(ts, "m0")).item()


def ray_energy_dt2(u: Field, t: float, cfg: ProblemConfig) -> float:
    """γ''(t), the exact second derivative of the ray energy."""
    ts = np.array([_check_t(t)])
    ray = _Ray(u, cfg)
    return ray.gamma_dt2(ts, *ray.read(ts, "m0", "m1")).item()


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
    step moves t by at most ``ROOT_RTOL``·t, a rejected Newton step from t
    included: it returns t then, since Newton converges from one side and
    its last iterate is an end of the bracket, where a step below half an
    ulp of t rounds back onto that end.
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
            if abs(newton - t) <= ROOT_RTOL * t:
                return t
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


class _BranchUnavailable(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _branch_root(ray: _Ray, branch: str) -> float:
    """Crossing of m = λA on the branch's side of the peak, for a unit ray.

    ``plus`` is the rising crossing, ``minus`` the falling one.  From the
    warm start ``ray.scale`` the search walks toward the peak until
    f = m − λA ≥ 0, then away from it on the branch's side until f < 0.
    A first f that reads positive proves m(peak) > λA; the search goes on
    from it, and from a first f that reads 0 where the slope reads the
    branch's sign.  The peak is solved only when the walk passes it with
    f < 0 throughout, or when a first f reads 0 and its slope does not read
    the branch's sign.  Every sign is a bounded one (:func:`_bounded_sign`).
    """
    lamA = ray.lam * ray.concave
    a_pos, b_pos = ray.concave_sign > 0, ray.convex_sign > 0
    sign = 1 if branch == "plus" else -1
    rising = sign > 0
    if rising and not a_pos:
        raise _BranchUnavailable("concave integral is nonpositive")
    if not rising and not b_pos:
        raise _BranchUnavailable("convex integral is nonpositive")

    def fdf(t: float) -> _Point:
        m0, m1 = ray.moments(t)
        return _Point(t, ray.balance(t, m0) - lamA, ray.balance_dt(t, m0, m1))

    neg: Optional[_Point] = None
    pos = fdf(ray.scale)
    if pos.f < 0.0:
        up = not b_pos or pos.df > 0.0
        prev, pos = _walk(
            fdf, pos, up, lambda pt: pt.f >= 0.0 or (b_pos and (pt.df > 0.0) != up)
        )
        if up == rising:  # the walk came from the branch's side
            neg = prev
    if pos.f < 0.0 or (
        b_pos and a_pos and ray.level_sign(pos.t, pos.f) == 0 and _root_sign(ray, pos.t) != sign
    ):
        pos = fdf(ray.peak)
        level = ray.level_sign(pos.t, pos.f)
        if level == 0:
            raise _BranchUnavailable("ray is tangent to the manifold")
        if level < 0:
            raise _BranchUnavailable("balance peak below the concave level (no crossing)")
        neg = None
    if neg is None:
        pos, neg = _walk(fdf, pos, not rising, lambda pt: pt.f < 0.0)
    return _refine(fdf, neg, pos)


def _root_sign(ray: _Ray, t: float) -> int:
    """Sign of the second ray derivative at a crossing: the balance slope's bounded sign.

    The convex term's size is ∫|b||u|^{p+1}; |m_1| is its terms' size when φ′
    has one sign, as for ``constant`` and ``stuart_example``.
    """
    m0, m1 = ray.moments(t)
    q, p = ray.q, ray.p
    size = (
        (1.0 - q) * t**-q * abs(m0)
        + t ** (2.0 - q) * abs(m1)
        + (p - q) * t ** (p - q - 1.0) * ray.convex_size
    )
    return _bounded_sign(ray.balance_dt(t, m0, m1), size, ray.grid.size)


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
    depending on λ against the balance peak).  "Positive" is the bounded
    sign: an integral within the error bound of its plain sum counts as
    nonpositive.  Crossings come from the same search as
    :func:`project_scale`.
    """
    ray = _Ray(u, cfg)
    unit = ray.unit()
    lamA = unit.lam * unit.concave
    a_pos, b_pos = ray.concave_sign > 0, ray.convex_sign > 0

    t_tilde: Optional[float] = None
    branches: tuple[str, ...] = ()
    roots: list[tuple[float, int]] = []
    if not b_pos:
        if not a_pos:
            case = CASE_NEITHER
        else:
            case, branches = CASE_CONCAVE_ONLY, ("plus",)
    else:
        t_tilde = unit.peak
        level = unit.level_sign(t_tilde, unit.balance(t_tilde, *unit.moments(t_tilde, 0)) - lamA)
        if not a_pos:
            case, branches = CASE_CONVEX_ONLY, ("minus",)
        elif level == 0:
            case = CASE_BOTH_TANGENT
            roots.append((t_tilde, 0))
        elif level < 0:
            case = CASE_BOTH_NO_ROOT
        else:
            case, branches = CASE_BOTH_TWO_ROOTS, ("plus", "minus")
    for branch in branches:
        t = _branch_root(unit, branch)
        roots.append((t, _root_sign(unit, t)))

    t_max: Optional[float] = None
    bare_value: Optional[float] = None
    if b_pos:
        t_max = unit.bare_peak / unit.scale
        bare_value = ray.bare(t_max, *ray.read(t_max, "bulk"))

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
    """The ray of u and its branch crossing t*, in input units.

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
        sign = _root_sign(unit, t_star_n)
        if sign != (1 if branch == "plus" else -1):
            raise _BranchUnavailable(f"balance slope sign {sign} at the root")
    except _BranchUnavailable as stop:
        raise ProjectionError(
            f"branch {branch!r} unavailable: {stop.reason}",
            diagnosis=diagnosis,
            reason=stop.reason,
        ) from None
    return ray, t_star_n / unit.scale


def project_scale(
    u: Field, cfg: ProblemConfig, branch: str
) -> tuple[Field, float, float]:
    """Projection without the report payload: the scaled field, t* and J.

    Only the descent and its seeding call it.  t* and J = γ(t*) are
    :func:`project`'s, read from the same ray at t*.
    """
    ray, t_star = _project_ray(u, cfg, branch)
    return u.scaled(t_star), t_star, ray.gamma(t_star, *ray.read(t_star, "bulk"))


def project(u: Field, cfg: ProblemConfig, branch: str) -> NehariPoint:
    """Scale u onto the requested Nehari branch.

    branch "plus" needs a crossing with positive balance slope (rising
    side), branch "minus" one with negative slope (falling side past the
    peak).  Raises ProjectionError, carrying the diagnosis, if the ray does
    not reach the branch.  The report reads the projection's own ray at t*:
    for the scaled field, G = t*·γ′(t*) and γ″(1) = t*²·γ″(t*).
    """
    ray, t = _project_ray(u, cfg, branch)
    bulk, m0, m1 = ray.read(t, "bulk", "m0", "m1")
    J, G = ray.gamma(t, bulk), t * ray.gamma_dt(t, m0)
    return NehariPoint(u.scaled(t), branch, J, abs(G), t * t * ray.gamma_dt2(t, m0, m1), t)


def sample_ray(u: Field, cfg: ProblemConfig, t_values) -> dict[str, list[float]]:
    """Tabulate γ, γ', γ'', m, η along the ray (for diagnosis CSV output).

    Every t is checked before any φ evaluation.  The field is read once, and
    Φ's bulk, m_0 and m_1 come from one :meth:`_Ray.read` of the whole t
    array, so each value is bitwise that of its formula read at its t alone,
    as :func:`ray_energy_dt` and :func:`ray_energy_dt2` read γ' and γ''.
    """
    ts = np.array([_check_t(t) for t in t_values])
    ray = _Ray(u, cfg)
    bulk, m0, m1 = ray.read(ts, "bulk", "m0", "m1")
    columns = {
        "t": ts,
        "gamma": ray.gamma(ts, bulk),
        "gamma_dt": ray.gamma_dt(ts, m0),
        "gamma_dt2": ray.gamma_dt2(ts, m0, m1),
        "balance": ray.balance(ts, m0),
        "peak_eq": ray.peak_eq(ts, m0, m1),
    }
    return {key: column.tolist() for key, column in columns.items()}
