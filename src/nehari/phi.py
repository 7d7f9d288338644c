"""Operator families φ and certification of the structural hypotheses.

A ``PhiModel`` packages the coefficient function φ of the quasilinear
operator, its antiderivative and first two derivatives.  ``verify_hypotheses``
checks, on a dense sample plan, the seven structural conditions the
variational analysis needs and reports the tightest certified constants
(rho0..rho6 and the tail value).  Certification is sample-based, not
symbolic: beyond the sampled range the tail-flatness check is the only
guard, and the report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "PhiModel",
    "HypothesisReport",
    "constant_model",
    "stuart_model",
    "tabulated_model",
    "verify_hypotheses",
    "stuart_min_offset",
]

HYPOTHESES = ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6", "phi7")

# the certification samples: s = 0 and N_SAMPLES − 1 log-spaced points on
# [10^S_MIN_EXP, S_MAX]; constants are moved SAFETY toward the conservative
# side, and φ7 holds when φ(S_MAX) and φ(S_MAX/2) agree to TAIL_RTOL
S_MAX = 1e6
N_SAMPLES = 4096
S_MIN_EXP = -8.0
SAFETY = 1e-3
TAIL_RTOL = 1e-6


@dataclass(frozen=True)
class PhiModel:
    """Evaluators for Φ, φ, φ', φ'' on s >= 0, plus an identifying kind.

    The ``raw_*`` callables skip the s >= 0 validation; they exist for inner
    loops whose arguments are nonnegative by construction.
    """

    kind: str
    raw_Phi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    raw_phi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    raw_dphi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    raw_d2phi: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def Phi(self, s):
        return self.raw_Phi(_check_nonneg(s))

    def phi(self, s):
        return self.raw_phi(_check_nonneg(s))

    def dphi(self, s):
        return self.raw_dphi(_check_nonneg(s))

    def d2phi(self, s):
        return self.raw_d2phi(_check_nonneg(s))


def _check_exponents(q: float, p: float, two_star: float = math.inf) -> None:
    """The exponent rule 0 < q < 1 < p, p + 1 < 2*.

    A violation raises ``DomainError`` whose message starts with the
    exponent at fault, ``q`` or ``p``.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if not (1.0 < p and p + 1.0 < two_star):
        raise DomainError(f"p must satisfy 1 < p and p+1 < 2* = {two_star:g}, got {p}")


def _check_nonneg(s):
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise DomainError("phi models are defined for s >= 0 only")
    return arr


def constant_model(c: float = 1.0) -> PhiModel:
    """φ ≡ c, so Φ(s) = c·s; the semilinear (Laplace-type) limit."""
    c = float(c)
    if not 0.0 < c < math.inf:
        raise DomainError("constant phi must be positive and finite")
    return PhiModel(
        kind="constant",
        raw_Phi=lambda s: c * np.asarray(s, dtype=float),
        raw_phi=lambda s: np.full_like(np.asarray(s, dtype=float), c),
        raw_dphi=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        raw_d2phi=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )


def stuart_model(offset: float) -> PhiModel:
    """φ(s) = (1+s)⁻³ + A with additive offset A.

    Φ(s) = A·s − (1+s)⁻²/2 + 1/2, φ'(s) = −3(1+s)⁻⁴, φ''(s) = 12(1+s)⁻⁵.
    """
    A = float(offset)
    if not 0.0 < A < math.inf:
        raise DomainError("stuart offset must be positive and finite")
    return PhiModel(
        kind="stuart_example",
        raw_Phi=lambda s: A * np.asarray(s, dtype=float)
        - 0.5 * (1.0 + np.asarray(s, dtype=float)) ** -2
        + 0.5,
        raw_phi=lambda s: (1.0 + np.asarray(s, dtype=float)) ** -3 + A,
        raw_dphi=lambda s: -3.0 * (1.0 + np.asarray(s, dtype=float)) ** -4,
        raw_d2phi=lambda s: 12.0 * (1.0 + np.asarray(s, dtype=float)) ** -5,
    )


def tabulated_model(s_nodes, phi_nodes) -> PhiModel:
    """Monotone-cubic interpolation of a (s, φ(s)) table.

    The table must start at s = 0 with strictly increasing s.  Beyond the
    last node φ is extended flat (consistent with the limit hypothesis) and
    Φ linearly.
    """
    from scipy.interpolate import PchipInterpolator

    s_nodes = np.asarray(s_nodes, dtype=float)
    phi_nodes = np.asarray(phi_nodes, dtype=float)
    if s_nodes.ndim != 1 or s_nodes.size < 4:
        raise DomainError("tabulated phi needs at least 4 samples")
    if not (np.all(np.isfinite(s_nodes)) and np.all(np.isfinite(phi_nodes))):
        raise DomainError("tabulated phi samples must be finite")
    if s_nodes[0] != 0.0:
        raise DomainError("tabulated phi must start at s = 0")
    if np.any(np.diff(s_nodes) <= 0):
        raise DomainError("tabulated phi needs strictly increasing s")
    if np.any(phi_nodes <= 0):
        raise DomainError("tabulated phi values must be positive")

    interp = PchipInterpolator(s_nodes, phi_nodes, extrapolate=False)
    anti = interp.antiderivative()
    d1 = interp.derivative(1)
    d2 = interp.derivative(2)
    s_hi = float(s_nodes[-1])
    phi_hi = float(phi_nodes[-1])
    Phi_hi = float(anti(s_hi))

    def _clamped(fn, flat_value):
        def call(s):
            s = np.asarray(s, dtype=float)
            inside = np.minimum(s, s_hi)
            out = np.asarray(fn(inside), dtype=float)
            return np.where(s > s_hi, flat_value, out)

        return call

    def raw_Phi(s):
        s = np.asarray(s, dtype=float)
        inside = np.minimum(s, s_hi)
        out = np.asarray(anti(inside), dtype=float)
        return np.where(s > s_hi, Phi_hi + phi_hi * (s - s_hi), out)

    return PhiModel(
        kind="tabulated",
        raw_Phi=raw_Phi,
        raw_phi=_clamped(interp, phi_hi),
        raw_dphi=_clamped(d1, 0.0),
        raw_d2phi=_clamped(d2, 0.0),
    )


def _samples() -> np.ndarray:
    log_part = np.logspace(S_MIN_EXP, math.log10(S_MAX), N_SAMPLES - 1)
    return np.concatenate([[0.0], log_part])


@dataclass(frozen=True)
class HypothesisReport:
    """Pass flags, certified constants, and worst-case margins.

    Constants are reported with a multiplicative safety factor toward the
    conservative side (lower bounds shrunk, upper bounds expanded); sampling
    cannot certify suprema exactly, and beyond s_max only the tail-flatness
    check speaks.
    """

    passes: dict[str, bool]
    rho0: float
    rho1: float
    rho2: float
    rho3: float
    rho4: float
    rho5: float
    rho6: float
    phi_inf: float
    margins: dict[str, float]
    q: float
    p: float

    @property
    def all_pass(self) -> bool:
        return all(self.passes[name] for name in HYPOTHESES)

    def as_dict(self) -> dict:
        return {
            "passes": dict(self.passes),
            "all_pass": self.all_pass,
            "constants": {
                "rho0": self.rho0,
                "rho1": self.rho1,
                "rho2": self.rho2,
                "rho3": self.rho3,
                "rho4": self.rho4,
                "rho5": self.rho5,
                "rho6": self.rho6,
                "phi_inf": self.phi_inf,
            },
            "margins": dict(self.margins),
            "plan": {
                "s_max": S_MAX,
                "n_samples": N_SAMPLES,
                "safety": SAFETY,
                "note": "sample-based certification; tail beyond s_max trusted via flatness check",
            },
            "q": self.q,
            "p": self.p,
        }


def verify_hypotheses(model: PhiModel, q: float, p: float) -> HypothesisReport:
    """Check the seven structural hypotheses on the dense sample plan above.

    Violations are reported (pass flag false, margin showing the worst
    sample), never raised.
    """
    q = float(q)
    p = float(p)
    _check_exponents(q, p)

    s = _samples()
    phi = np.asarray(model.phi(s), dtype=float)
    dphi = np.asarray(model.dphi(s), dtype=float)
    d2phi = np.asarray(model.d2phi(s), dtype=float)
    shrink = 1.0 - SAFETY
    expand = 1.0 + SAFETY

    passes: dict[str, bool] = {}
    margins: dict[str, float] = {}

    # bounded positive coefficient with the stiffness gap
    phi_min = float(np.min(phi))
    phi_max = float(np.max(phi))
    rho0 = shrink * phi_min
    rho1 = expand * phi_max
    gap = max((q + 1.0) / 2.0, 2.0 / (p + 1.0))
    passes["phi1"] = phi_min > 0.0 and gap * rho1 < rho0
    margins["phi1"] = rho0 - gap * rho1

    # bounded |φ'|s + |φ''|s²
    comb2 = np.abs(dphi) * s + np.abs(d2phi) * s**2
    rho2 = expand * float(np.max(comb2))
    passes["phi2"] = bool(np.all(np.isfinite(comb2)))
    margins["phi2"] = rho2

    # (1-q)φ + 2φ's pinched between positive constants
    comb3 = (1.0 - q) * phi + 2.0 * dphi * s
    rho3 = shrink * float(np.min(comb3))
    rho4 = expand * float(np.max(comb3))
    passes["phi3"] = float(np.min(comb3)) > 0.0
    margins["phi3"] = float(np.min(comb3))

    # (p-1)φ - 2φ's bounded away from zero
    comb4 = (p - 1.0) * phi - 2.0 * dphi * s
    rho5 = shrink * float(np.min(comb4))
    passes["phi4"] = float(np.min(comb4)) > 0.0
    margins["phi4"] = float(np.min(comb4))

    # strict concavity combination bounded away from zero from above
    comb5 = (
        (1.0 - q) * (1.0 - p) * phi
        + 2.0 * (4.0 - p - q) * dphi * s
        + 4.0 * d2phi * s**2
    )
    worst5 = float(np.max(comb5))
    rho6 = shrink * (-worst5)
    passes["phi5"] = worst5 < 0.0
    margins["phi5"] = -worst5

    # strict convexity of t -> Φ(t²): slopes of chords strictly increasing
    t = np.sqrt(s)
    F = np.asarray(model.Phi(t**2), dtype=float)
    slopes = np.diff(F) / np.diff(t)
    slope_gaps = np.diff(slopes)
    passes["phi6"] = bool(np.all(slope_gaps > 0.0))
    margins["phi6"] = float(np.min(slope_gaps))

    # finite positive limit, checked by tail flatness
    phi_end = float(model.phi(S_MAX))
    phi_half = float(model.phi(S_MAX / 2.0))
    tail = abs(phi_end - phi_half)
    passes["phi7"] = phi_end > 0.0 and tail < TAIL_RTOL * (1.0 + abs(phi_end))
    margins["phi7"] = tail

    return HypothesisReport(
        passes=passes,
        rho0=rho0,
        rho1=rho1,
        rho2=rho2,
        rho3=rho3,
        rho4=rho4,
        rho5=rho5,
        rho6=rho6,
        phi_inf=phi_end,
        margins=margins,
        q=q,
        p=p,
    )


def stuart_min_offset(q: float, p: float) -> float:
    """Smallest admissible additive offset for the stuart family.

    Maximum of the five exponent-dependent terms; above this offset all
    seven hypotheses hold for φ(s) = (1+s)⁻³ + A.
    """
    q = float(q)
    p = float(p)
    _check_exponents(q, p)
    terms = (
        (q + 1.0) / (1.0 - q),
        2.0 / (p + 1.0),
        5.0,
        81.0 / (128.0 * (1.0 - q)),
        (5184.0 / 3125.0 + (p + q) * 81.0 / 128.0) / ((1.0 - q) * (p - 1.0)),
    )
    return max(terms)
