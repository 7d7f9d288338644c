"""Admissibility constants from certified coefficient bounds and Sobolev estimates.

Two ceilings control the analysis: lambda1, below which the degenerate part
of the Nehari manifold is empty, and lambda2, below which the falling
branch of every ray with positive convex integral stays above the strictly
positive level delta_lambda.  Both are built from the certified rho
constants and from discrete Sobolev estimates; reports carry provenance so
users see that they are surrogates for the continuum constants and inherit
discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .energy import ProblemConfig
from .errors import ConfigError, DomainError
from .grid import SobolevEstimate
from .phi import HypothesisReport

__all__ = ["ThresholdReport", "compute_thresholds", "admissibility"]

ADMISSIBLE = "admissible"
MARGINAL = "marginal"
INADMISSIBLE = "inadmissible"


@dataclass(frozen=True)
class ThresholdReport:
    lambda1: float
    lambda2: float
    lambda0: float
    c1: float
    delta: float
    q: float
    p: float
    provenance: dict

    def delta_lambda(self, lam: float) -> Optional[float]:
        """Energy floor on the falling branch for 0 < lam <= lambda2, None above.

        The formula falls to 0 at lambda2 and is no floor beyond it.
        """
        lam = float(lam)
        if lam <= 0:
            raise DomainError(f"lambda must be positive, got {lam}")
        if lam > self.lambda2:
            return None
        half = (self.q + 1.0) / 2.0
        return self.delta**half * (self.delta ** (1.0 - half) - lam * self.c1)

    def as_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "lambda0": self.lambda0,
            "c1": self.c1,
            "delta": self.delta,
            "q": self.q,
            "p": self.p,
            "provenance": dict(self.provenance),
        }


def compute_thresholds(
    report: HypothesisReport,
    sobolev: dict[float, SobolevEstimate],
    cfg: ProblemConfig,
) -> ThresholdReport:
    """Evaluate lambda1, lambda2, lambda0, c1, delta from certified inputs.

    Requires the bounds hypotheses (phi1, phi3, phi4) to have passed and the
    embedding estimates at orders q+1 and p+1 to be present.
    """
    for name in ("phi1", "phi3", "phi4"):
        if not report.passes.get(name, False):
            raise ConfigError(
                "thresholds", name, "hypothesis not certified; thresholds undefined"
            )
    q, p = cfg.q, cfg.p
    if report.q != q or report.p != p:
        raise ConfigError(
            "thresholds", "exponents", "hypothesis report was certified for different (q, p)"
        )
    try:
        S_q1 = sobolev[q + 1.0].value
        S_p1 = sobolev[p + 1.0].value
    except KeyError as missing:
        raise ConfigError(
            "thresholds", "sobolev", f"missing embedding estimate for order {missing}"
        ) from None
    sup_a = float(max(abs(cfg.a.values.min()), abs(cfg.a.values.max())))
    sup_b = float(max(abs(cfg.b.values.min()), abs(cfg.b.values.max())))
    if sup_a <= 0 or sup_b <= 0:
        raise ConfigError("thresholds", "weights", "weight sup norms must be positive")

    a_embed = sup_a * S_q1 ** (q + 1.0)
    b_embed = sup_b * S_p1 ** (p + 1.0)
    lambda1 = (report.rho5 / ((p - q) * a_embed)) * (
        report.rho3 / ((p - q) * b_embed)
    ) ** ((1.0 - q) / (p - 1.0))

    gap = report.rho0 / 2.0 - report.rho1 / (p + 1.0)
    half = (q + 1.0) / 2.0
    c1 = a_embed / ((q + 1.0) * gap**half)
    delta = gap * (report.rho0 / b_embed) ** (2.0 / (p - 1.0))
    lambda2 = delta ** (1.0 - half) / c1
    lambda0 = min(lambda1, lambda2)

    return ThresholdReport(
        lambda1=lambda1,
        lambda2=lambda2,
        lambda0=lambda0,
        c1=c1,
        delta=delta,
        q=q,
        p=p,
        provenance={
            "rho0": report.rho0,
            "rho1": report.rho1,
            "rho3": report.rho3,
            "rho5": report.rho5,
            "sup_a": sup_a,
            "sup_b": sup_b,
            "sobolev": {
                repr(q + 1.0): {"value": S_q1, "note": "S (discrete estimate)"},
                repr(p + 1.0): {"value": S_p1, "note": "S (discrete estimate)"},
            },
        },
    )


def admissibility(lam: float, report: ThresholdReport) -> str:
    """Verdict for a given lambda against the computed ceilings.

    Strictly below lambda0 both branch guarantees hold; at or above
    lambda0 but below max(lambda1, lambda2) only one of them might, and the
    verdict is marginal; above both ``nehari solve`` refuses unless forced.
    """
    lam = float(lam)
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if lam < report.lambda0:
        return ADMISSIBLE
    if lam < max(report.lambda1, report.lambda2):
        return MARGINAL
    return INADMISSIBLE
