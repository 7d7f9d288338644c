"""Run configuration: INI-style structured text, strict validation, pipeline.

Sections: phi, grid, weights.a, weights.b, problem, solver, output.  Every
key has a documented default (see DEFAULT_CONFIG below); unknown sections or
keys are rejected with an error addressed by section and key.  The
place-holder "auto:f" for lambda resolves to f·lambda0 once thresholds are
computed, so reproduction runs need no hand-computed constants.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

from .energy import ProblemConfig
from .errors import ConfigError, DomainError
from .grid import Grid, SobolevEstimate, Weight, estimate_sobolev, make_weight
from .phi import (
    HypothesisReport,
    PhiModel,
    constant_model,
    stuart_model,
    tabulated_model,
    verify_hypotheses,
)
from .thresholds import ThresholdReport, compute_thresholds

__all__ = [
    "RunConfig",
    "PreparedRun",
    "DEFAULT_CONFIG",
    "parse_config",
    "prepare_run",
]

DEFAULT_CONFIG = """\
[phi]
kind = constant          ; constant | stuart_example | tabulated
value = 1.0              ; constant: the value of phi
; offset = 6.0           ; stuart_example: additive offset A
; table = phi.csv        ; tabulated: two-column CSV (s, phi)

[grid]
dim = 3
nodes = 17               ; interior nodes per axis (one value or dim values)
lengths = 1.0            ; box side lengths (one value or dim values)

[weights.a]
kind = gaussians
amp_pos = 1.0
center_pos = 0.3 0.5 0.5
sigma_pos = 0.18
amp_neg = 1.0
center_neg = 0.7 0.5 0.5
sigma_neg = 0.18

[weights.b]
kind = gaussians
amp_pos = 1.0
center_pos = 0.5 0.3 0.5
sigma_pos = 0.18
amp_neg = 1.0
center_neg = 0.5 0.7 0.5
sigma_neg = 0.18

[problem]
q = 0.5
p = 3.0
lambda = auto:0.5        ; positive float, or auto:f for f*lambda0

[solver]
root_tol = 1e-12
residual_tol = 1e-6
max_iter = 5000
seed = 0

[output]
dir = out
t_samples = true
"""

_KNOWN_KEYS = {
    "phi": {"kind", "value", "offset", "table"},
    "grid": {"dim", "nodes", "lengths"},
    "weights.a": {
        "kind",
        "const",
        "coeffs",
        "freq",
        "phase",
        "amp_pos",
        "center_pos",
        "sigma_pos",
        "amp_neg",
        "center_neg",
        "sigma_neg",
        "path",
    },
    "problem": {"q", "p", "lambda"},
    "solver": {"root_tol", "residual_tol", "max_iter", "seed"},
    "output": {"dir", "t_samples"},
}
_KNOWN_KEYS["weights.b"] = _KNOWN_KEYS["weights.a"]


@dataclass(frozen=True)
class RunConfig:
    phi_spec: dict
    grid: Grid
    weight_a_spec: dict
    weight_b_spec: dict
    q: float
    p: float
    lam_mode: str  # "fixed" | "auto"
    lam_value: float  # fixed value, or the fraction of lambda0
    root_tol: float
    residual_tol: float
    max_iter: int
    seed: int
    out_dir: str
    t_samples: bool


def _get_float(parser, section: str, key: str) -> float:
    raw = parser.get(section, key)
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(section, key, f"expected a finite number, got {raw!r}")
    return value


def _get_int(parser, section: str, key: str) -> int:
    raw = parser.get(section, key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(section, key, f"expected an integer, got {raw!r}") from None


def _get_floats(parser, section: str, key: str) -> list[float]:
    raw = parser.get(section, key)
    try:
        values = [float(tok) for tok in raw.split()]
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise ConfigError(
            section, key, f"expected space-separated finite numbers, got {raw!r}"
        )
    return values


def _get_bool(parser, section: str, key: str) -> bool:
    raw = parser.get(section, key).strip().lower()
    if raw in ("true", "yes", "on", "1"):
        return True
    if raw in ("false", "no", "off", "0"):
        return False
    raise ConfigError(section, key, f"expected a boolean, got {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration.

    Unknown sections or keys are rejected; all messages carry the section
    and key they refer to.
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), strict=True
    )
    try:
        parser.read_string(DEFAULT_CONFIG)
        user = configparser.ConfigParser(
            inline_comment_prefixes=(";", "#"), strict=True
        )
        user.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("config", "syntax", str(exc)) from None

    for section in user.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(section, "-", "unknown section")
        for key in user.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(section, key, "unknown key")
            parser.set(section, key, user.get(section, key))

    # grid first: the critical exponent constrains p
    dim = _get_int(parser, "grid", "dim")
    if dim < 1:
        raise ConfigError("grid", "dim", f"dimension must be >= 1, got {dim}")
    nodes = _get_floats(parser, "grid", "nodes")
    if not all(v.is_integer() for v in nodes):
        raise ConfigError("grid", "nodes", "node counts must be whole numbers")
    nodes = [int(v) for v in nodes]
    if len(nodes) == 1:
        nodes = nodes * dim
    if len(nodes) != dim:
        raise ConfigError("grid", "nodes", f"need 1 or {dim} values, got {len(nodes)}")
    lengths = _get_floats(parser, "grid", "lengths")
    if len(lengths) == 1:
        lengths = lengths * dim
    if len(lengths) != dim:
        raise ConfigError(
            "grid", "lengths", f"need 1 or {dim} values, got {len(lengths)}"
        )
    try:
        grid = Grid(nodes=tuple(nodes), lengths=tuple(lengths))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError("grid", "nodes", str(exc)) from None

    # phi family
    kind = parser.get("phi", "kind").strip()
    if kind == "constant":
        phi_spec = {"kind": kind, "value": _get_float(parser, "phi", "value")}
    elif kind == "stuart_example":
        if not parser.has_option("phi", "offset") or parser.get("phi", "offset") is None:
            raise ConfigError("phi", "offset", "stuart_example requires an offset")
        phi_spec = {"kind": kind, "offset": _get_float(parser, "phi", "offset")}
    elif kind == "tabulated":
        if not parser.has_option("phi", "table") or parser.get("phi", "table") is None:
            raise ConfigError("phi", "table", "tabulated phi requires a table path")
        phi_spec = {"kind": kind, "table": parser.get("phi", "table").strip()}
    else:
        raise ConfigError("phi", "kind", f"unknown phi kind {kind!r}")

    # exponents
    q = _get_float(parser, "problem", "q")
    if not (0.0 < q < 1.0):
        raise ConfigError("problem", "q", f"q must lie in (0, 1), got {q}")
    p = _get_float(parser, "problem", "p")
    two_star = grid.critical_exponent()
    if p <= 1.0:
        raise ConfigError("problem", "p", f"p must exceed 1, got {p}")
    if math.isfinite(two_star) and not (p + 1.0 < two_star):
        raise ConfigError(
            "problem",
            "p",
            f"p+1 must be < 2* = {two_star:g} for dim {dim}, got p+1 = {p + 1.0:g}",
        )

    lam_raw = parser.get("problem", "lambda").strip()
    if lam_raw.startswith("auto:"):
        try:
            frac = float(lam_raw[5:])
        except ValueError:
            raise ConfigError(
                "problem", "lambda", f"malformed auto fraction {lam_raw!r}"
            ) from None
        if not (0.0 < frac < math.inf):
            raise ConfigError("problem", "lambda", "auto fraction must be positive and finite")
        lam_mode, lam_value = "auto", frac
    else:
        try:
            lam = float(lam_raw)
        except ValueError:
            raise ConfigError(
                "problem", "lambda", f"expected a number or auto:f, got {lam_raw!r}"
            ) from None
        if not (0.0 < lam < math.inf):
            raise ConfigError(
                "problem", "lambda", f"lambda must be positive and finite, got {lam}"
            )
        lam_mode, lam_value = "fixed", lam

    def weight_spec(section: str) -> dict:
        wkind = parser.get(section, "kind").strip()
        spec: dict = {"kind": wkind}
        if wkind == "affine":
            if parser.has_option(section, "const"):
                spec["const"] = _get_float(parser, section, "const")
            if parser.has_option(section, "coeffs"):
                spec["coeffs"] = _get_floats(parser, section, "coeffs")
        elif wkind == "sinusoid":
            if parser.has_option(section, "freq"):
                spec["freq"] = _get_floats(parser, section, "freq")
            if parser.has_option(section, "phase"):
                spec["phase"] = _get_floats(parser, section, "phase")
        elif wkind == "gaussians":
            for req in ("center_pos", "center_neg"):
                if not parser.has_option(section, req):
                    raise ConfigError(section, req, "gaussians require both centers")
                center = _get_floats(parser, section, req)
                if len(center) != dim:
                    raise ConfigError(
                        section, req, f"need {dim} coordinates, got {len(center)}"
                    )
                spec[req] = center
            for opt in ("amp_pos", "amp_neg", "sigma_pos", "sigma_neg"):
                if parser.has_option(section, opt):
                    spec[opt] = _get_float(parser, section, opt)
        elif wkind == "csv":
            if not parser.has_option(section, "path"):
                raise ConfigError(section, "path", "csv weights require a path")
            spec["path"] = parser.get(section, "path").strip()
        else:
            raise ConfigError(section, "kind", f"unknown weight kind {wkind!r}")
        return spec

    if user.has_section("weights.a"):
        a_spec = weight_spec("weights.a")
    else:
        a_spec = _default_weight_spec(grid, axis=0)
    if user.has_section("weights.b"):
        b_spec = weight_spec("weights.b")
    else:
        b_spec = _default_weight_spec(grid, axis=min(1, dim - 1))

    root_tol = _get_float(parser, "solver", "root_tol")
    residual_tol = _get_float(parser, "solver", "residual_tol")
    max_iter = _get_int(parser, "solver", "max_iter")
    seed = _get_int(parser, "solver", "seed")
    for key, tol in (("root_tol", root_tol), ("residual_tol", residual_tol)):
        if tol <= 0:
            raise ConfigError("solver", key, "tolerances must be positive")
    if max_iter < 1:
        raise ConfigError("solver", "max_iter", "need at least one iteration")

    return RunConfig(
        phi_spec=phi_spec,
        grid=grid,
        weight_a_spec=a_spec,
        weight_b_spec=b_spec,
        q=q,
        p=p,
        lam_mode=lam_mode,
        lam_value=lam_value,
        root_tol=root_tol,
        residual_tol=residual_tol,
        max_iter=max_iter,
        seed=seed,
        out_dir=parser.get("output", "dir").strip(),
        t_samples=_get_bool(parser, "output", "t_samples"),
    )


def _default_weight_spec(grid: Grid, axis: int) -> dict:
    """Two opposite Gaussian lobes along the given axis (dimension-aware)."""
    L = grid.lengths
    center_pos = [0.5 * Lk for Lk in L]
    center_neg = [0.5 * Lk for Lk in L]
    center_pos[axis] = 0.3 * L[axis]
    center_neg[axis] = 0.7 * L[axis]
    sigma = 0.18 * min(L)
    return {
        "kind": "gaussians",
        "amp_pos": 1.0,
        "center_pos": center_pos,
        "sigma_pos": sigma,
        "amp_neg": 1.0,
        "center_neg": center_neg,
        "sigma_neg": sigma,
    }


def build_phi(phi_spec: dict) -> PhiModel:
    """The φ model of a parsed spec; a rejected value is a ``[phi]`` config error."""
    kind = phi_spec["kind"]
    try:
        if kind == "constant":
            return constant_model(phi_spec.get("value", 1.0))
        if kind == "stuart_example":
            return stuart_model(phi_spec["offset"])
        if kind == "tabulated":
            return tabulated_model(*_read_phi_table(phi_spec["table"]))
    except DomainError as err:
        key = {"constant": "value", "stuart_example": "offset"}.get(kind, "table")
        raise ConfigError("phi", key, str(err)) from None
    raise ConfigError("phi", "kind", f"unknown phi kind {kind!r}")


def _read_phi_table(path: str) -> tuple[list[float], list[float]]:
    """The (s, φ(s)) columns of a CSV; a row whose first cell starts with # is skipped."""
    import csv as _csv

    with open(path, newline="") as fh:
        rows = [r for r in _csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    try:
        return [float(r[0]) for r in rows], [float(r[1]) for r in rows]
    except (IndexError, ValueError):
        raise ConfigError("phi", "table", f"{path}: rows must hold two numbers") from None


def _build_weight(grid: Grid, spec: dict, section: str) -> Weight:
    """``make_weight``, its errors addressed to the config section of the weight."""
    try:
        return make_weight(grid, spec)
    except ConfigError as err:
        if err.section != "weights":
            raise  # a node-value CSV's own error, addressed to the file
        raise ConfigError(section, err.key, err.message) from None


@dataclass(frozen=True)
class PreparedRun:
    """Everything the subcommands need: problem, certification, thresholds.

    With ``need_problem=False`` only the model and its certification are
    built (enough for verify-phi, even when the hypotheses fail and an
    auto lambda could not be resolved).
    """

    run: RunConfig
    problem: Optional[ProblemConfig]
    phi_model: PhiModel
    weight_a: Optional[Weight]
    weight_b: Optional[Weight]
    hypotheses: HypothesisReport
    sobolev: dict[float, SobolevEstimate]
    thresholds: Optional[ThresholdReport]
    lam: Optional[float]


def prepare_run(run: RunConfig, need_problem: bool = True) -> PreparedRun:
    """Build the problem and resolve lambda (auto:f needs the thresholds)."""
    model = build_phi(run.phi_spec)
    hyp = verify_hypotheses(model, run.q, run.p)
    if not need_problem:
        return PreparedRun(
            run=run,
            problem=None,
            phi_model=model,
            weight_a=None,
            weight_b=None,
            hypotheses=hyp,
            sobolev={},
            thresholds=None,
            lam=None,
        )
    weight_a = _build_weight(run.grid, run.weight_a_spec, "weights.a")
    weight_b = _build_weight(run.grid, run.weight_b_spec, "weights.b")
    sob = {
        run.q + 1.0: estimate_sobolev(run.grid, run.q + 1.0),
        run.p + 1.0: estimate_sobolev(run.grid, run.p + 1.0),
    }

    # lambda=1 stand-in lets the ProblemConfig validate the rest eagerly
    base = ProblemConfig(
        grid=run.grid,
        phi=model,
        a=weight_a.field,
        b=weight_b.field,
        lam=1.0,
        q=run.q,
        p=run.p,
        root_tol=run.root_tol,
        residual_tol=run.residual_tol,
        max_iter=run.max_iter,
    )
    thresholds: Optional[ThresholdReport]
    try:
        thresholds = compute_thresholds(hyp, sob, base)
    except ConfigError:
        thresholds = None
    if run.lam_mode == "auto":
        if thresholds is None:
            raise ConfigError(
                "problem",
                "lambda",
                "auto lambda needs thresholds, but the hypotheses are not certified",
            )
        lam = run.lam_value * thresholds.lambda0
    else:
        lam = run.lam_value
    return PreparedRun(
        run=run,
        problem=base.with_lambda(lam),
        phi_model=model,
        weight_a=weight_a,
        weight_b=weight_b,
        hypotheses=hyp,
        sobolev=sob,
        thresholds=thresholds,
        lam=lam,
    )
