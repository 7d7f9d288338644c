"""Run configuration: INI-style structured text, strict validation, pipeline.

Sections: phi, grid, weights.a, weights.b, problem, solver, output.  Every
key has a documented default: DEFAULT_CONFIG below, and for the weights two
Gaussian lobes scaled to the grid (``_default_weight_spec``).  The keys of
``[phi]`` and of each weights section depend on the section's kind (the
file's, or the default ``constant`` and ``gaussians``): ``_PHI_KINDS`` here
and ``grid.WEIGHT_KINDS`` list the keys each kind reads, with their value
types, and a key the kind does not read is rejected at parse time.  A
default fills in only the keys its section's kind reads.  Every error is
addressed by section and key.  The place-holder "auto:f" for lambda
resolves to f·lambda0 once thresholds are computed, so reproduction runs
need no hand-computed constants.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

from .energy import ProblemConfig
from .errors import ConfigError, DomainError
from .grid import WEIGHT_KINDS, Field, Grid, SobolevEstimate, estimate_sobolev, make_weight
from .grid import reject_unread
from .phi import (
    PhiModel,
    _check_exponents,
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

[problem]
q = 0.5
p = 3.0
lambda = auto:0.5        ; positive float, or auto:f for f*lambda0

[solver]
residual_tol = 1e-6
max_iter = 5000
seed = 0

[output]
dir = out
"""

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
    residual_tol: float
    max_iter: int
    seed: int
    out_dir: str


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


# the reader of each value type in the kinds' key lists
_READERS = {
    float: _get_float,
    list: _get_floats,
    str: lambda parser, section, key: parser.get(section, key).strip(),
}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration.

    Unknown sections or keys, and keys the kind of their section does not
    read, are rejected; all messages carry the section and key they refer to.
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

    known = {section: set(parser.options(section)) for section in parser.sections()}
    for section, kinds in _SPEC_KINDS.items():
        known[section] = {"kind", *_key_types(kinds)}
    if user.defaults():  # configparser would copy its keys into every section
        raise ConfigError(user.default_section, "-", "unknown section")
    for section in user.sections():
        if section not in known:
            raise ConfigError(section, "-", "unknown section")
        for key in user.options(section):
            if key not in known[section]:
                raise ConfigError(section, key, "unknown key")
            if section not in _SPEC_KINDS:
                parser.set(section, key, user.get(section, key))

    # grid first: the critical exponent constrains p
    dim = _get_int(parser, "grid", "dim")
    if dim < 1:
        raise ConfigError("grid", "dim", f"dimension must be >= 1, got {dim}")
    nodes = _get_floats(parser, "grid", "nodes")  # Grid rejects fractional counts
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
    grid = Grid(nodes=tuple(nodes), lengths=tuple(lengths))
    phi_spec = _read_spec(user, "phi", _read_spec(parser, "phi", {}))

    q = _get_float(parser, "problem", "q")
    p = _get_float(parser, "problem", "p")
    try:
        _check_exponents(q, p, grid.critical_exponent())
    except DomainError as err:  # its message starts with the key at fault
        raise ConfigError("problem", str(err).split()[0], str(err)) from None

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

    a_spec = _read_spec(user, "weights.a", _default_weight_spec(grid, axis=0))
    b_spec = _read_spec(user, "weights.b", _default_weight_spec(grid, axis=min(1, dim - 1)))

    residual_tol = _get_float(parser, "solver", "residual_tol")
    max_iter = _get_int(parser, "solver", "max_iter")
    seed = _get_int(parser, "solver", "seed")
    if residual_tol <= 0:
        raise ConfigError("solver", "residual_tol", "tolerance must be positive")
    if max_iter < 1:
        raise ConfigError("solver", "max_iter", "need at least one iteration")
    if seed < 0:
        raise ConfigError("solver", "seed", f"seed must be non-negative, got {seed}")

    return RunConfig(
        phi_spec=phi_spec,
        grid=grid,
        weight_a_spec=a_spec,
        weight_b_spec=b_spec,
        q=q,
        p=p,
        lam_mode=lam_mode,
        lam_value=lam_value,
        residual_tol=residual_tol,
        max_iter=max_iter,
        seed=seed,
        out_dir=parser.get("output", "dir").strip(),
    )


def _key_types(kinds: dict) -> dict:
    """The value type of every key that some kind of ``kinds`` reads."""
    return {key: key_type for reads in kinds.values() for key, key_type in reads.items()}


def _read_spec(parser, section: str, defaults: dict) -> dict:
    """The spec of a φ or weights section: its kind, the ``defaults`` that
    kind reads, and the section's own keys, each read by its type.

    The kind is the section's, or else the defaults'.  A key of the section
    that its kind does not read is a config error; an unknown kind, and the
    keys a kind needs, are checked by its builder (``build_phi``,
    ``make_weight``).
    """
    kinds = _SPEC_KINDS[section]
    types = _key_types(kinds)
    own = parser.options(section) if parser.has_section(section) else []
    kind = parser.get(section, "kind").strip() if "kind" in own else defaults["kind"]
    spec = {"kind": kind}
    spec.update((key, _READERS[types[key]](parser, section, key)) for key in own if key != "kind")
    if kind in kinds:
        reads = kinds[kind]
        reject_unread(section, spec, reads)
        spec = {"kind": kind, **{k: v for k, v in defaults.items() if k in reads}, **spec}
    return spec


def _default_weight_spec(grid: Grid, axis: int) -> dict:
    """Two opposite Gaussian lobes at 0.3 and 0.7 of the given axis, σ = 0.18·min L."""
    L = grid.lengths
    center_pos = [0.5 * Lk for Lk in L]
    center_neg = [0.5 * Lk for Lk in L]
    center_pos[axis] = 0.3 * L[axis]
    center_neg[axis] = 0.7 * L[axis]
    sigma = 0.18 * min(L)
    return {
        "kind": "gaussians",
        "center_pos": center_pos,
        "sigma_pos": sigma,
        "center_neg": center_neg,
        "sigma_neg": sigma,
    }


def build_phi(phi_spec: dict) -> PhiModel:
    """The φ model of a spec; a missing, unread or rejected key is a ``[phi]`` config error."""
    kind = phi_spec.get("kind")
    if kind not in _PHI_KINDS:
        raise ConfigError("phi", "kind", f"unknown phi kind {kind!r}")
    reads, build = _PHI_KINDS[kind]
    reject_unread("phi", phi_spec, reads)
    [key] = reads  # each φ kind is built from one key
    if key not in phi_spec:
        raise ConfigError("phi", key, f"{kind} phi requires {key}")
    try:
        return build(phi_spec[key])
    except DomainError as err:
        raise ConfigError("phi", key, str(err)) from None


def _read_phi_table(path: str) -> tuple[list[float], list[float]]:
    """The (s, φ(s)) columns of a CSV; a row whose first cell starts with # is skipped."""
    import csv as _csv

    with open(path, newline="") as fh:
        rows = [r for r in _csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    try:
        return [float(r[0]) for r in rows], [float(r[1]) for r in rows]
    except (IndexError, ValueError):
        raise ConfigError("phi", "table", f"{path}: rows must hold two numbers") from None


# each φ kind: the key it reads with its value type, and its builder
_PHI_KINDS = {
    "constant": ({"value": float}, constant_model),
    "stuart_example": ({"offset": float}, stuart_model),
    "tabulated": ({"table": str}, lambda path: tabulated_model(*_read_phi_table(path))),
}
# the keys each kind reads, in each section whose keys depend on its kind
_SPEC_KINDS = {"phi": {kind: reads for kind, (reads, _) in _PHI_KINDS.items()}}
_SPEC_KINDS["weights.a"] = _SPEC_KINDS["weights.b"] = WEIGHT_KINDS


def _build_weight(grid: Grid, spec: dict, section: str) -> Field:
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

    ``thresholds`` is None when the hypotheses are not certified (a fixed
    lambda can still be solved, an auto one cannot be resolved).
    """

    run: RunConfig
    problem: ProblemConfig
    sobolev: dict[float, SobolevEstimate]
    thresholds: Optional[ThresholdReport]


def prepare_run(run: RunConfig) -> PreparedRun:
    """Build the problem and resolve lambda (auto:f needs the thresholds)."""
    model = build_phi(run.phi_spec)
    hyp = verify_hypotheses(model, run.q, run.p)
    a = _build_weight(run.grid, run.weight_a_spec, "weights.a")
    b = _build_weight(run.grid, run.weight_b_spec, "weights.b")
    sob = {
        run.q + 1.0: estimate_sobolev(run.grid, run.q + 1.0),
        run.p + 1.0: estimate_sobolev(run.grid, run.p + 1.0),
    }

    # lambda=1 stand-in lets the ProblemConfig validate the rest eagerly
    base = ProblemConfig(
        grid=run.grid,
        phi=model,
        a=a,
        b=b,
        lam=1.0,
        q=run.q,
        p=run.p,
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
        run=run, problem=base.with_lambda(lam), sobolev=sob, thresholds=thresholds
    )
