"""Uniform box discretization with homogeneous Dirichlet boundary.

Everything downstream (energy, fibering, thresholds, solver) works on
node-valued fields over this grid.  The conventions are:

* interior nodes only are stored; the boundary value is identically zero
  and enters every stencil as a ghost value,
* every difference is a compact edge difference Δu/h, so the energy, its
  gradient and the Sobolev constants share one quadratic form,
* quadrature is the node rule (cell volume times node sum), which under
  the zero boundary is the trapezoid rule.  Every quadrature of the package
  is one plain deterministic sum, numpy's pairwise ``np.add.reduce`` over
  the nodes: :func:`integrate` of one integrand or of a stack of them, and
  the same sum inline where the integrand does not live on the nodes
  (:func:`dirichlet_energy`'s edges).  Such a sum of n terms is off by at
  most n·ε·Σ|x| (Higham, *Accuracy and Stability of Numerical Algorithms*
  §4.2), so a decision that reads the sign of a sum reads it against that
  bound (``fibering``), and the same terms in the same order give the same
  bits on one machine and numpy build.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError

logger = logging.getLogger(__name__)

__all__ = [
    "Grid",
    "Field",
    "SobolevEstimate",
    "gradient",
    "laplacian",
    "pointwise_energy",
    "integrate",
    "inner",
    "dirichlet_energy",
    "estimate_sobolev",
    "make_weight",
    "random_smooth_field",
    "save_field",
    "load_field",
]


# the largest side length and Gaussian width: the default weights and the
# seeds are Gaussians of width ∝ min L, and σ² overflows a float above ~1e154
MAX_LENGTH = 1e100
# the smallest Gaussian width, whose square stays a normal float (σ² underflows
# below ~1.5e-154), and the smallest side length, at which the default widths
# 0.18·min L still pass
MIN_WIDTH = 1e-153
MIN_LENGTH = 1e-152

@dataclass(frozen=True)
class Grid:
    """Uniform box grid on Π_k (0, L_k) with n_k interior nodes per axis.

    Spacing is h_k = L_k/(n_k + 1); node j on axis k sits at (j+1)·h_k.
    Boundary nodes are not stored: fields vanish there.
    """

    nodes: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(float(n).is_integer() for n in self.nodes):
            raise ConfigError("grid", "nodes", "node counts must be whole numbers")
        nodes = tuple(int(n) for n in self.nodes)
        lengths = tuple(float(L) for L in self.lengths)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "lengths", lengths)
        if len(nodes) < 1:
            raise ConfigError("grid", "dim", "dimension must be >= 1")
        if len(lengths) != len(nodes):
            raise ConfigError("grid", "lengths", "need one length per axis")
        if any(n < 3 for n in nodes):
            raise ConfigError("grid", "nodes", "need at least 3 interior nodes per axis")
        if not all(0.0 < L < math.inf for L in lengths):
            raise ConfigError("grid", "lengths", "side lengths must be positive and finite")
        longest, shortest = max(lengths), min(lengths)
        if longest > MAX_LENGTH:
            raise ConfigError(
                "grid", "lengths", f"side lengths must be at most {MAX_LENGTH:g}, got {longest:g}"
            )
        if shortest < MIN_LENGTH:
            raise ConfigError(
                "grid", "lengths", f"side lengths must be at least {MIN_LENGTH:g}, got {shortest:g}"
            )

    @property
    def dim(self) -> int:
        return len(self.nodes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes

    # cached in the instance __dict__, outside the dataclass fields, so
    # equality, hashing and repr still read nodes and lengths only
    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / (n + 1) for n, L in zip(self.nodes, self.lengths))

    @cached_property
    def cell_volume(self) -> float:
        vol = 1.0
        for h in self.spacing:
            vol *= h
        return vol

    @property
    def size(self) -> int:
        total = 1
        for n in self.nodes:
            total *= n
        return total

    def axis_coords(self, k: int) -> np.ndarray:
        """Interior node coordinates along axis k."""
        h = self.spacing[k]
        return h * np.arange(1, self.nodes[k] + 1)

    def coords(self) -> list[np.ndarray]:
        """Meshgrid ('ij' indexing) of interior node coordinates."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def critical_exponent(self) -> float:
        """2* = 2N/(N-2) for N > 2, +inf otherwise."""
        N = self.dim
        if N > 2:
            return 2.0 * N / (N - 2.0)
        return math.inf


@dataclass(frozen=True)
class Field:
    """Immutable scalar field on the interior nodes of a grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != self.grid.shape:
            raise DomainError(
                f"field shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("field contains non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def scaled(self, t: float) -> "Field":
        return Field(self.grid, t * self.values)


def _edge_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """The n+1 edge differences (Δu/h) along one axis, zero ghosts at both ends.

    The result has that axis swapped with axis 0; its entry j is the edge
    from node j−1 to node j, so entries 0 and n are the boundary edges.
    """
    v = values.swapaxes(0, axis)
    d = np.zeros((v.shape[0] + 1,) + v.shape[1:])
    d[:-1] = v
    d[1:] -= v
    d /= h
    return d


def gradient(u: Field) -> np.ndarray:
    """Forward and backward edge differences per axis, shape (2N, *grid.shape).

    Components 2k and 2k+1 are the forward and backward difference along
    axis k.  An interior edge has weight 1/√2 at each of its two nodes, a
    boundary edge weight 1 at its one node, so ∫|∇u|² counts each edge once
    and equals :func:`dirichlet_energy`.
    """
    grid = u.grid
    out = np.empty((2 * grid.dim,) + grid.shape)
    for k, h in enumerate(grid.spacing):
        d = _edge_diff(u.values, k, h)
        d[1:-1] *= math.sqrt(0.5)
        out[2 * k].swapaxes(0, k)[...] = d[1:]
        out[2 * k + 1].swapaxes(0, k)[...] = d[:-1]
    return out


def laplacian(u: Field) -> np.ndarray:
    """Compact (2N+1)-point Laplacian, −gradientᵀ·gradient in the quadrature."""
    grid = u.grid
    out = np.zeros(grid.shape)
    for k, h in enumerate(grid.spacing):
        out.swapaxes(0, k)[...] += np.diff(_edge_diff(u.values, k, h), axis=0) / h
    return out


def pointwise_energy(u: Field) -> np.ndarray:
    """Node values of u² + |∇u|²."""
    g = gradient(u)
    return u.values**2 + np.sum(g**2, axis=0)


def integrate(grid: Grid, values: np.ndarray) -> float | list[float]:
    """Node-rule quadrature (Π h_k)·Σ values, one plain sum per integrand.

    One integrand of the grid's shape gives a float; a stack of them along one
    leading axis gives a list, bitwise the single calls.
    """
    values = np.asarray(values, dtype=float)
    if values.shape == grid.shape:
        return grid.cell_volume * float(np.add.reduce(values.ravel()))
    if values.shape[1:] != grid.shape:
        raise DomainError(
            f"integrand shape {values.shape} does not match grid shape {grid.shape}"
        )
    sums = np.add.reduce(values.reshape(len(values), grid.size), axis=1)
    return (grid.cell_volume * sums).tolist()


def inner(grid: Grid, x: np.ndarray, y: np.ndarray) -> float:
    """Quadrature-weighted L² inner product of two node arrays."""
    return integrate(grid, np.asarray(x) * np.asarray(y))


# -- Sobolev constants -------------------------------------------------------
#
# The ratio uses the Dirichlet form Σ_edges (Δu/h)² of the energy's own edge
# differences, so the constants bound the functional that the solver
# minimizes.  The sine transform (DST-I) diagonalizes it exactly.  Along an
# axis with n nodes the symmetric matrix S[i, j] = sin(π(i+1)(j+1)/(n+1)) holds
# the eigenvectors, S² = ((n+1)/2)·I, and mode (j_k) has the eigenvalue
# Σ_k (4/h_k²) sin²((j_k+1)π/(2(n_k+1))).  Dense per-axis matrices keep the
# transform in numpy, one matrix product per axis: importing scipy.fft
# doubles the peak memory of a run.

SOBOLEV_RTOL = 1e-12  # stop once the ratio gains no more than this, relative
SOBOLEV_MAX_ITER = 5000


def _dirichlet_solver(
    grid: Grid, shift: float = 0.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact (σ − Δ_h)⁻¹ of the compact stencil, σ = ``shift``, by sine transforms.

    σ = 0 is the Sobolev iteration's (−Δ_h)⁻¹; σ = 1 is the solver's H¹
    preconditioner (I − Δ_h)⁻¹.  The shift adds to the symbol.
    """
    sines, eigenvalues = [], []
    for n, h in zip(grid.nodes, grid.spacing):
        j = np.arange(1, n + 1)
        sines.append(np.sin(np.pi * np.outer(j, j) / (n + 1)))
        eigenvalues.append(4.0 / h**2 * np.sin(0.5 * np.pi * j / (n + 1)) ** 2)
    symbol = sum(np.meshgrid(*eigenvalues, indexing="ij")) + shift
    scale = math.prod(2.0 / (n + 1) for n in grid.nodes)

    def transform(values: np.ndarray) -> np.ndarray:
        # contracting axis 0 and appending the result cycles the axes, so
        # after one pass per axis they are back in their order; the product
        # reads a transposed view, so no pass copies its input
        for s in sines:
            n = len(s)
            values = (values.reshape(n, -1).T @ s).reshape(values.shape[1:] + (n,))
        return values

    return lambda f: scale * transform(transform(f) / symbol)


def dirichlet_energy(u: Field) -> float:
    """Compact-stencil H¹₀ seminorm squared: Σ_edges (Δu/h)² · cell volume."""
    grid = u.grid
    total = 0.0
    for k, h in enumerate(grid.spacing):
        total += grid.cell_volume * float((_edge_diff(u.values, k, h) ** 2).sum())
    return total


@dataclass(frozen=True)
class SobolevEstimate:
    value: float
    method: str
    iterations: int


def estimate_sobolev(grid: Grid, order: float) -> SobolevEstimate:
    """Best discrete constant in ‖u‖_order ≤ S · |u|_{H¹₀}.

    Nonlinear inverse power iteration v = (−Δ_h)⁻¹f, f = |u|^{order−2}u,
    each iterate renormalized to unit Dirichlet seminorm (Biezuner, Ercole
    and Martins, J. Funct. Anal. 2009).  The ratio ‖v‖_order/|v|_{H¹₀} never
    decreases from one iterate to the next, so the iteration stops once it
    gains at most ``SOBOLEV_RTOL`` relative.  The sine-transform solve is
    exact, so v's Dirichlet form is the quadrature of v·f, and each iterate
    costs one solve and two quadratures.  The returned value is the ratio of
    the best iterate with its seminorm read from :func:`dirichlet_energy`'s
    edges.  The start is a Gaussian centred on node n_k // 2 of each
    axis: on an even node count that node is off the box centre, which a
    mirror-symmetric start would keep as a symmetry and so stop at a lower
    critical point.  Every iterate is put at unit seminorm before any power
    of it is taken.  The iteration runs on the box scaled by the power of
    two c that puts its longest side in [1, 2), so the size of the box does
    not under- or overflow a sum, and S is scaled back by c^{1+N/order−N/2};
    an S beyond the float range raises ``DomainError``.
    """
    order = float(order)
    two_star = grid.critical_exponent()
    if grid.dim > 2:
        if not (1.0 < order < two_star):
            raise DomainError(
                f"Sobolev order must lie in (1, {two_star:g}) for dim {grid.dim}, got {order}"
            )
    elif not 1.0 <= order < math.inf:
        raise DomainError(f"Sobolev order must be >= 1 and finite, got {order}")

    e = math.frexp(max(grid.lengths))[1] - 1
    box = Grid(grid.nodes, tuple(math.ldexp(L, -e) for L in grid.lengths))
    solve = _dirichlet_solver(box)
    r2 = sum(
        ((x - box.axis_coords(k)[box.nodes[k] // 2]) / (0.35 * box.lengths[k])) ** 2
        for k, x in enumerate(box.coords())
    )

    def quotient(v: np.ndarray) -> float:
        norm = integrate(box, np.abs(v) ** order) ** (1.0 / order)
        return norm / math.sqrt(dirichlet_energy(Field(box, v)))

    u = np.exp(-r2)
    best_u, best = u, quotient(u)
    f = u ** (order - 1.0)  # |u|^{order−2}u, as u > 0
    for iterations in range(1, SOBOLEV_MAX_ITER + 1):
        v = solve(f)
        # v at unit seminorm, before any power of it is taken; |v|^{order−1}
        # gives ‖v‖_order, then, signed, the next right-hand side
        v /= math.sqrt(integrate(box, v * f))
        size = np.abs(v)
        f = size ** (order - 1.0)
        ratio = integrate(box, f * size) ** (1.0 / order)
        f *= np.sign(v)
        gain = ratio - best
        if ratio > best:
            best_u, best = v, ratio
        if gain <= SOBOLEV_RTOL * best:
            break
    else:
        logger.warning(
            "Sobolev order %g on grid %s: gain still above %g after %d iterations",
            order,
            "x".join(map(str, grid.nodes)),
            SOBOLEV_RTOL,
            SOBOLEV_MAX_ITER,
        )
    # c^{1+N/order−N/2} = 2^x: ldexp applies x's whole part exactly, and
    # raises where S lies beyond the float range
    x = e * (1.0 + grid.dim / order - grid.dim / 2.0)
    try:
        value = math.ldexp(quotient(best_u) * 2.0 ** (x - math.floor(x)), math.floor(x))
    except OverflowError:
        raise DomainError(
            f"Sobolev constant of order {order:g} overflows a float on this box"
        ) from None
    return SobolevEstimate(value=value, method="inverse-power", iterations=iterations)


# -- weight fields -----------------------------------------------------------


# each weight kind: the keys it reads, with their value types (list: of
# numbers); the config parser reads a weights section by these lists too
WEIGHT_KINDS = {
    "affine": {"const": float, "coeffs": list},
    "sinusoid": {"freq": list, "phase": list},
    "gaussians": {"amp_pos": float, "center_pos": list, "sigma_pos": float}
    | {"amp_neg": float, "center_neg": list, "sigma_neg": float},
    "csv": {"path": str},
}


def make_weight(grid: Grid, spec: dict) -> Field:
    """Sample a weight expression at the interior nodes.

    Supported kinds: affine, sinusoid (product of per-axis sinusoids),
    gaussians (signed pair of bumps; centres and widths required), csv
    (node values; path required).  A key the kind does not read (see
    :data:`WEIGHT_KINDS`), or a missing or rejected one, is a ``[weights]``
    config error.  A weight that does not change sign violates the standing
    sign-changing assumption and is logged, not rejected.
    """
    kind = spec.get("kind")
    if kind not in WEIGHT_KINDS:
        raise ConfigError("weights", "kind", f"unknown weight kind {kind!r}")
    reject_unread("weights", spec, WEIGHT_KINDS[kind])
    coords = grid.coords()
    if kind == "affine":
        const = float(spec.get("const", 0.0))
        coeffs = [float(c) for c in spec.get("coeffs", [])]
        if len(coeffs) > grid.dim:
            raise ConfigError(
                "weights", "coeffs", f"{len(coeffs)} coefficients for dim {grid.dim}"
            )
        values = np.full(grid.shape, const)
        for c, x in zip(coeffs, coords):
            values = values + c * x
    elif kind == "sinusoid":
        freqs = [float(f) for f in spec.get("freq", [1.0] * grid.dim)]
        phases = [float(t) for t in spec.get("phase", [0.0] * grid.dim)]
        for key, vals in (("freq", freqs), ("phase", phases)):
            if len(vals) != grid.dim:
                raise ConfigError("weights", key, f"need {grid.dim} values, got {len(vals)}")
        values = np.ones(grid.shape)
        for f, t, x in zip(freqs, phases, coords):
            values = values * np.sin(2.0 * math.pi * f * x + t)
    elif kind == "gaussians":
        values = _gaussian_pair(grid, spec)
    else:
        loaded = load_field(_required(spec, "path"))
        if loaded.grid != grid:
            raise ConfigError(
                "weights", "path", "node-value CSV grid does not match the run grid"
            )
        values = loaded.values

    weight = Field(grid, values)
    if not (np.any(weight.values > 0.0) and np.any(weight.values < 0.0)):
        logger.warning("weight of kind %r is not sign-changing on the grid", kind)
    return weight


def reject_unread(section: str, spec: dict, reads) -> None:
    """A config error at the first key of ``spec`` but ``kind`` that its kind does not read."""
    for key in spec:
        if key != "kind" and key not in reads:
            raise ConfigError(section, key, f"not read by kind {spec['kind']!r}")


def _required(spec: dict, key: str):
    if key not in spec:
        raise ConfigError("weights", key, f"{spec['kind']} weights require {key}")
    return spec[key]


def _gaussian(grid: Grid, center, sigma: float) -> np.ndarray:
    """Node values of exp(−|x − center|²/σ²)."""
    r2 = np.zeros(grid.shape)
    for c, x in zip(center, grid.coords()):
        r2 = r2 + (x - float(c)) ** 2
    return np.exp(-r2 / sigma**2)


def _gaussian_pair(grid: Grid, spec: dict) -> np.ndarray:
    def bump(side: str) -> np.ndarray:
        center = _required(spec, f"center_{side}")
        sigma = float(_required(spec, f"sigma_{side}"))
        if len(center) != grid.dim:
            raise ConfigError(
                "weights", f"center_{side}", f"center needs {grid.dim} coordinates"
            )
        if not MIN_WIDTH <= sigma <= MAX_LENGTH:
            raise ConfigError(
                "weights",
                f"sigma_{side}",
                f"Gaussian width must lie in [{MIN_WIDTH:g}, {MAX_LENGTH:g}], got {sigma:g}",
            )
        return _gaussian(grid, center, sigma)

    amp_pos = float(spec.get("amp_pos", 1.0))
    amp_neg = float(spec.get("amp_neg", 1.0))
    pos = bump("pos")
    neg = bump("neg")
    return amp_pos * pos - amp_neg * neg


def random_smooth_field(grid: Grid, rng: np.random.Generator, max_mode: int = 3) -> Field:
    """Seeded superposition of low-frequency sine products.

    Smooth trial fields are the desk-scale stand-in for H¹₀ functions; pure
    node noise is dominated by grid-scale modes and exercises nothing the
    theory speaks about.
    """
    values = np.zeros(grid.shape)
    modes = np.stack(
        np.meshgrid(*[np.arange(1, max_mode + 1)] * grid.dim, indexing="ij")
    ).reshape(grid.dim, -1)
    for idx in range(modes.shape[1]):
        k = modes[:, idx]
        amp = rng.standard_normal() / float(np.sum(k**2))
        term = np.ones(grid.shape)
        for axis in range(grid.dim):
            x = grid.axis_coords(axis) / grid.lengths[axis]
            shape = [1] * grid.dim
            shape[axis] = -1
            term = term * np.sin(math.pi * k[axis] * x).reshape(shape)
        values += amp * term
    return Field(grid, values)


# -- field CSV I/O -----------------------------------------------------------
#
# Format: header line "dim,n1..nN,L1..LN", then one node value per line in
# lexicographic (C) order.


def save_field(path: str, u: Field) -> None:
    grid = u.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [str(grid.dim)]
        header += [str(n) for n in grid.nodes]
        header += [repr(L) for L in grid.lengths]
        writer.writerow(header)
        for v in u.values.ravel(order="C"):
            writer.writerow([repr(float(v))])


def load_field(path: str) -> Field:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("field", path, "empty field CSV") from None
        try:
            dim = int(header[0])
            nodes = tuple(int(x) for x in header[1 : 1 + dim])
            lengths = tuple(float(x) for x in header[1 + dim : 1 + 2 * dim])
        except (IndexError, ValueError) as exc:
            raise ConfigError("field", path, f"malformed header: {header}") from exc
        if len(nodes) != dim or len(lengths) != dim:
            raise ConfigError("field", path, f"malformed header: {header}")
        try:
            grid = Grid(nodes=nodes, lengths=lengths)
        except ConfigError as err:
            raise ConfigError("field", path, f"header {header}: {err.message}") from None
        flat = []
        for row in reader:
            if not row:
                continue
            try:
                value = float(row[0]) if len(row) == 1 else math.nan
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                message = f"line {reader.line_num}: expected one finite number, got {row}"
                raise ConfigError("field", path, message)
            flat.append(value)
    if len(flat) != grid.size:
        raise ConfigError(
            "field", path, f"expected {grid.size} node values, found {len(flat)}"
        )
    values = np.asarray(flat).reshape(grid.shape, order="C")
    return Field(grid, values)
