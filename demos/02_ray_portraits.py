"""Portraits of the energy along rays t -> J(t*u).

For a fixed field u the whole one-dimensional picture is decided by the
signs of two weighted integrals: A = int a|u|^{q+1} (concave side) and
B = int b|u|^{p+1} (convex side).  The balance curve m(t) crosses the level
lambda*A exactly at the scalings that put t*u on the Nehari manifold; a
crossing on the rising side of the balance curve is a local minimum of the
ray energy, one on the falling side a maximum.  This script builds one
field per sign case and prints the resulting diagnosis plus a coarse table
of the ray energy.
"""

import numpy as np

from nehari.energy import ProblemConfig, energy
from nehari.fibering import classify, sample_ray
from nehari.grid import Field, Grid, integrate, pointwise_energy, random_smooth_field
from nehari.phi import stuart_model

grid = Grid(nodes=(7, 7, 7), lengths=(1.0, 1.0, 1.0))
rng = np.random.default_rng(0)
u = random_smooth_field(grid, rng)
u = u.scaled(1.0 / integrate(grid, pointwise_energy(u)) ** 0.5)  # unit energy

portraits = [
    ("both weights negative on the field", -1.0, -1.0, 60.0),
    ("concave positive, convex negative", +1.0, -1.0, 60.0),
    ("concave negative, convex positive", -1.0, +1.0, 60.0),
    ("both positive, moderate lambda", +1.0, +1.0, 60.0),
    ("both positive, lambda too large", +1.0, +1.0, 60000.0),
]

def build(sa, sb, lam):
    a = Field(grid, np.full(grid.shape, sa))
    b = Field(grid, np.full(grid.shape, sb))
    return ProblemConfig(
        grid=grid, phi=stuart_model(6.0), a=a, b=b, lam=lam, q=0.5, p=3.0
    )

for label, sa, sb, lam in portraits:
    cfg = build(sa, sb, lam)
    diag = classify(u, cfg)
    print(f"{label} (lambda = {lam:g}):")
    print(f"  case = {diag.case}")
    print(f"  A = {diag.concave:+.5f}, B = {diag.convex:+.5f}")
    for t_root, sign in diag.roots:
        kind = {1: "local minimum", -1: "global maximum", 0: "tangency"}[sign]
        print(
            f"  crossing at t = {t_root:10.5f}: {kind} of the ray energy, "
            f"J = {energy(u.scaled(t_root), cfg):+.5f}"
        )
    if not diag.roots:
        print("  no crossing: the ray never meets the manifold")
    if diag.t_tilde is not None:
        print(f"  balance peak at t = {diag.t_tilde:.5f}")
    ts = [0.25, 1.0, 4.0, 16.0]
    vals = ", ".join(f"J({t:g}u) = {energy(u.scaled(t), cfg):+.4f}" for t in ts)
    print(f"  ray energy samples: {vals}")
    print()

print("A dense (t, gamma, gamma', gamma'', m, eta) table for plotting can be")
print("produced with fibering.sample_ray or the `nehari fibering` subcommand:")
table = sample_ray(u, build(1.0, 1.0, 60.0), np.logspace(-1, 1.5, 6))
for i, t in enumerate(table["t"]):
    print(
        f"  t = {t:7.3f}: gamma = {table['gamma'][i]:+10.5f}, "
        f"gamma' = {table['gamma_dt'][i]:+10.5f}, balance = {table['balance'][i]:+10.5f}"
    )
