"""Discrete embedding constants and the admissibility window for lambda.

The two ceilings lambda1 (empty degenerate manifold) and lambda2 (positive
floor for the falling branch) are built from the certified coefficient
bounds and from discrete Sobolev constants, the maxima of the ratio
||u||_i / |u|_{H1}, computed by the nonlinear inverse power iteration
u <- (-Delta_h)^{-1}(|u|^{i-2} u).  The script compares the i = 2
constant with its continuum limit 1/(pi sqrt(3)) on the unit cube, then
walks lambda through the window and prints the verdicts and the floor
delta_lambda.
"""

import math

from nehari.config import parse_config, prepare_run
from nehari.grid import Grid, estimate_sobolev
from nehari.thresholds import admissibility

print("Discrete Sobolev constants on the unit cube (order 2):")
for n in (7, 9, 13, 17):
    est = estimate_sobolev(Grid(nodes=(n, n, n), lengths=(1.0, 1.0, 1.0)), 2.0)
    continuum = 1.0 / (math.pi * math.sqrt(3.0))
    print(
        f"  {n:2d}^3 grid: S_2 = {est.value:.6f} "
        f"({est.iterations:3d} inverse-power steps, continuum {continuum:.6f}, "
        f"dev {abs(est.value - continuum) / continuum:.2%})"
    )
print()

run = parse_config(
    """
[phi]
kind = stuart_example
offset = 6.0

[grid]
nodes = 9

[problem]
lambda = auto:0.5
"""
)
prep = prepare_run(run)
th = prep.thresholds
print("Thresholds for the stuart family (offset 6) on the 9^3 cube:")
print(f"  lambda1 = {th.lambda1:.6f}   (below it the degenerate set is empty)")
print(f"  lambda2 = {th.lambda2:.6f}   (below it the falling branch stays above a floor)")
print(f"  lambda0 = {th.lambda0:.6f}   = min of the two")
print(f"  delta   = {th.delta:.6f}, c1 = {th.c1:.6f}")
print(f"  resolved lambda (auto:0.5) = {prep.problem.lam:.6f}")
print()

print("Walking lambda through the window:")
for frac in (0.1, 0.5, 0.99, 1.0, 1.5, 3.0):
    lam = frac * th.lambda0
    verdict = admissibility(lam, th)
    delta = th.delta_lambda(lam)
    floor = "delta_lambda undefined (lambda > lambda2)"
    if delta is not None:
        floor = f"delta_lambda = {delta:9.4f}"
    print(f"  lambda = {lam:9.4f} ({frac:4.2f} * lambda0): {verdict:12s} {floor}")
