"""End to end: the two solutions on the reference problem.

For admissible lambda the energy has a negative-energy minimizer on the
rising Nehari branch (the ground state) and a positive-energy minimizer on
the falling branch.  This script runs both projected-descent minimizations
on the 9^3 reference problem for the two built-in coefficient families and
prints the resulting energies, residuals, and the invariant checklist.
"""

from pathlib import Path

from nehari.config import parse_config, prepare_run
from nehari.solver import solve_both

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

for name in ("reference_constant.ini", "reference_stuart.ini"):
    run = parse_config((CONFIG_DIR / name).read_text())
    prep = prepare_run(run)
    print(f"=== {name} (lambda = {prep.problem.lam:.4f} = 0.5 * lambda0) ===")
    pair = solve_both(prep.problem, thresholds=prep.thresholds)
    for branch, rep in (("rising (ground state)", pair.plus), ("falling", pair.minus)):
        point = rep.point
        print(f"  {branch} branch:")
        print(
            f"    energy {point.energy:+.6e}, second ray derivative {point.gamma2:+.3e}"
        )
        print(
            f"    {rep.iterations} iterations, final residual "
            f"{rep.residual_history[-1]:.2e}, converged = {rep.converged}"
        )
        checks = ", ".join(
            f"{k} = {v}" for k, v in sorted(rep.invariants.items()) if isinstance(v, bool)
        )
        print(f"    checks: {checks}")
    print(f"  energy ordering (ground state below, signs opposite): {pair.ordering_ok}")
    print()

print("The same runs are available from the command line:")
print("  nehari solve --config configs/reference_stuart.ini --out out/")
