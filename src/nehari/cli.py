"""Batch front end: config in, machine-readable reports out.

Subcommands: verify-phi, thresholds, fibering, solve, gradcheck.  All
reports are JSON with sorted keys and repr-exact floats, so identical
config and seed produce byte-identical files.  Exit codes: 0 success,
1 configuration error, 2 invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, PreparedRun, RunConfig, build_phi, parse_config, prepare_run
from .energy import energy, energy_gradient
from .errors import ConfigError, NehariError
from .fibering import classify, sample_ray
from .grid import Field, dirichlet_energy, load_field, random_smooth_field, save_field
from .phi import verify_hypotheses
from .solver import seed_field, solve_both
from .thresholds import admissibility

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2

GRADCHECK_DIRECTIONS = 20  # random directions of the central-difference check
GRADCHECK_TOLERANCE = 1e-6  # largest relative gap between the two derivatives

logger = logging.getLogger("nehari.cli")  # the same name under python -m nehari.cli


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_history_csv(path: Path, report) -> None:
    """One row per iterate; row 0 is the seed, which has no step."""

    def cell(values, i: int) -> str:
        return repr(values[i]) if 0 <= i < len(values) else ""

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "energy", "residual", "alpha", "backtracks", "t_star"])
        for i, e in enumerate(report.energy_history):
            writer.writerow(
                [
                    i,
                    repr(e),
                    cell(report.residual_history, i),
                    cell(report.alpha_history, i - 1),
                    cell(report.backtrack_history, i - 1),
                    repr(report.scale_history[i]),
                ]
            )


def _sobolev_dict(prep: PreparedRun) -> dict:
    return {
        repr(order): {
            "value": est.value,
            "method": est.method,
            "iterations": est.iterations,
            "note": "S (discrete estimate)",
        }
        for order, est in prep.sobolev.items()
    }


def cmd_verify_phi(run: RunConfig, out: Path, args) -> int:
    """Certify φ alone: reads ``[phi]``, q and p, and builds no problem."""
    model = build_phi(run.phi_spec)
    hypotheses = verify_hypotheses(model, run.q, run.p)
    report = hypotheses.as_dict()
    report["phi_kind"] = model.kind
    _write_json(out / "hypotheses.json", report)
    return EXIT_OK if hypotheses.all_pass else EXIT_INVARIANT


def cmd_thresholds(prep: PreparedRun, out: Path, args) -> int:
    if prep.thresholds is None:
        _write_json(
            out / "thresholds.json",
            {"error": "hypotheses not certified; thresholds undefined"},
        )
        return EXIT_INVARIANT
    lam = prep.problem.lam
    payload = prep.thresholds.as_dict()
    payload["lambda_resolved"] = lam
    payload["verdict"] = admissibility(lam, prep.thresholds)
    payload["delta_lambda_at_resolved"] = prep.thresholds.delta_lambda(lam)
    payload["sobolev"] = _sobolev_dict(prep)
    _write_json(out / "thresholds.json", payload)
    return EXIT_OK


def cmd_fibering(prep: PreparedRun, out: Path, args) -> int:
    cfg = prep.problem
    if args.field:
        u = load_field(args.field)
        if u.grid != cfg.grid:
            raise ConfigError("fibering", "--field", "field grid does not match config")
        source = args.field
    else:
        u = seed_field(cfg, "plus")
        source = "seed:plus"
    diag = classify(u, cfg)
    payload = diag.as_dict()
    payload["field_source"] = source
    payload["lambda"] = cfg.lam
    _write_json(out / "fibering.json", payload)
    table = sample_ray(u, cfg, np.logspace(-2, 2, 201))
    with open(out / "t_samples.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        names = ["t", "gamma", "gamma_dt", "gamma_dt2", "balance", "peak_eq"]
        writer.writerow(names)
        for i in range(len(table["t"])):
            writer.writerow([repr(table[name][i]) for name in names])
    return EXIT_OK


def cmd_solve(prep: PreparedRun, out: Path, args) -> int:
    """Solve both branches; the one place that refuses an inadmissible λ."""
    cfg = prep.problem
    if prep.thresholds is not None:
        verdict = admissibility(cfg.lam, prep.thresholds)
    else:
        verdict = "unknown"
    if verdict == "inadmissible" and not args.force:
        _write_json(
            out / "solve.json",
            {
                "error": f"lambda {cfg.lam!r} is inadmissible; rerun with --force to proceed",
                "lambda": cfg.lam,
                "verdict": verdict,
            },
        )
        return EXIT_INVARIANT
    if verdict == "marginal":
        logger.warning(
            "lambda %g is marginal (lambda0 %g): branch guarantees may fail",
            cfg.lam,
            prep.thresholds.lambda0,
        )

    pair = solve_both(cfg, thresholds=prep.thresholds)
    payload = pair.as_dict()
    payload["lambda"] = cfg.lam
    payload["verdict"] = verdict

    ok = not pair.failures and pair.ordering_ok is True
    for name, report in (("minus", pair.minus), ("plus", pair.plus)):
        if report is None:
            continue
        save_field(str(out / f"{name}_field.csv"), report.point.field)
        _write_history_csv(out / f"history_{name}.csv", report)
        inv = report.invariants
        ok = ok and report.converged and inv["energy_sign_ok"] and inv["gamma2_sign_ok"]
        ok = ok and inv.get("delta_lambda_bound_ok", True)  # minus, with thresholds
    _write_json(out / "solve.json", payload)
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_gradcheck(prep: PreparedRun, out: Path, args) -> int:
    cfg = prep.problem
    rng = np.random.default_rng(prep.run.seed)
    u = random_smooth_field(cfg.grid, rng)
    # |u|^{q+1} has a kink at u = 0: a step this small straddles it at few nodes
    step = 1e-7 * (1.0 + math.sqrt(dirichlet_energy(u)))
    grad = energy_gradient(u, cfg)
    worst = 0.0
    for _ in range(GRADCHECK_DIRECTIONS):
        v = rng.standard_normal(cfg.grid.shape)
        analytic = float(np.vdot(grad, v))
        plus = energy(Field(cfg.grid, u.values + step * v), cfg)
        minus = energy(Field(cfg.grid, u.values - step * v), cfg)
        fd = (plus - minus) / (2.0 * step)
        worst = max(worst, abs(analytic - fd) / (1.0 + abs(fd)))
    payload = {
        "directions": GRADCHECK_DIRECTIONS,
        "fd_step": step,
        "max_relative_error": worst,
        "tolerance": GRADCHECK_TOLERANCE,
        "pass": worst <= GRADCHECK_TOLERANCE,
    }
    _write_json(out / "gradcheck.json", payload)
    return EXIT_OK if payload["pass"] else EXIT_INVARIANT


COMMANDS = {
    "verify-phi": cmd_verify_phi,
    "thresholds": cmd_thresholds,
    "fibering": cmd_fibering,
    "solve": cmd_solve,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nehari",
        description="Two-branch Nehari manifold solver for a quasilinear "
        "concave-convex Dirichlet problem.",
    )
    parser.add_argument(
        "command", choices=sorted(COMMANDS), help="subcommand to run"
    )
    parser.add_argument("--config", help="path to the INI config (defaults used if omitted)")
    parser.add_argument("--out", help="output directory (overrides [output] dir)")
    parser.add_argument(
        "--force", action="store_true", help="run solve even for inadmissible lambda"
    )
    parser.add_argument(
        "--field", help="input field CSV for the fibering subcommand"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        text = DEFAULT_CONFIG if args.config is None else Path(args.config).read_text()
        run = parse_config(text)
        prep = run if args.command == "verify-phi" else prepare_run(run)
        out = Path(args.out) if args.out else Path(run.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](prep, out, args)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NehariError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
