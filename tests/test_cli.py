import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nehari.cli import GRADCHECK_DIRECTIONS, GRADCHECK_TOLERANCE, main
from nehari.config import build_phi, parse_config, prepare_run
from nehari.errors import ConfigError
from nehari.fibering import project
from nehari.grid import (
    MIN_LENGTH,
    MIN_WIDTH,
    Field,
    integrate,
    make_weight,
    pointwise_energy,
    save_field,
)
from nehari.solver import seed_field

from conftest import CONFIG_DIR, problem_class_draws

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

QUICK = """\
[phi]
kind = stuart_example
offset = 6.0

[grid]
dim = 3
nodes = 5
lengths = 1.0

[problem]
q = 0.5
p = 3.0
lambda = auto:0.5

[solver]
seed = 3
"""


def write_quick(tmp_path, extra=""):
    path = tmp_path / "run.ini"
    path.write_text(QUICK + extra)
    return str(path)


def test_parse_defaults():
    run = parse_config("")
    assert run.grid.nodes == (17, 17, 17)
    assert run.grid.lengths == (1.0, 1.0, 1.0)
    assert run.phi_spec == {"kind": "constant", "value": 1.0}
    assert run.lam_mode == "auto" and run.lam_value == 0.5
    assert run.q == 0.5 and run.p == 3.0
    assert run.residual_tol == 1e-6
    assert run.max_iter == 5000 and run.seed == 0


def test_parse_rejects_bad_exponents():
    # p = 5 gives p+1 = 6 = 2* in 3-D
    for key, value in (("q", "1.2"), ("q", "0"), ("q", "1"), ("p", "1"), ("p", "5")):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[problem]\n{key} = {value}\n")
        assert str(err.value).startswith(f"[problem] {key}: "), value
        if key == "p":
            assert "2* = 6" in str(err.value)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("[problem]\nfoo = 1\n")
    assert "foo" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"^\[DEFAULT\] -: unknown section"):
        parse_config("[DEFAULT]\nvalue = 2.0\n[phi]\nkind = constant\n")


def test_parse_rejects_bad_lambda():
    with pytest.raises(ConfigError):
        parse_config("[problem]\nlambda = -2\n")
    with pytest.raises(ConfigError):
        parse_config("[problem]\nlambda = auto:nope\n")


def test_verify_phi_subcommand(tmp_path):
    cfgp = write_quick(tmp_path)
    out = tmp_path / "out1"
    assert main(["verify-phi", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "hypotheses.json").read_text())
    assert report["all_pass"] is True
    assert report["constants"]["rho2"] <= 584901.0 / 800000.0 + 1e-9


def test_verify_phi_failing_model(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[phi]\nkind = stuart_example\noffset = 1.0\n")
    out = tmp_path / "out2"
    assert main(["verify-phi", "--config", str(path), "--out", str(out)]) == 2
    report = json.loads((out / "hypotheses.json").read_text())
    assert report["all_pass"] is False


def test_thresholds_subcommand(tmp_path):
    cfgp = write_quick(tmp_path)
    out = tmp_path / "out3"
    assert main(["thresholds", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "thresholds.json").read_text())
    assert report["lambda0"] == min(report["lambda1"], report["lambda2"])
    assert report["verdict"] == "admissible"
    assert report["lambda_resolved"] == pytest.approx(0.5 * report["lambda0"])


def test_gradcheck_subcommand(tmp_path):
    cfgp = write_quick(tmp_path)
    out = tmp_path / "out4"
    code = main(["gradcheck", "--config", cfgp, "--out", str(out)])
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["directions"] == GRADCHECK_DIRECTIONS
    assert report["tolerance"] == GRADCHECK_TOLERANCE
    # the exit code is read from the report's verdict
    assert (code == 0) == report["pass"]
    assert report["pass"] is True
    assert report["max_relative_error"] <= GRADCHECK_TOLERANCE


def test_fibering_subcommand_with_field(tmp_path):
    cfgp = write_quick(tmp_path)
    run = parse_config(Path(cfgp).read_text())
    prep = prepare_run(run)
    u = seed_field(prep.problem, "plus")
    field_path = tmp_path / "field.csv"
    save_field(str(field_path), u)
    out = tmp_path / "out5"
    assert (
        main(
            [
                "fibering",
                "--config",
                cfgp,
                "--out",
                str(out),
                "--field",
                str(field_path),
            ]
        )
        == 0
    )
    report = json.loads((out / "fibering.json").read_text())
    assert report["field_source"] == str(field_path)
    assert report["case"] in (
        "neither_positive",
        "concave_only",
        "convex_only",
        "both_positive_no_root",
        "both_positive_tangent",
        "both_positive_two_roots",
    )
    assert (out / "t_samples.csv").exists()


def test_fibering_subcommand_seeded(tmp_path):
    cfgp = write_quick(tmp_path)
    out = tmp_path / "out6"
    assert main(["fibering", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "fibering.json").read_text())
    assert report["field_source"] == "seed:plus"
    assert any(r["gamma2_sign"] == 1 for r in report["roots"])


def test_solve_subcommand_and_reports(tmp_path):
    cfgp = write_quick(tmp_path)
    out = tmp_path / "out7"
    assert main(["solve", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "solve.json").read_text())
    assert report["ordering_ok"] is True
    assert report["plus"]["point"]["energy"] < 0.0 < report["minus"]["point"]["energy"]
    assert (out / "plus_field.csv").exists()
    assert (out / "minus_field.csv").exists()
    assert (out / "history_plus.csv").exists()
    # wall time never appears in the byte-compared reports
    assert "wall_time" not in (out / "solve.json").read_text()


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[problem]\nq = 2.0\n")
    assert main(["thresholds", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert main(["solve", "--config", str(tmp_path / "missing.ini")]) == 1


@pytest.mark.parametrize("case", ["config-is-dir", "field-is-dir", "out-is-file"])
def test_path_errors_are_config_errors(tmp_path, capsys, case):
    # a directory where a file is read, or a file where the output directory
    # goes: exit 1 with the OS error's text, no traceback
    cfgp = write_quick(tmp_path)
    out = str(tmp_path / "o")
    args = {
        "config-is-dir": ["solve", "--config", str(tmp_path), "--out", out],
        "field-is-dir": ["fibering", "--config", cfgp, "--field", str(tmp_path), "--out", out],
        "out-is-file": ["verify-phi", "--config", cfgp, "--out", cfgp],
    }[case]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def test_reports_are_byte_identical(tmp_path):
    cfgp = write_quick(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["solve", "--config", cfgp, "--out", str(out)]) == 0
        assert main(["thresholds", "--config", cfgp, "--out", str(out)]) == 0
        assert main(["gradcheck", "--config", cfgp, "--out", str(out)]) == 0
        outs.append(out)
    for fname in (
        "solve.json",
        "thresholds.json",
        "gradcheck.json",
        "plus_field.csv",
        "minus_field.csv",
        "history_plus.csv",
        "history_minus.csv",
    ):
        b1 = (outs[0] / fname).read_bytes()
        b2 = (outs[1] / fname).read_bytes()
        assert b1 == b2, fname


def test_tabulated_phi_via_config(tmp_path):
    import csv as _csv

    from nehari.phi import stuart_model

    base = stuart_model(6.0)
    s = np.concatenate([[0.0], np.logspace(-4, 7, 2000)])
    table = tmp_path / "phi.csv"
    with open(table, "w", newline="") as fh:
        writer = _csv.writer(fh)
        for si, pi in zip(s, base.phi(s)):
            writer.writerow([repr(float(si)), repr(float(pi))])
    cfgp = tmp_path / "tab.ini"
    cfgp.write_text(
        f"[phi]\nkind = tabulated\ntable = {table}\n"
        "[grid]\ndim = 3\nnodes = 5\nlengths = 1.0\n"
        "[problem]\nq = 0.5\np = 3.0\nlambda = 1.0\n"
    )
    out = tmp_path / "out_tab"
    assert main(["verify-phi", "--config", str(cfgp), "--out", str(out)]) == 0
    report = json.loads((out / "hypotheses.json").read_text())
    assert report["phi_kind"] == "tabulated"
    for name in ("phi1", "phi3", "phi4", "phi7"):
        assert report["passes"][name], name


def test_solve_refuses_inadmissible_without_force(tmp_path, caplog):
    cfgp = tmp_path / "hot.ini"
    cfgp.write_text(QUICK.replace("lambda = auto:0.5", "lambda = 1e6"))
    out = tmp_path / "out_hot"
    assert main(["solve", "--config", str(cfgp), "--out", str(out)]) == 2
    assert (out / "solve.json").read_text() == (
        "{\n"
        '  "error": "lambda 1000000.0 is inadmissible; rerun with --force to proceed",\n'
        '  "lambda": 1000000.0,\n'
        '  "verdict": "inadmissible"\n'
        "}\n"
    )
    # the command is the only gate: with --force the library solves at this λ
    main(["solve", "--config", str(cfgp), "--out", str(out), "--force"])
    report = json.loads((out / "solve.json").read_text())
    assert {"minus", "plus", "failures"} <= set(report) and "error" not in report
    assert report["verdict"] == "inadmissible"
    # its minus branch stops where the line search finds no decrease; after
    # 1082 failed projections the count follows t* at the 1e-11 level and
    # which trial rays read as tangent
    minus = report["minus"]
    assert (minus["stop_reason"], minus["iterations"], minus["converged"]) == (
        "no_decrease",
        26,
        False,
    )
    assert "branch minus stopped (no_decrease) after 26 iterations" in caplog.text
    # each failed projection is counted under its reason, and only there
    counters = minus["counters"]
    reasons = counters["failed_projection_reasons"]
    assert counters["failed_projections"] > 1000
    assert sum(reasons.values()) == counters["failed_projections"]
    assert set(reasons) <= {
        "balance peak below the concave level (no crossing)",
        "ray is tangent to the manifold",
    }


@pytest.mark.parametrize("length", ["1e-100", "1e60"])
def test_thresholds_on_far_boxes_are_positive_and_finite(tmp_path, length):
    # the Sobolev iteration runs on the box scaled to order 1, so neither a
    # tiny nor a huge box gives S = inf (and λ₀ = 0) or an overflow
    cfgp = tmp_path / "far.ini"
    cfgp.write_text(QUICK.replace("lengths = 1.0", f"lengths = {length}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["thresholds", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "thresholds.json").read_text())
    assert 0.0 < report["lambda0"] < math.inf
    for estimate in report["sobolev"].values():
        assert 0.0 < estimate["value"] < math.inf


def test_sobolev_constant_beyond_the_float_range_is_named(tmp_path, capsys):
    # on a 6-D box of side 1e100, S of order 1.1 scales like 1e100^3.45: the
    # run stops with that reason, not with an OverflowError
    cfgp = tmp_path / "six.ini"
    cfgp.write_text("[grid]\ndim = 6\nnodes = 3\nlengths = 1e100\n[problem]\nq = 0.1\np = 1.5\n")
    assert main(["thresholds", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: Sobolev constant of order 1.1 overflows a float on this box" in err


@pytest.mark.parametrize(
    "extra",
    [
        # λ₁ overflows: the parent blamed an unset λ, or wrote "lambda0": Infinity
        pytest.param("lengths = 1e-130\n", id="1e-130-auto"),
        pytest.param("lengths = 1e-130\n[problem]\nlambda = 1.0\n", id="1e-130-fixed"),
        # the embedding term of a underflows to 0: the parent divided by it
        pytest.param("lengths = 1e-150\n", id="1e-150"),
    ],
)
def test_thresholds_beyond_the_float_range_are_named(tmp_path, capsys, extra):
    cfgp = tmp_path / "tiny.ini"
    cfgp.write_text("[grid]\nnodes = 5\n" + extra)
    assert main(["thresholds", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: lambda1 overflows a float on this box" in err
    assert "Traceback" not in err
    assert not (tmp_path / "thresholds.json").exists()


@pytest.mark.parametrize(
    "length, failed",
    [
        # the minus branch runs and stops at no_decrease; every plus seed
        # projects to t* ~ 1e-299, whose field's energy leaves the float range
        pytest.param("1e60", {"plus": "SeedingError"}, id="1e60"),
        # the seeds' energy density ~1e200 would overflow when squared
        pytest.param("1e-100", {"minus": "DomainError", "plus": "DomainError"}, id="1e-100"),
    ],
)
def test_solve_on_a_far_box_names_each_failure_without_a_traceback(tmp_path, length, failed):
    # no ray walk is capped: a far box runs until its rays leave the float
    # range, and the run exits 2 with no traceback or RuntimeWarning, each
    # failure named in solve.json and on stderr
    cfgp = tmp_path / "far.ini"
    cfgp.write_text(QUICK.replace("lengths = 1.0", f"lengths = {length}"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "nehari.cli", "solve", "--force", "--config", str(cfgp)]
        + ["--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2, done.stderr[-2000:]
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    report = json.loads((out / "solve.json").read_text())
    failures = {k: v for k, v in report["failures"].items() if not k.endswith("_diagnosis")}
    assert sorted(failures) == sorted(failed)
    for branch, message in failures.items():
        assert f"branch {branch} failed: {failed[branch]}: {message}" in done.stderr
        assert "cap" not in message
        assert report[branch] is None
    for branch in set(("minus", "plus")) - set(failed):
        assert report[branch]["stop_reason"] in ("converged", "max_iter", "no_decrease")


def test_fibering_of_a_faint_field_keeps_its_case(tmp_path):
    # at amplitude 1e-150 the field's √E is 1e-150 and √E^{p+1} underflows to
    # 0: the unit ray still builds, and the case is that of the field at
    # amplitude 1, as the case does not depend on the scale
    cfgp = write_quick(tmp_path)
    prep = prepare_run(parse_config(Path(cfgp).read_text()))
    u = seed_field(prep.problem, "plus")
    cases = []
    for amplitude in (1.0, 1e-150):
        field_path = tmp_path / "field.csv"
        save_field(str(field_path), Field(u.grid, amplitude * u.values))
        out = tmp_path / f"out{amplitude:g}"
        argv = ["fibering", "--config", cfgp, "--out", str(out), "--field", str(field_path)]
        assert main(argv) == 0
        cases.append(json.loads((out / "fibering.json").read_text())["case"])
    assert cases[0] == cases[1]


def test_failed_branch_is_named_on_stderr(tmp_path):
    # a weight a < 0 everywhere leaves the plus branch unreachable: the run
    # exits 2, and stderr names the branch, the error type and its message
    cfgp = tmp_path / "no_plus.ini"
    cfgp.write_text(
        "[grid]\nnodes = 7\n\n[weights.a]\nkind = affine\nconst = -1.0\n\n"
        "[problem]\nlambda = 1.0\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    out = str(tmp_path / "o")
    done = subprocess.run(
        [sys.executable, "-m", "nehari.cli", "solve", "--config", str(cfgp), "--out", out],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2, done.stderr[-2000:]
    report = json.loads((Path(out) / "solve.json").read_text())
    assert list(report["failures"]) == ["plus"]
    assert (
        f"WARNING nehari.solver: branch plus failed: SeedingError: {report['failures']['plus']}"
        in done.stderr.splitlines()
    )


def test_negative_seed_is_a_config_error(tmp_path):
    # numpy's generators reject a negative seed; the config does so first,
    # so gradcheck exits 1 with the key named and no traceback
    cfgp = str(tmp_path / "run.ini")
    Path(cfgp).write_text(QUICK.replace("seed = 3", "seed = -1"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    out = str(tmp_path / "o")
    done = subprocess.run(
        [sys.executable, "-m", "nehari.cli", "gradcheck", "--config", cfgp, "--out", out],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stderr[-2000:]
    assert "config error: [solver] seed: " in done.stderr
    assert "Traceback" not in done.stderr


PHI_ROWS = "0.0,1.0\n1.0,1.0\n2.0,1.0\n"
BAD_PHI_TABLES = {
    "short.csv": PHI_ROWS,  # 3 samples, 4 needed
    "column.csv": PHI_ROWS + "3.0\n",
    "nan.csv": PHI_ROWS + "3.0,nan\n",
}


@pytest.mark.parametrize(
    "text, address",
    [
        pytest.param("[problem]\nlambda = nan\n", "[problem] lambda", id="lambda-nan"),
        pytest.param("[problem]\nlambda = auto:inf\n", "[problem] lambda", id="auto-inf"),
        pytest.param("[problem]\nlambda = 0\n", "[problem] lambda", id="lambda-zero"),
        pytest.param("[problem]\nlambda = abc\n", "[problem] lambda", id="lambda-word"),
        pytest.param("[problem]\nlambda = auto:0\n", "[problem] lambda", id="auto-zero"),
        pytest.param("[problem]\nlambda = auto:-1\n", "[problem] lambda", id="auto-negative"),
        pytest.param(
            "[grid]\nnodes = 5 5\n", "[grid] nodes: need 1 or 3 values", id="nodes-count"
        ),
        pytest.param(
            "[grid]\nnodes = 5\nlengths = 1 1\n",
            "[grid] lengths: need 1 or 3 values",
            id="lengths-count",
        ),
        # a weight that is zero at every node is its own section's error,
        # not an undefined threshold
        pytest.param(
            "[grid]\nnodes = 5\n[weights.a]\nkind = affine\nconst = 0\n",
            "[weights.a] -: weight is zero at every node",
            id="weights-a-zero",
        ),
        pytest.param("[grid]\nnodes = inf\n", "[grid] nodes", id="nodes-inf"),
        pytest.param("[grid]\nnodes = nan\n", "[grid] nodes", id="nodes-nan"),
        pytest.param("[grid]\nnodes = 9.7\n", "[grid] nodes", id="nodes-fraction"),
        pytest.param("[grid]\nnodes = 5\nlengths = nan\n", "[grid] lengths", id="length-nan"),
        # the weights and the seeds are Gaussians whose σ² must be a normal
        # float: the default σ is 0.18·min L
        pytest.param(
            "[grid]\nnodes = 5\nlengths = 1e308\n",
            "[grid] lengths: side lengths must be at most 1e+100",
            id="length-huge",
        ),
        pytest.param(
            "[grid]\nnodes = 5\nlengths = 1e-160\n",
            "[grid] lengths: side lengths must be at least 1e-152, got 1e-160",
            id="length-tiny",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[weights.a]\nsigma_pos = 1e-200\n",
            "[weights.a] sigma_pos: Gaussian width must lie in [1e-153, 1e+100]",
            id="weights-a-sigma-tiny",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[solver]\nresidual_tol = nan\n",
            "[solver] residual_tol",
            id="residual_tol-nan",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[solver]\nresidual_tol = -1\n",
            "[solver] residual_tol",
            id="residual_tol-negative",
        ),
        pytest.param("[phi]\nvalue = -1\n[grid]\nnodes = 5\n", "[phi] value", id="phi-value"),
        pytest.param(
            "[phi]\nkind = stuart_example\noffset = -2\n[grid]\nnodes = 5\n",
            "[phi] offset",
            id="phi-offset",
        ),
        pytest.param(
            "[phi]\nkind = tabulated\ntable = TMP/short.csv\n[grid]\nnodes = 5\n",
            "[phi] table",
            id="phi-table-short",
        ),
        pytest.param(
            "[phi]\nkind = tabulated\ntable = TMP/column.csv\n[grid]\nnodes = 5\n",
            "[phi] table",
            id="phi-table-column",
        ),
        pytest.param(
            "[phi]\nkind = tabulated\ntable = TMP/nan.csv\n[grid]\nnodes = 5\n",
            "[phi] table",
            id="phi-table-nan",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[weights.a]\nsigma_pos = 0\n",
            "[weights.a] sigma_pos",
            id="weights-a-sigma",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[weights.b]\nsigma_neg = -0.1\n",
            "[weights.b] sigma_neg",
            id="weights-b-sigma",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[weights.b]\nsigma_neg = 1e200\n",
            "[weights.b] sigma_neg",
            id="weights-b-sigma-huge",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[weights.b]\nkind = affine\ncoeffs = 1 1 1 1\n",
            "[weights.b] coeffs",
            id="weights-b-coeffs",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[weights.a]\nkind = sinusoid\nphase = 0 0\n",
            "[weights.a] phase",
            id="weights-a-phase",
        ),
        pytest.param(
            "[grid]\nnodes = 9.5\n",
            "[grid] nodes: node counts must be whole numbers",
            id="nodes-fractional",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[solver]\nroot_tol = 1e-12\n",
            "[solver] root_tol: unknown key",
            id="root_tol-unknown",
        ),
        pytest.param(
            "[grid]\nnodes = 5\n[output]\nt_samples = true\n",
            "[output] t_samples: unknown key",
            id="t_samples-unknown",
        ),
    ],
)
def test_bad_config_values_are_config_errors(tmp_path, capsys, text, address):
    for name, rows in BAD_PHI_TABLES.items():
        (tmp_path / name).write_text(rows)
    path = tmp_path / "bad.ini"
    path.write_text(text.replace("TMP", str(tmp_path)))
    out = tmp_path / "o"
    assert main(["thresholds", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {address}" in err
    assert "Traceback" not in err
    assert not (out / "thresholds.json").exists()


def test_marginal_lambda_warns_once_per_run(tmp_path, caplog):
    # λ = 1.2·λ0 lies between λ0 = 153.8 and max(λ1, λ2) = 253.6 on this grid
    cfgp = tmp_path / "marginal.ini"
    cfgp.write_text(QUICK.replace("lambda = auto:0.5", "lambda = auto:1.2"))
    assert main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "solve.json").read_text())
    assert report["verdict"] == "marginal"
    warnings = [r for r in caplog.records if "marginal" in r.getMessage()]
    assert [(r.name, r.levelname) for r in warnings] == [("nehari.cli", "WARNING")]


def test_solve_exits_2_below_the_delta_lambda_floor(tmp_path, monkeypatch):
    import nehari.cli as cli

    solve_both = cli.solve_both

    def below_floor(*args, **kwargs):
        pair = solve_both(*args, **kwargs)
        assert pair.minus.invariants["delta_lambda_bound_ok"]
        pair.minus.invariants["delta_lambda_bound_ok"] = False
        return pair

    monkeypatch.setattr(cli, "solve_both", below_floor)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_quick(tmp_path), "--out", str(out)]) == 2
    payload = json.loads((out / "solve.json").read_text())
    assert payload["minus"]["invariants"]["delta_lambda_bound_ok"] is False


def test_delta_lambda_is_null_above_lambda2(tmp_path):
    # λ0 = λ2 = 153.8 on this grid: auto:1.2 lies above λ2, auto:0.5 below
    for lam, above in (("auto:1.2", True), ("auto:0.5", False)):
        cfgp = tmp_path / "run.ini"
        cfgp.write_text(QUICK.replace("lambda = auto:0.5", f"lambda = {lam}"))
        out = tmp_path / lam
        for command in ("thresholds", "solve"):
            assert main([command, "--config", str(cfgp), "--out", str(out)]) == 0, lam
        floor = json.loads((out / "thresholds.json").read_text())["delta_lambda_at_resolved"]
        invariants = json.loads((out / "solve.json").read_text())["minus"]["invariants"]
        assert invariants["delta_lambda_floor"] == floor
        if above:
            assert floor is None and "delta_lambda_bound_ok" not in invariants
        else:
            assert floor > 0.0 and invariants["delta_lambda_bound_ok"] is True


def test_default_config_commands_exit_0(tmp_path):
    # the default 17³ config: every command but solve, with no --config
    for command in ("verify-phi", "thresholds", "fibering", "gradcheck"):
        assert main([command, "--out", str(tmp_path)]) == 0, command
    report = json.loads((tmp_path / "gradcheck.json").read_text())
    assert report["pass"] is True


@pytest.mark.parametrize(
    "grid, centers, sigma",
    [
        pytest.param("dim = 2\nnodes = 5\n", ([0.3, 0.5], [0.7, 0.5]), 0.18, id="2d"),
        pytest.param(
            "nodes = 5\nlengths = 2.0\n", ([0.6, 1.0, 1.0], [1.4, 1.0, 1.0]), 0.36, id="L2"
        ),
    ],
)
def test_partial_weights_section_keeps_grid_defaults(grid, centers, sigma):
    run = parse_config(f"[grid]\n{grid}[weights.a]\nsigma_pos = 0.1\n")
    spec = run.weight_a_spec
    assert spec["kind"] == "gaussians"
    assert (spec["center_pos"], spec["center_neg"]) == centers
    assert (spec["sigma_pos"], spec["sigma_neg"]) == (0.1, sigma)
    omitted = parse_config(f"[grid]\n{grid}")
    assert {**omitted.weight_a_spec, "sigma_pos": 0.1} == spec
    assert omitted.weight_b_spec == run.weight_b_spec
    a = prepare_run(run).problem.a.values
    assert a.min() < 0.0 < a.max()  # sign-changing


def test_omitted_weights_equal_the_reference_sections():
    text = (CONFIG_DIR / "reference_constant.ini").read_text()
    start, end = text.index("[weights.a]"), text.index("[problem]")
    assert "[weights.b]" in text[start:end]
    spelled = prepare_run(parse_config(text))
    omitted = prepare_run(parse_config(text[:start] + text[end:]))
    for name in ("a", "b"):
        assert np.array_equal(
            getattr(omitted.problem, name).values, getattr(spelled.problem, name).values
        ), name
    assert omitted.problem.lam == spelled.problem.lam


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "stuart_example"}, "offset"),
        ({"kind": "tabulated"}, "table"),
        ({"kind": "constant"}, "value"),
        ({"kind": "quadratic", "value": 1.0}, "kind"),
    ],
)
def test_build_phi_names_the_missing_key(spec, key):
    with pytest.raises(ConfigError) as err:
        build_phi(spec)
    assert (err.value.section, err.value.key) == ("phi", key)


def test_bad_kinds_fail_when_built(tmp_path, capsys):
    # kinds are checked by their builders: parse_config accepts the names,
    # every command that builds them exits 1 with the same address
    weights = "[grid]\nnodes = 5\n[weights.b]\nkind = triangle\n"
    phi = "[grid]\nnodes = 5\n[phi]\nkind = quadratic\n"
    for text, address, commands in (
        (weights, "[weights.b] kind", ("thresholds", "fibering", "solve", "gradcheck")),
        (phi, "[phi] kind", ("verify-phi", "thresholds", "fibering", "solve", "gradcheck")),
    ):
        parse_config(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        for command in commands:
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            assert f"config error: {address}" in capsys.readouterr().err
    path.write_text(weights)
    assert main(["verify-phi", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["verify-phi", "thresholds"])
@pytest.mark.parametrize(
    "text, address",
    [
        pytest.param("[phi]\noffset = 6.0\n", "[phi] offset", id="phi-offset-default-kind"),
        pytest.param(
            "[phi]\nkind = constant\nvalue = 1.0\noffset = 6.0\n",
            "[phi] offset",
            id="phi-offset-constant",
        ),
        pytest.param(
            "[weights.a]\nkind = affine\nconst = -1.0\ncoeffs = 2.0\nsigma_pos = -3\n",
            "[weights.a] sigma_pos",
            id="affine-sigma_pos",
        ),
        pytest.param(
            "[weights.a]\nkind = affine\nconst = -1.0\ncoeffs = 2.0\nfreq = 9\n",
            "[weights.a] freq",
            id="affine-freq",
        ),
        pytest.param(
            "[weights.b]\nkind = sinusoid\ncenter_neg = 0.5 0.7 0.5\nsigma_neg = 0.18\n",
            "[weights.b] center_neg",
            id="sinusoid-center_neg",
        ),
    ],
)
def test_keys_their_kind_does_not_read_are_config_errors(tmp_path, capsys, command, text, address):
    # each key here changed nothing under its section's kind, and the run exited 0
    path = tmp_path / "noop.ini"
    path.write_text("[grid]\nnodes = 5\n" + text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"config error: {address}: not read by kind" in err
    assert "Traceback" not in err


def test_build_phi_rejects_keys_its_kind_does_not_read():
    with pytest.raises(ConfigError) as err:
        build_phi({"kind": "constant", "value": 1.0, "offset": 6.0})
    assert (err.value.section, err.value.key) == ("phi", "offset")


def test_a_default_fills_in_only_the_keys_its_kind_reads():
    run = parse_config(
        "[phi]\nkind = stuart_example\noffset = 6.0\n"
        "[weights.a]\nkind = affine\nconst = -0.5\ncoeffs = 1.0\n"
    )
    assert run.phi_spec == {"kind": "stuart_example", "offset": 6.0}
    assert run.weight_a_spec == {"kind": "affine", "const": -0.5, "coeffs": [1.0]}
    assert run.weight_b_spec["kind"] == "gaussians"


def test_default_widths_of_the_smallest_box_pass():
    run = parse_config(f"[grid]\nnodes = 5\nlengths = {MIN_LENGTH!r}\n")
    for spec in (run.weight_a_spec, run.weight_b_spec):
        assert MIN_WIDTH <= spec["sigma_pos"] == spec["sigma_neg"]
        weight = make_weight(run.grid, spec).values
        assert weight.min() < 0.0 < weight.max()


@pytest.mark.parametrize("bad", ["abc", "nan"])
def test_malformed_field_csv_is_a_config_error(tmp_path, capsys, bad):
    # one node-value row that is not a finite number, read through --field
    # and through a csv weight: exit 1 addressed to the file, no traceback
    field_path = tmp_path / "field.csv"
    rows = ["3,5,5,5,1.0,1.0,1.0"] + ["0.5"] * 125
    rows[7] = bad
    field_path.write_text("\n".join(rows) + "\n")
    cfgp = write_quick(tmp_path)
    csv_cfgp = tmp_path / "csv.ini"
    csv_cfgp.write_text(QUICK + f"[weights.a]\nkind = csv\npath = {field_path}\n")
    for args in (
        ["fibering", "--config", cfgp, "--field", str(field_path)],
        ["thresholds", "--config", str(csv_cfgp)],
    ):
        assert main(args + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config error: [field] {field_path}: line 8" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "header, reason",
    [
        ("3,2,2,2,1.0,1.0,1.0", "need at least 3 interior nodes per axis"),
        ("3,5,5,5,-1.0,1.0,1.0", "side lengths must be positive and finite"),
    ],
    ids=["two-nodes", "negative-length"],
)
def test_field_csv_header_the_grid_rejects_names_the_file(tmp_path, capsys, header, reason):
    # a header that parses but describes no valid grid is the file's error,
    # through --field and through a csv weight
    field_path = tmp_path / "field.csv"
    field_path.write_text("\n".join([header] + ["0.5"] * 125) + "\n")
    cfgp = write_quick(tmp_path)
    csv_cfgp = tmp_path / "csv.ini"
    csv_cfgp.write_text(QUICK + f"[weights.a]\nkind = csv\npath = {field_path}\n")
    cells = header.split(",")
    for args in (
        ["fibering", "--config", cfgp, "--field", str(field_path)],
        ["thresholds", "--config", str(csv_cfgp)],
    ):
        assert main(args + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config error: [field] {field_path}: header {cells}: {reason}" in err


def test_solve_converges_over_the_problem_class_for_q_from_0_4(tmp_path, capsys):
    # 20 seeded draws from the paper's problem class with q in [0.4, 0.9)
    # (conftest.problem_class_draws: 1-D to 3-D, constant or stuart φ,
    # sign-changing gaussians/affine/sinusoid weights, λ = auto:f).  Each
    # solve exits with a documented code and no traceback or RuntimeWarning,
    # and exits 0: both branches converge with their energy and γ'' signs and
    # the ordering J₊ < 0 < J₋.  q < 0.4 is left out: the plus branch stalls
    # on the dead core there
    documented = {0, 1, 2}
    for i, text in enumerate(problem_class_draws(seed=12, count=20)):
        path, out = tmp_path / f"draw{i}.ini", tmp_path / f"out{i}"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["solve", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in documented and "Traceback" not in err, (i, code, err)
        report = json.loads((out / "solve.json").read_text())
        assert (code, report["failures"], report["ordering_ok"]) == (0, {}, True), (i, text)
        for branch in ("minus", "plus"):
            rep = report[branch]
            assert rep["converged"], (i, branch, rep["stop_reason"], text)
            assert rep["invariants"]["energy_sign_ok"] and rep["invariants"]["gamma2_sign_ok"]


@pytest.mark.parametrize("seed, index", [(13, 20), (16, 18), (20, 8), (20, 23)])
def test_problem_class_minus_seeds_project_far_past_unit_scale(tmp_path, seed, index):
    # draws with q 0.62–0.74 and p 1.31–1.50, whose minus crossings scale
    # like B^{−1/(p−1)}: both seeds project, the minus one at a unit-energy
    # t* above 1e9, the old absolute bracket cap.  Draw 16#18 then solves;
    # the other three run minus to max_iter at round-off residuals
    text = problem_class_draws(seed, index + 1)[index]
    cfg = prepare_run(parse_config(text)).problem
    minus, _ = (seed_field(cfg, branch) for branch in ("minus", "plus"))
    energy = integrate(cfg.grid, pointwise_energy(minus))
    assert project(minus, cfg, "minus").scale * math.sqrt(energy) > 1e9
    if (seed, index) == (16, 18):
        path = tmp_path / "draw.ini"
        path.write_text(text)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
