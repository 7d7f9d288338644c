"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nehari.config import parse_config, prepare_run

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_quickstart_builds_the_reference_problem(capsys):
    # the quickstart's weights and lambda0 are those of reference_stuart.ini
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library quickstart") :]
    start = section.index("```python\n") + len("```python\n")
    code = section[start : section.index("```\n", start)]
    scope: dict = {}
    exec(compile(code, "README.md quickstart", "exec"), scope)
    prep = prepare_run(parse_config((ROOT / "configs" / "reference_stuart.ini").read_text()))
    assert np.array_equal(scope["a"].values, prep.problem.a.values)
    assert np.array_equal(scope["b"].values, prep.problem.b.values)
    assert scope["thresholds"].lambda0 == prep.thresholds.lambda0
    assert capsys.readouterr().out.strip()  # the two energies were printed
