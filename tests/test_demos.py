"""Every demo script runs to completion against the current package."""

import configparser
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nehari.config import _SPEC_KINDS, DEFAULT_CONFIG, parse_config, prepare_run

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


def test_readme_config_block_sets_only_keys_its_kinds_read():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Configuration") :]
    start = section.index("```ini\n") + len("```ini\n")
    text = section[start : section.index("```\n", start)]
    run = parse_config(text)
    assert run.phi_spec == {"kind": "stuart_example", "offset": 6.0}
    block = configparser.ConfigParser(inline_comment_prefixes=(";",))
    block.read_string(text)
    defaults = configparser.ConfigParser(inline_comment_prefixes=(";",))
    defaults.read_string(DEFAULT_CONFIG)
    for name in block.sections():
        keys = set(block.options(name)) - {"kind"}
        if name in _SPEC_KINDS:  # the block names the kind of each such section
            assert keys <= set(_SPEC_KINDS[name][block.get(name, "kind").strip()]), name
        else:
            assert keys <= set(defaults.options(name)), name
