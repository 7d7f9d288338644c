"""The stuart run path stays on numpy: importing scipy roughly doubles the
peak resident memory of a run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
import sys
from nehari.config import parse_config, prepare_run
from nehari.fibering import project_scale
from nehari.solver import seed_field

with open(sys.argv[1]) as fh:
    prep = prepare_run(parse_config(fh.read()))
project_scale(seed_field(prep.problem, "minus"), prep.problem, "minus")
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_stuart_run_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(ROOT / "configs" / "reference_stuart.ini")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == ""
