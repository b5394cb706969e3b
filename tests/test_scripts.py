"""The scripts under scripts/ run to exit 0 against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("bound_curves.py", ["c.csv"]),
    ("raise_experiment.py", ["20000", "1"]),
    ("verify_all.py", []),
    ("lower_experiment.py", ["20000", "1"]),
])
def test_script_exits_zero(tmp_path, script, args):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    if script == "bound_curves.py":
        assert (tmp_path / "c.csv").read_text().startswith("s,t,naive,raise,lower,case\n")
