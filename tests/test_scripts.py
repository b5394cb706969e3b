"""The scripts under scripts/ run to exit 0 against the package in src/."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# sha256 of the stdout of scripts/verify_all.py: every verify target's rows,
# byte for byte (CI checks the installed package against the same digest)
VERIFY_ALL_SHA256 = "3c222c71f9d89c369a35fbdb61e43cec0c6f114aed9e5915b879ad7ee0695065"
# sha256 of the stdout of the two experiment scripts at 20000 bits and one
# seed: their bound columns read the plan's bound, and every row stays put
STDOUT_SHA256 = {
    "raise_experiment.py": "7a01b6289369c9c07467c6661b17ffe298e1f8011b9039dd82154a28b2290049",
    "verify_all.py": VERIFY_ALL_SHA256,
    "lower_experiment.py": "6ea79a99f911799582c0bda71ace77c5d33c694c87616254aceb2770aa5398ce",
}


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
    if script in STDOUT_SHA256:
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[script]
    if script == "bound_curves.py":
        assert (tmp_path / "c.csv").read_text().startswith("s,t,naive,raise,lower\n")
