"""The declared runtime dependencies are exactly what the package imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dimsurgery

PACKAGE = Path(dimsurgery.__file__).parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def _third_party_imports() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"dimsurgery"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("pyproject.toml is not beside the package sources")
    declared = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
             for spec in declared}
    assert names == _third_party_imports()


def test_cli_runs_without_scipy():
    # sys.modules[name] = None makes any import of that name fail
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from dimsurgery.cli import main\n"
            "sys.exit(main(['verify', 'buffer', '--horizon', '200']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
