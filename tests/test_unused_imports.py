"""No module imports a name it never reads (no linter is a dependency)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources() -> list[Path]:
    package = [p for p in sorted((ROOT / "src" / "dimsurgery").glob("*.py"))
               if p.name != "__init__.py"]             # __init__ re-exports
    return package + sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no ast.Name in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_guard_sees_reads_only():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom a import b, c as d\nnp.zeros(d)\n")
    assert unused_imports(source) == ["os", "b"]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}: {name}" for path in _sources()
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)
