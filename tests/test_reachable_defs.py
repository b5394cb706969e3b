"""Every module-level def, class and constant in the package is read by the
package or a script: code only the tests use belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _package() -> list[Path]:
    return [p for p in sorted((ROOT / "src" / "dimsurgery").glob("*.py"))
            if p.name != "__init__.py"]                # __init__ only re-exports


def _readers() -> list[Path]:
    return sorted((ROOT / "src" / "dimsurgery").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py"))


def _reads(node: ast.AST) -> set[str]:
    """Names read under node, as ast.Name ids or ast.Attribute attrs."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _defined(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a def or class, or the plain
    names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unreachable(sources: dict[str, str], defining: list[str]) -> list[str]:
    """Top-level defs, classes and assigned names of the `defining` files that
    no top-level statement of any file in `sources` (file name -> source)
    reads, other than their own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = [(node, _reads(node)) for tree in trees.values() for node in tree.body]
    return [f"{name}:{d.lineno}: {defined}" for name in defining
            for d in trees[name].body for defined in _defined(d)
            if not any(defined in names for node, names in reads if node is not d)]


def test_guard_ignores_own_body_and_imports():
    mod = ("def used():\n    return 1\n\n"
           "def recursive(n):\n    return recursive(n - 1)\n\n"
           "class Lonely:\n    pass\n\n"
           "def caller():\n    return used()\n\n"
           "UNREAD = 1\nTOLD: float = 2.0\nSHARED = 3\n")
    other = "from mod import caller\nimport mod\nmod.caller(mod.SHARED)\n"
    found = unreachable({"mod.py": mod, "other.py": other}, ["mod.py"])
    assert found == ["mod.py:4: recursive", "mod.py:7: Lonely",
                     "mod.py:13: UNREAD", "mod.py:14: TOLD"]


def test_every_def_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in _readers()}
    found = unreachable(sources, [str(p.relative_to(ROOT)) for p in _package()])
    assert not found, "defined in src/ but read by no module or script:\n" + "\n".join(found)
