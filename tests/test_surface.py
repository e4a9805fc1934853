"""Nothing ships in `affine12` that only the tests call.

Every top-level function, class and constant of a `src/affine12` module
must be loaded, imported or read as an attribute somewhere in
`src/affine12` or in the benchmark modules `perfbench/*.py` (not its
tests). Reference implementations that only tests use live in
`tests/conftest.py`. The check reads syntax trees, so names in docstrings
and comments do not count as uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "affine12"
CALLER_FILES = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_top_level_name_has_a_library_or_benchmark_user():
    used = set()
    for path in CALLER_FILES:
        used |= _used_names(_parse(path))
    unused = sorted(
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _top_level_names(_parse(path))
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )
    assert unused == [], f"only tests use these; move them to tests/conftest.py: {unused}"
