"""Every imported name is used.

Parses the package modules (except ``__init__.py``, which imports to
re-export), the tests and the benchmark, without importing or changing
them, and lists each imported name that the module never reads and does
not export in ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def sources():
    package = [p for p in sorted((ROOT / "src" / "galconf").glob("*.py"))
               if p.name != "__init__.py"]
    return package + sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))


def exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    keep = read | exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in keep)


def test_the_scan_covers_every_layer():
    names = {p.relative_to(ROOT).parts[0] for p in sources()}
    assert names == {"src", "tests", "perfbench"}


def test_no_unused_imports():
    found = [f"{p.relative_to(ROOT)}:{line} {name}"
             for p in sources() for line, name in unused_imports(p)]
    assert found == []
