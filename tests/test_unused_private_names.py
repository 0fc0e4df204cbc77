"""Every private module-level function or class of the package is used.

Parses the package modules without importing them and lists each
module-level function or class whose name starts with one underscore that
no code in ``src/galconf`` reads outside the definition itself.  Tests and
the benchmark do not count as users: a helper only they call belongs to
them.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "galconf"

# The per-triple Jacobi sum, kept in the package as the oracle that the
# sparse ``jacobi_worst`` is tested against (tests/test_algebra.py).
ALLOWED = {"algebra._jacobi_defect"}


def names_read(node) -> Counter:
    """How often each name is read in node, as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute))


def unused_private_definitions() -> set:
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    return {f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and read[node.name] == names_read(node)[node.name]}


def test_every_private_definition_is_used():
    assert unused_private_definitions() == ALLOWED


def test_a_helper_that_only_calls_itself_counts_as_unused():
    tree = ast.parse("def _walk(n):\n    return _walk(n - 1) if n else 0\n")
    (node,) = tree.body
    assert names_read(tree)["_walk"] == names_read(node)["_walk"] == 1
