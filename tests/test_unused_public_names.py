"""Every public name of the package is read somewhere.

Parses the package modules without importing them.  A name that a module
lists in ``__all__`` counts as read where code in ``src/galconf`` reads it
as a bare name or as an attribute of a module alias (``co.ctrans``); a
public method of a package class counts as read where that code reads it as
an attribute of anything but a module alias (``sm.tensors``).  Reads inside
the name's own definition do not count.  Reads in ``perfbench/`` (its code,
and the ``"module.function"`` strings its tracer patches) and in the code
of README.md count too.  Tests do not: a name only they read belongs to them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "galconf"

# name -> why it stays although nothing above reads it
ALLOWED = {
    "verify.break_antisymmetry": "a corruption helper, the antisymmetry mutant beside "
                                 "flip_constant (which perfbench reads); the mutant tests "
                                 "of the Jacobi and antisymmetry checks build it",
}


def module_aliases(tree) -> set:
    """Names that the imports of tree bind to modules (``import numpy as np``,
    ``from . import poisson as po``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            out |= {a.asname or a.name for a in node.names}
    return out


def reads(node, aliases) -> Counter:
    """How often node reads each name: ("name", x) as a bare name or as an
    attribute of a module alias, ("attr", x) as any other attribute."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            on_module = isinstance(n.value, ast.Name) and n.value.id in aliases
            out["name" if on_module else "attr", n.attr] += 1
    return out


def public_definitions(module: str, tree):
    """(qualified name, kind, name, definition node or None) of each name in
    the module's ``__all__`` and each public method of its classes."""
    top = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top[node.name] = node
        elif isinstance(node, ast.Assign):
            top.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    for name in ast.literal_eval(top["__all__"].value) if "__all__" in top else ():
        yield f"{module}.{name}", "name", name, top.get(name)  # None: re-exported
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{module}.{cls.name}.{node.name}", "attr", node.name, node


def outside_reads() -> set:
    """("name", x) for each name, and ("attr", x) for each name read as an
    attribute (after a dot), in perfbench/ and in the code of README.md."""
    out = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(("name", n.id))
            elif isinstance(n, ast.Attribute):
                out |= {("name", n.attr), ("attr", n.attr)}
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and re.fullmatch(r"\w+\.\w+", n.value):
                out.add(("name", n.value.split(".")[1]))
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S))
    return out | {("name", w) for w in re.findall(r"\w+", code)} \
        | {("attr", w) for w in re.findall(r"\.(\w+)", code)}


def unused_public_names(trees, outside=frozenset()) -> set:
    """Qualified names of the public definitions of trees that nothing reads."""
    aliases = {module: module_aliases(tree) for module, tree in trees.items()}
    read = sum((reads(tree, aliases[m]) for m, tree in trees.items()), Counter())
    unused = set()
    for module, tree in trees.items():
        for qualname, kind, name, node in public_definitions(module, tree):
            own = reads(node, aliases[module])[kind, name] if node is not None else 0
            if read[kind, name] == own and (kind, name) not in outside:
                unused.add(qualname)
    return unused


def package_trees():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_is_read():
    assert unused_public_names(package_trees(), outside_reads()) == set(ALLOWED)


def test_a_module_attribute_does_not_count_as_a_method_read():
    """``al.bracket`` reads the function, so a method of the same name that
    nothing else reads is unused; ``sm.bracket`` would read it."""
    trees = {"mod": ast.parse(
        "from . import algebra as al\n"
        "class Table:\n"
        "    def bracket(self, u):\n"
        "        return self.bracket(u - 1) if u else 0\n"
        "def use(x):\n"
        "    return al.bracket(x)\n")}
    assert unused_public_names(trees) == {"mod.Table.bracket"}
    trees["user"] = ast.parse("def user(sm):\n    return sm.bracket(1)\n")
    assert unused_public_names(trees) == set()
