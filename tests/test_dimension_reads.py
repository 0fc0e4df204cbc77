"""Each per-dimension rule of the package is stated in one place.

Parses the package modules without importing them and counts, by function,
every read of the spatial dimension: a test of ``dim`` (a name or an
attribute) for equality with 2 or 3, a test of a trailing axis
(``x.shape[-1]``) for equality with 3, and every use of ``EPS2``.  The
counts must equal ALLOWED, which gives the reason each function still reads
the dimension.  A new rule for both dimensions belongs in one of the helpers
that state one: ``algebra.levi_civita`` and ``tower_form``,
``coadjoint._pair`` and ``_turn``, ``poisson.q_levels`` and ``p_levels``.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "galconf"

# function (module for module level) -> (reads, why they stay)
ALLOWED = {
    "algebra": (1, "defines EPS2, the eps^{ab} matrix that the oracles below multiply by"),
    "algebra.check_family": (2, "names the two built families and the planar one left out"),
    "algebra.tower_form": (1, "the tower pairing, delta_ab or -eps^{ab}, stated once"),
    "coadjoint._pair": (1, "the tower pairing of two float vectors, stated once"),
    "coadjoint.spin_invariant": (1, "|s|^2 of an so(3) spin, the signed spin of so(2)"),
    "coadjoint.translate_dual": (4, "the so(3) and so(2) rotation rows, whose merged float sums "
                                    "would round differently, and the tower form on c (_turn)"),
    "coadjoint.casimir_arrays": (1, "the rotation Casimir, per group as in translate_dual"),
    "dynamics._csv_header": (2, "the CSV columns of s and j: s_1..s_3, or one s"),
    "dynamics.free_flow": (2, "the printed closed-form flow, an oracle with its own pr @ EPS2"),
    "poisson.q_levels": (1, "the chart: dimension 2 keeps the self-conjugate level on the q side"),
    "poisson.p_levels": (1, "the chart: the self-conjugate level of dimension 2 has no p"),
    "poisson.to_darboux": (1, "turns the momentum line by the tower form (_turn)"),
    "poisson.raw_levels": (1, "turns the momentum line back (_turn)"),
    "poisson.StructureMatrix.tensors": (1, "{q^a, q^b} = eps^{ba} / m on the self-conjugate level"),
    "poisson.aux_top_momentum": (1, "the printed generators' derived top momentum, an oracle"),
    "poisson.generators_at": (1, "the printed reduced generators, an oracle"),
    "verify._printed_free_field": (2, "the printed free field, an oracle"),
    "verify.suite_orbit": (1, "the printed Casimir C2 of a parametrized orbit, an oracle"),
}


def _is_dim(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "dim"
            or isinstance(node, ast.Attribute) and node.attr == "dim")


def _is_trailing_axis(node) -> bool:
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape" and ast.unparse(node.slice) == "-1")


def reads_dimension(node) -> bool:
    """True for one read of the dimension (see the module docstring)."""
    if isinstance(node, ast.Compare) and len(node.ops) == 1 \
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
        pair = (node.left, node.comparators[0])
        for x, c in (pair, pair[::-1]):
            if isinstance(c, ast.Constant) and (
                    _is_dim(x) and c.value in (2, 3) or _is_trailing_axis(x) and c.value == 3):
                return True
    return (isinstance(node, ast.Name) and node.id == "EPS2"
            or isinstance(node, ast.Attribute) and node.attr == "EPS2")


def dimension_reads(tree, module: str) -> Counter:
    """Reads of the dimension in tree by qualified function name."""
    out: Counter = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if reads_dimension(child):
                out[inner] += 1
            visit(child, inner)

    visit(tree, module)
    return out


def package_reads() -> Counter:
    return sum((dimension_reads(ast.parse(p.read_text(), filename=str(p)), p.stem)
                for p in sorted(PACKAGE.glob("*.py"))), Counter())


def test_every_dimension_read_is_allowed():
    assert dict(package_reads()) == {name: n for name, (n, _) in ALLOWED.items()}


def test_the_scan_sees_each_kind_of_read():
    code = ("def f(x, dim):\n"
            "    if dim == 3 or x.shape[-1] != 3 or dim in (2, 3):\n"
            "        return x @ EPS2\n"
            "class C:\n"
            "    def g(self):\n"
            "        return 2 == self.dim or len(self.dim) == 3 or self.dim < 3\n")
    assert dimension_reads(ast.parse(code), "m") == Counter({"m.f": 3, "m.C.g": 1})
