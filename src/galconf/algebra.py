"""Exact structure constants for the conformal extensions of the Galilei algebra.

The family is indexed by a positive integer N and the spatial dimension
(2 or 3).  Generators are rotations J, an sl(2,R) triple (H, D, K), a tower
of vector generators C_0 .. C_N carrying a spin-N/2 action of the triple,
optionally a space dilatation Ds, and optionally a central mass M.  The
mass is built for N odd in dimension 3 and N even in dimension 2.  In
dimension 3 no central extension exists for N even.  In dimension 2 one
exists for N odd too, pairing the tower through delta_ab rather than
eps^{ab}, but galconf does not build that member.

Convention: every commutator is written [X, Y] = i * c * Z and the table
stores the real coefficient c as an exact ``Fraction``.  Orientation
conventions are fixed once here: eps_{123} = +1 in dimension 3,
eps^{12} = +1 in dimension 2, and for the sl(2,R) triple eps^{012} = +1
with metric diag(+, -, -).  So is the tower pairing of the central
extension, [C_j^a, C_{N-j}^b] = i tower_sign(N, j) j! (N-j)! tower_form(dim,
a, b) M, which every formula built on the central charge reads from here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .errors import BadDimension, InvalidState, UnknownGenerator, UnsupportedExtension

__all__ = [
    "GeneratorId",
    "AlgebraSpec",
    "Element",
    "build_algebra",
    "check_family",
    "bracket",
    "jacobi_worst",
    "structure_checks",
    "conformal_basis",
    "conformal_basis_inverse",
    "so21_basis",
    "so21_epsilon_lower",
    "levi_civita",
    "spin_components",
    "tower_sign",
    "tower_form",
    "dump_table",
]

Element = Dict["GeneratorId", Fraction]

# Metric on the sl(2,R) triple in the light-cone-free basis (N^0, N^1, N^2).
SO21_METRIC = (1, -1, -1)

_LEVI_CIVITA = {(1, 2): 1, (2, 1): -1, (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}


def levi_civita(*axes: int) -> int:
    """Levi-Civita symbol of two or three 1-based axes, eps^{12} = eps_{123} =
    +1, and 0 for a repeated or out-of-range axis: a lookup, as build_algebra
    reads one per constant."""
    return _LEVI_CIVITA.get(axes, 0)


# eps^{ab} with 0-based rows/columns; EPS2[a, b] = eps^{(a+1)(b+1)}
EPS2 = np.array([[levi_civita(a, b) for b in (1, 2)] for a in (1, 2)], dtype=float)


def tower_sign(N: int, level: int) -> int:
    """(-1)^(level - ceil(N/2)): the sign with which tower level ``level``
    pairs with level N - level through the central charge."""
    return -1 if (level - (N + 1) // 2) % 2 else 1


def tower_form(dim: int, a: int, b: int) -> int:
    """Invariant form pairing axis a of level j with axis b of level N - j
    (1-based axes): delta_ab in dimension 3, -eps^{ab} in dimension 2."""
    return int(a == b) if dim == 3 else -levi_civita(a, b)


def spin_components(dim: int) -> int:
    """Number dim (dim - 1) / 2 of rotation generators J of SO(dim): the
    length of the trailing axis of the internal spin s and of the dual j."""
    return dim * (dim - 1) // 2


def so21_epsilon_lower(alpha: int, beta: int, gamma: int) -> int:
    """eps^{alpha beta}_gamma with the last index lowered by diag(+,-,-)."""
    return levi_civita(alpha + 1, beta + 1, gamma + 1) * SO21_METRIC[gamma]


class GeneratorId(NamedTuple):
    """One basis generator; indices are present exactly when the kind needs them.

    kind  -- one of J, C, H, D, K, M, Ds
    axis  -- 1-based spatial index (J in dimension 3, and every C)
    level -- tower level 0..N (C only)

    Hashed in C, as the plain tuple (kind, axis, level).
    """

    kind: str
    axis: Optional[int] = None
    level: Optional[int] = None

    @property
    def name(self) -> str:
        if self.kind == "C":
            return f"C{self.level}_{self.axis}"
        if self.kind == "J" and self.axis is not None:
            return f"J{self.axis}"
        return self.kind

    def __repr__(self) -> str:  # keeps test failure output readable
        return self.name


def parse_generator(name: str) -> GeneratorId:
    """Inverse of ``GeneratorId.name``; UnknownGenerator for any other name."""
    if name in ("J", "H", "D", "K", "M", "Ds"):
        return GeneratorId(name)
    tower = re.fullmatch(r"C(0|[1-9][0-9]*)_([1-9][0-9]*)", name)
    if tower:
        return GeneratorId("C", axis=int(tower[2]), level=int(tower[1]))
    rotation = re.fullmatch(r"J([1-9][0-9]*)", name)
    if rotation:
        return GeneratorId("J", axis=int(rotation[1]))
    raise UnknownGenerator(f"cannot parse generator name {name!r}")


@dataclass(frozen=True)
class AlgebraSpec:
    """Immutable structure-constant table for one member of the family.

    ``table`` maps an ordered generator pair to the sparse result of their
    bracket; both orders of every nonzero pair are stored so antisymmetry
    is explicit.  Do not mutate after construction: the float views
    ``structure_tensor`` and ``dual_rows``, and the integer view read by the
    exact checks, are built from it on first use and kept on the instance.
    """

    N: int
    dim: int
    central: bool
    with_ds: bool
    generators: Tuple[GeneratorId, ...]
    table: Dict[Tuple[GeneratorId, GeneratorId], Element]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {g: i for i, g in enumerate(self.generators)}
        )

    @property
    def index(self) -> Dict[GeneratorId, int]:
        return self._index

    @cached_property
    def structure_tensor(self) -> np.ndarray:
        """Float tensor T[x, z, y] = c_z([x, y]) in generator order.

        Contracting its first axis with the coefficients of an element A
        gives the matrix of ad_A.  Each entry is its exact constant rounded
        to float once; the table stays the source.
        """
        n, (x, y, w, consts, den) = len(self.generators), self._integer_table
        T = np.zeros((n, n, n))
        T[x, w, y] = consts / den  # int / int rounds once, as float(Fraction) does
        return T

    @cached_property
    def _integer_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """(x, y, w, consts, den): one entry per stored (x, y) -> w, as int64
        generator indices, whose constant is consts / den, with den the
        common denominator and consts Python ints in an object array, so
        nothing overflows.  Each constant object is converted once, keyed by
        id() (build_algebra shares one per value; Fraction hashes in Python)."""
        index = self._index.__getitem__
        rows = list(self.table.values())
        pairs = np.fromiter(map(index, chain.from_iterable(self.table)), np.int64, 2 * len(rows))
        sizes = np.fromiter(map(len, rows), np.int64, len(rows))
        x, y = np.repeat(pairs[0::2], sizes), np.repeat(pairs[1::2], sizes)
        w = np.fromiter(map(index, chain.from_iterable(rows)), np.int64, len(x))
        cs = [*chain.from_iterable(map(dict.values, rows))]
        ratios = {i: c.as_integer_ratio() for i, c in dict(zip(map(id, cs), cs)).items()}
        den = math.lcm(*(q for _, q in ratios.values()))
        scaled = {i: p * (den // q) for i, (p, q) in ratios.items()}
        return x, y, w, np.array([*map(scaled.__getitem__, map(id, cs))], dtype=object), den

    @cached_property
    def dual_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generator indices that pack a dual vector: the J rows in order,
        the C rows as an (N+1, dim) array by (level, axis), and the rows of
        M, H, D and K.  Raises UnknownGenerator without a central M."""
        j = np.array([i for g, i in self._index.items() if g.kind == "J"])
        c = np.array([[self._index[self.generator(f"C{level}_{a}")]
                       for a in range(1, self.dim + 1)] for level in range(self.N + 1)])
        mhdk = np.array([self._index[self.generator(k)] for k in "MHDK"])
        return j, c, mhdk

    def generator(self, name: str) -> GeneratorId:
        gid = parse_generator(name)
        if gid not in self._index:
            raise UnknownGenerator(f"{name} not in this algebra")
        return gid

    def element(self, coeffs: Mapping[str, object]) -> Element:
        """Build a sparse element from {generator name: coefficient}; InvalidState
        for a coefficient that is not a finite rational number."""
        out: Element = {}
        for name, value in coeffs.items():
            c = _coefficient(value)
            if c:
                out[self.generator(name)] = c
        return out


def _coefficient(value: object) -> Fraction:
    """value as an exact Fraction, or InvalidState when it is not a finite
    rational number (NaN, an infinity, None) or is a string or a bool, which
    Fraction would parse or read as 0/1."""
    if not isinstance(value, (str, bool)):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidState(f"coefficient {value!r} is not a finite rational number")


def _checked_terms(alg: AlgebraSpec,
                   X: Mapping[GeneratorId, object]) -> List[Tuple[GeneratorId, Fraction]]:
    """The (generator, Fraction coefficient) terms of X, with UnknownGenerator
    for a generator outside alg and InvalidState for a bad coefficient."""
    terms = []
    for g, c in X.items():
        if g not in alg.index:
            raise UnknownGenerator(str(g))
        terms.append((g, _coefficient(c)))
    return terms


def _put(table, shared: Dict[Tuple[int, int], Fraction], x: GeneratorId, y: GeneratorId,
         result: Dict[GeneratorId, int], den: int = 1) -> None:
    """Store [x, y] = result / den and [y, x] = -result / den for integer
    numerators, skipping zeros; equal constants share the one Fraction that
    shared holds under their lowest terms."""
    for key, sign in (((x, y), 1), ((y, x), -1)):
        row = {}
        for g, p in result.items():
            if p:
                q = math.gcd(p, den)
                low = (sign * p // q, den // q)
                row[g] = shared.get(low) or shared.setdefault(low, Fraction(*low))
        if row:
            table[key] = row


def check_family(N: int, dim: int, central: bool, with_ds: bool = False) -> None:
    """Check that the (N, dim) member of the family exists as requested,
    without building its table.

    Raises UnsupportedExtension when a central charge is requested outside
    the two built families (N odd / dim 3, N even / dim 2) or together with
    the space dilatation, and BadDimension for dim not in {2, 3} or N not a
    positive integer (a bool is neither).  Of the members left out, N even
    in dimension 3 has no central extension, and N odd in dimension 2 has
    one (the delta_ab pairing) that galconf does not build.
    """
    if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (2, 3):
        raise BadDimension(f"dim must be 2 or 3, got {dim}")
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise BadDimension(f"N must be a positive integer, got {N}")
    if central:
        if with_ds:
            raise UnsupportedExtension(
                "the space dilatation must be dropped before extending centrally"
            )
        if dim == 3 and N % 2 == 0:
            raise UnsupportedExtension(
                f"no central extension for N={N}, dim=3; "
                "in dimension 3 one exists only for N odd"
            )
        if dim == 2 and N % 2 == 1:
            raise UnsupportedExtension(
                f"galconf does not build the central extension for N={N}, dim=2; "
                "it exists, pairing the tower through delta_ab, but galconf builds "
                "dimension 2 only for N even"
            )


def build_algebra(N: int, dim: int, central: bool, with_ds: bool = False) -> AlgebraSpec:
    """Construct the full sparse table for the (N, dim) member of the family.

    Raises what check_family raises for a member that does not exist.
    """
    check_family(N, dim, central, with_ds)
    axes = range(1, dim + 1)
    # J_r turns the plane that its dim - 2 axes r leave out: r = (i,) for J_i
    # in dimension 3, and () for the one J of dimension 2
    rots = [*combinations(axes, dim - 2)]
    J = [GeneratorId("J", *r) for r in rots]
    C = {(j, a): GeneratorId("C", axis=a, level=j) for j in range(N + 1) for a in axes}
    H, D, K = GeneratorId("H"), GeneratorId("D"), GeneratorId("K")
    M = GeneratorId("M") if central else None
    Ds = GeneratorId("Ds") if with_ds else None
    gens = [*J, *C.values(), H, D, K, *(g for g in (M, Ds) if g is not None)]

    t: Dict[Tuple[GeneratorId, GeneratorId], Element] = {}
    shared: Dict[Tuple[int, int], Fraction] = {}  # this table's constants only

    # so(dim): [J_r, J_u] = eps_{r u w} J_w and [J_r, C_j^b] = eps_{r b d} C_j^d;
    # the rows of C_j^b with b in r are zero, so none is built
    for (r, x), (u, y) in combinations(zip(rots, J), 2):
        _put(t, shared, x, y, {z: levi_civita(*r, *u, *w) for w, z in zip(rots, J)})
    for r, x in zip(rots, J):
        for j in range(N + 1):
            for b in axes:
                if b not in r:
                    _put(t, shared, x, C[(j, b)], {C[(j, d)]: levi_civita(*r, b, d) for d in axes})

    _put(t, shared, D, H, {H: 1})
    _put(t, shared, D, K, {K: -1})
    _put(t, shared, K, H, {D: 2})

    for j in range(N + 1):
        for a in axes:
            _put(t, shared, H, C[(j, a)], {C[(j - 1, a)]: -j} if j >= 1 else {})
            _put(t, shared, D, C[(j, a)], {C[(j, a)]: N - 2 * j}, 2)
            _put(t, shared, K, C[(j, a)], {C[(j + 1, a)]: N - j} if j <= N - 1 else {})
            if Ds is not None:
                _put(t, shared, Ds, C[(j, a)], {C[(j, a)]: 1})

    if central:
        # Mass rows: only opposite tower levels pair up, through the tower
        # form with factorial weights; each unordered pair is put once.
        for j in range(N + 1):
            weight = tower_sign(N, j) * math.factorial(j) * math.factorial(N - j)
            for a in axes:
                for b in axes:
                    if (j, a) < (N - j, b):
                        _put(t, shared, C[(j, a)], C[(N - j, b)],
                             {M: weight * tower_form(dim, a, b)})

    return AlgebraSpec(N=N, dim=dim, central=central, with_ds=with_ds,
                       generators=tuple(gens), table=t)


def bracket(alg: AlgebraSpec, X: Mapping[GeneratorId, object],
            Y: Mapping[GeneratorId, object]) -> Element:
    """Bilinear extension of the table; exact rational arithmetic throughout.

    Raises UnknownGenerator for a generator outside alg and InvalidState for
    a coefficient that is not a finite rational number, in X or in Y.
    """
    out: Element = {}
    xs, ys = _checked_terms(alg, X), _checked_terms(alg, Y)
    for gx, cx in xs:
        for gy, cy in ys:
            row = alg.table.get((gx, gy))
            if not row:
                continue
            cxy = cx * cy
            for gz, cz in row.items():
                out[gz] = out.get(gz, Fraction(0)) + cxy * cz
    return {g: c for g, c in out.items() if c}


def _jacobi_defect(alg: AlgebraSpec, x, y, z) -> Fraction:
    """Jacobi defect of one triple through ``bracket``: the oracle of jacobi_worst."""
    ex, ey, ez = {x: Fraction(1)}, {y: Fraction(1)}, {z: Fraction(1)}
    total: Element = {}
    for a, b, c in ((ex, ey, ez), (ey, ez, ex), (ez, ex, ey)):
        for g, v in bracket(alg, a, bracket(alg, b, c)).items():
            total[g] = total.get(g, Fraction(0)) + v
    return max((abs(v) for v in total.values()), default=Fraction(0))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values in sorted keys."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def jacobi_worst(alg: AlgebraSpec) -> Tuple[Fraction, Optional[Tuple[str, str, str]]]:
    """Maximum coefficient-wise Jacobi defect over all generator triples, and
    the worst triple (None when the defect is zero).

    The defect is an exact zero for every admissible algebra; any nonzero
    value indicates a corrupted table.  Sparse and exact: every term
    [a, [b, c]] of a Jacobi sum pairs a stored entry (b, c) -> w with a
    stored entry (a, w) -> g, so the entries are joined once on w, with the
    (a, w) entries sorted by their right-hand generator.  A product is kept
    when (a, b, c) is a cyclic rotation of a triple in generator order; as
    each rotation reads its own stored order of (b, c), the sums are those of
    ``_jacobi_defect``, the per-triple oracle, also on a table whose two
    orders of a pair are not negatives.  One sort groups the products by
    (triple, g) for the sums of the integer view's constants, Python ints
    that no sum can overflow (central N = 31 has the weight 31!).  The worst
    triple is the first in ``combinations`` order among those with the
    largest coefficient.
    """
    x, y, w, v, den = alg._integer_table
    # Entry `inner` is a (b, c) -> w and entry `outer` an (a, w) -> g.
    by_rhs = np.argsort(y, kind="stable")
    first = np.searchsorted(y[by_rhs], w, "left")
    count = np.searchsorted(y[by_rhs], w, "right") - first
    inner = np.repeat(np.arange(len(w)), count)
    outer = by_rhs[np.arange(len(inner)) + np.repeat(first - np.cumsum(count) + count, count)]
    n = len(alg.generators)
    a, b, c = x[outer], x[inner], y[inner]
    triple = np.where(a < b, np.where(b < c, (a * n + b) * n + c,
                                      np.where(c < a, (c * n + a) * n + b, -1)),
                      np.where((b < c) & (c < a), (b * n + c) * n + a, -1))
    keep = triple >= 0
    if not keep.any():
        return Fraction(0), None
    key = triple[keep] * n + w[outer[keep]]
    order = np.argsort(key, kind="stable")
    key, inner, outer = key[order], inner[keep][order], outer[keep][order]
    starts = _run_starts(key)
    sums = np.abs(np.add.reduceat(v[inner] * v[outer], starts))
    triples = key[starts] // n
    per_triple = _run_starts(triples)
    worst = np.maximum.reduceat(sums, per_triple)
    i = int(np.argmax(worst))  # the first of the largest, in combinations order
    if not worst[i]:
        return Fraction(0), None
    t = int(triples[per_triple[i]])
    names = tuple(alg.generators[j].name for j in (t // (n * n), t // n % n, t % n))
    return Fraction(int(worst[i]), den * den), names


def _unnegated_pairs(alg: AlgebraSpec) -> List[int]:
    """Sorted codes x * n + y of the stored pairs whose reverse is not their
    negative: one of the two holds an entry (x, y) -> w not negated at
    (y, x) -> w (a sort-join finds these), or the pair is an empty row
    whose reverse is not stored."""
    n, gens, table = len(alg.generators), alg.generators, alg.table
    x, y, w, v, _ = alg._integer_table
    key, want = (x * n + y) * n + w, (y * n + x) * n + w
    order = np.argsort(key)
    e = order[np.minimum(np.searchsorted(key[order], want), len(key) - 1)]
    lone = (key[e] != want) | (v[e] != -v)
    bad = set((x[lone] * n + y[lone]).tolist())
    bad.update(c for c in (y[lone] * n + x[lone]).tolist()
               if (gens[c // n], gens[c % n]) in table)
    if not all(table.values()):  # empty rows hold no entry
        index = alg.index
        bad.update(index[a] * n + index[b] for (a, b), row in table.items()
                   if not row and (b, a) not in table)
    return sorted(bad)


def structure_checks(alg: AlgebraSpec) -> Dict[str, Tuple[float, str]]:
    """The exact identity checks of the table: Jacobi, antisymmetry and, for
    a central algebra, mass centrality, in that order.

    Maps each check name to (defect, detail), all clean at a defect of 0.
    The Jacobi defect is the float of jacobi_worst's, and its detail names
    the worst triple.  The other defects count offenders, and their detail
    names the first one, an ordered pair whose reverse is not its negative
    or a generator whose stored bracket with M is nonzero, in generator
    order.  A detail is empty when its check is clean.
    """
    defect, triple = jacobi_worst(alg)
    out = {"jacobi": (float(defect), f"worst triple {triple}" if triple else "")}
    asym = _unnegated_pairs(alg)
    out["antisymmetry"] = (len(asym), "first offending pair ({}, {})".format(
        *(alg.generators[i].name for i in divmod(asym[0], len(alg.generators))))
        if asym else "")
    if alg.central:
        M = alg.generator("M")
        loose = [g for g in alg.generators if any(alg.table.get((M, g), {}).values())]
        out["mass_central"] = (len(loose), f"M does not commute with {loose[0].name}"
                               if loose else "")
    return out


def conformal_basis(h, d, k):
    """Map sl(2,R) dual components (h, d, k) to the triple (chi0, chi1, chi2).

    chi0 = (h + k)/2, chi1 = (k - h)/2, chi2 = d.  Exact when fed Fractions.
    """
    two = Fraction(2) if isinstance(h, (int, Fraction)) and isinstance(k, (int, Fraction)) else 2.0
    return ((h + k) / two, (k - h) / two, d)


def conformal_basis_inverse(chi):
    """Inverse of conformal_basis: (chi0, chi1, chi2) -> (h, d, k)."""
    chi0, chi1, chi2 = chi
    return (chi0 - chi1, chi2, chi0 + chi1)


def so21_basis(alg: AlgebraSpec) -> List[Element]:
    """The rotated sl(2,R) triple N^0=(H+K)/2, N^1=(K-H)/2, N^2=D as elements."""
    H, D, K = alg.generator("H"), alg.generator("D"), alg.generator("K")
    half = Fraction(1, 2)
    return [{H: half, K: half}, {H: -half, K: half}, {D: Fraction(1)}]


def dump_table(alg: AlgebraSpec) -> dict:
    """Documented JSON shape: every nonzero directed pair, exact coefficients.

    Both orders of each pair are emitted so antisymmetry is visible in the
    artifact itself.
    """
    rows = []
    for (x, y), res in alg.table.items():
        rows.append({
            "lhs": x.name,
            "rhs": y.name,
            "results": [{"gen": g.name, "num": c.numerator, "den": c.denominator}
                        for g, c in sorted(res.items(), key=lambda kv: alg.index[kv[0]])],
        })
    rows.sort(key=lambda r: (r["lhs"], r["rhs"]))
    return {
        "schema_version": 1,
        "N": alg.N,
        "dim": alg.dim,
        "central": alg.central,
        "with_ds": alg.with_ds,
        "brackets": rows,
    }
