"""Kirillov-Kostant Poisson structure on orbit coordinates.

Phase-space coordinates are the Darboux pairs (q_k^a, p_k^a) of the
external tower, the internal spin s, the internal sl(2,R) triple chi, and
the constant mass m.  Observables are sparse polynomials in these
coordinates; brackets are evaluated by exact differentiation contracted
against the coordinate bracket table, ``StructureMatrix.tensors``, the one
place the chart's coordinate brackets are written.

A phase state has one value form, ``PhasePoint``: one sample or a stack.
Generator functions come in two independent routes which the tests pin
against each other: ``generators_at`` evaluates the printed reduced
expressions at a PhasePoint, while ``generator_polynomials`` runs the one
orbit kernel, ``raw_levels`` then ``orbit_components``, on the coordinate
polynomials; ``dual_vector_at`` runs that kernel on a PhasePoint in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .algebra import (
    EPS2,
    AlgebraSpec,
    GeneratorId,
    check_family,
    levi_civita,
    so21_epsilon_lower,
    spin_components,
    tower_form,
    tower_sign,
)
from .coadjoint import (
    _cross2,
    _cross3,
    _level_sum,
    _rowdot,
    _turn,
    orbit_components,
    spin_invariant,
)
from .errors import InvalidState, ShapeMismatch

__all__ = [
    "Poly",
    "PhasePoint",
    "check_state",
    "spin_invariant",
    "StructureMatrix",
    "raw_bracket",
    "to_darboux",
    "from_darboux",
    "raw_levels",
    "aux_top_momentum",
    "generators_at",
    "generator_polynomials",
    "momentum_map",
    "hamiltonian_poly",
    "poly_bracket",
    "dual_vector_at",
    "random_point",
    "random_points",
    "uniform_block",
    "chart_blocks",
]

_fact = math.factorial


def q_levels(N: int, dim: int) -> int:
    return (N + 1) // 2 if dim == 3 else N // 2 + 1


def p_levels(N: int, dim: int) -> int:
    return (N + 1) // 2 if dim == 3 else N // 2


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

def _power(x, e: int):
    """x ** e, with an array raised entry by entry as a Python float is (libm
    pow): numpy squares by a product and has its own pow, and each rounds
    some entries differently."""
    if e == 1 or np.ndim(x) == 0:
        return x ** e
    return np.reshape([v ** e for v in np.ravel(x).tolist()], np.shape(x))


class Poly:
    """Sparse polynomial in the phase-space coordinates.

    Monomials are stored as sorted tuples of (symbol, exponent); symbols are
    tuples like ("q", level, axis), ("p", level, axis), ("s", i),
    ("chi", alpha) with 0-based indices.  A Poly is never changed in place,
    so its gradient is taken once and kept.
    """

    __slots__ = ("terms", "_gradient")

    def __init__(self, terms: Optional[Mapping] = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}
        self._gradient = None

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({(): float(value)} if value else {})

    @classmethod
    def var(cls, sym, coeff=1.0) -> "Poly":
        return cls({((sym, 1),): float(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other) -> "Poly":
        if isinstance(other, np.ndarray):
            return NotImplemented  # numpy applies the operation per element
        if not isinstance(other, Poly):
            other = Poly.const(other)
        # a zero operand: Polys are not changed in place, so the other is shared
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0.0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + -other

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, np.ndarray):
            return NotImplemented
        if isinstance(other, Poly):
            # a constant factor scales the other's terms as a number does,
            # which makes the products of _product_terms, in its order
            if _constant(other):
                other = other.terms[()]
            elif _constant(self):
                return other * self.terms[()]
        if not isinstance(other, Poly):
            if other == 0:  # every product would be dropped as zero
                return Poly()
            return Poly({m: c * other for m, c in self.terms.items()})
        return Poly(_product_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Poly({m: c / other for m, c in self.terms.items()})

    def diff(self, sym) -> "Poly":
        out: Dict = {}
        for mono, c in self.terms.items():
            for i, (s, e) in enumerate(mono):
                if s == sym:
                    rest = mono[:i] + ((s, e - 1),) + mono[i + 1:] if e > 1 \
                        else mono[:i] + mono[i + 1:]
                    out[rest] = out.get(rest, 0.0) + c * e
                    break
        return Poly(out)

    def variables(self) -> set:
        return {s for mono in self.terms for s, _ in mono}

    @property
    def gradient(self) -> Dict:
        """{symbol: nonzero partial derivative}, in sorted symbol order."""
        if self._gradient is None:
            self._gradient = {u: d for u in sorted(self.variables()) if (d := self.diff(u))}
        return self._gradient

    def eval(self, env: Mapping):
        """Value at env (symbol -> value), of the shape of the env's values:
        numbers, or arrays all of one shape.  An array gives, entry by entry,
        the bits of the same point evaluated alone."""
        # a constant or empty polynomial has that shape too; [()] makes () a scalar
        total = np.zeros(np.shape(next(iter(env.values()), 0.0)))[()]
        for mono, c in self.terms.items():
            v = c
            for s, e in mono:
                v *= _power(env[s], e)
            total += v
        return total

    def __repr__(self) -> str:
        return f"Poly({self.terms!r})"


def _constant(f: Poly) -> bool:
    """True for a nonzero constant polynomial {(): c}."""
    return len(f.terms) == 1 and () in f.terms


# Bound on the memo of monomial products; one verify pass meets under a
# thousand distinct pairs.
_MONO_PRODUCTS = 1 << 13


@lru_cache(maxsize=_MONO_PRODUCTS)
def _mono_product(m1: Tuple, m2: Tuple) -> Tuple:
    """The sorted monomial m1 * m2: the exponents of shared symbols add."""
    merged: Dict = {}
    for s, e in m1:
        merged[s] = merged.get(s, 0) + e
    for s, e in m2:
        merged[s] = merged.get(s, 0) + e
    return tuple(sorted(merged.items()))


def _product_terms(t1: Mapping, t2: Mapping) -> Dict:
    """Terms of the product of two term dicts, without zeros: each pair of
    terms in the order of t1 then t2, summed into its monomial in that order,
    as ``Poly.__mul__`` and ``poly_bracket`` take them."""
    out: Dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            key = _mono_product(m1, m2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# phase points
# ---------------------------------------------------------------------------

def check_state(q, p, s, chi, m) -> None:
    """Reject inconsistent shapes, non-finite coordinates and a mass that is
    not finite and positive.

    Every array may carry the same leading sample axes, so a whole stack of
    samples is checked at once; s has a trailing axis of
    spin_components(dim).
    """
    if q.ndim < 2 or q.shape[-1] not in (2, 3):
        raise ShapeMismatch(f"q must be (levels, dim), got {q.shape}")
    lead, dim = q.shape[:-2], q.shape[-1]
    N = q.shape[-2] + (p.shape[-2] if p.ndim == q.ndim else 0) - 1
    if N < 1 or q.shape[-2] != q_levels(N, dim) or p.shape != lead + (p_levels(N, dim), dim):
        raise ShapeMismatch(f"inconsistent external shapes q={q.shape} p={p.shape}")
    if s.shape != lead + (spin_components(dim),) or chi.shape != lead + (3,):
        raise ShapeMismatch(f"internal shapes s={s.shape} chi={chi.shape} do not fit "
                            f"q={q.shape}")
    if not (math.isfinite(m) and m > 0):
        raise InvalidState(f"mass must be finite and positive, got {m}")
    if all(np.isfinite(a).all() for a in (q, p, s, chi)):
        return
    # a NaN or an infinity: name the earliest sample with one (q before p
    # before s before chi within it)
    first = []
    for name, arr in (("q", q), ("p", p), ("s", s), ("chi", chi)):
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            first.append((tuple(bad[0, :len(lead)]), name, tuple(int(i) for i in bad[0])))
    _, name, index = min(first, key=lambda f: f[0])
    raise InvalidState(f"{name} has a non-finite entry at index {index}")


@dataclass
class PhasePoint:
    """Orbit coordinates of one sample or a stack: external Darboux pairs,
    internal spin, chi, mass.

    Shapes: q is (..., q_levels, dim) and p is (..., p_levels, dim), with
    the same leading sample axes on every array (none for one sample); in
    dimension 2 the top q level is self-conjugate and has no p partner.  s
    has a trailing axis of one entry per rotation generator J (3, or 1 in
    dimension 2: never a bare number) and chi has 3.
    The arrays are checked copies: finite coordinates, positive mass.  An
    index or a slice of a stack's first axis is a fresh copy.
    """

    q: np.ndarray
    p: np.ndarray
    s: np.ndarray
    chi: np.ndarray
    m: float

    def __post_init__(self):
        self.q, self.p, self.s, self.chi = (np.array(a, dtype=float)
                                            for a in (self.q, self.p, self.s, self.chi))
        check_state(self.q, self.p, self.s, self.chi, self.m)
        self.m = float(self.m)

    @property
    def dim(self) -> int:
        return self.q.shape[-1]

    @property
    def N(self) -> int:
        return self.q.shape[-2] + self.p.shape[-2] - 1

    def __len__(self) -> int:
        if self.q.ndim == 2:
            raise TypeError("one phase point has no length")
        return len(self.q)

    def __getitem__(self, i) -> "PhasePoint":
        if self.q.ndim == 2:
            raise TypeError("one phase point has no samples to index")
        return PhasePoint(q=self.q[i], p=self.p[i], s=self.s[i], chi=self.chi[i], m=self.m)

    def env(self) -> Dict:
        """Coordinate symbol -> value of one sample, as Python floats, in the
        order of StructureMatrix.coordinates()."""
        if self.q.ndim != 2:
            raise ShapeMismatch(f"env() takes one sample, got a stack of {self.q.shape[:-2]}")
        values = np.concatenate([self.q.ravel(), self.p.ravel(), self.s, self.chi]).tolist()
        return dict(zip(StructureMatrix(self.N, self.dim, self.m).coordinates(), values))


def uniform_block(rng, k: int, spans) -> List[np.ndarray]:
    """k rows of uniform draws taken as one ``rng.random((k, width))`` block
    and cut, left to right, into one (k, w) array per span (lo, hi, w).

    numpy's ``uniform(lo, hi)`` is lo + (hi - lo) * next_double, so this
    gives the bits of, and leaves the rng where, k rounds of one
    ``rng.uniform(lo, hi, w)`` call per span would.
    """
    u = rng.random((k, sum(w for _, _, w in spans)))
    out, at = [], 0
    for lo, hi, w in spans:
        out.append(lo + (hi - lo) * u[:, at:at + w])
        at += w
    return out


def chart_blocks(z, N: int, dim: int):
    """(q, p, s, chi) views of stacked rows z (..., n) of chart coordinates
    in the order of StructureMatrix.coordinates()."""
    nq, n_p = q_levels(N, dim) * dim, p_levels(N, dim) * dim
    lead = z.shape[:-1]
    return (z[..., :nq].reshape(lead + (-1, dim)), z[..., nq:nq + n_p].reshape(lead + (-1, dim)),
            z[..., nq + n_p:-3], z[..., -3:])


def random_points(rng, k: int, N: int, dim: int) -> np.ndarray:
    """(k, n) rows of chart coordinates, in the order of
    StructureMatrix.coordinates(), each drawn uniformly from [-0.7, 0.7)."""
    n = (q_levels(N, dim) + p_levels(N, dim)) * dim + spin_components(dim) + 3
    return uniform_block(rng, k, [(-0.7, 0.7, n)])[0]


def random_point(rng, N: int, dim: int, m: float = 1.0) -> PhasePoint:
    """Phase point of one row of random_points."""
    return PhasePoint(*chart_blocks(random_points(rng, 1, N, dim)[0], N, dim), m=m)


# ---------------------------------------------------------------------------
# Darboux chart
# ---------------------------------------------------------------------------

def raw_bracket(alg: AlgebraSpec, j: int, a: int, k: int, b: int, m: float) -> float:
    """Poisson bracket {x_j^a, x_k^b} of raw orbit coordinates (1-based axes).

    Zero unless the levels pair to N; then it is the tower pairing of the
    algebra, tower_sign(N, j) tower_form(dim, a, b), over m j! (N-j)!.
    """
    N = alg.N
    if not (0 <= j <= N and 0 <= k <= N):
        raise ShapeMismatch(f"levels must lie in 0..{N}")
    if j + k != N:
        return 0.0
    return tower_sign(N, j) * tower_form(alg.dim, a, b) / (m * _fact(j) * _fact(N - j))


def to_darboux(x_levels, m: float, N: int, dim: int):
    """Map raw tower coordinates to canonical (q, p) blocks.

    In dimension 2 the momentum line absorbs one antisymmetric twist so the
    canonical pairs come out with {q, p} = delta exactly; the self-conjugate
    top level stays on the q side.  (N, dim) must be a centrally extended
    member (check_family).
    """
    check_family(N, dim, central=True)
    x = np.asarray(x_levels, dtype=float)
    if x.shape != (N + 1, dim):
        raise ShapeMismatch(f"x must be ({N + 1}, {dim}), got {x.shape}")
    q = np.zeros((q_levels(N, dim), dim))
    p = np.zeros((p_levels(N, dim), dim))
    for k in range(q.shape[0]):
        q[k] = tower_sign(N, k) * _fact(k) * x[k]
    for k in range(p.shape[0]):
        p[k] = m * _fact(N - k) * (x[N - k] if dim == 3 else _turn(x[N - k]))
    return q, p


def from_darboux(q, p, m: float, N: int, dim: int) -> np.ndarray:
    """Inverse of to_darboux; round-trips exactly."""
    check_family(N, dim, central=True)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != (q_levels(N, dim), dim) or p.shape != (p_levels(N, dim), dim):
        raise ShapeMismatch(f"bad shapes q={q.shape} p={p.shape} for N={N}, dim={dim}")
    return raw_levels(q, p, m)


def raw_levels(q, p, m: float) -> np.ndarray:
    """Raw tower coordinates x (..., N+1, dim) of stacked Darboux blocks.

    Float blocks give floats; object blocks of ``Poly`` give the raw tower
    coordinates as polynomials in the chart.
    """
    nq, n_p, dim = q.shape[-2], p.shape[-2], q.shape[-1]
    N = nq + n_p - 1
    if dim == 2:  # p @ EPS2.T = -p @ EPS2 undoes the turn of the momentum line
        p = _turn(-p)
    x = np.empty(q.shape[:-2] + (N + 1, dim), dtype=np.result_type(q, p, float))
    # sign q_k / k! as q_k / (sign k!), which only moves the sign; the
    # divisors have a column per axis, so each sample's levels are one run
    np.divide(q, np.array([[tower_sign(N, k) * _fact(k)] * dim for k in range(nq)], dtype=float),
              out=x[..., :nq, :])
    # momentum level k sits at tower level N - k
    np.divide(p[..., ::-1, :], np.array([[m * _fact(k)] * dim for k in range(N - n_p + 1, N + 1)]),
              out=x[..., N - n_p + 1:, :])
    return x


def aux_top_momentum(q_top, m: float) -> np.ndarray:
    """Derived conjugate of the self-conjugate 2D level: (m/2) eps^{ba} q^b."""
    q_top = np.asarray(q_top, dtype=float)
    return (m / 2.0) * (q_top @ EPS2)


# ---------------------------------------------------------------------------
# coordinate bracket table
# ---------------------------------------------------------------------------

_NO_BRACKET = Poly()


@dataclass(frozen=True)
class StructureMatrix:
    """Bracket table on the coordinate functions for a given (N, dim, m);
    ``tensors`` is the one place the chart's coordinate brackets are written."""

    N: int
    dim: int
    m: float

    def coordinates(self) -> List[Tuple]:
        syms: List[Tuple] = []
        for k in range(q_levels(self.N, self.dim)):
            syms += [("q", k, a) for a in range(self.dim)]
        for k in range(p_levels(self.N, self.dim)):
            syms += [("p", k, a) for a in range(self.dim)]
        syms += [("s", i) for i in range(spin_components(self.dim))]
        syms += [("chi", al) for al in range(3)]
        return syms

    @cached_property
    def tensors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only constant part P and linear part Q of the brackets of
        z = coordinates(): {z_i, z_j} = P[i, j] + sum_g Q[a, b, g] w_g, where
        w = (s, chi) is the last len(Q) entries of z and Q counts only when z_i,
        z_j are w_a, w_b.  P holds {q_k^a, p_k^a} = 1 and, on the self-conjugate
        top level of dimension 2, {q^a, q^b} = eps^{ba} / m; Q holds the so(dim)
        constants eps_{abg} on the spin (none for the one spin of dimension 2)
        and the so(2,1) constants on chi.
        """
        nq, n_p = q_levels(self.N, self.dim) * self.dim, p_levels(self.N, self.dim) * self.dim
        ns = spin_components(self.dim)
        P = np.zeros((nq + n_p + ns + 3,) * 2)
        k = np.arange(n_p)
        P[k, nq + k] = 1.0
        P[nq + k, k] = -1.0
        if nq > n_p:  # dimension 2: the top q level pairs with itself
            P[n_p:nq, n_p:nq] = EPS2.T / self.m
        Q = np.zeros((ns + 3,) * 3)
        sp, ch = range(1, ns + 1), range(3)  # 1-based spin axes, 0-based chi indices
        Q[:ns, :ns, :ns] = [[[levi_civita(a, b, g) for g in sp] for b in sp] for a in sp]
        Q[ns:, ns:, ns:] = [[[so21_epsilon_lower(a, b, g) for g in ch] for b in ch] for a in ch]
        P.setflags(write=False)
        Q.setflags(write=False)
        return P, Q

    @cached_property
    def _partners(self) -> Dict[Tuple, Dict[Tuple, Poly]]:
        """u -> {v: {u, v}} over the coordinates v whose bracket with u is not
        zero, in sorted order of v; each coordinate has at most three."""
        (P, Q), z = self.tensors, self.coordinates()
        w = z[len(z) - len(Q):]
        pairs = {(z[i], z[j]): Poly.const(P[i, j]) for i, j in zip(*np.nonzero(P))}
        for a, b, g in zip(*np.nonzero(Q)):
            pairs[w[a], w[b]] = pairs.get((w[a], w[b]), _NO_BRACKET) + Poly.var(w[g], Q[a, b, g])
        out: Dict[Tuple, Dict[Tuple, Poly]] = {}
        for u, v in sorted(pairs):
            out.setdefault(u, {})[v] = pairs[u, v]
        return out


def poly_bracket(f: Poly, g: Poly, sm: StructureMatrix) -> Poly:
    """{f, g} as a polynomial: gradients contracted with the bracket table.

    u runs over the gradient of f and v over the bracket partners of u, both
    in sorted order, so the float sums do not depend on the hash seed; a
    partner v counts where g depends on it.
    """
    out: Dict = {}
    dg = g.gradient
    for u, df in f.gradient.items():
        for v, br in sm._partners.get(u, {}).items():
            if v in dg:
                # summed in place in the order of Poly addition, which drops
                # a monomial whose sum is exactly 0 (it comes back last)
                for mono, c in _product_terms(_product_terms(df.terms, dg[v].terms),
                                              br.terms).items():
                    total = out.get(mono, 0.0) + c
                    if total == 0:
                        del out[mono]
                    else:
                        out[mono] = total
    return Poly(out)


# ---------------------------------------------------------------------------
# generator functions
# ---------------------------------------------------------------------------

def generators_at(pt: PhasePoint) -> Dict[str, np.ndarray]:
    """Generator values {h, d, k, j} of one phase point or of a stack, from
    the printed reduced phase-space expressions.

    h, d and k have the point's leading sample axes (numbers for one
    sample, by ``[()]``); j adds a trailing axis of spin_components(dim).
    """
    q, p, s, chi, m, N = pt.q, pt.p, pt.s, pt.chi, pt.m, pt.N
    halfN = N / 2.0
    chi0, chi1, chi2 = chi[..., 0], chi[..., 1], chi[..., 2]
    if pt.dim == 3:
        n = (N - 1) // 2
        h = chi0 - chi1 + _rowdot(p[..., n, :], p[..., n, :]) / (2.0 * m) \
            + np.sum(_rowdot(q[..., 1:, :], p[..., :-1, :]), axis=-1)
        d = chi2 + _rowdot(q, p) @ (halfN - np.arange(n + 1))
        kk = chi0 + chi1 + (m / 2.0) * ((N + 1) / 2.0) ** 2 * _rowdot(q[..., n, :], q[..., n, :]) \
            - _rowdot(q[..., :-1, :], p[..., 1:, :]) @ np.array(
                [(N - k) * (k + 1) for k in range(n)], dtype=float)
        return {"h": h[()], "d": d[()], "k": kk[()], "j": s + _level_sum(_cross3(q, p))}
    u = N // 2
    p_top = aux_top_momentum(q[..., u, :], m)
    h = chi0 - chi1 + np.sum(_rowdot(p, q[..., 1:, :]), axis=-1)
    d = chi2 + _rowdot(p, q[..., :-1, :]) @ (halfN - np.arange(u))
    kk = chi0 + chi1 \
        - _rowdot(p[..., 1:, :], q[..., :-2, :]) @ np.array(
            [(N - k + 1) * k for k in range(1, u)], dtype=float) \
        - N * (halfN + 1.0) * _rowdot(q[..., u - 1, :], p_top)
    js = s[..., 0] + np.sum(_cross2(q[..., :-1, :], p), axis=-1) + _cross2(q[..., u, :], p_top)
    return {"h": h[()], "d": d[()], "k": kk[()], "j": js[..., None]}


def generator_polynomials(N: int, dim: int, m: float) -> Dict[str, object]:
    """Generator functions as polynomials in the chart: the orbit kernel
    (``raw_levels``, then ``orbit_components``) applied to the coordinate
    polynomials, in the order of ``StructureMatrix.coordinates()``.

    This is the kernel of ``dual_vector_at``, run on polynomials; the
    printed reduced expressions of ``generators_at`` are the independent
    route.  "j" is a list of one polynomial per rotation generator and "c" a
    list of tower levels, each a list of dim polynomials.
    """
    z = np.array([Poly.var(sym) for sym in StructureMatrix(N, dim, m).coordinates()])
    q, p, s, chi = chart_blocks(z, N, dim)
    j, c, h, d, k = orbit_components(m, s, chi, raw_levels(q, p, m))
    return {"j": list(j), "h": h, "d": d, "k": k, "c": c.tolist(), "m": Poly.const(m)}


def momentum_map(alg: AlgebraSpec, m: float) -> Dict[GeneratorId, Poly]:
    """Generator id -> generator function, for momentum-map closure checks."""
    polys = generator_polynomials(alg.N, alg.dim, m)
    spins = iter(polys["j"])
    out: Dict[GeneratorId, Poly] = {}
    for g in alg.generators:
        if g.kind == "J":
            out[g] = next(spins)
        elif g.kind == "C":
            out[g] = polys["c"][g.level][g.axis - 1]
        elif g.kind.lower() in polys:
            out[g] = polys[g.kind.lower()]
    return out


def hamiltonian_poly(N: int, dim: int, m: float, omega: float = 0.0,
                     sign: int = 1) -> Poly:
    """h, or the oscillator deformation h + sign * omega^2 * k, taken from
    ``generator_polynomials``."""
    polys = generator_polynomials(N, dim, m)
    h = polys["h"]
    if omega:
        h = h + (sign * omega * omega) * polys["k"]
    return h


def dual_vector_at(pt: PhasePoint):
    """(j, c, h, d, k) of the dual-space points realized by one phase point
    or a stack: the chart's one map to the dual, ``raw_levels`` then
    ``orbit_components``."""
    return orbit_components(pt.m, pt.s, pt.chi, raw_levels(pt.q, pt.p, pt.m))
