"""Kirillov-Kostant Poisson structure on orbit coordinates.

Phase-space coordinates are the Darboux pairs (q_k^a, p_k^a) of the
external tower, the internal spin s, the internal sl(2,R) triple chi, and
the constant mass m.  Observables are sparse polynomials in these
coordinates; brackets are evaluated by exact differentiation contracted
against the coordinate bracket table, ``StructureMatrix.tensors``, the one
place the chart's coordinate brackets are written.

Generator functions come in two independent routes which the tests pin
against each other: ``generator_values`` (and ``generators_at``) evaluates
the printed reduced expressions directly, while ``generator_polynomials``
runs the one orbit kernel, ``raw_levels`` then ``orbit_components``, on the
coordinate polynomials; the same kernel records trajectories in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .algebra import (
    EPS2,
    AlgebraSpec,
    GeneratorId,
    eps3,
    so21_epsilon_lower,
    spin_components,
    tower_form,
    tower_sign,
)
from .coadjoint import (
    _cross2,
    _cross3,
    _rowdot,
    orbit_components,
    spin_invariant,
)
from .errors import InvalidState, ShapeMismatch

__all__ = [
    "Poly",
    "PhasePoint",
    "check_state",
    "tower_order",
    "spin_invariant",
    "StructureMatrix",
    "raw_bracket",
    "to_darboux",
    "from_darboux",
    "raw_levels",
    "aux_top_momentum",
    "generators_at",
    "generator_values",
    "generator_polynomials",
    "momentum_map",
    "hamiltonian_poly",
    "poly_bracket",
    "dual_vector_at",
    "random_point",
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
    ("chi", alpha) with 0-based indices.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

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
        if not isinstance(other, Poly):
            return Poly({m: c * other for m, c in self.terms.items()})
        out: Dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged: Dict = {}
                for s, e in m1:
                    merged[s] = merged.get(s, 0) + e
                for s, e in m2:
                    merged[s] = merged.get(s, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Poly(out)

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


# ---------------------------------------------------------------------------
# phase points
# ---------------------------------------------------------------------------

def tower_order(q_shape) -> int:
    """N of the tower whose q block has shape (..., q_levels, dim)."""
    nq, dim = q_shape[-2], q_shape[-1]
    return 2 * nq - 1 if dim == 3 else 2 * (nq - 1)


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
    N = tower_order(q.shape)
    if q.shape[-2] != q_levels(N, dim) or p.shape != lead + (p_levels(N, dim), dim):
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
    """Orbit coordinates: external Darboux pairs, internal spin, chi, mass.

    Shapes: q is (q_levels, dim) and p is (p_levels, dim); in dimension 2
    the top q level is self-conjugate and has no p partner.  s has one
    component per rotation generator J (3 in dimension 3, 1 in dimension 2;
    a bare number is read as the one component) and chi has 3.  Coordinates
    must be finite and the mass positive.
    """

    q: np.ndarray
    p: np.ndarray
    s: np.ndarray
    chi: np.ndarray
    m: float

    def __post_init__(self):
        self.q = np.array(self.q, dtype=float)
        self.p = np.array(self.p, dtype=float)
        self.s = np.array(self.s, dtype=float).reshape(-1)
        self.chi = np.array(self.chi, dtype=float).reshape(-1)
        if self.q.ndim != 2:
            raise ShapeMismatch(f"q must be (levels, dim), got {self.q.shape}")
        check_state(self.q, self.p, self.s, self.chi, self.m)
        self.m = float(self.m)

    @property
    def dim(self) -> int:
        return self.q.shape[1]

    @property
    def N(self) -> int:
        return tower_order(self.q.shape)

    def env(self) -> Dict:
        """Coordinate symbol -> value, in the order of StructureMatrix.coordinates()."""
        values = np.concatenate([self.q.ravel(), self.p.ravel(), self.s, self.chi]).tolist()
        return dict(zip(StructureMatrix(self.N, self.dim, self.m).coordinates(), values))


def random_point(rng, N: int, dim: int, m: float = 1.0) -> PhasePoint:
    """Phase point with every coordinate drawn uniformly from [-0.7, 0.7)."""
    q = rng.uniform(-0.7, 0.7, (q_levels(N, dim), dim))
    p = rng.uniform(-0.7, 0.7, (p_levels(N, dim), dim))
    s = rng.uniform(-0.7, 0.7, spin_components(dim))
    chi = rng.uniform(-0.7, 0.7, 3)
    return PhasePoint(q=q, p=p, s=s, chi=chi, m=m)


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
    top level stays on the q side.
    """
    x = np.asarray(x_levels, dtype=float)
    if x.shape != (N + 1, dim):
        raise ShapeMismatch(f"x must be ({N + 1}, {dim}), got {x.shape}")
    q = np.zeros((q_levels(N, dim), dim))
    p = np.zeros((p_levels(N, dim), dim))
    for k in range(q.shape[0]):
        q[k] = tower_sign(N, k) * _fact(k) * x[k]
    for k in range(p.shape[0]):
        p[k] = m * _fact(N - k) * (x[N - k] if dim == 3 else EPS2.T @ x[N - k])
    return q, p


def from_darboux(q, p, m: float, N: int, dim: int) -> np.ndarray:
    """Inverse of to_darboux; round-trips exactly."""
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
    N, dim = tower_order(q.shape), q.shape[-1]
    nq, n_p = q.shape[-2], p.shape[-2]
    if dim == 2:
        p = p @ EPS2.T  # undo the turn of the momentum line
    x = np.empty(q.shape[:-2] + (N + 1, dim), dtype=np.result_type(q, p, float))
    x[..., :nq, :] = np.array([tower_sign(N, k) for k in range(nq)], dtype=float)[:, None] * q \
        / np.array([_fact(k) for k in range(nq)], dtype=float)[:, None]
    # momentum level k sits at tower level N - k
    scale = np.array([m * _fact(N - k) for k in range(n_p)])[:, None]
    x[..., N - n_p + 1:, :] = (p / scale)[..., ::-1, :]
    return x


def aux_top_momentum(q_top, m: float) -> np.ndarray:
    """Derived conjugate of the self-conjugate 2D level: (m/2) eps^{ba} q^b."""
    q_top = np.asarray(q_top, dtype=float)
    return (m / 2.0) * (q_top @ EPS2)


# ---------------------------------------------------------------------------
# coordinate bracket table
# ---------------------------------------------------------------------------

_SO3 = np.array([[[eps3(a, b, c) for c in (1, 2, 3)] for b in (1, 2, 3)] for a in (1, 2, 3)],
                dtype=float)
_SO21 = np.array([[[so21_epsilon_lower(a, b, g) for g in range(3)] for b in range(3)]
                  for a in range(3)], dtype=float)
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
        top level of dimension 2, {q^a, q^b} = eps^{ba} / m; Q holds the so(3)
        constants on the spin of dimension 3 and the so(2,1) constants on chi.
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
        if self.dim == 3:
            Q[:ns, :ns, :ns] = _SO3
        Q[ns:, ns:, ns:] = _SO21
        P.setflags(write=False)
        Q.setflags(write=False)
        return P, Q

    @cached_property
    def _brackets(self) -> Dict[Tuple, Poly]:
        """The nonzero coordinate brackets, keyed by coordinate pair."""
        (P, Q), z = self.tensors, self.coordinates()
        w = z[len(z) - len(Q):]
        out = {(z[i], z[j]): Poly.const(P[i, j]) for i, j in zip(*np.nonzero(P))}
        for a, b, g in zip(*np.nonzero(Q)):
            out[w[a], w[b]] = out.get((w[a], w[b]), _NO_BRACKET) + Poly.var(w[g], Q[a, b, g])
        return out

    def bracket(self, u, v) -> Poly:
        """{u, v} of two coordinates; the returned Poly is shared, not a copy."""
        return self._brackets.get((u, v), _NO_BRACKET)


def poly_bracket(f: Poly, g: Poly, sm: StructureMatrix) -> Poly:
    """{f, g} as a polynomial: gradients contracted with the bracket table.

    Variables are visited in sorted order, so the float sums do not depend
    on the hash seed; a partial derivative of g is taken only where some
    variable of f has a nonzero bracket with it.
    """
    out = Poly()
    g_vars = sorted(g.variables())
    dg: Dict = {}
    for u in sorted(f.variables()):
        df = f.diff(u)
        if not df:
            continue
        for v in g_vars:
            br = sm.bracket(u, v)
            if not br:
                continue
            if v not in dg:
                dg[v] = g.diff(v)
            if dg[v]:
                out = out + df * dg[v] * br
    return out


# ---------------------------------------------------------------------------
# generator functions
# ---------------------------------------------------------------------------

def generators_at(pt: PhasePoint) -> Dict[str, object]:
    """Generator values (h, d, k, j) from the reduced phase-space expressions."""
    h, d, kk, j = generator_values(pt.q, pt.p, pt.s, pt.chi, pt.m)
    return {"h": h[()], "d": d[()], "k": kk[()], "j": j}


def generator_values(q, p, s, chi, m: float):
    """(h, d, k, j) from the reduced expressions for stacked samples.

    Every array may carry leading sample axes; s and the returned j have a
    trailing axis of spin_components(dim).
    """
    N, dim = tower_order(q.shape), q.shape[-1]
    halfN = N / 2.0
    chi0, chi1, chi2 = chi[..., 0], chi[..., 1], chi[..., 2]
    if dim == 3:
        n = (N - 1) // 2
        h = chi0 - chi1 + _rowdot(p[..., n, :], p[..., n, :]) / (2.0 * m) \
            + np.sum(_rowdot(q[..., 1:, :], p[..., :-1, :]), axis=-1)
        d = chi2 + _rowdot(q, p) @ (halfN - np.arange(n + 1))
        kk = chi0 + chi1 + (m / 2.0) * ((N + 1) / 2.0) ** 2 * _rowdot(q[..., n, :], q[..., n, :]) \
            - _rowdot(q[..., :-1, :], p[..., 1:, :]) @ np.array(
                [(N - k) * (k + 1) for k in range(n)], dtype=float)
        return h, d, kk, s + np.sum(_cross3(q, p), axis=-2)
    u = N // 2
    p_top = aux_top_momentum(q[..., u, :], m)
    h = chi0 - chi1 + np.sum(_rowdot(p, q[..., 1:, :]), axis=-1)
    d = chi2 + _rowdot(p, q[..., :-1, :]) @ (halfN - np.arange(u))
    kk = chi0 + chi1 \
        - _rowdot(p[..., 1:, :], q[..., :-2, :]) @ np.array(
            [(N - k + 1) * k for k in range(1, u)], dtype=float) \
        - N * (halfN + 1.0) * _rowdot(q[..., u - 1, :], p_top)
    js = s[..., 0] + np.sum(_cross2(q[..., :-1, :], p), axis=-1) + _cross2(q[..., u, :], p_top)
    return h, d, kk, js[..., None]


def generator_polynomials(N: int, dim: int, m: float) -> Dict[str, object]:
    """Generator functions as polynomials in the chart: the orbit kernel
    (``raw_levels``, then ``orbit_components``) applied to the coordinate
    polynomials, in the order of ``StructureMatrix.coordinates()``.

    This is the kernel that records trajectories, run on polynomials; the
    printed reduced expressions of ``generator_values`` are the independent
    route.  "j" is a list of one polynomial per rotation generator and "c" a
    list of tower levels, each a list of dim polynomials.
    """
    z = np.array([Poly.var(sym) for sym in StructureMatrix(N, dim, m).coordinates()])
    nq, n_p = q_levels(N, dim) * dim, p_levels(N, dim) * dim
    q, p = z[:nq].reshape(-1, dim), z[nq:nq + n_p].reshape(-1, dim)
    j, c, h, d, k = orbit_components(m, z[nq + n_p:-3], z[-3:], raw_levels(q, p, m))
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
    """(j, c, h, d, k) of the dual-space point realized by a phase point, as
    orbit_components gives them."""
    return orbit_components(pt.m, pt.s, pt.chi, from_darboux(pt.q, pt.p, pt.m, pt.N, pt.dim))
