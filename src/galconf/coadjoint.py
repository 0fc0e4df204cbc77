"""Dual-space points, coadjoint flows, orbit classification and Casimirs.

A dual vector collects the coefficients (j, c_j^a, h, d, k, m) of a point in
the dual of a centrally extended algebra.  One-parameter coadjoint flows are
available through two independent routes: closed forms transcribed from the
group action where they exist (the Schrodinger-case table for N=1 and the
tower translations for any N), and a generic route that exponentiates the
ad* matrix assembled from the structure constants.  The two routes are
cross-checked against each other in the verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AlgebraSpec, _sign_pow, spin_components
from .errors import (
    AmbiguousClass,
    ConvergenceFailure,
    LabelMismatch,
    NonFiniteResult,
    ShapeMismatch,
    UnknownGenerator,
    UnsupportedClosedForm,
)

__all__ = [
    "DualVector",
    "OrbitClass",
    "OrbitLabel",
    "ORBIT_TAGS",
    "classify_orbit",
    "chi_for_class",
    "chi_interval",
    "spin_invariant",
    "coad_generic",
    "coad_closed_form",
    "orbit_dual_vector",
    "parametrize",
    "casimir_values",
    "casimir_arrays",
    "translate_dual",
    "orbit_components",
    "ad_star_matrix",
]

ORBIT_TAGS = ("HplusSigma", "HminusSigma", "Hplus0", "Hminus0",
              "HyperbolicSigma", "Origin")

_fact = math.factorial


def chi_interval(chi):
    """Invariant quadratic form chi0^2 - chi1^2 - chi2^2 (over a trailing axis)."""
    chi = np.asarray(chi, dtype=float)
    return chi[..., 0] ** 2 - chi[..., 1] ** 2 - chi[..., 2] ** 2


def spin_invariant(s):
    """|s|^2 for spins with a trailing axis of 3, the signed s for a trailing axis of 1.

    |s|^2 is a matrix product, which rounds one spin exactly as s @ s does.
    """
    return (s[..., None, :] @ s[..., :, None])[..., 0, 0] if s.shape[-1] == 3 else s[..., 0]


_ROLL1, _ROLL2 = [1, 2, 0], [2, 0, 1]


def _cross3(u, v):
    """Cross product over a trailing axis of 3: the products and differences
    of np.cross, without its axis handling, giving the same bits."""
    return (np.take(u, _ROLL1, axis=-1) * np.take(v, _ROLL2, axis=-1)
            - np.take(u, _ROLL2, axis=-1) * np.take(v, _ROLL1, axis=-1))


def _rowdot(u, v):
    """Dot products over the trailing axis.  einsum sums in an order that
    depends on the memory layout of its inputs, so they are made C-ordered:
    equal values give equal bits whatever view they come in."""
    return np.einsum("...a,...a->...", np.ascontiguousarray(u), np.ascontiguousarray(v))


def _cross2(u, v):
    """Scalar cross product of 2-vectors, u^1 v^2 - u^2 v^1."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _eps_pair(u, v):
    """sum_{a,b} eps^{ab} u^b v^a for 2-vectors (equals -_cross2(u, v))."""
    return u[..., 1] * v[..., 0] - u[..., 0] * v[..., 1]


@dataclass
class DualVector:
    """Point of the dual space for a centrally extended (N, dim) algebra.

    j has one component per rotation generator J (3 in dimension 3, 1 in
    dimension 2; a bare number is read as the one component); c has one row
    per tower level.  m, h, d and k are stored as floats.
    """

    m: float
    h: float
    d: float
    k: float
    j: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.c = np.array(self.c, dtype=float)
        if self.c.ndim != 2 or self.c.shape[1] not in (2, 3):
            raise ShapeMismatch(f"c must be (N+1, dim), got {self.c.shape}")
        self.j = np.array(self.j, dtype=float).reshape(-1)
        if self.j.shape != (spin_components(self.dim),):
            raise ShapeMismatch(f"j must have {spin_components(self.dim)} components "
                                f"in dimension {self.dim}, got {self.j.size}")
        self.m, self.h, self.d, self.k = (float(v) for v in (self.m, self.h, self.d, self.k))

    @property
    def N(self) -> int:
        return self.c.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.c.shape[1]

    @property
    def chi(self) -> np.ndarray:
        return np.array([(self.h + self.k) / 2.0, (self.k - self.h) / 2.0, self.d])

    def copy(self) -> "DualVector":
        return DualVector(m=self.m, h=self.h, d=self.d, k=self.k, j=self.j.copy(),
                          c=self.c.copy())

    def to_json(self) -> dict:
        return {
            "m": self.m, "h": self.h, "d": self.d, "k": self.k,
            "j": list(self.j),
            "c": [list(row) for row in self.c],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DualVector":
        return cls(m=data["m"], h=data["h"], d=data["d"], k=data["k"], j=data["j"],
                   c=data["c"])


def _check_shape(alg: AlgebraSpec, X: DualVector) -> None:
    if not alg.central:
        raise ShapeMismatch("dual vectors carry a mass component; "
                            "the algebra must be centrally extended")
    if X.N != alg.N or X.dim != alg.dim:
        raise ShapeMismatch(
            f"dual vector shaped for N={X.N}, dim={X.dim}; "
            f"algebra has N={alg.N}, dim={alg.dim}")


def dual_to_vector(alg: AlgebraSpec, X: DualVector) -> np.ndarray:
    _check_shape(alg, X)
    j_rows, c_rows, mhdk_rows = alg.dual_rows
    v = np.zeros(len(alg.generators))
    v[j_rows] = X.j
    v[c_rows] = X.c
    v[mhdk_rows] = (X.m, X.h, X.d, X.k)
    return v


def dual_from_vector(alg: AlgebraSpec, v: np.ndarray) -> DualVector:
    j_rows, c_rows, (im, ih, i_d, ik) = alg.dual_rows
    return DualVector(m=v[im], h=v[ih], d=v[i_d], k=v[ik], j=v[j_rows], c=v[c_rows])


def ad_star_matrix(alg: AlgebraSpec, A) -> np.ndarray:
    """Matrix B with B[z, y] = coefficient of Z in [A, Y]/i.

    B is the coefficient vector of A contracted with the algebra's
    structure tensor.  The coadjoint flow of exp(i*t*A) acts on dual
    coordinate vectors as exp(t*B)^T.
    """
    n = len(alg.generators)
    idx = alg.index
    a = np.zeros(n)
    for gx, cx in A.items():
        if gx not in idx:
            raise UnknownGenerator(str(gx))
        a[idx[gx]] = float(cx)
    return (a @ alg.structure_tensor.reshape(n, n * n)).reshape(n, n)


def _squares_to_zero(mat: np.ndarray) -> bool:
    """True when mat^(2^s) is exactly zero for 2^s > n, by s squarings.

    A nilpotent n x n matrix has mat^n = 0.  Overflowing squares are not
    zero, so they answer False.
    """
    power = mat
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(mat.shape[0].bit_length()):  # 2^bit_length(n) > n
            power = power @ power
            if not np.any(power):
                return True
    return False


def _expm(mat: np.ndarray, term_tol: float = 1e-17, max_terms: int = 40) -> np.ndarray:
    """Matrix exponential: exact finite sum for nilpotent input, otherwise
    scaling-and-squaring with a certified series tail bound."""
    n = mat.shape[0]
    eye = np.eye(n)
    if not np.any(mat):
        return eye
    # Structure constants are exactly representable, so powers of a nilpotent
    # ad* matrix hit exact zero.
    if _squares_to_zero(mat):
        power = mat.copy()
        out = eye + mat
        fact = 1.0
        for k in range(2, n + 2):
            power = power @ mat
            if not np.any(power):
                return out
            if float(np.max(np.abs(power))) > 1e120:
                break  # too large to sum safely; use scaling and squaring
            fact *= k
            out = out + power / fact
    # Not nilpotent: scale so the norm is at most 1/2, sum, square back.
    norm = float(np.linalg.norm(mat, np.inf))
    if not math.isfinite(norm):
        raise ConvergenceFailure("ad* matrix has non-finite entries")
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    B = mat / (2.0 ** s)
    theta = min(0.5, float(np.linalg.norm(B, np.inf)))
    out = eye.copy()
    term = eye.copy()
    for k in range(1, max_terms + 1):
        term = term @ B / k
        out = out + term
        tail = theta ** (k + 1) / math.factorial(k + 1) / (1.0 - theta)
        if tail < term_tol:
            break
    else:
        raise ConvergenceFailure(
            f"series tail bound stuck above {term_tol} after {max_terms} terms")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise ConvergenceFailure(
            f"matrix exponential overflows after {s} squarings (norm {norm:.3g})")
    return out


def coad_generic(alg: AlgebraSpec, A, t: float, X: DualVector) -> DualVector:
    """Coadjoint action of exp(i*t*A) on X via the exponential of ad*.

    The sum is exact (finite) whenever ad*_A is nilpotent, which covers all
    tower translations; otherwise a scaled-and-squared series with a
    certified tail bound below 1e-12 is used.
    """
    B = ad_star_matrix(alg, A)
    flow = _expm(t * B).T
    return dual_from_vector(alg, flow @ dual_to_vector(alg, X))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _coeffs(term, indices) -> np.ndarray:
    return np.array([term(i) for i in indices], dtype=float)


def _readonly(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _translation_weights(N: int, dim: int):
    """Factorial weights (f, g, gh, gk) of the tower translation.

    They follow from N and dim alone, not from a structure table, so they
    are built once per (N, dim) and shared read-only.
    """
    if dim == 3:
        f = _coeffs(lambda i: _sign_pow(i - (N - 1) // 2) * _fact(i) * _fact(N - i),
                    range(N + 1))
        g = _coeffs(lambda i: _sign_pow(i - (N + 1) // 2) * _fact(i) * _fact(N - i),
                    range(N + 1))
        gh = _coeffs(lambda i: _sign_pow(i - (N + 1) // 2) * _fact(i) * _fact(N - i + 1),
                     range(1, N + 1))
        gk = _coeffs(lambda i: _sign_pow(i - (N - 1) // 2) * _fact(i + 1) * _fact(N - i),
                     range(N))
    else:
        f = _coeffs(lambda i: _sign_pow((N - 2 * i) // 2) * _fact(i) * _fact(N - i),
                    range(N + 1))
        g = _coeffs(lambda i: _sign_pow((2 * i - N) // 2) * _fact(i) * _fact(N - i),
                    range(N + 1))
        gh = _coeffs(lambda i: _sign_pow((2 * i - N) // 2) * _fact(i) * _fact(N - i + 1),
                     range(1, N + 1))
        gk = _coeffs(lambda i: _sign_pow((2 * i - N) // 2) * _fact(i + 1) * _fact(N - i),
                     range(N))
    return _readonly(f, g, gh, gk)


# The translation and Casimir formulas below are sums over tower levels of a
# coefficient times a pairing of two levels.  Each sum is written as one
# pairing over the whole level axis contracted with its coefficient vector;
# reversing the level axis (x[..., ::-1, :], row i holding x_{N-i}) pairs
# level i with level N-i.

def _ctrans_dim3(m, x, j, c, h, d, k):
    """Tower translation exp(i x_k^a C_k^a) on the dual, dimension 3, N odd."""
    N = x.shape[-2] - 1
    w = N / 2.0 - np.arange(N + 1)
    f, g, gh, gk = _translation_weights(N, 3)
    xr = x[..., ::-1, :]
    cp = c + m * f[:, None] * xr
    j = j - np.sum(_cross3(x, c) + (m / 2.0) * g[:, None] * _cross3(xr, x), axis=-2)
    d = d - _rowdot(x, c) @ w + (m / 2.0) * (_rowdot(x, xr) @ (w * g))
    h = h + _rowdot(x[..., 1:, :], c[..., :-1, :]) @ np.arange(1.0, N + 1) \
        + (m / 2.0) * (_rowdot(x[..., 1:, :], x[..., :0:-1, :]) @ gh)
    k = k - _rowdot(x[..., :-1, :], c[..., 1:, :]) @ np.arange(float(N), 0.0, -1.0) \
        + (m / 2.0) * (_rowdot(x[..., :-1, :], x[..., -2::-1, :]) @ gk)
    return j, cp, h, d, k


def _ctrans_dim2(m, x, j, c, h, d, k):
    """Tower translation on the dual, dimension 2, N even.

    The quadratic term of the k row uses the orientation that follows from
    the central bracket (and matches the printed orbit parametrization).
    """
    N = x.shape[-2] - 1
    w = N / 2.0 - np.arange(N + 1)
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eps[a, b] = eps^{ab}, 0-based
    f, g, gh, gk = _translation_weights(N, 2)
    xr = x[..., ::-1, :]
    cp = c - m * f[:, None] * (xr @ eps)  # component b: eps^{ab} x^a
    js = j[..., 0] - np.sum(_cross2(x, c), axis=-1) + (m / 2.0) * (_rowdot(x, xr) @ g)
    d = d - _rowdot(x, c) @ w + (m / 2.0) * (_eps_pair(x, xr) @ (w * g))
    h = h + _rowdot(x[..., 1:, :], c[..., :-1, :]) @ np.arange(1.0, N + 1) \
        + (m / 2.0) * (_eps_pair(x[..., 1:, :], x[..., :0:-1, :]) @ gh)
    k = k - _rowdot(x[..., :-1, :], c[..., 1:, :]) @ np.arange(float(N), 0.0, -1.0) \
        - (m / 2.0) * (_eps_pair(x[..., :-1, :], x[..., -2::-1, :]) @ gk)
    return js[..., None], cp, h, d, k


def translate_dual(m, x, j, c, h, d, k):
    """Tower translation by x (..., N+1, dim) of stacked dual components.

    Every argument may carry leading sample axes; j has a trailing axis of
    one component per rotation generator.  Returns (j, c, h, d, k).
    """
    kernel = _ctrans_dim3 if x.shape[-1] == 3 else _ctrans_dim2
    return kernel(m, x, j, c, h, d, k)


def ctrans(X: DualVector, x) -> DualVector:
    """Closed-form coadjoint action of a tower translation on X."""
    x = np.asarray(x, dtype=float)
    if x.shape != X.c.shape:
        raise ShapeMismatch(f"parameter array must be {X.c.shape}, got {x.shape}")
    j, c, h, d, k = translate_dual(X.m, x, X.j, X.c, X.h, X.d, X.k)
    return DualVector(m=X.m, h=h, d=d, k=k, j=j, c=c)


def rotation_matrix(omega) -> np.ndarray:
    """Rotation applied to dual 3-vectors by the flow of exp(i omega.J)."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    if theta == 0.0:
        return np.eye(3)
    n = omega / theta
    nx = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    # dual coordinates flow by exp(-theta [n]_x)
    return np.eye(3) - math.sin(theta) * nx + (1.0 - math.cos(theta)) * (nx @ nx)


def coad_closed_form(alg: AlgebraSpec, family: str, params, X: DualVector) -> DualVector:
    """Printed closed-form coadjoint flows.

    family "ctrans" works for any supported (N, dim) and takes an
    (N+1) x dim parameter array.  The one-parameter families "translation",
    "boost", "time", "dilation", "conformal" and "rotation" are the
    Schrodinger-case columns and require N=1, dim=3.  The mass component is
    invariant under every flow.
    """
    _check_shape(alg, X)
    if family == "ctrans":
        return ctrans(X, params)
    if (alg.N, alg.dim) != (1, 3):
        raise UnsupportedClosedForm(
            f"no printed closed form for family {family!r} at N={alg.N}, dim={alg.dim}")
    if family == "translation":
        a = np.asarray(params, dtype=float).reshape(3)
        return ctrans(X, np.array([a, np.zeros(3)]))
    if family == "boost":
        v = np.asarray(params, dtype=float).reshape(3)
        return ctrans(X, np.array([np.zeros(3), v]))
    if family == "time":
        tau = float(params)
        out = X.copy()
        out.c = X.c.copy()
        out.c[1] = X.c[1] + tau * X.c[0]
        out.d = X.d + tau * X.h
        out.k = X.k + 2.0 * tau * X.d + tau * tau * X.h
        return out
    if family == "dilation":
        lam = float(params)
        out = X.copy()
        out.c[0] = math.exp(lam / 2.0) * X.c[0]
        out.c[1] = math.exp(-lam / 2.0) * X.c[1]
        out.h = math.exp(lam) * X.h
        out.k = math.exp(-lam) * X.k
        return out
    if family == "conformal":
        u = float(params)
        out = X.copy()
        out.c[0] = X.c[0] + u * X.c[1]
        out.h = X.h + 2.0 * u * X.d + u * u * X.k
        out.d = X.d + u * X.k
        return out
    if family == "rotation":
        R = rotation_matrix(params)
        out = X.copy()
        out.j = R @ X.j
        out.c[0] = R @ X.c[0]
        out.c[1] = R @ X.c[1]
        return out
    raise UnsupportedClosedForm(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitClass:
    """Orbit of the internal sl(2,R) variables; sigma is 0 except on the
    two-sheet (HplusSigma/HminusSigma) and one-sheet (HyperbolicSigma)
    hyperboloids."""

    tag: str
    sigma: float = 0.0

    def __post_init__(self):
        if self.tag not in ORBIT_TAGS:
            raise LabelMismatch(f"unknown orbit tag {self.tag!r}")
        if self.tag in ("Hplus0", "Hminus0", "Origin") and self.sigma != 0.0:
            raise LabelMismatch(f"{self.tag} requires sigma = 0")
        if self.sigma < 0:
            raise LabelMismatch("sigma must be nonnegative")


@dataclass(frozen=True)
class OrbitLabel:
    """Invariants naming a coadjoint orbit.

    s2 is spin_invariant of the internal spin: its squared length in
    dimension 3 and its one signed component in dimension 2.
    """

    m: float
    s2: float
    chi_class: OrbitClass

    def __post_init__(self):
        if not self.m > 0:
            raise LabelMismatch("orbit labels require m > 0")


def classify_orbit(chi, tol: float = 1e-9) -> OrbitClass:
    """Classify a chi triple by the invariant interval and the sign of chi0.

    Pass tol=0 for analytically constructed points.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    chi = np.asarray(chi, dtype=float).reshape(3)
    I = chi_interval(chi)
    if I > tol:
        s = math.sqrt(I)
        return OrbitClass("HplusSigma" if chi[0] > 0 else "HminusSigma", s)
    if I < -tol:
        return OrbitClass("HyperbolicSigma", math.sqrt(-I))
    if float(np.linalg.norm(chi)) <= tol:
        return OrbitClass("Origin")
    if chi[0] > tol:
        return OrbitClass("Hplus0")
    if chi[0] < -tol:
        return OrbitClass("Hminus0")
    raise AmbiguousClass(
        f"chi={chi.tolist()} sits within tol={tol} of the cone but is neither "
        "near the origin nor has a decisive chi0 sign")


def chi_for_class(cls: OrbitClass) -> np.ndarray:
    """A canonical chi representative for each orbit class."""
    s = cls.sigma
    return {
        "HplusSigma": np.array([s, 0.0, 0.0]),
        "HminusSigma": np.array([-s, 0.0, 0.0]),
        "Hplus0": np.array([1.0, 1.0, 0.0]),
        "Hminus0": np.array([-1.0, 1.0, 0.0]),
        "HyperbolicSigma": np.array([0.0, s, 0.0]),
        "Origin": np.zeros(3),
    }[cls.tag]


def orbit_dual_vector(m: float, s, chi, x_levels) -> DualVector:
    """Dual point with internal values (s, chi) moved by a tower translation.

    The base point has no tower components and (h, d, k) read off from chi;
    the external coordinates x_levels then produce the printed orbit
    parametrization.
    """
    x = np.asarray(x_levels, dtype=float)
    chi = np.asarray(chi, dtype=float).reshape(3)
    s = np.asarray(s, dtype=float).reshape(spin_components(x.shape[1]))
    j, c, h, d, k = orbit_components(m, s, chi, x)
    return DualVector(m=m, h=h, d=d, k=k, j=j, c=c)


def orbit_components(m: float, s, chi, x):
    """(j, c, h, d, k) of the orbit parametrization for stacked samples:
    the base point (s, chi) with no tower components, translated by x."""
    h = chi[..., 0] - chi[..., 1]
    d = chi[..., 2]
    k = chi[..., 0] + chi[..., 1]
    return translate_dual(m, x, s, np.zeros_like(x), h, d, k)


def parametrize(label: OrbitLabel, s, chi, x_levels, tol: float = 1e-9) -> DualVector:
    """Orbit parametrization with label consistency enforced.

    Raises LabelMismatch unless (s, chi) actually lie on the orbits the
    label names: the spin invariant must match to 1e-12 and chi must
    classify into label.chi_class.
    """
    x = np.asarray(x_levels, dtype=float)
    s = np.asarray(s, dtype=float).reshape(spin_components(x.shape[1]))
    s_inv = float(spin_invariant(s))
    if abs(s_inv - label.s2) > 1e-12 * max(1.0, abs(label.s2)):
        raise LabelMismatch(
            f"spin invariant {s_inv} does not match label value {label.s2}")
    cls = classify_orbit(chi, tol)
    if cls.tag != label.chi_class.tag:
        raise LabelMismatch(
            f"chi classifies as {cls.tag}, label says {label.chi_class.tag}")
    want = label.chi_class.sigma
    if abs(cls.sigma - want) > max(tol, 1e-9) * max(1.0, abs(want)):
        raise LabelMismatch(f"sigma {cls.sigma} does not match label value {want}")
    return orbit_dual_vector(label.m, s, chi, x)


# ---------------------------------------------------------------------------
# Casimir functions (classical evaluation)
# ---------------------------------------------------------------------------

def casimir_values(alg: AlgebraSpec, X: DualVector):
    """Classical Casimir triple (C1, C2, C3).

    All products are taken commutatively, so the symmetrized operator
    orderings collapse; on a parametrized orbit C2 equals m^2 s^2
    (dimension 3) or m s (dimension 2) and C3 equals twice m^2 times the
    chi interval.  Raises NonFiniteResult when a finite X gives a
    non-finite C2 or C3 (overflow).
    """
    _check_shape(alg, X)
    with np.errstate(over="ignore", invalid="ignore"):
        _, C2, C3 = casimir_arrays(X.m, X.j, X.c, X.h, X.d, X.k)
    C2, C3 = float(C2), float(C3)
    if not (math.isfinite(C2) and math.isfinite(C3)) and np.all(np.isfinite(
            np.concatenate([[X.m, X.h, X.d, X.k], X.j, X.c.ravel()]))):
        raise NonFiniteResult(f"Casimirs of a finite dual vector overflow: C2={C2}, C3={C3}")
    return (X.m, C2, C3)


@lru_cache(maxsize=None)
def _casimir_weights(N: int, dim: int):
    """Level weights (alpha, a, b, q) of the Casimirs; like the translation
    weights they depend on N and dim alone and are shared read-only."""
    sign = np.array([_sign_pow(i - (N + 1) // 2) if dim == 3 else _sign_pow((2 * i - N) // 2)
                     for i in range(N + 1)], dtype=float)
    alpha = 0.5 * sign / _coeffs(lambda i: _fact(i) * _fact(N - i), range(N + 1))
    a_coef = 0.5 * sign[1:] / _coeffs(lambda i: _fact(i - 1) * _fact(N - i), range(1, N + 1))
    b_coef = 0.5 * sign[:-1] / _coeffs(lambda i: _fact(i) * _fact(N - i - 1), range(N))
    q_coef = alpha * (np.arange(N + 1) - N / 2.0)
    return _readonly(alpha, a_coef, b_coef, q_coef)


def casimir_arrays(m, j, c, h, d, k):
    """(C1, C2, C3) for stacked dual components, as returned by translate_dual."""
    N, dim = c.shape[-2] - 1, c.shape[-1]
    alpha, a_coef, b_coef, q_coef = _casimir_weights(N, dim)
    cr = c[..., ::-1, :]
    pair = _rowdot if dim == 3 else _eps_pair
    Cq = pair(c, cr) @ q_coef
    A = pair(c[..., :-1, :], cr[..., 1:, :]) @ a_coef
    B = -(pair(c[..., 1:, :], cr[..., :-1, :]) @ b_coef)
    if dim == 3:
        vec = m * j - np.sum(alpha[:, None] * _cross3(c, cr), axis=-2)
        C2 = _rowdot(vec, vec)
    else:
        C2 = m * j[..., 0] - _rowdot(cr, c) @ alpha
    C3 = 2.0 * (m * h - A) * (m * k - B) - 2.0 * (m * d - Cq) ** 2
    return np.full(np.shape(C3), float(m)), C2, C3
