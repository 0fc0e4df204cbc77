"""Dual-space points, coadjoint flows, orbit classification and Casimirs.

A point in the dual of a centrally extended algebra is a packed row of its
coefficients (j, c_j^a, h, d, k, m) in generator order; pack_dual and
dual_fields convert rows to and from the fields the orbit kernels take.
One-parameter coadjoint flows are available through two independent
routes: closed forms transcribed from the group action where they exist
(the Schrodinger-case table for N=1 and the tower translations for any N),
and a generic route that exponentiates the ad* matrix assembled from the
structure constants.  The two routes are cross-checked against each other
in the verification suite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AlgebraSpec, conformal_basis_inverse, spin_components, tower_sign
from .errors import (
    AmbiguousClass,
    ConvergenceFailure,
    InvalidState,
    LabelMismatch,
    NonFiniteResult,
    ShapeMismatch,
    UnknownGenerator,
    UnsupportedClosedForm,
)

__all__ = [
    "OrbitClass",
    "OrbitLabel",
    "ORBIT_TAGS",
    "SCHRODINGER_COLUMNS",
    "classify_orbit",
    "check_chi_class",
    "chi_for_class",
    "chi_interval",
    "spin_invariant",
    "coad_generic",
    "coad_closed_form",
    "parametrize",
    "casimir_values",
    "casimir_arrays",
    "translate_dual",
    "orbit_components",
    "ad_star_matrix",
    "element_rows",
    "coad_flow",
    "pack_dual",
    "dual_fields",
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


def _cross3(u, v):
    """Cross product over a trailing axis of 3: the products and differences
    of np.cross, without its axis handling, giving the same bits."""
    u0, u1, u2, v0, v1, v2 = u[..., 0], u[..., 1], u[..., 2], v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def _level_sum(a):
    """Sum over the level axis (-2), level by level from +0.0 (so a column
    of -0.0 sums to +0.0): the bits of np.sum(a, axis=-2) on a C-ordered a,
    whatever the layout of a, without numpy's reduction set-up, which costs
    more than the few additions over a short axis.  (np.sum adds a level
    axis of 8 or more that is contiguous in memory pairwise.)"""
    total = 0.0 + a[..., 0, :]
    for i in range(1, a.shape[-2]):
        total += a[..., i, :]
    return total


def _rowdot(u, v):
    """Dot products over the trailing axis.  einsum sums in an order that
    depends on the memory layout of its inputs, so they are made C-ordered:
    equal values give equal bits whatever view they come in."""
    return np.einsum("...a,...a->...", np.ascontiguousarray(u), np.ascontiguousarray(v))


def _cross2(u, v):
    """Scalar cross product of 2-vectors, u^1 v^2 - u^2 v^1."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _pair(u, v):
    """The tower form over a trailing axis of dim, sum_{a,b} tower_form(dim,
    a, b) u^a v^b: u . v in dimension 3, and in dimension 2 -eps^{ab} u^a v^b,
    which is _cross2(v, u)."""
    return _rowdot(u, v) if u.shape[-1] == 3 else _cross2(v, u)


def _turn(x):
    """x @ EPS2 over a trailing axis of 2, (-x^2, x^1), with the bits of that
    matmul, whose sums start from +0.0: a zero entry turns into +0.0."""
    return np.stack([0.0 - x[..., 1], x[..., 0] + 0.0], axis=-1)


def _check_rows(alg: AlgebraSpec, V) -> np.ndarray:
    """V as floats, checked to be a (k, n) stack of packed dual rows of a central alg."""
    V, n = np.asarray(V, dtype=float), len(alg.generators)
    if not alg.central or V.ndim != 2 or V.shape[1] != n:
        raise ShapeMismatch(f"expected (k, {n}) dual rows of a central algebra, got {V.shape}")
    return V


def _rows_and_params(alg: AlgebraSpec, V, params, shape):
    """(V, params) as floats: V checked rows, and one parameter of the given shape per row."""
    V, p = _check_rows(alg, V), np.asarray(params, dtype=float)
    if p.shape != V.shape[:1] + shape:
        raise ShapeMismatch(f"expected (k, *{shape}) parameters for k={len(V)}, got {p.shape}")
    return V, p


def pack_dual(alg: AlgebraSpec, m, j, c, h, d, k) -> np.ndarray:
    """Packed dual rows (..., n) of stacked fields: the inverse of dual_fields.
    The rows take the leading axes of h, to which those of the other fields
    must broadcast; so the mass may be one number for every row.  Raises
    ShapeMismatch unless j has a trailing axis of one entry per rotation
    generator and c trailing axes (N+1, dim), so that neither is broadcast
    across the slots, and unless the leading axes broadcast."""
    j_rows, c_rows, mhdk_rows = alg.dual_rows
    if np.shape(j)[-1:] != j_rows.shape or np.shape(c)[-2:] != c_rows.shape:
        raise ShapeMismatch(f"expected j (..., {len(j_rows)}) and c (..., {alg.N + 1}, "
                            f"{alg.dim}), got {np.shape(j)} and {np.shape(c)}")
    h = np.asarray(h, dtype=float)
    leads = [np.shape(m), np.shape(j)[:-1], np.shape(c)[:-2], np.shape(d), np.shape(k)]
    try:
        fits = np.broadcast_shapes(h.shape, *leads) == h.shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeMismatch(f"leading axes of m, j, c, d, k {leads} do not broadcast to "
                            f"those of h {h.shape}")
    v = np.zeros(h.shape + (len(alg.generators),))
    v[..., j_rows] = j
    v[..., c_rows] = c
    v[..., mhdk_rows] = np.stack(np.broadcast_arrays(m, h, d, k), axis=-1)
    return v


def dual_fields(alg: AlgebraSpec, v: np.ndarray):
    """(m, j, c, h, d, k) of a packed dual vector (n,), or stacked fields of
    a (..., n) stack of them, in the argument order of casimir_arrays."""
    j_rows, c_rows, (im, ih, i_d, ik) = alg.dual_rows
    return v[..., im], v[..., j_rows], v[..., c_rows], v[..., ih], v[..., i_d], v[..., ik]


def element_rows(alg: AlgebraSpec, elements) -> np.ndarray:
    """(k, n) float coefficient rows of k elements {generator: coefficient}:
    the one conversion of an element to the row that ad_star_matrix takes."""
    idx = alg.index
    rows = np.zeros((len(elements), len(alg.generators)))
    for row, A in zip(rows, elements):
        for gx, cx in A.items():
            if gx not in idx:
                raise UnknownGenerator(str(gx))
            row[idx[gx]] = float(cx)
    return rows


def ad_star_matrix(alg: AlgebraSpec, a: np.ndarray) -> np.ndarray:
    """Matrix B with B[z, y] = coefficient of Z in [A, Y]/i.

    a is a (..., n) stack of coefficient rows of elements A (see
    element_rows), which gives a (..., n, n) stack.  B is the coefficient
    vector of A contracted with the algebra's structure tensor; every row
    is contracted on its own (a vector-matrix product), so a row of a stack
    gives the bits of the same row alone.  The coadjoint flow of
    exp(i*t*A) acts on dual coordinate vectors as exp(t*B)^T.
    """
    n = len(alg.generators)
    B = a[..., None, :] @ alg.structure_tensor.reshape(n, n * n)
    return B.reshape(a.shape[:-1] + (n, n))


# The stacked kernels below multiply whole (k, n, n) stacks, which numpy
# does one matrix at a time with the product it uses for a single matrix, so
# each matrix keeps its own bits.  They write into preallocated buffers:
# fresh stack-sized temporaries cost more than the products themselves.

def _squares_to_zero(mats: np.ndarray) -> np.ndarray:
    """For each matrix of a (k, n, n) stack: True when mat^(2^s) is exactly
    zero for 2^s > n, by s squarings.

    A nilpotent n x n matrix has mat^n = 0.  Overflowing squares are not
    zero, so they answer False.
    """
    hit = np.zeros(len(mats), dtype=bool)
    power, buf = mats.copy(), np.empty_like(mats)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(mats.shape[-1].bit_length()):  # 2^bit_length(n) > n
            np.matmul(power, power, out=buf)
            power, buf = buf, power
            hit |= ~power.any(axis=(1, 2))
            if hit.all():
                break
    return hit


def _nilpotent_sums(mats: np.ndarray):
    """Finite sums I + M + M^2/2! + ... of a (k, n, n) stack, each stopped at
    its own first zero power.

    Returns the sums and a mask of the matrices whose sum was abandoned: a
    power above 1e120 (too large to sum safely), or no zero power by n + 1.
    """
    n = mats.shape[-1]
    out = np.eye(n) + mats
    power, buf = mats.copy(), np.empty_like(mats)
    live = np.ones(len(mats), dtype=bool)
    abandoned = np.zeros(len(mats), dtype=bool)
    fact = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, n + 2):
            np.matmul(power, mats, out=buf)
            power, buf = buf, power
            live &= power.any(axis=(1, 2))
            big = live & (np.abs(power).max(axis=(1, 2)) > 1e120)
            abandoned |= big
            live &= ~big
            if not live.any():
                break
            fact *= k
            np.divide(power, fact, out=buf)
            np.add(out, buf, out=out, where=live[:, None, None])
    return out, abandoned | live


# The scaled series of _expm stops at the first term whose certified tail
# bound is below SERIES_TAIL_TOL, and fails after SERIES_MAX_TERMS terms.
SERIES_TAIL_TOL, SERIES_MAX_TERMS = 1e-17, 40
# The exponents K + 1 and the float factorials (K + 1)! of the tail bound
# theta^(K+1) / (K+1)! / (1 - theta), for K = 1..SERIES_MAX_TERMS.
_TAIL_POWERS = np.arange(2.0, SERIES_MAX_TERMS + 2.0)
_TAIL_FACTORIALS = np.array([float(_fact(K + 1)) for K in range(1, SERIES_MAX_TERMS + 1)])


def _series_terms(thetas: np.ndarray, where) -> np.ndarray:
    """Number of series terms for each scaled inf-norm theta in [0, 1/2]: the
    first K whose tail bound theta^(K+1) / (K+1)! / (1 - theta) is below
    SERIES_TAIL_TOL, every bound of every theta taken at once in the
    operations of the scalar bound.  np.float_power calls libm pow as Python's
    float ** does; np.power has its own pow, which rounds some entries
    differently.
    """
    th = thetas[:, None]
    below = np.float_power(th, _TAIL_POWERS) / _TAIL_FACTORIALS / (1.0 - th) < SERIES_TAIL_TOL
    reached = below.any(axis=1)
    if not reached.all():
        raise ConvergenceFailure(f"series tail bound stuck above {SERIES_TAIL_TOL} after "
                                 f"{SERIES_MAX_TERMS} terms" + where(int(np.argmin(reached))))
    return np.argmax(below, axis=1) + 1


def _scaled_series(mats: np.ndarray, norms, where):
    """exp of a (k, n, n) stack by scaling and squaring: each matrix is scaled
    by its own 2^s to an inf-norm of at most 1/2, summed to its own number of
    terms (``_series_terms``) and squared s times.  Each step runs on the
    whole stack and is kept only for the matrices that still take it.
    """
    scale = np.array([max(0, int(math.ceil(math.log2(nm / 0.5))) if nm > 0.5 else 0)
                      for nm in norms.tolist()])
    B = mats / (2.0 ** scale)[:, None, None]
    terms = _series_terms(np.minimum(0.5, np.abs(B).sum(axis=-1).max(axis=-1)), where)
    out = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape).copy()
    term, buf = out.copy(), np.empty_like(out)
    with np.errstate(over="ignore", invalid="ignore"):
        for K in range(1, int(terms.max()) + 1):
            np.matmul(term, B, out=buf)
            np.divide(buf, K, out=term)
            np.add(out, term, out=out, where=(terms >= K)[:, None, None])
        for r in range(int(scale.max())):
            np.matmul(out, out, out=buf)
            np.copyto(out, buf, where=(scale > r)[:, None, None])
    bad = ~np.isfinite(out).all(axis=(1, 2))
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceFailure(f"matrix exponential overflows after {scale[i]} squarings "
                                 f"(norm {norms[i]:.3g})" + where(i))
    return out


def _expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential of every n x n matrix of a (..., n, n) stack.

    Each matrix gets the arithmetic it would get alone: the identity for
    zero, the exact finite sum when ceil(log2(n+1)) squarings reach zero
    (nilpotent input), otherwise scaling and squaring with its own scale
    and its own certified number of series terms.  Every matrix gives the
    bits of the same matrix passed alone.  ConvergenceFailure names the
    stack index of the failing matrix.
    """
    n, lead = mat.shape[-1], mat.shape[:-2]
    mats = np.ascontiguousarray(mat, dtype=float).reshape(-1, n, n)
    out = np.broadcast_to(np.eye(n), mats.shape).copy()
    todo = np.flatnonzero(mats.any(axis=(1, 2)))
    # Structure constants are exactly representable, so powers of a nilpotent
    # ad* matrix hit exact zero.
    nil = todo[_squares_to_zero(mats[todo])]
    if nil.size:
        sums, abandoned = _nilpotent_sums(mats[nil])
        out[nil[~abandoned]] = sums[~abandoned]
        todo = np.setdiff1d(todo, nil[~abandoned])
    if not todo.size:
        return out.reshape(mat.shape)

    def where(i):
        if not lead:
            return ""
        return f" at stack index {tuple(int(j) for j in np.unravel_index(todo[i], lead))}"

    # Not nilpotent: scale so the norm is at most 1/2, sum, square back.
    M = mats[todo]
    norms = np.abs(M).sum(axis=-1).max(axis=-1)  # the inf-norm of each matrix
    bad = ~np.isfinite(norms)
    if bad.any():
        raise ConvergenceFailure("ad* matrix has non-finite entries" + where(int(np.argmax(bad))))
    out[todo] = _scaled_series(M, norms, where)
    return out.reshape(mat.shape)


def coad_flow(alg: AlgebraSpec, a: np.ndarray, t, V: np.ndarray) -> np.ndarray:
    """Coadjoint action of exp(i*t_r*A_r) on dual coordinate rows V[r].

    a holds the coefficient rows of the elements A_r (see element_rows), t
    their times and V the packed dual rows (see pack_dual), all with
    the same leading axes.  Every row gets the bits it would get alone.
    """
    t = np.asarray(t, dtype=float)
    flows = _expm(t[..., None, None] * ad_star_matrix(alg, a)).swapaxes(-1, -2)
    return (flows @ V[..., None])[..., 0]


def coad_generic(alg: AlgebraSpec, A, t: float, v) -> np.ndarray:
    """Coadjoint action of exp(i*t*A) on one packed dual row v (n,) via the
    exponential of ad*: a stack of one for coad_flow.

    The sum is exact (finite) whenever ad*_A is nilpotent, which covers all
    tower translations; otherwise a scaled-and-squared series with a
    certified tail bound below SERIES_TAIL_TOL (1e-17) is used.
    """
    return coad_flow(alg, element_rows(alg, [A]), [t], _check_rows(alg, [v]))[0]


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
def _translation_weights(N: int):
    """Factorial weights (g, gh, gk) of the tower translation, each carrying
    the tower sign of its lower level.

    They follow from N alone, not from a structure table, so they are built
    once per N and shared read-only.
    """
    g = _coeffs(lambda i: tower_sign(N, i) * _fact(i) * _fact(N - i), range(N + 1))
    gh = _coeffs(lambda i: tower_sign(N, i) * _fact(i) * _fact(N - i + 1), range(1, N + 1))
    gk = _coeffs(lambda i: tower_sign(N, i) * _fact(i + 1) * _fact(N - i), range(N))
    return _readonly(g, gh, gk)


# The translation and Casimir formulas below are sums over tower levels of a
# coefficient times a pairing of two levels.  Each sum is written as one
# pairing over the whole level axis contracted with its coefficient vector;
# reversing the level axis (x[..., ::-1, :], row i holding x_{N-i}) pairs
# level i with level N-i.  The kernels start from C-ordered inputs, and every
# contraction over levels is taken row by row on C-ordered rows (_levels), so
# a row of a stack gives the bits of the same sample passed alone, whatever
# the stack's size or memory layout.

def _levels(u, w):
    """Contraction of the trailing (level) axis of u with the vector w.

    One dot product per row, taken as a stack of (1, n) @ (n, 1) products:
    a stack times a vector would be a matrix-vector product, which rounds
    differently from the dot product of a single row; the rows are made
    C-ordered because a strided dot product rounds differently again.
    """
    return (np.ascontiguousarray(u)[..., None, :] @ w[:, None])[..., 0, 0]


def translate_dual(m, x, j, c, h, d, k):
    """Tower translation exp(i x_k^a C_k^a) by x (..., N+1, dim) of stacked
    dual components, for N odd in dimension 3 and N even in dimension 2.

    Every argument may carry leading sample axes, the mass m too; j has a
    trailing axis of one component per rotation generator; c=None is a zero
    tower.  Returns (j, c, h, d, k); a row of a stack gives the bits of the
    same sample passed alone.  The c row and the quadratic terms pair level
    i with level N - i through the tower form of the algebra (delta in
    dimension 3, eps in dimension 2); only the rotation rows are written per
    dimension.
    """
    m, x, j = np.asarray(m, dtype=float), np.ascontiguousarray(x), np.ascontiguousarray(j)
    N, dim = x.shape[-2] - 1, x.shape[-1]
    w = N / 2.0 - np.arange(N + 1)
    g, gh, gk = _translation_weights(N)
    mc = m[..., None, None]
    # a C-ordered copy: the slices that contractions copy are then read
    # forward, not a short reversed level at a time
    xr = np.ascontiguousarray(x[..., ::-1, :])
    rot = (mc / 2.0) * g[:, None] * _cross3(xr, x) if dim == 3 else \
        (m / 2.0) * _levels(_rowdot(x, xr), g)
    cs = cd = ch = ck = 0.0
    if c is None:
        # each term in c would be +0.0 (a sum of signed zeros), which changes
        # only a -0.0, as 0.0 - shift and h + 0.0 do
        c = 0.0
    else:
        c = np.ascontiguousarray(c)
        if dim == 3:  # so(3): cross products
            rot = _cross3(x, c) + rot
        else:  # so(2): one scalar
            cs = np.sum(_cross2(x, c), axis=-1)
        cd = _levels(_rowdot(x, c), w)
        ch = _levels(_rowdot(x[..., 1:, :], c[..., :-1, :]), np.arange(1.0, N + 1))
        ck = _levels(_rowdot(x[..., :-1, :], c[..., 1:, :]), np.arange(float(N), 0.0, -1.0))
    j = j - _level_sum(rot) if dim == 3 else np.asarray(j[..., 0] - cs + rot)[..., None]
    # component b: -m g tower_form(b, a) x^a of level N - i (x @ EPS2 in dimension 2)
    cp = c - mc * g[:, None] * (xr if dim == 3 else _turn(xr))
    d = d - cd + (m / 2.0) * _levels(_pair(x, xr), w * g)
    h = h + ch + (m / 2.0) * _levels(_pair(x[..., 1:, :], xr[..., :-1, :]), gh)
    k = k - ck - (m / 2.0) * _levels(_pair(x[..., :-1, :], xr[..., 1:, :]), gk)
    return j, cp, h, d, k


def ctrans(alg: AlgebraSpec, x, V) -> np.ndarray:
    """Closed-form coadjoint action of the tower translations by x (k, N+1, dim)
    on a (k, n) stack of packed dual rows V: one translate_dual call."""
    V, x = _rows_and_params(alg, V, x, (alg.N + 1, alg.dim))
    m, j, c, h, d, k = dual_fields(alg, V)
    return pack_dual(alg, m, *translate_dual(m, x, j, c, h, d, k))


def rotation_matrix(omega) -> np.ndarray:
    """Rotation applied to dual 3-vectors by the flow of exp(i omega.J).

    omega is one 3-vector: another shape raises ShapeMismatch, a NaN or an
    infinity InvalidState, and a norm that overflows NonFiniteResult.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3,):
        raise ShapeMismatch(f"omega must be one 3-vector, got shape {omega.shape}")
    if not all(map(math.isfinite, omega.tolist())):
        raise InvalidState(f"omega has a non-finite entry: {omega.tolist()}")
    with np.errstate(over="ignore"):  # an overflowing norm is raised below
        theta = float(np.linalg.norm(omega))
    if not math.isfinite(theta):
        raise NonFiniteResult(f"|omega| overflows: {omega.tolist()}")
    if theta == 0.0:
        return np.eye(3)
    n = omega / theta
    nx = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    # dual coordinates flow by exp(-theta [n]_x)
    return np.eye(3) - math.sin(theta) * nx + (1.0 - math.cos(theta)) * (nx @ nx)


# the generators each Schrodinger-case (Table 1) column flows along; a
# family of three generators takes a 3-vector parameter, one of one a number
SCHRODINGER_COLUMNS = {"translation": ("C0_1", "C0_2", "C0_3"), "boost": ("C1_1", "C1_2", "C1_3"),
                       "time": ("H",), "dilation": ("D",), "conformal": ("K",),
                       "rotation": ("J1", "J2", "J3")}


def coad_closed_form(alg: AlgebraSpec, family: str, params, V, R=None) -> np.ndarray:
    """Printed Schrodinger-case (Table 1) coadjoint flows of a (k, n) stack of
    packed dual rows V (the pack_dual layout), one flow per row; returns (k,
    n) rows.  The tower translations of any (N, dim) are ``ctrans``.

    family is one of SCHRODINGER_COLUMNS ("translation", "boost" and
    "rotation" take (k, 3) parameters, the others (k,)) and requires N=1,
    dim=3.  A "rotation" caller that has built the (k, 3, 3) rotation_matrix
    of its parameters may pass them as R.  The mass component is invariant
    under every flow.  A row of a stack gives the bits of the same row alone.
    """
    if (alg.N, alg.dim) != (1, 3):
        raise UnsupportedClosedForm(
            f"no printed closed form for family {family!r} at N={alg.N}, dim={alg.dim}")
    if family not in SCHRODINGER_COLUMNS:
        raise UnsupportedClosedForm(f"unknown family {family!r}")
    V, p = _rows_and_params(alg, V, params, (3,) if len(SCHRODINGER_COLUMNS[family]) == 3 else ())
    if family in ("translation", "boost"):
        x = np.zeros((len(V), 2, 3))
        x[:, int(family == "boost")] = p
        return ctrans(alg, x, V)
    j_rows, (c0, c1), (_, ih, i_d, ik) = alg.dual_rows
    h, d, k = V[:, ih], V[:, i_d], V[:, ik]
    out = V.copy()
    if family == "time":
        out[:, c1] = V[:, c1] + p[:, None] * V[:, c0]
        out[:, i_d] = d + p * h
        out[:, ik] = k + 2.0 * p * d + p * p * h
    elif family == "dilation":
        # math.exp per draw: np.exp need not round alike
        e = np.array([[math.exp(lam / 2.0), math.exp(-lam / 2.0), math.exp(lam), math.exp(-lam)]
                      for lam in p.tolist()]).reshape(-1, 4)
        out[:, c0] = e[:, 0, None] * V[:, c0]
        out[:, c1] = e[:, 1, None] * V[:, c1]
        out[:, ih] = e[:, 2] * h
        out[:, ik] = e[:, 3] * k
    elif family == "conformal":
        out[:, c0] = V[:, c0] + p[:, None] * V[:, c1]
        out[:, ih] = h + 2.0 * p * d + p * p * k
        out[:, i_d] = d + p * k
    else:  # rotation
        R = np.array([rotation_matrix(om) for om in p]) if R is None else np.asarray(R)
        rows = np.array([j_rows, c0, c1])  # the three 3-vectors J, C_0, C_1
        out[:, rows] = (R.reshape(-1, 1, 3, 3) @ V[:, rows][..., None])[..., 0]
    return out


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def _real(name: str, value):
    """value, or LabelMismatch when it is not a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise LabelMismatch(f"{name} must be a real number, got {value!r}")
    return value


@dataclass(frozen=True)
class OrbitClass:
    """Orbit of the internal sl(2,R) variables; sigma is a positive real
    number on the two-sheet (HplusSigma/HminusSigma) and one-sheet
    (HyperbolicSigma) hyperboloids, and 0 on the other orbits."""

    tag: str
    sigma: float = 0.0

    def __post_init__(self):
        if self.tag not in ORBIT_TAGS:
            raise LabelMismatch(f"unknown orbit tag {self.tag!r}")
        if not math.isfinite(_real("sigma", self.sigma)):
            raise LabelMismatch(f"sigma must be finite, got {self.sigma}")
        if self.tag in ("Hplus0", "Hminus0", "Origin") and self.sigma != 0.0:
            raise LabelMismatch(f"{self.tag} requires sigma = 0")
        if self.sigma < 0:
            raise LabelMismatch("sigma must be nonnegative")
        if self.sigma == 0 and self.tag.endswith("Sigma"):
            raise LabelMismatch(f"{self.tag} requires sigma > 0")


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
        if not isinstance(self.chi_class, OrbitClass):
            raise LabelMismatch(f"chi_class must be an OrbitClass, got {self.chi_class!r}")
        m, s2 = _real("m", self.m), _real("s2", self.s2)
        if not (math.isfinite(m) and m > 0 and math.isfinite(s2)):
            raise LabelMismatch(f"orbit labels require a finite m > 0 and a finite s2, "
                                f"got m={self.m}, s2={self.s2}")


def classify_orbit(chi, tol: float = 1e-9) -> OrbitClass:
    """Classify a chi triple by the invariant interval and the sign of chi0.

    Pass tol=0 for analytically constructed points.  Raises InvalidState
    for a tol that is not finite and nonnegative or a chi with a non-finite
    entry, and NonFiniteResult when the interval of a finite chi overflows.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidState(f"tol must be finite and nonnegative, got {tol}")
    chi = np.asarray(chi, dtype=float).reshape(3)
    if not np.isfinite(chi).all():
        raise InvalidState(f"chi has a non-finite entry: {chi.tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):
        I = chi_interval(chi)
    if not math.isfinite(I):
        raise NonFiniteResult(f"the interval of chi={chi.tolist()} overflows")
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


def orbit_components(m: float, s, chi, x):
    """(j, c, h, d, k) of the orbit parametrization for stacked samples:
    the base point (s, chi) with no tower components, translated by x."""
    h, d, k = conformal_basis_inverse(np.moveaxis(chi, -1, 0))
    return translate_dual(m, x, s, None, h, d, k)


def check_chi_class(want: OrbitClass, chi, tol: float = 1e-9) -> None:
    """LabelMismatch unless chi classifies (classify_orbit at tol) into want:
    the same tag, and a sigma equal to want's to tol relative."""
    cls = classify_orbit(chi, tol)
    if cls.tag != want.tag:
        raise LabelMismatch(f"chi classifies as {cls.tag}, label says {want.tag}")
    if abs(cls.sigma - want.sigma) > tol * max(1.0, abs(want.sigma)):
        raise LabelMismatch(f"sigma {cls.sigma} does not match label value {want.sigma}")


def parametrize(label: OrbitLabel, s, chi, x_levels):
    """Orbit parametrization with label consistency enforced: the
    (j, c, h, d, k) of orbit_components at the external levels x_levels.

    Raises ShapeMismatch unless x_levels is (N+1, dim) and s is one spin
    as PhasePoint takes it, InvalidState for a non-finite entry of s or
    x_levels, and LabelMismatch unless (s, chi) actually lie on the orbits
    the label names: the spin invariant must match to 1e-12, and chi must
    pass check_chi_class at 1e-9.
    """
    x, s = np.asarray(x_levels, dtype=float), np.asarray(s, dtype=float)
    if x.ndim != 2 or s.shape != (spin_components(x.shape[1]),):
        raise ShapeMismatch(f"expected x (N+1, dim) and s (spin_components(dim),), "
                            f"got {x.shape} and {s.shape}")
    if not (np.isfinite(s).all() and np.isfinite(x).all()):
        raise InvalidState(f"s and x must be finite, got s={s.tolist()}, x={x.tolist()}")
    s_inv = float(spin_invariant(s))
    if abs(s_inv - label.s2) > 1e-12 * max(1.0, abs(label.s2)):
        raise LabelMismatch(
            f"spin invariant {s_inv} does not match label value {label.s2}")
    check_chi_class(label.chi_class, chi)
    return orbit_components(label.m, s, np.asarray(chi, dtype=float).reshape(3), x)


# ---------------------------------------------------------------------------
# Casimir functions (classical evaluation)
# ---------------------------------------------------------------------------

def casimir_values(alg: AlgebraSpec, V):
    """Classical Casimir triple (C1, C2, C3) of a (k, n) stack of packed dual
    rows, as three (k,) arrays.

    All products are taken commutatively, so the symmetrized operator
    orderings collapse; on a parametrized orbit C2 equals m^2 s^2
    (dimension 3) or m s (dimension 2) and C3 equals twice m^2 times the
    chi interval.  Raises NonFiniteResult, naming the first such row, when
    a finite row gives a non-finite C2 or C3 (overflow).
    """
    V = _check_rows(alg, V)
    with np.errstate(over="ignore", invalid="ignore"):
        C1, C2, C3 = casimir_arrays(*dual_fields(alg, V))
    bad = ~(np.isfinite(C2) & np.isfinite(C3)) & np.isfinite(V).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteResult(f"Casimirs of a finite dual vector overflow at row {i}: "
                              f"C2={C2[i]}, C3={C3[i]}")
    return C1, C2, C3


@lru_cache(maxsize=None)
def _casimir_weights(N: int):
    """Level weights (alpha, a, b, q) of the Casimirs; like the translation
    weights they depend on N alone and are shared read-only."""
    sign = np.array([tower_sign(N, i) for i in range(N + 1)], dtype=float)
    alpha = 0.5 * sign / _coeffs(lambda i: _fact(i) * _fact(N - i), range(N + 1))
    a_coef = 0.5 * sign[1:] / _coeffs(lambda i: _fact(i - 1) * _fact(N - i), range(1, N + 1))
    b_coef = 0.5 * sign[:-1] / _coeffs(lambda i: _fact(i) * _fact(N - i - 1), range(N))
    q_coef = alpha * (np.arange(N + 1) - N / 2.0)
    return _readonly(alpha, a_coef, b_coef, q_coef)


def casimir_arrays(m, j, c, h, d, k):
    """(C1, C2, C3) for stacked dual components, as returned by translate_dual.

    The mass may be one number or one per sample.  Like translate_dual, a
    row of a stack gives the bits of the same sample passed alone.
    """
    m = np.asarray(m, dtype=float)
    c, j = np.ascontiguousarray(c), np.ascontiguousarray(j)
    N, dim = c.shape[-2] - 1, c.shape[-1]
    alpha, a_coef, b_coef, q_coef = _casimir_weights(N)
    cr = np.ascontiguousarray(c[..., ::-1, :])  # C-ordered, as in translate_dual
    Cq = _levels(_pair(c, cr), q_coef)
    A = _levels(_pair(c[..., :-1, :], cr[..., 1:, :]), a_coef)
    B = -_levels(_pair(c[..., 1:, :], cr[..., :-1, :]), b_coef)
    if dim == 3:
        vec = m[..., None] * j - _level_sum(alpha[:, None] * _cross3(c, cr))
        C2 = _rowdot(vec, vec)
    else:
        C2 = m * j[..., 0] - _levels(_rowdot(cr, c), alpha)
    dq = m * d - Cq
    # dq * dq, not dq ** 2: a numpy scalar squares by pow(), which rounds
    # differently from the product an array squares by
    C3 = 2.0 * (m * h - A) * (m * k - B) - 2.0 * (dq * dq)
    return np.full(np.shape(C3), m, dtype=float), C2, C3
