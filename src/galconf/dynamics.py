"""Time evolution on an orbit.

Every supported Hamiltonian, h or its oscillator deformation
h + sign * omega^2 * k, is quadratic in the Darboux chart plus linear in
chi, so every flow is z' = L z with a constant matrix L = P G + Q a: the
chart's constant Poisson tensor P times the Hessian G of H, plus its
chi-linear part Q contracted with the chi coefficients a of H.  P and Q are
``StructureMatrix.tensors``, the one table of the chart's brackets.  One RK4
step is the matrix I + D, so the samples are its powers applied to the
initial state; they are formed by doubling D, not by stepping.  The free
flow has a nilpotent external part, so a closed form exists and acts as
the oracle for RK4.

``integrate`` takes one PhasePoint and returns a Trajectory holding its
samples as one stacked PhasePoint, which ``record_values`` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .algebra import check_family
from .coadjoint import casimir_arrays, chi_interval
from .errors import (BadStep, InvalidState, NonFiniteResult, ShapeMismatch, TooFewSamples,
                     UnsupportedHamiltonian)
from .poisson import (
    EPS2,
    PhasePoint,
    StructureMatrix,
    chart_blocks,
    dual_vector_at,
    generators_at,
    hamiltonian_poly,
    p_levels,
    q_levels,
    spin_invariant,
)

__all__ = [
    "HamiltonianChoice",
    "Trajectory",
    "free_flow",
    "integrate",
    "verify_motion_order",
    "conditioning_threshold",
    "record_values",
    "generator_values",
    "conservation_drifts",
    "trajectory_csv_text",
    "CSV_FLOAT_FORMAT",
    "FREE",
]

CSV_FLOAT_FORMAT = "%.17g"

_fact = math.factorial


@dataclass(frozen=True)
class HamiltonianChoice:
    """Free flow, or the Newton-Hooke deformation h + sign * omega^2 * k."""

    tag: str = "free"
    omega: float = 0.0
    sign: int = 1

    def __post_init__(self):
        if self.tag not in ("free", "newton_hooke"):
            raise UnsupportedHamiltonian(f"unknown Hamiltonian tag {self.tag!r}")
        if self.tag == "free" and (self.omega != 0 or self.sign != 1):
            raise UnsupportedHamiltonian(
                f"the free flow takes omega = 0 and sign = 1, got {self.omega}, {self.sign}")
        if self.tag == "newton_hooke":
            if not (self.omega > 0 and math.isfinite(self.omega * self.omega)):
                raise UnsupportedHamiltonian(
                    f"newton_hooke requires omega > 0 with a finite square, got {self.omega}")
            if self.sign not in (1, -1):
                raise UnsupportedHamiltonian("sign must be +1 or -1")

    @property
    def free(self) -> bool:
        return self.tag == "free"


FREE = HamiltonianChoice()


@lru_cache(maxsize=64)
def _flow_matrix(N: int, dim: int, m: float, ham: HamiltonianChoice) -> np.ndarray:
    """Constant matrix L of the flow z' = L z on packed states z = (q, p, chi).

    H is quadratic in the Darboux chart plus linear in chi, so
    {z_i, H} = sum_v {z_i, z_v} dH/dz_v is linear in z: L = P G + Q a, with
    P and Q the chart's ``StructureMatrix.tensors`` and G the Hessian of H
    and a its chi coefficients, both read off the terms of H.  The spin is
    inert under every supported flow and is left out of z.  L is built once
    per (N, dim, m, ham) and shared read-only.
    """
    sm = StructureMatrix(N, dim, m)
    P, Q = sm.tensors
    coords = sm.coordinates()
    keep = [i for i, sym in enumerate(coords) if sym[0] != "s"]
    column = {coords[i]: j for j, i in enumerate(keep)}
    P = P[np.ix_(keep, keep)]
    G = np.zeros_like(P)
    a = np.zeros(3)
    for mono, c in hamiltonian_poly(N, dim, m, ham.omega, ham.sign).terms.items():
        (u, e), *rest = mono
        if u[0] == "chi":
            a[u[1]] = c
            continue
        i = column[u]
        if rest:
            ((v, _),) = rest
            j = column[v]
            G[i, j] = G[j, i] = c
        else:
            G[i, i] = e * c
    L = P @ G
    L[-3:, -3:] = np.einsum("abg,b->ag", Q[-3:, -3:, -3:], a)
    L.setflags(write=False)
    return L


def _rk4_step_matrix(L: np.ndarray, dt: float) -> np.ndarray:
    """Increment D = sum_{k=1..4} (dt L)^k / k! of one classical RK4 step
    z -> z + D z of z' = L z.  The identity is left out, so the small
    entries of D are not rounded against 1."""
    A = dt * L
    term = D = A
    for k in range(2, 5):
        term = term @ A / k
        D = D + term
    return D


def _rk4(z0: np.ndarray, D: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out filled with the states (I + D)^i z0 for i = 0..len(out) - 1, by
    doubling the increment.

    With D_b = (I + D)^b - I, the rows [b, 2b) are rows [0, b) plus
    rows [0, b) @ D_b^T, and D_{2b} = 2 D_b + D_b @ D_b, so a run costs
    ceil(log2(len(out))) matrix products.  Doubling stops at the last
    finite D_b, and the remaining rows are filled in blocks of b, each
    block from the one before, so an exact zero is never multiplied by an
    infinite D_b and the first non-finite entry is a coordinate that
    overflows.  The overflow is not reported here: the PhasePoint built
    from the rows rejects non-finite samples and names the first one.
    """
    n = len(out)
    out[0] = z0
    b = step = 1  # rows [0, b) are filled and D is D_step
    with np.errstate(over="ignore", invalid="ignore"):
        while b < n:
            c = min(step, n - b)
            src = out[b - step:b - step + c]
            np.add(src, src @ D.T, out=out[b:b + c])
            b += c
            if b < n and b == 2 * step:
                doubled = 2.0 * D + D @ D
                if np.isfinite(doubled).all():
                    D, step = doubled, b
    return out


def free_flow(q, p, chi, m: float, t):
    """Exact free-flow coordinates (q, p, chi) at times t.

    The external solution is the terminating polynomial of the nilpotent
    flow; chi is quadratic in t because chi0 - chi1 is conserved.  The time
    array and the leading axes of the initial coordinates broadcast against
    each other.  Raises ShapeMismatch for q, p and chi that are not one
    chart's blocks or whose leading axes do not broadcast, BadDimension for a
    dimension other than 2 or 3, and InvalidState for a mass that is not
    finite and positive or a time that is not finite.
    """
    t = np.asarray(t, dtype=float)
    if q.ndim < 2 or p.ndim < 2:
        raise ShapeMismatch(f"q {q.shape} and p {p.shape} must have a level and an axis")
    dim, n_q, n_p = q.shape[-1], q.shape[-2], p.shape[-2]
    N = n_q + n_p - 1  # q and p hold the N + 1 levels of every family between them
    if (p.shape[-1] != dim or chi.shape[-1:] != (3,)
            or (q_levels(N, dim), p_levels(N, dim)) != (n_q, n_p)):
        raise ShapeMismatch(f"q {q.shape}, p {p.shape}, chi {chi.shape} are not one chart's")
    check_family(N, dim, central=True)
    if not (math.isfinite(m) and m > 0):
        raise InvalidState(f"mass must be finite and positive, got {m}")
    if not np.isfinite(t).all():
        raise InvalidState("times must be finite")
    try:
        b = np.broadcast(t, q[..., 0, 0], p[..., 0, 0])
        np.broadcast(b, chi[..., 0])
    except ValueError as exc:
        raise ShapeMismatch(f"times {t.shape} and leading axes of q {q.shape}, p {p.shape} "
                            f"and chi {chi.shape} do not broadcast") from exc
    # Levels and axis first, the L leading axes last: every step runs along the
    # samples, and each level adds its terms in the order of its sum, from +0.0.
    lead, L, top = b.shape, b.ndim, n_q - 1
    first, back = (L, L + 1, *range(L)), (*range(2, L + 2), 0, 1)
    pe = p if dim == 3 else p @ EPS2  # on the input layout, for its signed zeros
    qT, pT, peT = (np.ascontiguousarray(x.reshape((1,) * (L + 2 - x.ndim) + x.shape)
                                        .transpose(first)) for x in (q, p, pe))
    tc = t.reshape((1,) * (L + 1 - t.ndim) + t.shape)  # against the axis of one level
    p_t = np.zeros((n_p, dim) + lead)
    for r in range(n_p):  # level k adds (-t)^r / r! p_{k-r} for r = 0..k
        p_t[r:] += (-tc) ** r / _fact(r) * pT[:n_p - r]
    powers = np.empty((top + n_p + 1,) + tc.shape)  # t^e / e! along a level axis
    for e in range(top + n_p + 1):
        np.divide(tc ** e, _fact(e), out=powers[e])
    q_t = np.zeros((n_q, dim) + lead)
    for r in range(top + 1):  # level k adds t^r / r! q_{k+r} for r = 0..top-k
        q_t[:top + 1 - r] += powers[r] * qT[r:]
    for r in range(n_p):  # then (-1)^r t^e / e! p_{n_p-1-r} / m, e = top-k+1+r
        term = powers[top + 1 + r:r:-1] * peT[n_p - 1 - r] / m
        if r % 2:
            q_t -= term
        else:
            q_t += term
    c0, c1, c2 = chi[..., 0], chi[..., 1], chi[..., 2]
    e = c0 - c1
    chi_t = np.stack([c0 + c2 * t + e * t * t / 2.0,
                      c1 + c2 * t + e * t * t / 2.0,
                      c2 + e * t], axis=-1)
    return q_t.transpose(back), p_t.transpose(back), chi_t


@dataclass
class Trajectory:
    """Samples of one flow with recorded generator and Casimir values.

    times is (n,) and states is one PhasePoint holding the n samples as a
    stack; the states' arrays are made read-only in place and times is a
    read-only copy.  q, p, s, chi, m, N and dim read through to the states.
    ham is the Hamiltonian whose flow the samples follow.
    """

    times: np.ndarray
    states: PhasePoint
    recorded: Dict[str, np.ndarray] = field(default_factory=dict)
    ham: HamiltonianChoice = FREE

    def __post_init__(self):
        self.times = np.array(self.times, dtype=float)
        if self.states.q.ndim != 3 or self.times.shape != self.states.q.shape[:1]:
            raise ShapeMismatch(f"{self.times.shape} times for states of shape "
                                f"{self.states.q.shape}")
        for a in (self.times, self.q, self.p, self.s, self.chi):
            a.setflags(write=False)

    q = property(lambda self: self.states.q)
    p = property(lambda self: self.states.p)
    s = property(lambda self: self.states.s)
    chi = property(lambda self: self.states.chi)
    m = property(lambda self: self.states.m)
    N = property(lambda self: self.states.N)
    dim = property(lambda self: self.states.dim)


def record_values(states: PhasePoint) -> Dict[str, np.ndarray]:
    """Generator and Casimir values of a stack of samples, in one pass.

    Raises NonFiniteResult naming the first sample, and the first quantity
    in it, whose value overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rec = generators_at(states)
        rec.update(zip(("C1", "C2", "C3"), casimir_arrays(states.m, *dual_vector_at(states))))
    return _finite(rec)


def generator_values(states: PhasePoint) -> Dict[str, np.ndarray]:
    """The generator values of ``record_values``, without the Casimirs, under
    the same overflow check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(generators_at(states))


def _finite(rec: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    bad = [(int(np.argwhere(~np.isfinite(v))[0, 0]), name) for name, v in rec.items()
           if not np.isfinite(v).all()]
    if bad:
        i, name = min(bad, key=lambda b: b[0])
        raise NonFiniteResult(f"recorded {name} is not finite at sample {i}")
    return rec


def _recorded(traj: Trajectory) -> Dict[str, np.ndarray]:
    """traj.recorded, or ShapeMismatch if traj was integrated without recording."""
    if not traj.recorded:
        raise ShapeMismatch("trajectory was integrated without recording")
    return traj.recorded


def conservation_drifts(traj: Trajectory) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Largest deviation from the first sample of every quantity the flow of
    traj.ham conserves: the recorded generators and Casimirs, the spin
    invariant and the chi interval, plus p_0 and chi0 - chi1 for the free
    flow and the deformed energy h + sign * omega^2 * k for Newton-Hooke.

    Returns two dicts keyed by quantity: the drifts, and the sample time at
    which each drift is reached (the first such time).  Raises ShapeMismatch,
    as trajectory_csv_text does, if traj was integrated without recording.
    """
    rec, ham = _recorded(traj), traj.ham
    if ham.free:
        named = {"p0": traj.p[:, 0], "chi_diff": traj.chi[:, 0] - traj.chi[:, 1],
                 "h": rec["h"], "j": rec["j"]}
    else:
        named = {"deformed_energy": rec["h"] + ham.sign * ham.omega ** 2 * rec["k"]}
    named.update({nm: rec[nm] for nm in ("C1", "C2", "C3")},
                 spin_invariant=spin_invariant(traj.s), chi_interval=chi_interval(traj.chi))
    # one row per quantity of its deviations, the largest over its components
    dev = np.array([d if d.ndim == 1 else d.max(axis=1)
                    for d in (np.abs(v - v[0]) for v in named.values())])
    first = np.argmax(dev, axis=1)  # the first sample at which each drift is reached
    return (dict(zip(named, dev[np.arange(len(dev)), first].tolist())),
            dict(zip(named, traj.times[first].tolist())))


def _step_count(T: float, dt: float) -> int:
    """Steps of size dt from 0 to T; dt must divide T to 1e-9 relative."""
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise BadStep(f"T and dt must be finite, got T={T}, dt={dt}")
    if T < 0:
        raise BadStep("T must be nonnegative")
    if T == 0:
        return 0
    if dt <= 0 or dt > T * (1 + 1e-12):
        raise BadStep(f"need 0 < dt <= T, got dt={dt}, T={T}")
    if not math.isfinite(T / dt):
        raise BadStep(f"T/dt overflows: T={T}, dt={dt}")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * T:
        raise BadStep(f"dt={dt} does not divide T={T}: {n_steps} steps end at "
                      f"{n_steps * dt}")
    return n_steps


def integrate(pt0: PhasePoint, ham: HamiltonianChoice, T: float, dt: float,
              method: str = "rk4", record: bool = True) -> Trajectory:
    """Sample the flow at t = 0, dt, ..., T.

    method "rk4" is the classical fixed-step integrator; "closed" evaluates
    the exact free solution at every sample.  dt must divide T.  pt0 is one
    sample.
    """
    if pt0.q.ndim != 2:
        raise ShapeMismatch(f"integrate starts from one sample, not a stack {pt0.q.shape[:-2]}")
    if method not in ("rk4", "closed"):
        raise BadStep(f"unknown method {method!r}")
    n_steps = _step_count(T, dt)
    if method == "closed" and not ham.free:
        raise UnsupportedHamiltonian("closed form available for the free flow only")
    # the packed state (q, p, chi): chart coordinates without the inert spin
    z0 = np.concatenate([pt0.q.ravel(), pt0.p.ravel(), pt0.chi])
    try:  # one buffer the size of the samples, which rk4 fills: a horizon
        # that does not fit in memory fails here, before any step is taken
        z = np.empty((n_steps + 1, z0.size))
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array
        raise BadStep(f"{n_steps + 1} samples of dt={dt} up to T={T} do not fit "
                      f"in memory: {exc}") from None
    times = np.arange(n_steps + 1) * dt
    if method == "closed":
        q, p, chi = free_flow(pt0.q, pt0.p, pt0.chi, pt0.m, times)
    else:
        D = _rk4_step_matrix(_flow_matrix(pt0.N, pt0.dim, pt0.m, ham), dt)
        q, p, _, chi = chart_blocks(_rk4(z0, D, z), pt0.N, pt0.dim)  # an empty spin slice
    s = np.broadcast_to(pt0.s, (n_steps + 1,) + pt0.s.shape)
    traj = Trajectory(times=times, states=PhasePoint(q=q, p=p, s=s, chi=chi, m=pt0.m), ham=ham)
    if record:
        traj.recorded = record_values(traj.states)
    return traj


def _decimation(traj: Trajectory) -> Tuple[int, float]:
    """Stride and step of the coarsest subgrid of a uniformly sampled
    trajectory that keeps N + 3 samples, N = traj.N."""
    t = traj.times
    if len(t) < 2:
        raise TooFewSamples("need at least two samples")
    steps = np.diff(t)
    dt = float(steps[0])
    if float(np.max(np.abs(steps - dt))) > 1e-9 * max(dt, 1e-30):
        raise TooFewSamples("order check requires uniform sampling")
    stride = max(1, (len(t) - 1) // (traj.N + 2))
    return stride, dt * stride


def verify_motion_order(traj: Trajectory):
    """Check that the base coordinate moves on a degree-N polynomial, N = traj.N.

    Returns (fit_residual, scaled_diff): the max deviation from the
    least-squares degree-N fit of q_0 per axis, and the max (N+1)-th forward
    difference divided by dt^(N+1), taken on the coarsest subgrid that keeps
    N+3 samples (finer grids would only amplify rounding noise).
    """
    N = traj.N
    n = len(traj.times)
    if n < N + 3:
        raise TooFewSamples(f"need at least {N + 3} samples, have {n}")
    stride, dt_eff = _decimation(traj)
    y = traj.q[:, 0]
    t = traj.times
    span = t[-1] - t[0]
    tt = (t - t[0]) / span * 2.0 - 1.0 if span > 0 else t * 0.0
    fit = np.polynomial.polynomial.polyval(tt, np.polynomial.polynomial.polyfit(tt, y, N))
    residual = float(np.max(np.abs(fit.T - y)))
    diffs = np.diff(y[::stride], n=N + 1, axis=0) / dt_eff ** (N + 1)
    scaled = float(np.max(np.abs(diffs))) if diffs.size else 0.0
    return residual, scaled


def conditioning_threshold(traj: Trajectory) -> float:
    """Noise level below which the (N+1)-th difference counts as zero,
    N = traj.N.

    Model: each sample carries absolute noise of order
    128 * eps * n_samples * max(1, |q_0|), amplified by 2^(N+1) by the
    difference stencil and divided by dt_eff^(N+1) on the decimated grid.
    """
    N = traj.N
    _, dt_eff = _decimation(traj)
    scale = max(1.0, float(np.max(np.abs(traj.q[:, 0]))))
    noise = 128.0 * float(np.finfo(float).eps) * len(traj.times) * scale
    return float(2.0 ** (N + 1) * noise / dt_eff ** (N + 1))


def _csv_header(N: int, dim: int) -> List[str]:
    cols = ["t"]
    for k in range(q_levels(N, dim)):
        cols += [f"q{k}_{a + 1}" for a in range(dim)]
    for k in range(p_levels(N, dim)):
        cols += [f"p{k}_{a + 1}" for a in range(dim)]
    cols += [f"s_{i + 1}" for i in range(3)] if dim == 3 else ["s"]
    cols += ["chi0", "chi1", "chi2", "h", "d", "k"]
    cols += [f"j_{i + 1}" for i in range(3)] if dim == 3 else ["j"]
    cols += ["C1", "C2", "C3"]
    return cols


def trajectory_csv_text(traj: Trajectory) -> bytes:
    """CSV body with a mandatory header row and 17 significant digits, as
    ASCII bytes with "\n" line ends: every cell is the CSV_FLOAT_FORMAT text
    of its float, so 0.0 and -0.0 write "0" and "-0".  ``_csv_records`` makes
    the cells."""
    n = len(traj.times)
    rec = _recorded(traj)
    table = np.hstack([traj.times[:, None], traj.q.reshape(n, -1), traj.p.reshape(n, -1),
                       traj.s, traj.chi, np.stack([rec[k] for k in ("h", "d", "k")], axis=1),
                       rec["j"], np.stack([rec[k] for k in ("C1", "C2", "C3")], axis=1)])
    return _csv_body(table, (",".join(_csv_header(traj.N, traj.dim)) + "\n").encode())


def _csv_body(table: np.ndarray, head: bytes = b"") -> bytes:
    """head, then the rows of a 2-d float table as ASCII CSV lines, made
    _CSV_ROWS rows at a time, in one join; the cells ``_csv_records`` does not
    certify are formatted by %."""
    out = [head]
    for r in range(0, len(table), _CSV_ROWS):
        block = table[r:r + _CSV_ROWS]
        rec, slow = _csv_records(block)
        if slow.any():
            texts = b"".join((CSV_FLOAT_FORMAT % v).encode().ljust(47, b"\0")
                             for v in block[slow].tolist())
            rec[slow, :47] = np.frombuffer(texts, np.uint8).reshape(-1, 47)
        out.append(rec.tobytes().translate(None, b"\0"))
    return b"".join(out)


# The CSV_FLOAT_FORMAT kernel.  A cell x with 1e-150 <= |x| < 1e150 has a
# decimal exponent X and the 17 digits D = round(y), y = |x| 10^(16-X) in
# [10^16, 10^17).  y is formed as hi + lo, Dekker's (1971) error-free product
# of |x| and 10^(16-X) held as a double-double, to an absolute error below
# 2^-45.  A y within _CSV_BAND of a rounding tie, where that error could pick
# the other D, and every nonzero x outside the range or not finite, are left
# to %.  A y that close to 10^16 or 10^17 needs no band: either side gives
# D = 10^16 at the same X, once a D of 10^17 carries into the next decade.
# Each cell is a 48-byte record: sign, the "0.000" prefix of %g's fixed style,
# 17 digit slots each followed by a point slot, the "e+XX" suffix, and the
# separator.  Unused bytes are zero and one translate deletes them.
_CSV_BAND = 1e-6
_CSV_ROWS = 256  # stack-sized temporaries cost more than the arithmetic
_CSV_X0 = -152  # the tables cover decimal exponents -152..152
_SPLIT = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves


@lru_cache(maxsize=None)
def _csv_tables():
    """The kernel's tables, built on first use.  By decimal exponent X:
    10^(16-X) as hi, lo and the two halves of hi; the place value of D's last
    digit before the point (1 when the point is in the prefix); and record
    templates by X, by whether the point is written and by sign, as six
    8-byte words.  Then the words of digits: each 4-digit group whole, the
    same without its trailing zeros, and each leading digit."""
    xs = range(_CSV_X0, 1 - _CSV_X0)
    ten = np.empty((4, len(xs)))
    unit = np.ones(len(xs), dtype=np.int64)
    tmpl = np.zeros((len(xs), 2, 2, 48), dtype=np.uint8)
    for i, x in enumerate(xs):
        exact = Fraction(10) ** (16 - x)
        ten[:2, i] = float(exact), float(exact - Fraction(float(exact)))
        if -4 <= x < 0:
            tmpl[i, ..., 1:2 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)
        else:
            point = x if 0 <= x < 17 else 0
            unit[i] = 10 ** (16 - point)
            tmpl[i, 1, :, 7 + 2 * point] = ord(".")
            tmpl[i, ..., 8:8 + 2 * point:2] = ord("0")  # integer digits past D's last
        if not -4 <= x < 17:
            suffix = b"e%+03d" % x
            tmpl[i, ..., 40:40 + len(suffix)] = np.frombuffer(suffix, np.uint8)
    tmpl[:, :, 1, 0] = ord("-")
    tmpl[..., 47] = ord(",")
    big = _SPLIT * ten[0]
    ten[2] = big - (big - ten[0])
    ten[3] = ten[0] - ten[2]
    groups = [b"%04d" % g for g in range(10000)]
    digits = np.zeros((20010, 4, 2), dtype=np.uint8)  # (digit, point slot) pairs
    digits[:10000, :, 0] = np.frombuffer(b"".join(groups), np.uint8).reshape(-1, 4)
    digits[10000:20000, :, 0] = np.frombuffer(
        b"".join(g.rstrip(b"0").ljust(4, b"\0") for g in groups), np.uint8).reshape(-1, 4)
    digits[20000:, 3, 0] = np.arange(ord("0"), ord("9") + 1)
    words = digits.reshape(-1, 8).view(np.uint64).ravel()
    return ten, unit, tmpl.reshape(-1, 48).view(np.uint64), words


def _two_product(a: np.ndarray, X: np.ndarray, ten: np.ndarray):
    """a 10^(16-X) as hi + lo: hi = fl(a hi_X), and lo its exact rounding
    error (Dekker's TwoProduct) plus a lo_X."""
    th, tl, bh, bl = (t[X] for t in ten)
    hi = a * th
    big = _SPLIT * a
    ah = big - (big - a)
    al = a - ah
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl + a * tl


def _csv_records(block: np.ndarray):
    """(records, slow) of a 2-d float table: its cells' (rows, cols, 48)
    uint8 records, the last column's ending its row, and the mask of cells
    whose record is not certified to hold their CSV_FLOAT_FORMAT text."""
    ten, unit, tmpl, digits = _csv_tables()
    x = block.ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-150) & (ax < 1e150)
    a = np.where(fast, ax, 1.0)
    X = np.floor(np.log10(a)).astype(np.intp) - _CSV_X0
    hi, lo = _two_product(a, X, ten)
    # log10 may miss the decade by one: move y into [10^16, 10^17)
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.intp)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(shift)
    if moved.size:
        X[moved] += shift[moved]
        hi[moved], lo[moved] = _two_product(a[moved], X[moved], ten)
    whole = np.floor(lo)  # hi is an integer (y > 2^53): lo holds y's fraction
    frac = lo - whole
    slow = ~fast & (ax != 0) | (np.abs(frac - 0.5) < _CSV_BAND)
    D = (hi.astype(np.int64) + whole.astype(np.int64) + (frac >= 0.5)) * fast
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X += carry
    X[~fast] = -_CSV_X0  # a zero is the digit 0 at exponent 0
    rec = np.take(tmpl, 4 * X + 2 * (D % unit[X] != 0) + np.signbit(x), axis=0)
    # word 0 gets the leading digit, words 1-4 four digits each, whole or,
    # when no nonzero digit follows, without trailing zeros; word 5 holds no
    # digit.  G is group-major, so each group is one contiguous index row.
    G = np.empty((5, len(x)), dtype=np.intp)
    for j in (4, 3, 2, 1):
        q = D // 10 ** 4
        G[j] = D - q * 10 ** 4
        D = q
    G[0] = D + 20000
    tail = G[4] == 0
    G[4] += 10000
    for j in (3, 2, 1):
        G[j] += 10000 * tail
        tail &= G[j] == 10000
    for j, g in enumerate(G):
        rec[:, j] |= np.take(digits, g)
    rec = rec.view(np.uint8).reshape(block.shape + (48,))
    rec[:, -1, -1] = ord("\n")
    return rec, slow.reshape(block.shape)
