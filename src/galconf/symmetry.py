"""Explicitly time-dependent integrals of motion and finite symmetry maps.

Because the Hamiltonian sits inside the symmetry algebra, the conserved
generators depend on time: they are obtained by pulling every generator
function back along the free flow to time zero.  For the Schrodinger case
(N=1, dimension 3) the finite conformal and Galilei transformations of
solutions are implemented in closed form and map free solutions to free
solutions.  Every generator value here is ``generators_at`` or
``dual_vector_at`` on a trajectory's stacked PhasePoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .dynamics import Trajectory, free_flow
from .errors import (
    InvalidState,
    NonOrthogonalRotation,
    ShapeMismatch,
    SingularTime,
    UnsupportedClosedForm,
    UnsupportedHamiltonian,
)
from .poisson import PhasePoint, dual_vector_at, generators_at

__all__ = [
    "integrals_of_motion",
    "schrodinger_integrals",
    "ConformalMap",
    "GalileiMap",
    "map_trajectory",
]


def _require_free(traj: Trajectory, what: str) -> None:
    if not traj.ham.free:
        raise UnsupportedHamiltonian(f"{what} free trajectories only")


def integrals_of_motion(traj: Trajectory):
    """(j, c, h, d, k) stacks of the time-dependent conserved generators, one
    row per sample: each sample pulled back along the free flow to time zero
    and read off the orbit parametrization (``dual_vector_at``).  Constant
    along any free trajectory by construction, for every (N, dim); a
    trajectory of another flow raises UnsupportedHamiltonian.  A row does not
    depend on the other samples, so a subsample gives the same rows."""
    _require_free(traj, "integrals of motion hold on")
    q, p, chi = free_flow(traj.q, traj.p, traj.chi, traj.m, -traj.times)
    return dual_vector_at(PhasePoint(q=q, p=p, s=traj.s, chi=chi, m=traj.m))


def schrodinger_integrals(traj: Trajectory) -> Dict[str, np.ndarray]:
    """The printed N=1 set, one row per sample: j, p, x - t p/m, h, d - t h,
    k - 2 t d + t^2 h.

    The independent oracle of ``integrals_of_motion``: the reduced generator
    expressions at each sample, with no pullback.  Like it, they are
    integrals of the free flow only: another flow raises
    UnsupportedHamiltonian.
    """
    if (traj.N, traj.dim) != (1, 3):
        raise UnsupportedClosedForm("printed integrals exist for N=1, dim 3 only")
    _require_free(traj, "printed integrals hold on")
    h, d, k, j = map(generators_at(traj.states).get, "hdkj")
    t, x, p = traj.times, traj.q[:, 0], traj.p[:, 0]
    return {"j": j, "p": p, "x_boost": x - t[:, None] * p / traj.m, "h": h,
            "d_shifted": d - t * h, "k_shifted": k - 2.0 * t * d + t * t * h}


def _parameter(name: str, value, trailing: Tuple[int, ...]):
    """value as a read-only float array of shape (..., *trailing), or as a
    float when that shape is (): a wrong trailing shape raises ShapeMismatch,
    a NaN or an infinity InvalidState."""
    arr = np.array(value, dtype=float)
    if arr.shape[arr.ndim - len(trailing):] != trailing:
        raise ShapeMismatch(f"{name} must have shape (..., {', '.join(map(str, trailing))}), "
                            f"got {arr.shape}")
    _finite(name, arr).setflags(write=False)
    return arr if arr.ndim else float(arr)


def _finite(name: str, value):
    """value unchanged; InvalidState if it has a NaN or an infinite entry."""
    if not np.isfinite(value).all():
        raise InvalidState(f"{name} has a non-finite entry")
    return value


def _stack_shape(*shapes) -> Tuple[int, ...]:
    """The common stack of leading shapes; ShapeMismatch if they do not
    broadcast."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise ShapeMismatch(f"stacks of shapes {shapes} do not broadcast") from None


def _states(shape, t, x, p):
    """x and p as float arrays of shape (..., 3), whose leading axes, for a
    stack of maps, broadcast against the times and the stack; ShapeMismatch
    otherwise, and InvalidState for a NaN or an infinity in x or p."""
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    if x.shape[-1:] != (3,) or p.shape[-1:] != (3,):
        raise ShapeMismatch(f"x and p must be (..., 3), got {x.shape} and {p.shape}")
    if shape:
        _stack_shape(shape, np.shape(t), x.shape[:-1], p.shape[:-1])
    return _finite("x", x), _finite("p", p)


@dataclass(frozen=True, eq=False)  # c may be an array: maps compare by identity
class ConformalMap:
    """Finite conformal map of Schrodinger-case states:
    x' = x/(1+ct), p' = p(1+ct) - m c x, t' = t/(1+ct).

    Times may be numbers or arrays of times (with a matching leading sample
    axis on x and p); every time is checked against the pole.  The mass is
    an argument of ``apply``; ``map_trajectory`` passes the trajectory's.

    c may be a stack of parameters, one map per row (``shape`` is its stack,
    () for one map); its leading axes broadcast against those of the times
    and states, and each row gets the bits the same map gives alone.  A NaN
    or an infinity in c, a state or a time raises InvalidState naming it;
    states that are not (..., 3), and for a stack times and states whose
    leading axes do not broadcast against it, raise ShapeMismatch.
    """

    c: float
    shape: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "c", _parameter("c", self.c, ()))
        object.__setattr__(self, "shape", np.shape(self.c))

    @staticmethod
    def _denominator(t, c, what: str):
        """1 + c t; raises SingularTime, naming the first time at the pole."""
        if isinstance(c, np.ndarray):  # a stack of maps
            _stack_shape(c.shape, np.shape(t))
        denom = 1.0 + c * t
        bad = np.abs(denom) < 1e-14
        if np.any(bad):
            i = int(np.argmax(np.ravel(bad)))
            t_bad, c_bad = (np.broadcast_to(v, bad.shape).ravel()[i] for v in (t, c))
            raise SingularTime(f"{what} singular at t={t_bad}, c={c_bad}")
        return denom

    def time(self, t):
        return t / self._denominator(_finite("t", t), self.c, "conformal time map")

    def inverse_time(self, tp):
        return tp / self._denominator(_finite("tp", tp), -self.c, "conformal time map")

    def apply(self, x, p, t, m: float):
        denom = self._denominator(_finite("t", t), self.c, "conformal transform")
        x, p = _states(self.shape, t, x, p)
        per_sample = np.asarray(denom)[..., None]
        return x / per_sample, p * per_sample - np.asarray(m * self.c)[..., None] * x, t / denom


@dataclass(frozen=True, eq=False)  # R is an array: maps compare by identity
class GalileiMap:
    """Finite Galilei map of Schrodinger-case states: rotation, boost,
    translation and time shift, composed in that order,
    x' = Rx + a + vt, p' = Rp + mv, t' = t + tau.

    R defaults to the identity and must be orthogonal to 1e-9.  Times may
    be numbers or arrays of times, as for ConformalMap; R is applied to each
    sample as a matrix-vector product, as for a single state.

    Each parameter may be a stack, one map per row: a (..., 3), v (..., 3),
    tau (...) and R (..., 3, 3), whose leading axes broadcast against each
    other (``shape`` is their common stack, () for one map) and against
    those of the times and states; each row gets the bits the same map gives
    alone.  A NaN or an infinity in a parameter, a state or a time raises
    InvalidState naming it, a wrong trailing shape or stacks that do not
    broadcast ShapeMismatch (parameters against each other, and times and
    states against a stack), and an R that is not (..., 3, 3) or not
    orthogonal NonOrthogonalRotation.
    """

    a: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    v: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    tau: float = 0.0
    R: object = None
    shape: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        R = np.eye(3) if self.R is None else np.array(self.R, dtype=float)
        if R.shape[-2:] != (3, 3):
            raise NonOrthogonalRotation(f"R must be (..., 3, 3), got {R.shape}")
        R = _parameter("R", R, (3, 3))
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails below
            defect = np.max(np.abs(R @ R.swapaxes(-1, -2) - np.eye(3)))
        if not defect <= 1e-9:  # fails closed on a NaN defect
            raise NonOrthogonalRotation("R must be orthogonal to 1e-9")
        a, v = _parameter("a", self.a, (3,)), _parameter("v", self.v, (3,))
        tau = _parameter("tau", self.tau, ())
        for name, value in (("a", a), ("v", v), ("tau", tau), ("R", R)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "shape", _stack_shape(a.shape[:-1], v.shape[:-1],
                                                       np.shape(tau), R.shape[:-2]))

    def time(self, t):
        if self.shape:
            _stack_shape(self.shape, np.shape(t))
        return _finite("t", t) + self.tau

    def inverse_time(self, tp):
        if self.shape:
            _stack_shape(self.shape, np.shape(tp))
        return _finite("tp", tp) - self.tau

    def apply(self, x, p, t, m: float):
        x, p = _states(self.shape, _finite("t", t), x, p)
        Rx = (self.R @ x[..., None])[..., 0]
        Rp = (self.R @ p[..., None])[..., 0]
        return Rx + self.a + self.v * np.asarray(t)[..., None], Rp + m * self.v, t + self.tau


def map_trajectory(traj: Trajectory, transform) -> Trajectory:
    """Transform a free Schrodinger-case trajectory and resample uniformly in t'.

    Each pre-image time t is evaluated by ``free_flow`` from the last sample
    at or before it, with that sample's spin: exact on the free trajectories
    the maps act on, so a trajectory of another flow raises
    UnsupportedHamiltonian, and it maps by one map: a stack raises
    ShapeMismatch.  Internal variables ride along untransformed.  A
    time map increases on each side of its pole and drops across it, so an
    image range that runs backwards has a pole inside.  Each step runs once on
    the whole grid, with the pole checked at every sample; each sample gets
    the bits it would get alone.  The image is returned without recorded
    values, as ``integrate(record=False)`` returns its trajectory;
    ``dynamics.record_values(out.states)`` gives them.
    """
    if (traj.N, traj.dim) != (1, 3):
        raise UnsupportedClosedForm("finite transforms act on N=1, dim 3 trajectories")
    _require_free(traj, "finite transforms map")
    if transform.shape:
        raise ShapeMismatch(f"a trajectory maps by one map, not a stack of {transform.shape}")
    tp0, tp1 = transform.time(float(traj.times[0])), transform.time(float(traj.times[-1]))
    if not (math.isfinite(tp0) and math.isfinite(tp1)):
        raise SingularTime("time map not finite on the trajectory range")
    if tp1 < tp0:
        raise SingularTime("time map pole inside the trajectory range")
    n = len(traj.times)
    grid = np.linspace(tp0, tp1, n)
    t = transform.inverse_time(grid)
    i = np.clip(np.searchsorted(traj.times, t, side="right") - 1, 0, n - 1)
    q, p, chi = free_flow(traj.q[i], traj.p[i], traj.chi[i], traj.m, t - traj.times[i])
    x, px, _ = transform.apply(q[:, 0], p[:, 0], t, traj.m)
    return Trajectory(times=grid, states=PhasePoint(q=x[:, None], p=px[:, None], s=traj.s[i],
                                                    chi=chi, m=traj.m))
