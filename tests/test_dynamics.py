"""Integrators, closed forms, motion order and conservation."""

import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from typing import Dict

import numpy as np
import pytest

from galconf import dynamics
from galconf.algebra import EPS2, bracket, build_algebra, so21_basis
from galconf.coadjoint import _cross3, casimir_values, chi_interval, pack_dual, spin_invariant
from galconf.dynamics import (
    CSV_FLOAT_FORMAT,
    FREE,
    HamiltonianChoice,
    Trajectory,
    _flow_matrix,
    _pack,
    _unpack,
    conditioning_threshold,
    conservation_drifts,
    free_flow,
    generator_values,
    integrate,
    record_values,
    trajectory_csv_text,
    verify_motion_order,
)
from galconf.errors import (
    BadStep,
    InvalidState,
    NonFiniteResult,
    ShapeMismatch,
    TooFewSamples,
    UnsupportedHamiltonian,
)
from galconf.poisson import (
    PhasePoint,
    Poly,
    StructureMatrix,
    check_state,
    dual_vector_at,
    generator_polynomials,
    generators_at,
    hamiltonian_poly,
    p_levels,
    poly_bracket,
    q_levels,
    random_point,
)
from galconf.verify import FLOW_FAMILIES, _printed_free_field, run_suites

NEWTON_HOOKE_FAMILIES = [(1, 3), (2, 2), (3, 3), (4, 2), (5, 3), (7, 3)]


def free_point(**kw):
    base = dict(q=[[1.0, 0.0, 0.0]], p=[[0.0, 0.0, 0.0]],
                s=[0.0, 0.0, 0.0], chi=np.zeros(3), m=1.0)
    base.update(kw)
    return PhasePoint(**base)


def vector_field(pt, ham=FREE):
    """(dq, dp, dchi) of the flow at pt: the flow matrix times the packed state."""
    return _unpack(_flow_matrix(pt.N, pt.dim, pt.m, ham) @ _pack(pt), pt.N, pt.dim)


class TestTimeDerivative:
    def test_uniform_motion(self):
        pt = free_point(p=[[1.0, 0.0, 0.0]])
        dq, dp, _ = vector_field(pt)
        assert np.allclose(dq[0], [1.0, 0.0, 0.0])
        assert not np.any(dp)

    def test_chi_rotation(self):
        pt = free_point(chi=[1.0, 0.0, 0.0])
        _, _, dchi = vector_field(pt)
        assert np.allclose(dchi, [0.0, 0.0, 1.0])

    def test_rest_point(self):
        dq, dp, dchi = vector_field(free_point(q=[[0.0, 0.0, 0.0]]))
        assert not np.any(dq) and not np.any(dp) and not np.any(dchi)

    def test_cascade_structure(self):
        rng = np.random.default_rng(0)
        pt = random_point(rng, 5, 3)
        dq, dp, _ = vector_field(pt)
        assert np.allclose(dq[0], pt.q[1])
        assert np.allclose(dq[1], pt.q[2])
        assert np.allclose(dq[2], pt.p[2] / pt.m)
        assert not np.any(dp[0])
        assert np.allclose(dp[1], -pt.p[0])
        assert np.allclose(dp[2], -pt.p[1])

    @pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (2, 2), (4, 2)])
    def test_matches_bracket_flow(self, N, dim):
        # the printed free field is the oracle for both the bracket flows and L z
        m = 1.2
        h = hamiltonian_poly(N, dim, m)
        sm = StructureMatrix(N, dim, m)
        rng = np.random.default_rng(N * 3 + dim)
        for _ in range(10):
            pt = random_point(rng, N, dim, m=m)
            env = pt.env()
            dq, dp, dchi = _printed_free_field(pt.q, pt.p, pt.chi, pt.m)
            Lq, Lp, Lchi = vector_field(pt)
            assert np.allclose(Lq, dq, rtol=0, atol=1e-15)
            assert np.allclose(Lp, dp, rtol=0, atol=1e-15)
            assert np.allclose(Lchi, dchi, rtol=0, atol=1e-15)
            for k in range(pt.q.shape[0]):
                for a in range(dim):
                    assert poly_bracket(Poly.var(("q", k, a)), h, sm).eval(env) == \
                        pytest.approx(dq[k, a], abs=1e-12)
            for k in range(pt.p.shape[0]):
                for a in range(dim):
                    assert poly_bracket(Poly.var(("p", k, a)), h, sm).eval(env) == \
                        pytest.approx(dp[k, a], abs=1e-12)
            for al in range(3):
                assert poly_bracket(Poly.var(("chi", al)), h, sm).eval(env) == \
                    pytest.approx(dchi[al], abs=1e-12)


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES + ((5, 3), (7, 3)))
def test_flow_matrix_matches_printed_field(N, dim):
    """Column j of L is the printed free field at the j-th unit state."""
    m = 1.3
    L = _flow_matrix(N, dim, m, FREE)
    nq, n_p = q_levels(N, dim) * dim, p_levels(N, dim) * dim
    assert L.shape == (nq + n_p + 3,) * 2
    s = np.zeros(3) if dim == 3 else 0.0
    for j, e in enumerate(np.eye(len(L))):
        pt = PhasePoint(q=e[:nq].reshape(-1, dim), p=e[nq:nq + n_p].reshape(-1, dim),
                        s=s, chi=e[nq + n_p:], m=m)
        dq, dp, dchi = _printed_free_field(pt.q, pt.p, pt.chi, pt.m)
        assert np.allclose(L[:, j], np.concatenate([dq.ravel(), dp.ravel(), dchi]),
                           rtol=0, atol=1e-16), j


class TestClosedForm:
    def test_identity_at_zero(self):
        pt = random_point(np.random.default_rng(2), 3, 3)
        q, p, chi = free_flow(pt.q, pt.p, pt.chi, pt.m, 0.0)
        assert np.allclose(q, pt.q) and np.allclose(p, pt.p)
        assert np.allclose(chi, pt.chi)

    def test_chi_solution(self):
        pt = free_point(chi=[1.0, 0.0, 0.0])
        for t in (0.3, 0.7, 2.0):
            _, _, chi = free_flow(pt.q, pt.p, pt.chi, pt.m, t)
            assert np.allclose(chi, [1 + t * t / 2, t * t / 2, t], atol=1e-14)
            assert chi_interval(chi) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_motion(self):
        m, v = 2.0, 0.7
        pt = free_point(q=[[0.0, 0.0, 0.0]], p=[[m * v, 0.0, 0.0]], m=m)
        q, _, _ = free_flow(pt.q, pt.p, pt.chi, pt.m, 1.3)
        assert np.allclose(q[0], [v * 1.3, 0.0, 0.0])

    @pytest.mark.parametrize("N,dim", [(3, 3), (5, 3), (2, 2), (4, 2)])
    def test_agrees_with_rk4(self, N, dim):
        pt = random_point(np.random.default_rng(N), N, dim, m=1.4)
        tr_rk = integrate(pt, FREE, 1.0, 1e-3, "rk4", record=False)
        tr_cl = integrate(pt, FREE, 1.0, 1e-3, "closed", record=False)
        worst = 0.0
        for a, b in zip(tr_rk.states[::100], tr_cl.states[::100]):
            worst = max(worst, float(np.max(np.abs(a.q - b.q))),
                        float(np.max(np.abs(a.p - b.p))),
                        float(np.max(np.abs(a.chi - b.chi))))
        assert worst < 1e-8


class TestIntegrate:
    def test_zero_horizon(self):
        pt = free_point()
        tr = integrate(pt, FREE, 0.0, 0.1)
        assert len(tr.states) == 1
        assert np.allclose(tr.states[0].q, pt.q)

    def test_bad_steps(self):
        pt = free_point()
        with pytest.raises(BadStep):
            integrate(pt, FREE, 1.0, 0.0)
        with pytest.raises(BadStep):
            integrate(pt, FREE, 1.0, 2.0)
        with pytest.raises(BadStep):
            integrate(pt, FREE, -1.0, 0.1)
        with pytest.raises(BadStep):
            integrate(pt, FREE, 1.0, 0.1, method="leapfrog")

    @pytest.mark.parametrize("T,dt", [(1.0, math.nan), (math.inf, 0.1), (1.0, math.inf),
                                      (math.nan, 0.1)])
    def test_non_finite_horizon_or_step(self, T, dt):
        with pytest.raises(BadStep):
            integrate(free_point(), FREE, T, dt)

    @pytest.mark.parametrize("T,dt", [(1e300, 1e-10), (1e15, 1.0)])
    @pytest.mark.parametrize("method", ["rk4", "closed"])
    def test_horizon_beyond_memory(self, T, dt, method):
        # T/dt overflowed in the step count (OverflowError), and 10^15 samples
        # failed to allocate (MemoryError); both used to escape as tracebacks.
        # Neither sample array fits in the address space, so nothing is touched.
        with pytest.raises(BadStep):
            integrate(free_point(), FREE, T, dt, method, record=False)

    def test_step_must_divide_horizon(self):
        # T=1, dt=0.4 used to stop silently at t=0.8
        with pytest.raises(BadStep):
            integrate(free_point(), FREE, 1.0, 0.4, record=False)
        for T, n in ((1.0, 1000), (math.pi, 3142)):
            tr = integrate(free_point(), FREE, T, T / n, record=False)
            assert len(tr.times) == n + 1
            assert tr.times[-1] == pytest.approx(T, rel=1e-12)

    @pytest.mark.parametrize("method", ["rk4", "closed"])
    def test_rejects_a_stacked_start(self, method):
        pt = random_point(np.random.default_rng(5), 3, 3)
        two = PhasePoint(q=np.stack([pt.q] * 2), p=np.stack([pt.p] * 2), s=np.stack([pt.s] * 2),
                         chi=np.stack([pt.chi] * 2), m=pt.m)
        for start in (two, two[:1]):
            with pytest.raises(ShapeMismatch, match="one sample"):
                integrate(start, FREE, 0.1, 0.01, method)
        assert integrate(two[1], FREE, 0.1, 0.01, method).q.shape == (11,) + pt.q.shape

    def test_trajectory_reads_through_to_its_states(self):
        tr = integrate(random_point(np.random.default_rng(6), 2, 2), FREE, 0.1, 0.01)
        for name in ("q", "p", "s", "chi"):
            assert getattr(tr, name) is getattr(tr.states, name)
            assert not getattr(tr, name).flags.writeable
        assert (tr.m, tr.N, tr.dim) == (tr.states.m, 2, 2) and len(tr.states) == 11
        with pytest.raises(ShapeMismatch):
            Trajectory(times=tr.times[:-1], states=tr.states)
        with pytest.raises(ShapeMismatch):
            Trajectory(times=tr.times[:1], states=tr.states[0])

    def test_sampling_grid(self):
        tr = integrate(free_point(), FREE, 0.01, 0.002, record=False)
        assert np.allclose(tr.times, [0.0, 0.002, 0.004, 0.006, 0.008, 0.01])

    @pytest.mark.parametrize("reader", [conservation_drifts, trajectory_csv_text])
    def test_unrecorded_trajectory_is_rejected_alike(self, reader):
        # conservation_drifts used to raise a bare KeyError: 'h'
        tr = integrate(free_point(), FREE, 0.01, 0.002, record=False)
        with pytest.raises(ShapeMismatch, match="integrated without recording"):
            reader(tr)

    def test_conservation_along_free_flow(self):
        pt = random_point(np.random.default_rng(7), 3, 3)
        tr = integrate(pt, FREE, 1.0, 1e-3, "rk4")
        p0 = np.array([st.p[0] for st in tr.states])
        assert np.max(np.abs(p0 - p0[0])) < 1e-8
        for nm in ("h", "j", "C1", "C2", "C3"):
            v = tr.recorded[nm]
            assert np.max(np.abs(v - v[0])) < 1e-8
        spin = spin_invariant(tr.s)
        assert np.max(np.abs(spin - spin[0])) < 1e-8
        inter = np.array([chi_interval(st.chi) for st in tr.states])
        assert np.max(np.abs(inter - inter[0])) < 1e-8
        e = np.array([st.chi[0] - st.chi[1] for st in tr.states])
        assert np.max(np.abs(e - e[0])) < 1e-8


class TestNewtonHooke:
    def test_cosine_solution(self):
        ham = HamiltonianChoice("newton_hooke", omega=1.0, sign=1)
        pt = free_point(q=[[1.0, 0.0, 0.0]])
        tr = integrate(pt, ham, math.pi, math.pi / 3142, record=False)
        assert np.max(np.abs(tr.states[-1].q[0] - np.array([-1.0, 0.0, 0.0]))) < 1e-6

    def test_deformed_energy_conserved(self):
        ham = HamiltonianChoice("newton_hooke", omega=1.0, sign=1)
        pt = free_point(q=[[1.0, -0.3, 0.2]], p=[[0.1, 0.4, 0.0]],
                        chi=[0.2, -0.1, 0.3])
        tr = integrate(pt, ham, math.pi, math.pi / 3142)
        energy = tr.recorded["h"] + tr.recorded["k"]
        assert np.max(np.abs(energy - energy[0])) < 1e-8

    def test_inverted_sign_grows(self):
        ham = HamiltonianChoice("newton_hooke", omega=1.0, sign=-1)
        pt = free_point(q=[[1.0, 0.0, 0.0]])
        tr = integrate(pt, ham, 1.0, 1e-3, record=False)
        assert tr.states[-1].q[0, 0] == pytest.approx(math.cosh(1.0), rel=1e-6)

    def test_higher_order_conserves_deformed_energy(self):
        ham = HamiltonianChoice("newton_hooke", omega=1.0, sign=1)
        tr = integrate(random_point(np.random.default_rng(1), 3, 3), ham, 1.0, 1e-3)
        drifts, _ = conservation_drifts(tr)
        assert drifts["deformed_energy"] <= 1e-8

    @pytest.mark.parametrize("N,dim", NEWTON_HOOKE_FAMILIES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_external_spectrum(self, N, dim, sign):
        # +1: frequencies omega * (N - 2j); -1: real rates of the same size
        omega = 1.3
        L = _flow_matrix(N, dim, 0.8, HamiltonianChoice("newton_hooke", omega=omega, sign=sign))
        n_ext = (q_levels(N, dim) + p_levels(N, dim)) * dim
        assert not np.any(L[:n_ext, n_ext:]) and not np.any(L[n_ext:, :n_ext])
        eig = np.linalg.eigvals(L[:n_ext, :n_ext])
        rates, zero = (eig.imag, eig.real) if sign == 1 else (eig.real, eig.imag)
        want = omega * np.sort(np.repeat(N - 2.0 * np.arange(N + 1), dim))
        assert np.allclose(zero, 0.0, rtol=0, atol=1e-9)
        assert np.allclose(np.sort(rates), want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("N,dim", NEWTON_HOOKE_FAMILIES)
    def test_half_period_flips_external_block(self, N, dim):
        omega = 1.3
        ham = HamiltonianChoice("newton_hooke", omega=omega, sign=1)
        pt = random_point(np.random.default_rng(40 + N), N, dim, m=0.8)
        T = math.pi / omega
        tr = integrate(pt, ham, T, T / 3142, record=False)
        sign = (-1) ** N
        assert np.max(np.abs(tr.q[-1] - sign * pt.q)) < 1e-6
        assert np.max(np.abs(tr.p[-1] - sign * pt.p)) < 1e-6

    def test_overflow_is_an_error(self):
        # cosh(50 t) passes the largest double near t = 14.2
        ham = HamiltonianChoice("newton_hooke", omega=50.0, sign=-1)
        with pytest.raises(InvalidState):
            integrate(free_point(), ham, 20.0, 0.01, record=False)

    def test_overflow_probe_warns_nothing(self):
        ham = HamiltonianChoice("newton_hooke", omega=50.0, sign=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidState):
                integrate(free_point(chi=[0.1, 0.2, 0.3]), ham, 20.0, 0.01, record=False)

    def test_overflow_names_the_coordinate_that_overflows(self):
        # chi stays exactly 0 and q stays finite longer: stepping z <- z + D z
        # one sample at a time first overflows p, at sample 1414
        ham = HamiltonianChoice("newton_hooke", omega=50.0, sign=-1)
        with pytest.raises(InvalidState,
                           match=r"^p has a non-finite entry at index \(1414, 0, 0\)$"):
            integrate(free_point(), ham, 20.0, 0.01, record=False)

    def test_parameter_validation(self):
        with pytest.raises(UnsupportedHamiltonian):
            HamiltonianChoice("newton_hooke", omega=0.0)
        with pytest.raises(UnsupportedHamiltonian):
            HamiltonianChoice("newton_hooke", omega=1.0, sign=2)
        for omega in (float("inf"), 1e200):  # omega^2 overflows in the flow matrix
            with pytest.raises(UnsupportedHamiltonian, match="finite square"):
                HamiltonianChoice("newton_hooke", omega=omega)
        with pytest.raises(UnsupportedHamiltonian):
            HamiltonianChoice("oscillator")

    def test_free_flow_takes_no_oscillator_parameters(self):
        # omega and sign used to be accepted: RK4 then integrated Newton-Hooke
        # while the closed form, the drifts and the maps took the run as free
        for omega, sign in ((2.0, -1), (2.0, 1), (0.0, -1), (float("nan"), 1)):
            with pytest.raises(UnsupportedHamiltonian, match="free flow takes omega = 0"):
                HamiltonianChoice("free", omega=omega, sign=sign)
        assert HamiltonianChoice("free", omega=0.0, sign=1) == FREE


def test_check_state_names_the_first_bad_sample():
    # a stack of states whose p goes bad from sample 3, q from 5 and chi
    # from 7: the error names p, at the earliest bad sample, though q comes
    # before p within a sample
    N, dim, n = 3, 3, 10
    q = np.zeros((n, q_levels(N, dim), dim))
    p = np.zeros((n, p_levels(N, dim), dim))
    s, chi = np.zeros((n, 3)), np.zeros((n, 3))
    p[3:, 1, 2] = np.inf
    q[5:] = np.nan
    chi[7:, 1] = -np.inf
    with pytest.raises(InvalidState, match=r"^p has a non-finite entry at index \(3, 1, 2\)$"):
        check_state(q, p, s, chi, 1.0)
    # within one sample q is named before p
    q[3, 0, 1] = np.nan
    with pytest.raises(InvalidState, match=r"^q has a non-finite entry at index \(3, 0, 1\)$"):
        check_state(q, p, s, chi, 1.0)


def test_record_values_names_the_first_overflowing_sample():
    # finite stacks whose k overflows from sample 2 (through |q|^2) and h
    # from sample 3 (through |p|^2): the error names k at sample 2, and no
    # numpy warning escapes; generator_values checks its values the same way
    N, dim, n = 1, 3, 6
    for values in (record_values, generator_values):
        q, p = np.zeros((n, 1, dim)), np.zeros((n, 1, dim))
        s, chi = np.zeros((n, 3)), np.zeros((n, 3))
        q[2:, 0, 0] = 1e200
        p[3:, 0, 1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match=r"^recorded k is not finite at sample 2$"):
                values(PhasePoint(q=q, p=p, s=s, chi=chi, m=1.0))
            q[2, 0, 0] = 0.0
            with pytest.raises(NonFiniteResult, match=r"^recorded h is not finite at sample 3$"):
                values(PhasePoint(q=q, p=p, s=s, chi=chi, m=1.0))


def test_generator_values_are_the_recorded_generators():
    pt = random_point(np.random.default_rng(5), 3, 3, m=1.1)
    states = integrate(pt, FREE, 0.2, 1e-2, "rk4", record=False).states
    recorded = record_values(states)
    got = generator_values(states)
    assert list(got) == [k for k in recorded if k not in ("C1", "C2", "C3")]
    for name, v in got.items():
        assert v.tobytes() == recorded[name].tobytes(), name


class TestMotionOrder:
    @pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (2, 2), (4, 2)])
    def test_closed_form_fits_degree_N(self, N, dim):
        pt = random_point(np.random.default_rng(N + dim), N, dim)
        tr = integrate(pt, FREE, 1.0, 1e-3, "closed", record=False)
        res, diff = verify_motion_order(tr)
        assert res < 1e-10
        assert diff <= conditioning_threshold(tr)

    def test_rk4_fits_degree_N(self):
        pt = random_point(np.random.default_rng(33), 3, 3)
        tr = integrate(pt, FREE, 1.0, 1e-3, "rk4", record=False)
        res, diff = verify_motion_order(tr)
        assert res < 1e-7
        assert diff <= conditioning_threshold(tr)

    def test_constant_trajectory(self):
        pt = free_point(q=[[0.4, 0.0, 0.0]], p=[[0.0, 0.0, 0.0]])
        tr = integrate(pt, FREE, 1.0, 0.1, "closed", record=False)
        res, diff = verify_motion_order(tr)
        assert res < 1e-15
        assert diff < 1e-12

    def test_too_few_samples(self):
        pt = random_point(np.random.default_rng(5), 3, 3)
        tr = integrate(pt, FREE, 0.3, 0.1, "closed", record=False)  # 4 samples, N + 3 = 6
        with pytest.raises(TooFewSamples):
            verify_motion_order(tr)

    @pytest.mark.parametrize("N,dim,ham,method", [
        (1, 3, FREE, "closed"), (3, 3, FREE, "rk4"), (7, 3, FREE, "rk4"),
        (2, 2, FREE, "closed"), (4, 2, FREE, "rk4"),
        (1, 3, HamiltonianChoice("newton_hooke", omega=3.0), "rk4"),
        (4, 2, HamiltonianChoice("newton_hooke", omega=1.5, sign=-1), "rk4")])
    def test_one_fit_matches_per_axis_fits(self, N, dim, ham, method):
        """Fitting the whole (n, dim) block at once moves the residual by a few
        ulps of max|q_0| per fitted coefficient at most, and leaves the scaled
        difference alone.  Both residuals are rounding noise of that size."""
        pt = random_point(np.random.default_rng(90 + N + dim), N, dim, m=1.1)
        tr = integrate(pt, ham, 1.0, 1e-3, method, record=False)
        res, diff = verify_motion_order(tr)
        want_res, want_diff = _motion_order_per_axis(tr)
        ulp = np.spacing(float(np.max(np.abs(tr.q0_samples()))))
        assert abs(res - want_res) <= 4 * (N + 1) * ulp, (res, want_res)
        assert np.float64(diff).tobytes() == np.float64(want_diff).tobytes()

    def test_detects_non_polynomial_motion(self):
        # oscillator samples must NOT fit a degree-1 polynomial
        ham = HamiltonianChoice("newton_hooke", omega=3.0, sign=1)
        tr = integrate(free_point(q=[[1.0, 0.0, 0.0]]), ham, 2.0, 1e-2, record=False)
        res, _ = verify_motion_order(tr)
        assert res > 1e-2


def _motion_order_per_axis(traj):
    """verify_motion_order with one least-squares fit per axis of q_0."""
    N, n = traj.N, len(traj.times)
    y, t = traj.q0_samples(), traj.times
    tt = (t - t[0]) / (t[-1] - t[0]) * 2.0 - 1.0
    residual = 0.0
    for a in range(y.shape[1]):
        coeffs = np.polynomial.polynomial.polyfit(tt, y[:, a], N)
        fit = np.polynomial.polynomial.polyval(tt, coeffs)
        residual = max(residual, float(np.max(np.abs(fit - y[:, a]))))
    stride = max(1, (n - 1) // (N + 2))
    dt_eff = (t[1] - t[0]) * stride
    diffs = np.diff(y[::stride], n=N + 1, axis=0) / dt_eff ** (N + 1)
    return residual, float(np.max(np.abs(diffs)))


class TestCsvExport:
    def test_header_and_digits(self):
        pt = free_point(q=[[1.0 / 3.0, 0.0, 0.0]])
        tr = integrate(pt, FREE, 0.01, 0.005)
        text = trajectory_csv_text(tr)
        lines = text.strip().split("\n")
        assert lines[0].startswith("t,q0_1,q0_2,q0_3,p0_1")
        assert lines[0].endswith("C1,C2,C3")
        assert "0.33333333333333331" in lines[1]
        assert len(lines) == 4

    def test_deterministic_bytes(self):
        pt = random_point(np.random.default_rng(21), 2, 2, m=0.9)
        a = trajectory_csv_text(integrate(pt, FREE, 0.1, 0.01))
        b = trajectory_csv_text(integrate(pt, FREE, 0.1, 0.01))
        assert a == b

    def test_2d_header(self):
        pt = random_point(np.random.default_rng(22), 2, 2)
        text = trajectory_csv_text(integrate(pt, FREE, 0.01, 0.005))
        header = text.split("\n")[0].split(",")
        assert "q1_1" in header and "q1_2" in header  # self-conjugate level
        assert "p1_1" not in header
        assert "s" in header and "j" in header


def _rk4_reference(pt, ham, dt, n_steps):
    """Per-stage RK4 on the packed state, each stage L @ z, step by step."""
    L = _flow_matrix(pt.N, pt.dim, pt.m, ham)
    z = [_pack(pt)]
    for _ in range(n_steps):
        cur = z[-1]
        k1 = L @ cur
        k2 = L @ (cur + dt / 2.0 * k1)
        k3 = L @ (cur + dt / 2.0 * k2)
        k4 = L @ (cur + dt * k3)
        z.append(cur + dt * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0))
    return [PhasePoint(q=q, p=p, s=pt.s, chi=chi, m=pt.m)
            for q, p, chi in zip(*_unpack(np.array(z), pt.N, pt.dim))]


def state_casimirs(alg, st):
    """(C1, C2, C3) of one phase point, through its packed dual row."""
    row = pack_dual(alg, st.m, *dual_vector_at(st))
    return tuple(C[0] for C in casimir_values(alg, row[None]))


ARRAY_CASES = [(N, dim, FREE) for N, dim in FLOW_FAMILIES + ((5, 3), (7, 3))] + [
    (1, 3, HamiltonianChoice("newton_hooke", omega=1.3, sign=sign)) for sign in (1, -1)]


@pytest.mark.parametrize("N,dim,ham", ARRAY_CASES)
class TestArrayTrajectory:
    def trajectories(self, N, dim, ham):
        pt = random_point(np.random.default_rng(100 + 10 * N + dim), N, dim, m=1.3)
        methods = ("rk4", "closed") if ham.free else ("rk4",)
        return pt, [integrate(pt, ham, 0.2, 0.01, method) for method in methods]

    def test_recorded_matches_per_sample_route(self, N, dim, ham):
        _, trajs = self.trajectories(N, dim, ham)
        alg = build_algebra(N, dim, central=True)
        for tr in trajs:
            rec = tr.recorded
            n = len(tr.times)
            assert rec["j"].shape == (n, 3 if dim == 3 else 1)
            assert all(rec[k].shape == (n,) for k in ("h", "d", "k", "C1", "C2", "C3"))
            for i, st in enumerate(tr.states):
                g = generators_at(st)
                want = {k: g[k] for k in ("h", "d", "k")}
                want["j"] = np.atleast_1d(g["j"])
                want.update(zip(("C1", "C2", "C3"), state_casimirs(alg, st)))
                for key, value in want.items():
                    assert np.allclose(rec[key][i], value, rtol=1e-12, atol=1e-12), (key, i)

    def test_states_are_rows_of_the_stacks(self, N, dim, ham):
        _, trajs = self.trajectories(N, dim, ham)
        for tr in trajs:
            n = len(tr.times)
            assert len(tr.states) == n
            for i in (0, 7, n - 1, -1, -n):
                st = tr.states[i]
                assert np.array_equal(st.q, tr.q[i]) and np.array_equal(st.p, tr.p[i])
                assert np.array_equal(np.reshape(st.s, -1), tr.s[i])
                assert np.array_equal(st.chi, tr.chi[i]) and st.m == tr.m
            sub = tr.states[::5]
            assert len(sub) == len(range(0, n, 5))
            assert np.array_equal(sub[-1].q, tr.q[::5][-1])
            assert [st.chi.tolist() for st in tr.states] == tr.chi.tolist()
            with pytest.raises(IndexError):
                tr.states[n]

    def test_yielded_points_are_copies(self, N, dim, ham):
        _, trajs = self.trajectories(N, dim, ham)
        tr = trajs[0]
        before = [a.copy() for a in (tr.q, tr.p, tr.s, tr.chi)]
        st = tr.states[3]
        st.q[:] = 9.0
        st.p[:] = 9.0
        st.chi[:] = 9.0
        st.s[:] = 9.0
        for st in tr.states[::4]:
            st.q += 1.0
        for a, b in zip(before, (tr.q, tr.p, tr.s, tr.chi)):
            assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            tr.q[0, 0, 0] = 1.0  # the stacks themselves are read-only

    def test_csv_header_and_rows(self, N, dim, ham):
        _, trajs = self.trajectories(N, dim, ham)
        for tr in trajs:
            lines = trajectory_csv_text(tr).split("\n")
            assert lines[-1] == ""
            header = lines[0].split(",")
            assert header[0] == "t" and header[-3:] == ["C1", "C2", "C3"]
            assert len(lines) - 2 == len(tr.times)
            assert all(len(row.split(",")) == len(header) for row in lines[1:-1])

    def test_rk4_matches_per_stage_reference(self, N, dim, ham):
        pt, _ = self.trajectories(N, dim, ham)
        tr = integrate(pt, ham, 0.05, 0.01, "rk4", record=False)
        # the step matrix regroups the same arithmetic, so only the last bits move
        for st, ref in zip(tr.states, _rk4_reference(pt, ham, 0.01, 5)):
            for a, b in ((st.q, ref.q), (st.p, ref.p), (st.chi, ref.chi)):
                assert np.allclose(a, b, rtol=0, atol=1e-14)


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
def test_spin_has_one_component_per_rotation_generator(N, dim):
    """s, j and the recorded j are arrays in both dimensions, with a trailing
    axis as long as the algebra's list of J generators."""
    n_rot = sum(g.kind == "J" for g in build_algebra(N, dim, central=True).generators)
    pt = random_point(np.random.default_rng(30 + N), N, dim)
    assert pt.s.shape == (n_rot,)
    assert dual_vector_at(pt)[0].shape == (n_rot,)
    assert generators_at(pt)["j"].shape == (n_rot,)
    two = integrate(pt, FREE, 0.01, 0.01, record=False)
    assert two.s.shape == (2, n_rot)
    assert record_values(two.states)["j"].shape == (2, n_rot)


def _csv_reference(traj):
    """Cell-by-cell formatting of each state, the writer's reference."""
    fmt = CSV_FLOAT_FORMAT
    lines = [trajectory_csv_text(traj).split("\n", 1)[0]]
    rec = traj.recorded
    for i, st in enumerate(traj.states):
        row = [fmt % traj.times[i]]
        row += [fmt % v for v in st.q.reshape(-1)]
        row += [fmt % v for v in st.p.reshape(-1)]
        row += [fmt % v for v in np.atleast_1d(st.s)]
        row += [fmt % v for v in st.chi]
        row += [fmt % rec[n][i] for n in ("h", "d", "k")]
        row += [fmt % v for v in rec["j"][i]]
        row += [fmt % rec[n][i] for n in ("C1", "C2", "C3")]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _csv_cells(text):
    """The cells of a CSV body below its header, one tuple per column."""
    return list(zip(*(line.split(",") for line in text.split("\n")[1:-1])))


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
def test_csv_rows_match_cellwise_formatting(N, dim):
    """rk4, closed and Newton-Hooke with sign +1 and -1 over 101 samples, long
    enough that some columns are constant, some take each value once and some
    repeat a few values."""
    pt = random_point(np.random.default_rng(31), N, dim)
    runs = [integrate(pt, FREE, 1.0, 0.01, method) for method in ("rk4", "closed")]
    runs += [integrate(pt, HamiltonianChoice("newton_hooke", omega=0.7, sign=sign), 1.0, 0.01)
             for sign in (1, -1)]
    distinct = set()
    for tr in runs:
        text = trajectory_csv_text(tr)
        assert text == _csv_reference(tr)
        distinct |= {len(set(col)) for col in _csv_cells(text)}
    assert 1 in distinct and len(runs[0].times) in distinct
    assert any(1 < k < len(runs[0].times) for k in distinct)


@pytest.mark.parametrize("method", ["rk4", "closed"])
@pytest.mark.parametrize("N,dim", [(3, 3), (2, 2)])
def test_one_sample_csv_has_its_row(N, dim, method):
    """At T = 0 every column holds one value, and the body is still the
    header plus the one sample's row."""
    tr = integrate(random_point(np.random.default_rng(32), N, dim), FREE, 0.0, 0.01, method)
    text = trajectory_csv_text(tr)
    assert len(text.split("\n")) == 3
    assert text == _csv_reference(tr)


def _hand_built_trajectory(times, h, d, k, C3):
    """A (1, 3) Trajectory with the given times and recorded h, d, k, C3;
    q and j move with the time, everything else is fixed."""
    t = np.asarray(times, dtype=float)
    n = len(t)
    states = PhasePoint(q=0.25 + t[:, None, None] * np.ones((n, 1, 3)),
                        p=np.full((n, 1, 3), -0.5), s=np.tile([0.0, -0.0, 1.0], (n, 1)),
                        chi=np.tile([0.3, 0.0, -0.0], (n, 1)), m=1.2)
    recorded = {"h": np.array(h), "d": np.array(d), "k": np.array(k),
                "j": (t[:, None] + [1.0, 2.0, 3.0]) / 7.0,
                "C1": np.full(n, 1.2), "C2": np.full(n, -0.0), "C3": np.array(C3)}
    return Trajectory(times=t, states=states, recorded=recorded)


def test_csv_keeps_signed_zeros_constants_and_repeats():
    """Cells are told apart by their bits: a column mixing 0.0 and -0.0
    writes "0" and "-0", and so does a constant column of either."""
    tr = _hand_built_trajectory(
        times=np.arange(6) * 0.1, h=[0.0, -0.0, 0.0, -0.0, 1.5, -0.0], d=[2.5] * 6,
        k=[1 / 3, 2 / 3, 1 / 3, 1 / 3, 2 / 3, 1 / 3], C3=[0.0, -0.0] * 3)
    text = trajectory_csv_text(tr)
    assert text == _csv_reference(tr)
    cells = dict(zip(text.split("\n", 1)[0].split(","), _csv_cells(text)))
    assert cells["h"] == ("0", "-0", "0", "-0", "1.5", "-0")
    assert cells["d"] == ("2.5",) * 6 and cells["C2"] == ("-0",) * 6
    third, two_thirds = "0.33333333333333331", "0.66666666666666663"
    assert cells["k"] == (third, two_thirds, third, third, two_thirds, third)
    assert cells["C3"] == ("0", "-0") * 3 and cells["s_2"] == ("-0",) * 6


def test_csv_writes_every_row_of_a_constant_table():
    """Samples that repeat one state at one time are all written, although
    no column of the table changes."""
    tr = _hand_built_trajectory(np.zeros(3), h=[0.5] * 3, d=[-0.0] * 3, k=[2.0] * 3,
                                C3=[1.0] * 3)
    text = trajectory_csv_text(tr)
    assert text == _csv_reference(tr)
    assert len(text.split("\n")) == 5


def _assert_cells_match_percent(values, cols=8):
    """The kernel's CSV lines of values, laid out cols to a row (padded with
    zeros), are the CSV_FLOAT_FORMAT texts of the cells joined by "," and
    ended by a newline."""
    values = np.asarray(values, dtype=float).ravel()
    table = np.concatenate([values, np.zeros(-len(values) % cols)]).reshape(-1, cols)
    text = dynamics._csv_body(table)
    want = [CSV_FLOAT_FORMAT % v for v in table.ravel().tolist()]
    got = text.replace("\n", ",").split(",")[:-1]
    bad = [(v, g, w) for v, g, w in zip(table.ravel().tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} cells differ, first (value, got, %): {bad[:3]}"
    assert text == "".join(",".join(want[i:i + cols]) + "\n" for i in range(0, len(want), cols))


def _finite_bits(rng, n, exponent_mask=0x7FF):
    """n finite doubles of both signs from random bit patterns, the exponent
    field ANDed with exponent_mask (0 gives subnormals and zeros)."""
    bits = rng.integers(0, 2 ** 64, size=n + n // 100 + 10, dtype=np.uint64)
    bits &= ~np.uint64(0x7FF << 52) | np.uint64(exponent_mask << 52)
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:n]


def test_csv_cells_match_percent_on_random_bit_patterns():
    """10^6 finite doubles over every exponent, 10^5 subnormals, and 10^5
    log-uniform draws over the kernel's range [1e-150, 1e150)."""
    rng = np.random.default_rng(61)
    wide = 10.0 ** rng.uniform(-150, 150, 10 ** 5) * rng.choice([-1.0, 1.0], 10 ** 5)
    for values in (_finite_bits(rng, 10 ** 6), _finite_bits(rng, 10 ** 5, 0), wide):
        _assert_cells_match_percent(values)


def test_csv_cells_match_percent_at_powers_of_ten():
    """+-0, every double nearest 10^k and both its neighbours, so also the %g
    style switches at 1e-5 and 1e17; among them the doubles below 10^k that
    %.17g rounds up into the next decade."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    _assert_cells_match_percent(np.concatenate([[0.0, -0.0], values, -values]))
    carried = [x for x in values.tolist() if 1e-150 <= x < 1e150 and Fraction(x)
               < Fraction(CSV_FLOAT_FORMAT % x) == Fraction(10) ** round(math.log10(x))]
    assert len(carried) >= 5
    assert not dynamics._csv_records(np.array([carried]))[1].any()
    assert dynamics._csv_body(np.array([[1e-5, 1e-4, 1e16, 1e17]])) == \
        "1.0000000000000001e-05,0.0001,10000000000000000,1e+17\n"


def test_csv_cells_match_percent_on_exact_ties():
    """Dyadic n / 2^e with 18 significant digits, the last a 5: each lies
    exactly halfway between two 17-digit texts, so each goes to %."""
    rng = np.random.default_rng(62)
    ties = []
    for e in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** e), min(10 ** 18 // 5 ** e, 2 ** 53)
        n = rng.integers(lo, hi, 200) | 1
        ties += [math.ldexp(float(k), -e) for k in n.tolist() if k < hi]
    for x in ties:  # n / 2^e has the digits of n 5^e
        n, d = Fraction(x).as_integer_ratio()
        digits = str(n * 5 ** (d.bit_length() - 1))
        assert d > 1 and len(digits) == 18 and digits[-1] == "5"
    ties = np.array(ties + [-x for x in ties])
    _assert_cells_match_percent(ties)
    assert dynamics._csv_records(ties[None, :])[1].all()


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
def test_flow_family_cells_take_the_kernel(monkeypatch, N, dim):
    """No cell of the rk4, closed or Newton-Hooke +-1 trajectories is left to %."""
    slow = []
    records = dynamics._csv_records

    def spy(block):
        rec, mask = records(block)
        slow.append(int(mask.sum()))
        return rec, mask

    monkeypatch.setattr(dynamics, "_csv_records", spy)
    pt = random_point(np.random.default_rng(63), N, dim)
    runs = [integrate(pt, FREE, 1.0, 0.001, method) for method in ("rk4", "closed")]
    runs += [integrate(pt, HamiltonianChoice("newton_hooke", omega=0.7, sign=sign), 1.0, 0.001)
             for sign in (1, -1)]
    for tr in runs:
        trajectory_csv_text(tr)
    assert len(slow) == 4 * 4 and not any(slow)


def test_importing_galconf_builds_no_csv_table():
    """The kernel's tables are built by the first CSV, not at import."""
    code = ("import galconf.cli, galconf.dynamics as d; "
            "print(d._csv_tables.cache_info().currsize)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "0"


def test_closed_samples_match_single_time_closed_form():
    pt = random_point(np.random.default_rng(8), 5, 3)
    tr = integrate(pt, FREE, 1.0, 0.1, "closed", record=False)
    for t, st in zip(tr.times, tr.states):
        one = free_flow(pt.q, pt.p, pt.chi, pt.m, float(t))
        for a, b in zip((st.q, st.p, st.chi), one):
            assert a.tobytes() == b.tobytes()


def free_flow_reference(q, p, chi, m, t):
    """free_flow summed one level at a time: level k of p adds
    (-t)^r / r! p_{k-r} for r = 0..k, and level k of q adds t^r / r! q_{k+r}
    for r = 0..top-k, then (-1)^r t^e / e! p_{n_p-1-r} / m for r = 0..n_p-1
    with e = top-k+1+r, each sum starting from 0.0."""
    t = np.asarray(t, dtype=float)
    tc = t[..., None]
    dim, n_p, top = q.shape[-1], p.shape[-2], q.shape[-2] - 1
    p_t = []
    for k in range(n_p):
        acc = 0.0
        for r in range(k + 1):
            acc = acc + ((-tc) ** r / math.factorial(r)) * p[..., k - r, :]
        p_t.append(acc)
    q_t = []
    for k in range(top + 1):
        acc = 0.0
        for r in range(top - k + 1):
            acc = acc + (tc ** r / math.factorial(r)) * q[..., k + r, :]
        for r in range(n_p):
            power = top - k + 1 + r
            pr = p[..., n_p - 1 - r, :]
            acc = acc + ((-1.0) ** r * tc ** power / math.factorial(power)) \
                * (pr if dim == 3 else pr @ EPS2) / m
        q_t.append(acc)
    c0, c1, c2 = chi[..., 0], chi[..., 1], chi[..., 2]
    e = c0 - c1
    chi_t = np.stack([c0 + c2 * t + e * t * t / 2.0,
                      c1 + c2 * t + e * t * t / 2.0,
                      c2 + e * t], axis=-1)
    return np.stack(q_t, axis=-2), np.stack(p_t, axis=-2), chi_t


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES + ((7, 3), (15, 3), (6, 2), (14, 2)))
def test_free_flow_matches_the_per_level_reference_bit_for_bit(N, dim):
    # entries and times with signed zeros: every level sum starts from +0.0
    rng = np.random.default_rng(70 + N)
    signed = np.array([0.0, -0.0, 1.0, -1.0, 0.5])

    def state(*lead):
        return tuple(rng.choice(signed, lead + shape)
                     for shape in ((q_levels(N, dim), dim), (p_levels(N, dim), dim), (3,)))

    grid = np.concatenate([[-0.0], np.linspace(-1.5, 1.5, 31)])
    one, stack = state(), state(40)
    calls = [(*one, grid), (*stack, rng.choice(grid, 40))]
    calls += [(*one, t) for t in (0.7, -0.7, 0.0, -0.0)]
    for q, p, chi, t in calls:
        for got, want in zip(free_flow(q, p, chi, 1.3, t), free_flow_reference(q, p, chi, 1.3, t)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES + ((7, 3), (6, 2)))
def test_recorded_casimirs_equal_single_state_casimirs(N, dim):
    # every sample of the one-pass recording gives the bits of the state alone
    pt = random_point(np.random.default_rng(60 + N), N, dim)
    alg = build_algebra(N, dim, central=True)
    for method in ("rk4", "closed"):
        tr = integrate(pt, FREE, 0.5, 0.005, method)
        for i in range(0, len(tr.times), 7):
            _, C2, C3 = state_casimirs(alg, tr.states[i])
            assert tr.recorded["C2"][i].tobytes() == np.float64(C2).tobytes()
            assert tr.recorded["C3"][i].tobytes() == np.float64(C3).tobytes()


def test_dynamics_cases_locate_their_worst_defect():
    cases = {c["name"]: c for c in run_suites("dynamics")["suites"]["dynamics"]}
    assert all(c["passed"] for c in cases.values())
    for N, dim in ((3, 3), (4, 2)):
        detail = cases[f"rk4_vs_closed_N{N}_dim{dim}"]["detail"]
        assert re.fullmatch(r"worst gap at draw [012], t=\S+", detail), detail
    for N, dim in FLOW_FAMILIES:
        detail = cases[f"free_conservation_N{N}_dim{dim}"]["detail"]
        assert re.fullmatch(r"worst \w+ at t=\S+", detail), detail
    assert "newton_hooke_period_N3_dim3" in cases


@pytest.mark.parametrize("suite,readers", [("dynamics", "free_conservation_"),
                                           ("symmetry", None)])
def test_suites_evaluate_casimirs_only_for_the_cases_that_read_them(suite, readers, monkeypatch):
    """Of the dynamics and symmetry cases only the conservation cases read a
    recorded Casimir, so each of them records one trajectory and no other
    case evaluates a Casimir."""
    calls = []
    casimirs = dynamics.casimir_arrays

    def counted(*args):
        calls.append(args[0])
        return casimirs(*args)

    monkeypatch.setattr(dynamics, "casimir_arrays", counted)
    cases = run_suites(suite)["suites"][suite]
    assert len(calls) == sum(bool(readers) and c["name"].startswith(readers) for c in cases)


# ---------------------------------------------------------------------------
# RK4 samples by doubling the step increment
# ---------------------------------------------------------------------------

DOUBLING_FAMILIES = FLOW_FAMILIES + ((5, 3), (7, 3))


def _max_gap(a, b):
    return max(float(np.max(np.abs(x - y))) for x, y in ((a.q, b.q), (a.p, b.p), (a.chi, b.chi)))


@pytest.mark.parametrize("N,dim,ham", ARRAY_CASES)
def test_doubling_matches_per_stage_reference_at_block_boundaries(N, dim, ham):
    """Every run length around a power of two, including a partial last block."""
    pt = random_point(np.random.default_rng(200 + 10 * N + dim), N, dim, m=1.3)
    dt = 0.01
    ref = _rk4_reference(pt, ham, dt, 17)
    for n_steps in (1, 2, 3, 4, 7, 8, 9, 16, 17):
        tr = integrate(pt, ham, n_steps * dt, dt, "rk4", record=False)
        assert len(tr.times) == n_steps + 1
        for i, (st, want) in enumerate(zip(tr.states, ref)):
            assert _max_gap(st, want) <= 1e-14, (n_steps, i)
    tr = integrate(pt, ham, 0.0, dt, "rk4", record=False)
    assert len(tr.times) == 1
    assert np.array_equal(tr.q[0], pt.q) and np.array_equal(tr.p[0], pt.p)
    assert np.array_equal(tr.chi[0], pt.chi)


@pytest.mark.parametrize("N,dim", DOUBLING_FAMILIES)
def test_rk4_tracks_closed_form_to_rounding(N, dim):
    # D is never added to the identity, so its small entries are not rounded
    # against 1 at every step; rounding then stays near one unit in the last place
    pt = random_point(np.random.default_rng(60 + N), N, dim, m=1.2)
    rk = integrate(pt, FREE, 1.0, 1e-3, "rk4", record=False)
    cl = integrate(pt, FREE, 1.0, 1e-3, "closed", record=False)
    assert _max_gap(rk, cl) <= 1e-14


def test_newton_hooke_energy_drift_stays_at_rounding():
    """The ``newton_hooke_energy`` case: 3142 steps over half a period."""
    ham = HamiltonianChoice("newton_hooke", omega=1.0, sign=1)
    pt = PhasePoint(q=[[0.7, -0.2, 0.4]], p=[[0.0, 0.0, 0.0]],
                    s=[0.1, 0.0, -0.2], chi=[0.3, 0.1, -0.2], m=1.0)
    tr = integrate(pt, ham, math.pi, math.pi / 3142, "rk4")
    drifts, _ = conservation_drifts(tr)
    assert drifts["deformed_energy"] <= 1e-14
    assert np.max(np.abs(tr.q[-1] + pt.q)) <= 1e-14


def _flow_matrix_reference(N, dim, m, ham):
    """h (+ sign omega^2 k) taken from the full generator_polynomials, and the
    L read off it."""
    polys = generator_polynomials(N, dim, m)
    H = polys["h"]
    if ham.omega:
        H = H + (ham.sign * ham.omega * ham.omega) * polys["k"]
    sm = StructureMatrix(N, dim, m)
    coords = [sym for sym in sm.coordinates() if sym[0] != "s"]
    column = {sym: j for j, sym in enumerate(coords)}
    L = np.zeros((len(coords), len(coords)))
    for i, sym in enumerate(coords):
        for mono, c in poly_bracket(Poly.var(sym), H, sm).terms.items():
            ((var, _),) = mono
            L[i, column[var]] = c
    return H, L


FLOW_MATRIX_FAMILIES = DOUBLING_FAMILIES + ((15, 3), (14, 2))
FLOW_HAMILTONIANS = [FREE] + [HamiltonianChoice("newton_hooke", omega=1.3, sign=sign)
                              for sign in (1, -1)]


@pytest.mark.parametrize("N,dim", FLOW_MATRIX_FAMILIES)
@pytest.mark.parametrize("ham", FLOW_HAMILTONIANS, ids=["free", "nh+1", "nh-1"])
def test_flow_matrix_bitwise_equals_full_generator_route(N, dim, ham):
    m = 0.9
    H, L = _flow_matrix_reference(N, dim, m, ham)
    assert hamiltonian_poly(N, dim, m, ham.omega, ham.sign).terms == H.terms
    got = _flow_matrix(N, dim, m, ham)
    assert got.shape == L.shape and got.tobytes() == L.tobytes()


@pytest.mark.parametrize("ham", FLOW_HAMILTONIANS, ids=["free", "nh+1", "nh-1"])
def test_flow_matrix_takes_no_symbolic_bracket(ham, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("poly_bracket called")

    # dynamics would hold its own binding if it imported the name
    for module in ("galconf.poisson", "galconf.dynamics"):
        monkeypatch.setattr(f"{module}.poly_bracket", forbidden, raising=False)
    for N, dim in FLOW_MATRIX_FAMILIES:
        _flow_matrix.__wrapped__(N, dim, 0.9, ham)  # the builder, not a cached L


def test_flow_matrix_is_built_once_per_key_and_read_only():
    pt = random_point(np.random.default_rng(8), 3, 3, m=1.7)
    ham = HamiltonianChoice("newton_hooke", omega=0.6, sign=-1)
    _flow_matrix.cache_clear()
    first = integrate(pt, ham, 0.1, 0.01, record=False)
    info = _flow_matrix.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    same = random_point(np.random.default_rng(8), 3, 3, m=1.7)  # equal, not identical
    second = integrate(same, ham, 0.1, 0.01, record=False)
    assert _flow_matrix.cache_info().hits == 1 and _flow_matrix.cache_info().misses == 1
    assert second.q.tobytes() == first.q.tobytes()
    L = _flow_matrix(3, 3, 1.7, ham)
    with pytest.raises(ValueError):
        L[0, 0] = 1.0


@pytest.mark.parametrize("N,dim", FLOW_MATRIX_FAMILIES)
def test_poisson_tensors_match_structure_matrix(N, dim):
    """StructureMatrix.tensors against the exact algebra table.

    On the internal basis w = (J..., N^0, N^1, N^2), the bracket of the
    algebra is sum_g Q[a, b, g] w_g for every pair, in Fractions: the spin
    block holds the J-J constants, the chi block the so(2,1) triple, and
    mixed pairs are zero.  P is antisymmetric and zero on the internal
    coordinates, and both tensors are read-only.
    """
    alg = build_algebra(N, dim, central=True)
    sm = StructureMatrix(N, dim, 1.3)
    P, Q = sm.tensors
    w = [{g: Fraction(1)} for g in alg.generators if g.kind == "J"] + so21_basis(alg)
    assert P.shape == (len(sm.coordinates()),) * 2 and Q.shape == (len(w),) * 3
    for a in range(len(w)):
        for b in range(len(w)):
            want: Dict = {}
            for g in range(len(w)):
                for gid, cf in w[g].items():  # Fraction(float) is exact
                    want[gid] = want.get(gid, 0) + Fraction(Q[a, b, g]) * cf
            assert bracket(alg, w[a], w[b]) == {k: v for k, v in want.items() if v}, (a, b)
    assert (P == -P.T).all()
    assert not P[-len(w):].any() and not P[:, -len(w):].any()
    for T in (P, Q):
        with pytest.raises(ValueError):
            T[(0,) * T.ndim] = 1.0


def test_conservation_drifts_follow_the_trajectory_hamiltonian():
    """An integrated Newton-Hooke run is checked against its own conserved set
    without being told its Hamiltonian."""
    ham = HamiltonianChoice("newton_hooke", omega=3.0, sign=1)
    tr = integrate(random_point(np.random.default_rng(0), 1, 3), ham, 1.0, 1e-2)
    drifts, times = conservation_drifts(tr)
    assert set(drifts) == set(times) == {"deformed_energy", "C1", "C2", "C3",
                                         "spin_invariant", "chi_interval"}
    assert drifts["deformed_energy"] <= 1e-8


@pytest.mark.parametrize("N,dim", [(N, dim) for N, dim in DOUBLING_FAMILIES if dim == 3])
def test_generator_spin_matches_np_cross_on_unpacked_views(N, dim):
    """j of generators_at on a stack made from the strided q/p views of packed
    states, as integrate makes one, has the bits of the np.cross formula."""
    rng = np.random.default_rng(70 + N)
    n_ext = (q_levels(N, dim) + p_levels(N, dim)) * dim
    q, p, chi = _unpack(rng.uniform(-1, 1, (9, n_ext + 3)), N, dim)
    assert not q.flags.c_contiguous and not p.flags.c_contiguous
    s = rng.uniform(-1, 1, (9, 3))
    assert _cross3(q, p).tobytes() == np.cross(q, p).tobytes()
    j = generators_at(PhasePoint(q=q, p=p, s=s, chi=chi, m=1.1))["j"]
    assert j.tobytes() == (s + np.sum(np.cross(q, p), axis=-2)).tobytes()
