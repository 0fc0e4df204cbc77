"""Time-dependent integrals and finite symmetry transformations."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galconf import symmetry
from galconf.algebra import build_algebra
from galconf.coadjoint import coad_closed_form, pack_dual, rotation_matrix
from galconf.dynamics import (
    FREE,
    HamiltonianChoice,
    Trajectory,
    free_flow,
    integrate,
    record_values,
    verify_motion_order,
)
from galconf.errors import (
    InvalidState,
    NonFiniteResult,
    NonOrthogonalRotation,
    ShapeMismatch,
    SingularTime,
    UnsupportedClosedForm,
    UnsupportedHamiltonian,
)
from galconf.poisson import PhasePoint, dual_vector_at, generators_at, random_point
from galconf.symmetry import (
    ConformalMap,
    GalileiMap,
    integrals_of_motion,
    map_trajectory,
    schrodinger_integrals,
)
from galconf.verify import FLOW_FAMILIES, _worst_at, _worst_draw, run_suites


def schrodinger_point(x, p, m=1.0, s=(0, 0, 0), chi=(0, 0, 0)):
    return PhasePoint(q=[list(x)], p=[list(p)], s=list(s), chi=list(chi), m=m)


def sample_trajectory(times, q, p, m=1.0, s=(0, 0, 0), chi=(0, 0, 0)):
    """A Trajectory through the given states, with one spin and chi for all."""
    n = len(times)
    return Trajectory(times=times, states=PhasePoint(q=q, p=p, s=np.tile(s, (n, 1)),
                                                     chi=np.tile(chi, (n, 1)), m=m))


def printed_integrals_per_point(pt, t):
    """The printed N=1 set at one state, as schrodinger_integrals computed
    it one point at a time before it took whole trajectories."""
    g = generators_at(pt)
    x, p = pt.q[0], pt.p[0]
    return {
        "j": g["j"],
        "p": p.copy(),
        "x_boost": x - t * p / pt.m,
        "h": g["h"],
        "d_shifted": g["d"] - t * g["h"],
        "k_shifted": g["k"] - 2.0 * t * g["d"] + t * t * g["h"],
    }


class TestIntegralsOfMotion:
    def test_uniform_motion_example(self):
        # x(t) = t e1, p = e1, m = 1: the shifted d and k integrals vanish
        ts = np.array([0.0, 0.4, 1.7])
        tr = sample_trajectory(ts, [[[t, 0, 0]] for t in ts], [[[1, 0, 0]]] * 3)
        vals = schrodinger_integrals(tr)
        assert np.allclose(vals["d_shifted"], 0.0, rtol=0, atol=1e-14)
        assert np.allclose(vals["k_shifted"], 0.0, rtol=0, atol=1e-14)
        assert np.allclose(vals["h"], 0.5, rtol=0, atol=1e-14)

    def test_reduces_to_generators_at_time_zero(self):
        pt = random_point(np.random.default_rng(0), 3, 3)
        tr = integrate(pt, FREE, 0.1, 0.1, "closed", record=False)
        j, _, h, d, k = integrals_of_motion(tr)
        g = generators_at(pt)
        for key, got in (("h", h), ("d", d), ("k", k)):
            assert got[0] == pytest.approx(g[key], abs=1e-14)
        assert np.allclose(j[0], g["j"])

    @pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (2, 2), (4, 2), (5, 3)])
    def test_constant_along_rk4_flow(self, N, dim):
        pt = random_point(np.random.default_rng(N), N, dim)
        tr = integrate(pt, FREE, 1.0, 1e-3, "rk4", record=False)
        for name, v in zip("jchdk", integrals_of_motion(tr)):
            drift = np.max(np.abs(v[::111] - v[0]))
            assert drift < 1e-8, (name, drift)

    @pytest.mark.parametrize("method", ["rk4", "closed"])
    @pytest.mark.parametrize("N,dim", list(FLOW_FAMILIES) + [(5, 3), (6, 2)])
    def test_rows_match_the_pullback_of_each_state(self, N, dim, method):
        pt = random_point(np.random.default_rng(10 * N + dim), N, dim, m=1.3)
        tr = integrate(pt, FREE, 0.2, 1e-2, method, record=False)
        stacks = integrals_of_motion(tr)
        for i, st_ in enumerate(tr.states):
            q, p, chi = free_flow(st_.q, st_.p, st_.chi, st_.m, -float(tr.times[i]))
            fields = dual_vector_at(PhasePoint(q=q, p=p, s=st_.s, chi=chi, m=st_.m))
            for name, v, want in zip("jchdk", stacks, fields):
                assert v[i].tobytes() == np.asarray(want).tobytes(), (i, name)

    def test_printed_forms_match_pullback(self):
        pt = random_point(np.random.default_rng(5), 1, 3, m=1.7)
        tr = integrate(pt, FREE, 1.0, 0.01, "closed", record=False)
        printed = schrodinger_integrals(tr)
        j, c, h, d, k = integrals_of_motion(tr)
        for i in (0, 41, 100):
            assert printed["h"][i] == pytest.approx(h[i], abs=1e-11)
            assert printed["d_shifted"][i] == pytest.approx(d[i], abs=1e-11)
            assert printed["k_shifted"][i] == pytest.approx(k[i], abs=1e-11)
            assert np.allclose(printed["p"][i], c[i, 0], atol=1e-11)
            assert np.allclose(printed["x_boost"][i], c[i, 1] / tr.m, atol=1e-11)
            assert np.allclose(printed["j"][i], j[i], atol=1e-11)

    def test_printed_forms_match_the_per_point_formulas(self):
        pt = random_point(np.random.default_rng(6), 1, 3, m=1.7)
        tr = integrate(pt, FREE, 1.0, 0.01, "rk4", record=False)
        printed = schrodinger_integrals(tr)
        for i, st_ in enumerate(tr.states):
            want = printed_integrals_per_point(st_, float(tr.times[i]))
            for name, v in want.items():
                assert printed[name][i].tobytes() == np.asarray(v).tobytes(), (i, name)

    def test_printed_forms_need_schrodinger_case(self):
        pt = random_point(np.random.default_rng(1), 3, 3)
        with pytest.raises(UnsupportedClosedForm):
            schrodinger_integrals(integrate(pt, FREE, 0.1, 0.1, "closed", record=False))

    @pytest.mark.parametrize("method", ["rk4", "closed"])
    @pytest.mark.parametrize("N,dim", list(FLOW_FAMILIES) + [(7, 3), (6, 2)])
    def test_a_subsample_gives_the_rows_of_the_whole(self, N, dim, method):
        pt = random_point(np.random.default_rng(7 * N + dim), N, dim, m=0.9)
        tr = integrate(pt, FREE, 0.3, 1e-3, method, record=False)
        whole = integrals_of_motion(tr)
        for k in (2, 59):
            sub = Trajectory(times=tr.times[::k], states=tr.states[::k], ham=tr.ham)
            for name, got, want in zip("jchdk", integrals_of_motion(sub), whole):
                assert got.tobytes() == np.ascontiguousarray(want[::k]).tobytes(), (k, name)

    def test_only_free_trajectories(self):
        # pulled back along the free flow, the "integrals" of an oscillator
        # trajectory drift (h by 0.42 and c by 0.54 here)
        ham = HamiltonianChoice("newton_hooke", omega=1.0, sign=1)
        pt = random_point(np.random.default_rng(2), 1, 3)
        tr = integrate(pt, ham, 1.0, 1e-2, record=False)
        for integrals in (integrals_of_motion, schrodinger_integrals):
            with pytest.raises(UnsupportedHamiltonian, match="free trajectories only"):
                integrals(tr)
        with pytest.raises(UnsupportedHamiltonian, match="free trajectories only"):
            map_trajectory(tr, GalileiMap())


class TestConformalTime:
    def test_printed_value(self):
        assert ConformalMap(1.0).time(1.0) == 0.5

    def test_identity_at_zero_parameter(self):
        assert ConformalMap(0.0).time(2.7) == 2.7

    def test_pole(self):
        with pytest.raises(SingularTime, match="conformal time map singular at t=1.0, c=-1.0"):
            ConformalMap(-1.0).time(1.0)
        with pytest.raises(SingularTime, match="conformal time map singular at t=1.0, c=-1.0"):
            ConformalMap(1.0).inverse_time(1.0)

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(-0.3, 0.3), c1=st.floats(-0.3, 0.3), c2=st.floats(-0.3, 0.3))
    def test_group_law(self, t, c1, c2):
        lhs = ConformalMap(c2).time(ConformalMap(c1).time(t))
        assert lhs == pytest.approx(ConformalMap(c1 + c2).time(t), abs=1e-12)


class TestConformalTransform:
    def test_rest_particle(self):
        # x(t) = e1 at rest, m=1, c=1: x'(t') = (1-t') e1 with p' = -e1
        for t in (0.0, 0.5, 2.0):
            x, p, tp = ConformalMap(1.0).apply([1, 0, 0], [0, 0, 0], t, 1.0)
            assert np.allclose(x, [(1 - tp), 0, 0]) or t == 0.0
            assert np.allclose(p, [-1.0, 0, 0])
            assert tp == pytest.approx(t / (1 + t))

    def test_identity(self):
        x, p, tp = ConformalMap(0.0).apply([0.2, 0.1, 0.0], [1.0, 0, 0], 0.7, 2.0)
        assert np.allclose(x, [0.2, 0.1, 0.0]) and np.allclose(p, [1.0, 0, 0])
        assert tp == 0.7

    def test_singular(self):
        with pytest.raises(SingularTime, match="conformal transform singular at t=1.0, c=-1.0"):
            ConformalMap(-1.0).apply([1, 0, 0], [0, 0, 0], 1.0, 1.0)

    def test_generator_values_follow_the_column(self):
        """Active map at t=0 against the conformal coadjoint column with u=-c."""
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = float(rng.uniform(0.5, 2.0))
            x0 = rng.uniform(-1, 1, 3)
            p0 = rng.uniform(-1, 1, 3)
            c = float(rng.uniform(-0.8, 0.8))
            g = generators_at(schrodinger_point(x0, p0, m=m))
            x1, p1, _ = ConformalMap(c).apply(x0, p0, 0.0, m)
            g2 = generators_at(schrodinger_point(x1, p1, m=m))
            u = -c
            assert g2["h"] == pytest.approx(g["h"] + 2 * u * g["d"] + u * u * g["k"],
                                            abs=1e-12)
            assert g2["d"] == pytest.approx(g["d"] + u * g["k"], abs=1e-12)
            assert g2["k"] == pytest.approx(g["k"], abs=1e-12)


class TestGalileiTransform:
    def test_boost_of_rest_state(self):
        m = 2.0
        boost = GalileiMap(v=(1.0, 0.0, 0.0))
        for t in (0.0, 0.5, 1.0):
            x, p, tp = boost.apply([0, 0, 0], [0, 0, 0], t, m)
            assert np.allclose(x, [t, 0, 0])
            assert np.allclose(p, [2.0, 0, 0])
            assert tp == t

    def test_identity(self):
        x, p, tp = GalileiMap().apply([0.3, 0, 0], [0, 1, 0], 0.4, 1.0)
        assert np.allclose(x, [0.3, 0, 0]) and np.allclose(p, [0, 1, 0]) and tp == 0.4

    def test_rotation(self):
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        x, p, _ = GalileiMap(R=R).apply([0, 0, 0], [1, 0, 0], 0.0, 1.0)
        assert np.allclose(p, [0, 1, 0])

    def test_rejects_non_orthogonal_rotation(self):
        # checked when the map is made, before any state is mapped
        for R in (np.eye(3) * 2.0, np.eye(2)):
            with pytest.raises(NonOrthogonalRotation):
                GalileiMap(R=R)


class TestMapTrajectory:
    def make_free(self, seed=11, m=1.5):
        pt = random_point(np.random.default_rng(seed), 1, 3, m=m)
        pt.chi[:] = 0.0
        return integrate(pt, FREE, 1.0, 1e-3, "rk4", record=False), m

    def test_identity_map(self):
        tr, m = self.make_free()
        tr2 = map_trajectory(tr, GalileiMap())
        assert np.allclose(tr2.times, tr.times)
        for a, b in zip(tr.states[::100], tr2.states[::100]):
            assert np.max(np.abs(a.q - b.q)) < 1e-12
            assert np.max(np.abs(a.p - b.p)) < 1e-12

    @pytest.mark.parametrize("c", [0.5, -0.5, 1.0])
    def test_conformal_maps_solutions_to_solutions(self, c):
        tr, m = self.make_free()
        tr2 = map_trajectory(tr, ConformalMap(c))
        res, _ = verify_motion_order(tr2)
        assert res < 1e-7
        p0 = np.array([st.p[0] for st in tr2.states])
        assert np.max(np.abs(p0 - p0[0])) < 1e-7
        h = generators_at(tr2.states)["h"]
        assert np.max(np.abs(h - h[0])) < 1e-7

    def test_one_map_keeps_momentum_constant_at_every_mass(self):
        # the map takes its mass from each trajectory it maps
        maps = suite_maps()
        for m in (1.5, 3.0):
            tr, _ = self.make_free(m=m)
            for mp in maps:
                p0 = map_trajectory(tr, mp).p[:, 0]
                assert np.max(np.abs(p0 - p0[0])) < 1e-7, (m, mp)

    def test_galilei_maps_solutions_to_solutions(self):
        tr, m = self.make_free(seed=13)
        mp = GalileiMap(a=(0.5, -0.2, 0.1), v=(0.3, 0.0, -0.4), tau=0.25,
                        R=rotation_matrix([0.2, 0.5, -0.3]))
        tr2 = map_trajectory(tr, mp)
        res, _ = verify_motion_order(tr2)
        assert res < 1e-7

    def test_singular_range_rejected(self):
        tr, m = self.make_free()
        with pytest.raises(SingularTime):
            map_trajectory(tr, ConformalMap(-1.5))  # pole at t = 2/3

    def test_pole_between_negative_sample_times(self):
        # c > 0 puts the pole at t = -1/c < 0, here strictly between -0.7 and -0.6
        c, m, v = 1.5, 1.2, np.array([0.3, -0.1, 0.2])
        times = np.linspace(-1.0, 0.0, 11)
        x0 = np.array([0.2, 0.0, 0.1])
        q = [[x0 + v * t] for t in times]
        tr = sample_trajectory(times, q, [[m * v]] * 11, m=m, chi=(0.1, 0.2, 0.3))
        assert np.min(np.abs(1.0 + c * times)) > 0.04
        with pytest.raises(SingularTime, match="pole inside"):
            map_trajectory(tr, ConformalMap(c))
        # the samples before the pole all lie on one side of it and map
        left = sample_trajectory(times[:3], q[:3], [[m * v]] * 3, m=m)
        out = map_trajectory(left, ConformalMap(c))
        assert np.all(np.diff(out.times) > 0)
        t = ConformalMap(c).inverse_time(out.times)
        x, p, _ = ConformalMap(c).apply(x0 + v * t[:, None], np.tile(m * v, (3, 1)), t, m)
        assert np.max(np.abs(out.q[:, 0] - x)) < 1e-14
        assert np.max(np.abs(out.p[:, 0] - p)) < 1e-14

    def test_only_free_trajectories(self):
        # a time shift of an oscillator trajectory would follow the free flow
        # between samples and miss the oscillator curve by ~1e-4
        ham = HamiltonianChoice("newton_hooke", omega=3.0, sign=1)
        pt = schrodinger_point([1.0, 0.2, -0.3], [0.1, 0.0, 0.4], m=1.5)
        tr = integrate(pt, ham, 1.0, 1e-2, record=False)
        assert tr.ham == ham
        with pytest.raises(UnsupportedHamiltonian, match="free trajectories only"):
            map_trajectory(tr, GalileiMap(tau=0.0035))
        free = integrate(pt, FREE, 1.0, 1e-2, record=False)
        assert free.ham == FREE
        assert map_trajectory(free, GalileiMap(tau=0.0035)).ham == FREE

    def test_image_is_unrecorded_and_generators_at_gives_the_recorded_h(self):
        tr, _ = self.make_free(seed=13)
        for mp in suite_maps():
            image = map_trajectory(tr, mp)
            assert image.recorded == {}
            want = record_values(image.states)["h"]
            assert generators_at(image.states)["h"].tobytes() == want.tobytes(), mp

    def test_only_schrodinger_case(self):
        pt = random_point(np.random.default_rng(14), 3, 3)
        tr = integrate(pt, FREE, 0.5, 0.01, record=False)
        with pytest.raises(UnsupportedClosedForm):
            map_trajectory(tr, ConformalMap(0.1))


def suite_maps():
    """The eight maps of the symmetry suite."""
    maps = [ConformalMap(c) for c in (0.5, -0.5, 1.0)]
    return maps + [GalileiMap(v=(0.4, -0.2, 0.1)), GalileiMap(a=(1.0, 0.5, -0.3)),
                   GalileiMap(tau=0.35), GalileiMap(R=rotation_matrix([0.3, -0.5, 0.8])),
                   GalileiMap()]


def map_trajectory_reference(traj, transform):
    """A per-grid-point loop: one inverse time, the free flow from the last
    sample at or before it, and the printed map, per sample."""
    grid = np.linspace(transform.time(float(traj.times[0])),
                       transform.time(float(traj.times[-1])), len(traj.times))
    if isinstance(transform, ConformalMap):
        c, m = transform.c, traj.m
        t = np.array([float(tp) / (1.0 - c * float(tp)) for tp in grid])

        def one(x, p, ti):
            denom = 1.0 + c * ti
            return x / denom, p * denom - m * c * x
    else:
        m, R = traj.m, transform.R
        a, v = np.asarray(transform.a, dtype=float), np.asarray(transform.v, dtype=float)
        t = np.array([float(tp) - transform.tau for tp in grid])

        def one(x, p, ti):
            return R @ x + a + v * ti, R @ p + m * v
    q, p, s, chi = [], [], [], []
    for ti in t:
        i = max(int(np.sum(traj.times <= ti)) - 1, 0)
        qi, pi, chi_i = free_flow(traj.q[i], traj.p[i], traj.chi[i], traj.m,
                                  ti - float(traj.times[i]))
        x, px = one(qi[0], pi[0], ti)
        q.append([x])
        p.append([px])
        s.append(traj.s[i])
        chi.append(chi_i)
    return {"times": grid, "q": np.array(q), "p": np.array(p), "s": np.array(s),
            "chi": np.array(chi)}


@pytest.mark.parametrize("seed", [11, 12])
def test_map_trajectory_matches_per_sample_loop(seed):
    m = 1.5
    pt = random_point(np.random.default_rng(seed), 1, 3, m=m)
    pt.chi[:] = 0.0
    tr = integrate(pt, FREE, 1.0, 1e-3, "rk4", record=False)
    for mp in suite_maps():
        got = map_trajectory(tr, mp)
        for name, want in map_trajectory_reference(tr, mp).items():
            assert getattr(got, name).tobytes() == np.ascontiguousarray(want).tobytes(), name


def test_map_arrays_check_the_pole_at_every_sample():
    mp = ConformalMap(-1.5)  # pole at t = 2/3
    with pytest.raises(SingularTime, match="t=0.6666"):
        mp.apply(np.zeros((3, 3)), np.zeros((3, 3)), np.array([0.0, 2.0 / 3.0, 1.0]), 1.0)
    with pytest.raises(SingularTime):
        mp.time(np.array([0.1, 2.0 / 3.0]))
    x, p, t = mp.apply(np.ones((2, 3)), np.ones((2, 3)), np.array([0.0, 0.5]), 1.0)
    assert t.tolist() == [0.0, 0.5 / (1.0 - 0.75)]


@pytest.mark.parametrize("method", ["closed", "rk4"])
def test_mapped_states_are_the_map_of_the_exact_free_solution(method):
    m = 1.5
    pt = random_point(np.random.default_rng(21), 1, 3, m=m)
    assert np.all(pt.chi != 0.0)
    tr = integrate(pt, FREE, 1.0, 1e-3, method, record=False)
    for mp in suite_maps():
        got = map_trajectory(tr, mp)
        t = mp.inverse_time(got.times)
        q, p, chi = free_flow(pt.q, pt.p, pt.chi, m, t)
        x, px, _ = mp.apply(q[:, 0], p[:, 0], t, m)
        for name, want in (("q", x[:, None]), ("p", px[:, None]), ("chi", chi)):
            assert np.max(np.abs(getattr(got, name) - want)) < 1e-14, (mp, name)


def test_column_consistency_maps_with_the_library_boost(monkeypatch):
    apply = GalileiMap.apply

    def wrong_boost(self, x, p, t, m):
        x2, p2, t2 = apply(self, x, p, t, m)
        return x2, p2 + m * np.asarray(self.v, dtype=float), t2

    monkeypatch.setattr(symmetry.GalileiMap, "apply", wrong_boost)
    cases = {c["name"]: c for c in run_suites("symmetry")["suites"]["symmetry"]}
    assert not cases["column_consistency_boost"]["passed"]
    for fam in ("translation", "time", "conformal", "rotation"):
        assert cases[f"column_consistency_{fam}"]["passed"], fam


def test_symmetry_cases_name_where_they_are_worst():
    patterns = {
        "column_consistency_": r"worst draw \d+ of 40",
        "integrals_constant_": r"worst [jchdk] at t=[-.e\d]+",
        "solution_to_solution_": r"worst (fit residual|(p_0|h) drift at t'=[-.e\d]+)",
        "printed_vs_pullback_integrals": r"worst (j|p|x_boost|h|d_shifted|k_shifted) at row "
                                         r"(0|37|100)",
    }
    seen = set()
    for case in run_suites("symmetry")["suites"]["symmetry"]:
        for prefix, pattern in patterns.items():
            if case["name"].startswith(prefix):
                assert re.fullmatch(pattern, case["detail"]), case
                seen.add(prefix)
    assert seen == set(patterns)


def test_worst_at_names_the_first_quantity_then_the_first_sample():
    named = {"a": np.array([0.0, 1.0, 2.0]), "b": np.array([[0.0, 0.0], [-2.0, 0.0], [2.0, 0.0]])}
    assert _worst_at(named, np.array([0.0, 0.5, 1.0]), "t=") == (2.0, "worst a at t=1")
    named["a"] = np.zeros(3)
    assert _worst_at(named, np.array([0, 37, 100]), "row ") == (2.0, "worst b at row 37")
    assert _worst_at({"a": np.zeros(2)}, np.arange(2), "row ") == (0.0, "all exact")


def random_stack(rng, n):
    """n rows of each map parameter: a, v, tau, rotations R and conformal c."""
    R = np.array([rotation_matrix(w) for w in rng.uniform(-1.5, 1.5, (n, 3))])
    return (rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, n), R,
            rng.uniform(-0.8, 0.8, n))


def same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


def row_of(out, i):
    """Row i of a stacked output; a time shared by every row is not stacked."""
    return out[i] if np.ndim(out) else out


class TestStackedMaps:
    @pytest.mark.parametrize("seed", [71, 72])
    def test_each_row_is_the_map_of_that_row_alone(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 9, 1.3
        a, v, tau, R, c = random_stack(rng, n)
        x, p = rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 3))
        t = rng.uniform(-0.5, 0.5, n)
        stacks = [(GalileiMap(a=a, v=v, tau=tau, R=R),
                   lambda i: GalileiMap(a=a[i], v=v[i], tau=tau[i], R=R[i])),
                  (GalileiMap(a=a, tau=tau), lambda i: GalileiMap(a=a[i], tau=tau[i])),
                  (GalileiMap(v=v, R=R), lambda i: GalileiMap(v=v[i], R=R[i])),
                  (ConformalMap(c), lambda i: ConformalMap(c[i]))]
        for mp, row in stacks:
            assert mp.shape == (n,)
            for times in (t, 0.0, 0.3):  # a time per row, or one for all
                got = mp.apply(x, p, times, m)
                for i in range(n):
                    ti = times[i] if np.ndim(times) else times
                    want = row(i).apply(x[i], p[i], ti, m)
                    assert all(same_bits(row_of(g, i), w) for g, w in zip(got, want)), (mp, i)
                    assert same_bits(row_of(mp.time(times), i), row(i).time(ti))
                    assert same_bits(row_of(mp.inverse_time(times), i), row(i).inverse_time(ti))

    def test_one_state_maps_by_every_row(self):
        rng = np.random.default_rng(73)
        a, v, tau, R, c = random_stack(rng, 5)
        x, p = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        for mp, row in ((GalileiMap(a=a, v=v, tau=tau, R=R),
                         lambda i: GalileiMap(a=a[i], v=v[i], tau=tau[i], R=R[i])),
                        (ConformalMap(c), lambda i: ConformalMap(c[i]))):
            got = mp.apply(x, p, 0.25, 0.9)
            for i in range(5):
                want = row(i).apply(x, p, 0.25, 0.9)
                assert all(same_bits(row_of(g, i), w) for g, w in zip(got, want))

    def test_stacks_broadcast(self):
        assert GalileiMap(a=np.zeros((4, 3)), tau=np.zeros((2, 1))).shape == (2, 4)
        assert GalileiMap(R=np.tile(np.eye(3), (5, 1, 1)), v=(1.0, 0.0, 0.0)).shape == (5,)
        assert ConformalMap(np.zeros((2, 3))).shape == (2, 3)
        assert GalileiMap().shape == ConformalMap(0.5).shape == ()
        assert isinstance(GalileiMap(tau=1).tau, float) and isinstance(ConformalMap(1).c, float)

    def test_singular_time_names_the_first_time_at_the_pole(self):
        mp = ConformalMap([0.5, -1.0, -2.0, -1.0])
        with pytest.raises(SingularTime, match=r"singular at t=1.0, c=-1.0$"):
            mp.time(np.array([1.0, 1.0, 0.5, 1.0]))
        with pytest.raises(SingularTime, match=r"singular at t=0.5, c=-2.0$"):
            mp.apply(np.zeros((4, 3)), np.zeros((4, 3)), np.array([0.2, 0.3, 0.5, 1.0]), 1.0)
        with pytest.raises(SingularTime, match=r"singular at t=1.0, c=-1.0$"):
            mp.apply(np.zeros(3), np.zeros(3), 1.0, 1.0)
        with pytest.raises(SingularTime, match=r"singular at t=1.0, c=-1.0$"):
            ConformalMap([0.0, 1.0, 0.5]).inverse_time(1.0)

    def test_rejects_a_rotation_stack_of_the_wrong_shape_or_with_one_bad_row(self):
        R = np.tile(np.eye(3), (4, 1, 1))
        R[2, 0, 0] = 1.5
        for bad in (np.eye(2), np.zeros((4, 3, 2)), np.zeros((4, 2, 3)), np.ones(3), R):
            with pytest.raises(NonOrthogonalRotation):
                GalileiMap(R=bad)

    def test_times_and_states_must_broadcast_against_the_stack(self):
        for mp in (ConformalMap(np.zeros(3)), GalileiMap(a=np.zeros((3, 3)))):
            for call in (lambda: mp.time(np.zeros(4)), lambda: mp.inverse_time(np.zeros(2)),
                         lambda: mp.apply(np.zeros((4, 3)), np.zeros((4, 3)), 0.0, 1.0),
                         lambda: mp.apply(np.zeros(3), np.zeros(3), np.zeros(4), 1.0)):
                with pytest.raises(ShapeMismatch, match="do not broadcast"):
                    call()

    def test_states_must_be_three_vectors(self):
        for mp in (ConformalMap(0.5), GalileiMap(v=(0.1, 0.0, 0.0))):
            for x, p in ((np.zeros((4, 2)), np.zeros((4, 2))), ([1.0, 0.0], [0.0, 0.0, 0.0])):
                with pytest.raises(ShapeMismatch, match=r"x and p must be \(\.\.\., 3\)"):
                    mp.apply(x, p, 0.0, 1.0)

    def test_a_trajectory_maps_by_one_map(self):
        tr, _ = TestMapTrajectory().make_free()
        for mp in (ConformalMap([0.5, 0.2]), GalileiMap(a=np.zeros((2, 3))),
                   GalileiMap(tau=[0.1, 0.2])):
            with pytest.raises(ShapeMismatch, match="one map"):
                map_trajectory(tr, mp)


class TestMapParametersAtTheBoundary:
    """Each bad parameter is rejected when the map is made, with a typed error
    and no numpy warning."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_nan_rotation(self):
        with pytest.raises(InvalidState, match="R has a non-finite entry"):
            GalileiMap(R=np.eye(3) * np.nan)

    def test_nan_conformal_parameter(self):
        with pytest.raises(InvalidState, match="c has a non-finite entry"):
            ConformalMap(np.nan)

    def test_infinite_conformal_parameter(self):
        with pytest.raises(InvalidState, match="c has a non-finite entry"):
            ConformalMap([0.1, np.inf])

    def test_nan_translation(self):
        with pytest.raises(InvalidState, match="a has a non-finite entry"):
            GalileiMap(a=(np.nan, 0, 0))

    def test_infinite_boost(self):
        with pytest.raises(InvalidState, match="v has a non-finite entry"):
            GalileiMap(v=(0, -np.inf, 0))

    def test_infinite_time_shift(self):
        with pytest.raises(InvalidState, match="tau has a non-finite entry"):
            GalileiMap(tau=np.inf)

    def test_translation_of_the_wrong_length(self):
        with pytest.raises(ShapeMismatch, match=r"a must have shape \(\.\.\., 3\), got \(2,\)"):
            GalileiMap(a=(1, 2))

    def test_stacks_that_do_not_broadcast(self):
        with pytest.raises(ShapeMismatch, match="do not broadcast"):
            GalileiMap(a=np.zeros((5, 3)), v=np.zeros((4, 3)))
        with pytest.raises(ShapeMismatch, match="do not broadcast"):
            GalileiMap(tau=np.zeros(3), R=np.tile(np.eye(3), (2, 1, 1)))

    def test_rotation_whose_orthogonality_defect_overflows(self):
        R = [[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(NonOrthogonalRotation, match="orthogonal to 1e-9"):
            GalileiMap(R=R)

    def test_nan_rotation_vector(self):
        with pytest.raises(InvalidState, match="omega has a non-finite entry"):
            rotation_matrix([np.nan, 0, 0])

    def test_infinite_rotation_vector(self):
        with pytest.raises(InvalidState, match="omega has a non-finite entry"):
            rotation_matrix([np.inf, 0, 0])

    def test_rotation_vector_whose_norm_overflows(self):
        with pytest.raises(NonFiniteResult, match="overflows"):
            rotation_matrix([1e200, 1e200, 0.0])

    def test_rotation_vector_of_the_wrong_length(self):
        for omega in ([0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2, 0.3]]):
            with pytest.raises(ShapeMismatch, match="one 3-vector"):
                rotation_matrix(omega)


_ZERO = np.zeros(3)
_BAD_INPUTS = {
    "conformal_x": (lambda: ConformalMap(0.5).apply([np.nan, 0, 0], _ZERO, 0.2, 1.0), "x"),
    "conformal_p": (lambda: ConformalMap(0.5).apply(_ZERO, [0, np.inf, 0], 0.2, 1.0), "p"),
    "conformal_t": (lambda: ConformalMap(0.5).apply(_ZERO, _ZERO, np.nan, 1.0), "t"),
    "conformal_time": (lambda: ConformalMap(0.0).time(np.inf), "t"),
    "conformal_inverse_time": (lambda: ConformalMap([0.5, 0.2]).inverse_time([0.1, -np.inf]),
                               "tp"),
    "galilei_t_before_p": (lambda: GalileiMap(v=(1, 0, 0)).apply(_ZERO, [0, np.inf, 0], np.nan,
                                                                   1.0), "t"),
    "galilei_p": (lambda: GalileiMap(v=(1, 0, 0)).apply(_ZERO, [0, np.inf, 0], 0.3, 1.0), "p"),
    "galilei_x_stack": (lambda: GalileiMap(R=rotation_matrix([0.3, -0.5, 0.8])).apply(
        np.array([_ZERO, [1.0, np.nan, 0.0]]), np.zeros((2, 3)), np.zeros(2), 1.0), "x"),
    "galilei_time": (lambda: GalileiMap(tau=0.2).time(np.array([0.0, np.nan])), "t"),
    "galilei_inverse_time": (lambda: GalileiMap().inverse_time(np.inf), "tp"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_maps_reject_non_finite_states_and_times(case):
    """A NaN or an infinity in a state or a time raises InvalidState naming
    the input, before any arithmetic could warn; they used to pass through."""
    call, name = _BAD_INPUTS[case]
    with pytest.raises(InvalidState, match=f"^{name} has a non-finite entry$"):
        call()


def symmetry_reference_cases(seed):
    """The conformal_time_group_law and column_consistency_* cases as
    suite_symmetry computed them before it mapped its draws as stacks: one
    group-law draw, and one map per family, per draw."""
    rng = np.random.default_rng(seed + 4)
    for N, dim in ((1, 3), (3, 3), (2, 2)):  # the rng draws of the cases before
        random_point(rng, N, dim)
    random_point(rng, 1, 3, m=1.7)
    out = {}
    worst = 0.0
    for _ in range(50):
        t, c1, c2 = rng.uniform(-0.3, 0.3, 3)
        worst = max(worst, abs(ConformalMap(c2).time(ConformalMap(c1).time(t))
                               - ConformalMap(c1 + c2).time(t)))
    out["conformal_time_group_law"] = (float(worst), "")
    m = 1.5
    random_point(rng, 1, 3, m=m)
    alg1 = build_algebra(1, 3, central=True)
    draws = {fam: [] for fam in ("translation", "boost", "time", "conformal", "rotation")}
    zero = np.zeros(3)
    for _ in range(40):
        pt = random_point(rng, 1, 3, m=m)
        x, p, s, chi = pt.q[0], pt.p[0], pt.s, pt.chi
        a, v = rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3)
        tau, cpar = float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8))
        om = rng.uniform(-0.8, 0.8, 3)
        state = (x, p, s, chi)
        xa, pa, _ = GalileiMap(a=a).apply(x, p, 0.0, m)
        draws["translation"].append((state, (xa, pa, s, chi), -a))
        xv, pv, _ = GalileiMap(v=v).apply(x, p, 0.0, m)
        draws["boost"].append((state, (xv, pv, s, chi), v))
        qt, ptau, chit = free_flow(pt.q, pt.p, chi, m, -tau)
        draws["time"].append((state, (qt[0], ptau[0], s, chit), -tau))
        xc, pc, _ = ConformalMap(cpar).apply(x, p, 0.0, m)
        draws["conformal"].append(((x, p, s, zero), (xc, pc, s, zero), -cpar))
        xr, pr, _ = GalileiMap(R=rotation_matrix(om)).apply(x, p, 0.0, m)
        draws["rotation"].append(((x, p, zero, chi), (xr, pr, zero, chi), om))

    def duals(states):
        x, p, s, chi = (np.array(v) for v in zip(*states))
        pts = PhasePoint(q=x[:, None], p=p[:, None], s=s, chi=chi, m=m)
        return pack_dual(alg1, m, *dual_vector_at(pts))

    for fam, fam_draws in draws.items():
        inputs, images, params = zip(*fam_draws)
        cols = coad_closed_form(alg1, fam, np.array(params), duals(inputs))
        worst, detail = _worst_draw(np.abs(duals(images) - cols).max(axis=1))
        out[f"column_consistency_{fam}"] = (worst, detail)
    return out


@pytest.mark.parametrize("seed", [42, 1, 7])
def test_stacked_symmetry_draws_match_the_per_draw_loop(seed):
    cases = {c["name"]: c for c in run_suites("symmetry", seed=seed)["suites"]["symmetry"]}
    want = symmetry_reference_cases(seed)
    assert {name: (cases[name]["defect"].hex(), cases[name]["detail"]) for name in want} \
        == {name: (float(defect).hex(), detail) for name, (defect, detail) in want.items()}
