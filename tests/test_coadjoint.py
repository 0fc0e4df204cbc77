"""Coadjoint flows, orbit classification and Casimir functions."""

from fractions import Fraction

import numpy as np
import pytest

from galconf.algebra import build_algebra
from galconf.coadjoint import (
    DualVector,
    OrbitClass,
    OrbitLabel,
    casimir_values,
    chi_for_class,
    chi_interval,
    classify_orbit,
    coad_closed_form,
    coad_generic,
    orbit_dual_vector,
    parametrize,
)
from galconf.errors import (
    AmbiguousClass,
    ConvergenceFailure,
    LabelMismatch,
    ShapeMismatch,
    UnsupportedClosedForm,
)
from galconf.verify import random_dual


@pytest.fixture(scope="module")
def alg1():
    return build_algebra(1, 3, central=True)


def dual_defect(X, Y):
    d = max(abs(X.m - Y.m), abs(X.h - Y.h), abs(X.d - Y.d), abs(X.k - Y.k))
    d = max(d, float(np.max(np.abs(np.atleast_1d(np.asarray(X.j) - np.asarray(Y.j))))))
    return max(d, float(np.max(np.abs(X.c - Y.c))))


class TestClosedFormColumns:
    def test_boost_column(self, alg1):
        # m=2, xi=0, h=0, v=(1,0,0): xi' = m v, h' = m v^2/2 + v.xi
        X = DualVector(m=2.0, h=0.0, d=0.25, k=-0.5, j=[0.0, 0.0, 0.0],
                       c=np.zeros((2, 3)))
        Y = coad_closed_form(alg1, "boost", [1.0, 0.0, 0.0], X)
        assert np.allclose(Y.c[0], [2.0, 0.0, 0.0])
        assert Y.h == pytest.approx(1.0, abs=1e-15)
        assert Y.m == X.m

    def test_translation_column(self, alg1):
        # m=1, zeta=0, k=0, a=(1,0,0): zeta' = -m a, k' = m a^2/2
        X = DualVector(m=1.0, h=0.3, d=0.0, k=0.0, j=[0.0, 0.0, 0.0],
                       c=np.zeros((2, 3)))
        Y = coad_closed_form(alg1, "translation", [1.0, 0.0, 0.0], X)
        assert np.allclose(Y.c[1], [-1.0, 0.0, 0.0])
        assert Y.k == pytest.approx(0.5, abs=1e-15)
        assert Y.h == X.h

    def test_zero_parameters_identity(self, alg1):
        rng = np.random.default_rng(5)
        X = random_dual(rng, 1, 3)
        for fam, par in [("translation", np.zeros(3)), ("boost", np.zeros(3)),
                         ("time", 0.0), ("dilation", 0.0), ("conformal", 0.0),
                         ("rotation", np.zeros(3)),
                         ("ctrans", np.zeros((2, 3)))]:
            assert dual_defect(X, coad_closed_form(alg1, fam, par, X)) == 0.0

    def test_closed_form_needs_schrodinger_case(self):
        alg3 = build_algebra(3, 3, central=True)
        X = random_dual(np.random.default_rng(0), 3, 3)
        with pytest.raises(UnsupportedClosedForm):
            coad_closed_form(alg3, "boost", [1.0, 0.0, 0.0], X)


class TestGenericFlow:
    def test_matches_columns(self, alg1):
        rng = np.random.default_rng(9)
        checks = {
            "translation": (lambda p: {"C0_1": p[0], "C0_2": p[1], "C0_3": p[2]}, 1.0),
            "boost": (lambda p: {"C1_1": p[0], "C1_2": p[1], "C1_3": p[2]}, 1.0),
            "time": (lambda p: {"H": 1}, None),
            "dilation": (lambda p: {"D": 1}, None),
            "conformal": (lambda p: {"K": 1}, None),
            "rotation": (lambda p: {"J1": p[0], "J2": p[1], "J3": p[2]}, 1.0),
        }
        for fam, (to_names, t_fixed) in checks.items():
            for _ in range(20):
                X = random_dual(rng, 1, 3)
                if fam in ("translation", "boost", "rotation"):
                    par = rng.uniform(-0.6, 0.6, 3)
                    t = 1.0
                else:
                    par = float(rng.uniform(-0.6, 0.6))
                    t = -par if fam == "time" else par
                A = {alg1.generator(n): Fraction(float(v)).limit_denominator(10 ** 12)
                     for n, v in to_names(par).items()}
                if fam in ("translation", "boost", "rotation"):
                    par = np.array([float(A[alg1.generator(n)])
                                    for n in to_names(par)])
                assert dual_defect(coad_closed_form(alg1, fam, par, X),
                                   coad_generic(alg1, A, t, X)) < 1e-10

    @pytest.mark.parametrize("N,dim", [(3, 3), (4, 2)])
    def test_matches_tower_translations(self, N, dim):
        # nilpotent flow: the generic series terminates and agrees exactly
        rng = np.random.default_rng(N * 10 + dim)
        alg = build_algebra(N, dim, central=True)
        for _ in range(20):
            X = random_dual(rng, N, dim)
            arr = rng.uniform(-0.5, 0.5, (N + 1, dim))
            A = {}
            for j in range(N + 1):
                for a in range(dim):
                    A[alg.generator(f"C{j}_{a + 1}")] = \
                        Fraction(float(arr[j, a])).limit_denominator(10 ** 12)
            exact = np.array([[float(A[alg.generator(f"C{j}_{a + 1}")])
                               for a in range(dim)] for j in range(N + 1)])
            Y1 = coad_closed_form(alg, "ctrans", exact, X)
            Y2 = coad_generic(alg, A, 1.0, X)
            assert dual_defect(Y1, Y2) < 1e-12

    def test_central_element_acts_trivially(self, alg1):
        X = random_dual(np.random.default_rng(2), 1, 3)
        Y = coad_generic(alg1, {alg1.generator("M"): Fraction(1)}, 0.9, X)
        assert dual_defect(X, Y) == 0.0

    def test_mass_invariant_under_generic_flows(self, alg1):
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = random_dual(rng, 1, 3)
            A = {g: Fraction(float(rng.uniform(-0.5, 0.5))).limit_denominator(10 ** 9)
                 for g in alg1.generators}
            Y = coad_generic(alg1, A, float(rng.uniform(-1, 1)), X)
            assert Y.m == X.m


class TestClassification:
    def test_two_sheet(self):
        cls = classify_orbit([2.0, 0.0, 0.0])
        assert (cls.tag, cls.sigma) == ("HplusSigma", 2.0)
        cls = classify_orbit([-1.5, 0.5, 0.0])
        assert cls.tag == "HminusSigma"

    def test_origin(self):
        assert classify_orbit([0.0, 0.0, 0.0]).tag == "Origin"

    def test_one_sheet(self):
        cls = classify_orbit([0.0, 1.0, 0.0])
        assert (cls.tag, cls.sigma) == ("HyperbolicSigma", 1.0)

    def test_cone_sheets(self):
        assert classify_orbit([1.0, 1.0, 0.0], tol=0.0).tag == "Hplus0"
        assert classify_orbit([-1.0, 0.0, 1.0], tol=0.0).tag == "Hminus0"

    def test_ambiguous(self):
        with pytest.raises(AmbiguousClass):
            classify_orbit([0.0, 1e-4, 1e-4], tol=1e-6)

    def test_exact_tolerance_zero(self):
        assert classify_orbit([0.0, 0.0, 0.0], tol=0.0).tag == "Origin"
        # a genuinely null point with chi0 > 0 is the cone sheet, however tiny
        assert classify_orbit([1e-30, 1e-30, 0.0], tol=0.0).tag == "Hplus0"

    def test_stable_along_internal_flow(self):
        for cls in [OrbitClass("HplusSigma", 1.3), OrbitClass("HyperbolicSigma", 0.7),
                    OrbitClass("Hplus0"), OrbitClass("Origin")]:
            chi = chi_for_class(cls)
            e = chi[0] - chi[1]
            for t in np.linspace(0, 2, 9):
                cur = np.array([chi[0] + chi[2] * t + e * t * t / 2,
                                chi[1] + chi[2] * t + e * t * t / 2,
                                chi[2] + e * t])
                assert classify_orbit(cur).tag == cls.tag
                assert abs(chi_interval(cur) - chi_interval(chi)) < 1e-12


class TestParametrization:
    def test_printed_point(self):
        # x=(1,0,0), p=(0,1,0), s=(0,0,2), chi=0, m=1
        label = OrbitLabel(m=1.0, s2=4.0, chi_class=OrbitClass("Origin"))
        x_levels = np.array([[-1.0, 0.0, 0.0],   # translation slot = -x
                             [0.0, 1.0, 0.0]])   # boost slot = p/m
        X = parametrize(label, [0.0, 0.0, 2.0], np.zeros(3), x_levels)
        assert np.allclose(X.j, [0.0, 0.0, 3.0])
        assert np.allclose(X.c[0], [0.0, 1.0, 0.0])   # xi = p
        assert np.allclose(X.c[1], [1.0, 0.0, 0.0])   # zeta = m x
        assert X.h == pytest.approx(0.5)
        assert X.d == pytest.approx(0.0)
        assert X.k == pytest.approx(0.5)

    def test_base_point(self):
        chi = np.array([0.8, -0.1, 0.4])
        label = OrbitLabel(m=2.0, s2=1.0, chi_class=classify_orbit(chi))
        X = parametrize(label, [1.0, 0.0, 0.0], chi, np.zeros((4, 3)))
        assert X.h == pytest.approx(chi[0] - chi[1])
        assert X.d == pytest.approx(chi[2])
        assert X.k == pytest.approx(chi[0] + chi[1])
        assert np.allclose(X.c, 0.0)

    def test_label_mismatch_spin(self):
        label = OrbitLabel(m=1.0, s2=1.0, chi_class=OrbitClass("Origin"))
        with pytest.raises(LabelMismatch):
            parametrize(label, [0.0, 0.0, 2.0], np.zeros(3), np.zeros((2, 3)))

    def test_label_mismatch_class(self):
        label = OrbitLabel(m=1.0, s2=0.0, chi_class=OrbitClass("HplusSigma", 1.0))
        with pytest.raises(LabelMismatch):
            parametrize(label, np.zeros(3), np.zeros(3), np.zeros((2, 3)))

    def test_label_requires_positive_mass(self):
        with pytest.raises(LabelMismatch):
            OrbitLabel(m=0.0, s2=0.0, chi_class=OrbitClass("Origin"))


class TestCasimirs:
    def test_spin_orbit_values(self, alg1):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.uniform(-1, 1, (2, 3))
            X = orbit_dual_vector(1.0, [0.0, 0.0, 2.0], np.zeros(3), x)
            C1, C2, C3 = casimir_values(alg1, X)
            assert C1 == 1.0
            assert C2 == pytest.approx(4.0, abs=1e-12)
            assert C3 == pytest.approx(0.0, abs=1e-12)

    def test_internal_interval_value(self, alg1):
        X = orbit_dual_vector(1.0, np.zeros(3), [1.0, 0.0, 0.0], np.zeros((2, 3)))
        assert casimir_values(alg1, X)[2] == pytest.approx(2.0, abs=1e-14)

    def test_pure_mass_point(self, alg1):
        X = DualVector(m=5.0, h=0.0, d=0.0, k=0.0, j=np.zeros(3), c=np.zeros((2, 3)))
        assert casimir_values(alg1, X) == (5.0, 0.0, 0.0)

    @pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (2, 2), (4, 2)])
    def test_invariant_under_flows(self, N, dim):
        rng = np.random.default_rng(N + dim)
        alg = build_algebra(N, dim, central=True)
        for _ in range(25):
            X = random_dual(rng, N, dim, scale=0.5)
            A = {g: Fraction(float(rng.uniform(-0.4, 0.4))).limit_denominator(10 ** 9)
                 for g in alg.generators}
            Y = coad_generic(alg, A, float(rng.uniform(-0.5, 0.5)), X)
            for a, b in zip(casimir_values(alg, X), casimir_values(alg, Y)):
                assert a == pytest.approx(b, abs=1e-10)

    def test_2d_scalar_spin_orbit(self):
        alg = build_algebra(2, 2, central=True)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.uniform(-1, 1, (3, 2))
            X = orbit_dual_vector(1.5, -0.7, np.array([0.0, 0.9, 0.0]), x)
            C1, C2, C3 = casimir_values(alg, X)
            assert C2 == pytest.approx(1.5 * -0.7, abs=1e-10)
            assert C3 == pytest.approx(2 * 1.5 ** 2 * -(0.9 ** 2), abs=1e-10)


def test_dual_vector_json_roundtrip():
    rng = np.random.default_rng(12)
    for (N, dim) in ((1, 3), (2, 2)):
        X = random_dual(rng, N, dim)
        Y = DualVector.from_json(X.to_json())
        assert dual_defect(X, Y) == 0.0


def test_shape_mismatch(alg1):
    X = random_dual(np.random.default_rng(0), 3, 3)
    with pytest.raises(ShapeMismatch):
        casimir_values(alg1, X)
    with pytest.raises(ShapeMismatch):
        coad_closed_form(alg1, "ctrans", np.zeros((4, 3)),
                         random_dual(np.random.default_rng(0), 1, 3))


def test_generic_flow_overflow_raises(alg1):
    # exp(800 ad*_D) scales h by e^800, past the largest double
    X = random_dual(np.random.default_rng(3), 1, 3)
    with pytest.raises(ConvergenceFailure):
        coad_generic(alg1, {alg1.generator("D"): Fraction(1)}, 800.0, X)
