"""Coadjoint flows, orbit classification and Casimir functions."""

import math
import re
import warnings

import numpy as np
import pytest

from galconf.algebra import GeneratorId, build_algebra, spin_components
from galconf.coadjoint import (
    ORBIT_TAGS,
    _cross3,
    _expm,
    _rowdot,
    ad_star_matrix,
    OrbitClass,
    OrbitLabel,
    casimir_arrays,
    casimir_values,
    chi_for_class,
    chi_interval,
    classify_orbit,
    coad_closed_form,
    coad_flow,
    coad_generic,
    dual_fields,
    element_rows,
    orbit_components,
    pack_dual,
    parametrize,
    translate_dual,
)
from galconf.errors import (
    AmbiguousClass,
    ConvergenceFailure,
    LabelMismatch,
    NonFiniteResult,
    ShapeMismatch,
    UnknownGenerator,
    UnsupportedClosedForm,
)
from galconf.verify import (
    ACCEPTANCE_ALGEBRAS,
    FLOW_FAMILIES,
    _random_element,
    _worst_draw,
    flip_constant,
    random_dual,
    run_suites,
)


@pytest.fixture(scope="module")
def alg1():
    return build_algebra(1, 3, central=True)


def dual_defect(X, Y):
    """Largest field gap between two packed dual rows."""
    return float(np.max(np.abs(X - Y)))


def closed_form(alg, family, par, X):
    """The printed column applied to one packed dual row, as a one-row stack."""
    return coad_closed_form(alg, family, np.array([par]), X[None])[0]


class TestClosedFormColumns:
    def test_boost_column(self, alg1):
        # m=2, xi=0, h=0, v=(1,0,0): xi' = m v, h' = m v^2/2 + v.xi
        X = pack_dual(alg1, 2.0, np.zeros(3), np.zeros((2, 3)), 0.0, 0.25, -0.5)
        m, _, c, h, _, _ = dual_fields(alg1, closed_form(alg1, "boost", [1.0, 0.0, 0.0], X))
        assert np.allclose(c[0], [2.0, 0.0, 0.0])
        assert h == pytest.approx(1.0, abs=1e-15)
        assert m == 2.0

    def test_translation_column(self, alg1):
        # m=1, zeta=0, k=0, a=(1,0,0): zeta' = -m a, k' = m a^2/2
        X = pack_dual(alg1, 1.0, np.zeros(3), np.zeros((2, 3)), 0.3, 0.0, 0.0)
        _, _, c, h, _, k = dual_fields(alg1, closed_form(alg1, "translation", [1.0, 0.0, 0.0], X))
        assert np.allclose(c[1], [-1.0, 0.0, 0.0])
        assert k == pytest.approx(0.5, abs=1e-15)
        assert h == 0.3

    def test_zero_parameters_identity(self, alg1):
        rng = np.random.default_rng(5)
        X = random_dual(rng, alg1)
        for fam, par in [("translation", np.zeros(3)), ("boost", np.zeros(3)),
                         ("time", 0.0), ("dilation", 0.0), ("conformal", 0.0),
                         ("rotation", np.zeros(3)),
                         ("ctrans", np.zeros((2, 3)))]:
            assert dual_defect(X, closed_form(alg1, fam, par, X)) == 0.0

    def test_closed_form_needs_schrodinger_case(self):
        alg3 = build_algebra(3, 3, central=True)
        V = random_dual(np.random.default_rng(0), alg3)[None]
        with pytest.raises(UnsupportedClosedForm):
            coad_closed_form(alg3, "boost", [[1.0, 0.0, 0.0]], V)

    def test_unknown_family(self, alg1):
        V = random_dual(np.random.default_rng(0), alg1)[None]
        with pytest.raises(UnsupportedClosedForm):
            coad_closed_form(alg1, "shear", [0.5], V)

    @pytest.mark.parametrize("N,dim,families", [
        (1, 3, ("translation", "boost", "time", "dilation", "conformal", "rotation",
                "ctrans")),
        (3, 3, ("ctrans",)), (4, 2, ("ctrans",)), (2, 2, ("ctrans",))])
    def test_stacked_rows_match_rows_alone(self, N, dim, families):
        alg = build_algebra(N, dim, central=True)
        rng = np.random.default_rng(70 + 10 * N + dim)
        k = 25
        V = np.array([random_dual(rng, alg) for _ in range(k)])
        shapes = {"ctrans": (N + 1, dim), "translation": (3,), "boost": (3,),
                  "rotation": (3,)}
        for fam in families:
            params = rng.uniform(-0.7, 0.7, (k,) + shapes.get(fam, ()))
            stacked = coad_closed_form(alg, fam, params, V)
            assert stacked.shape == V.shape
            for i in range(k):
                alone = coad_closed_form(alg, fam, params[i:i + 1], V[i:i + 1])
                assert same_bits(stacked[i:i + 1], alone), (fam, i)


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
                X = random_dual(rng, alg1)
                if fam in ("translation", "boost", "rotation"):
                    par = rng.uniform(-0.6, 0.6, 3)
                    t = 1.0
                else:
                    par = float(rng.uniform(-0.6, 0.6))
                    t = -par if fam == "time" else par
                A = {alg1.generator(n): float(v) for n, v in to_names(par).items()}
                assert dual_defect(closed_form(alg1, fam, par, X),
                                   coad_generic(alg1, A, t, X)) < 1e-10

    @pytest.mark.parametrize("N,dim", [(3, 3), (4, 2), (5, 3), (7, 3), (6, 2)])
    def test_matches_tower_translations(self, N, dim):
        # nilpotent flow: the generic series terminates and agrees exactly
        rng = np.random.default_rng(N * 10 + dim)
        alg = build_algebra(N, dim, central=True)
        for _ in range(20):
            X = random_dual(rng, alg)
            arr = rng.uniform(-0.5, 0.5, (N + 1, dim))
            A = {alg.generator(f"C{j}_{a + 1}"): float(arr[j, a])
                 for j in range(N + 1) for a in range(dim)}
            Y1 = closed_form(alg, "ctrans", arr, X)
            Y2 = coad_generic(alg, A, 1.0, X)
            assert dual_defect(Y1, Y2) < 1e-12

    def test_central_element_acts_trivially(self, alg1):
        X = random_dual(np.random.default_rng(2), alg1)
        Y = coad_generic(alg1, {alg1.generator("M"): 1.0}, 0.9, X)
        assert dual_defect(X, Y) == 0.0

    def test_mass_invariant_under_generic_flows(self, alg1):
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = random_dual(rng, alg1)
            A = {g: float(rng.uniform(-0.5, 0.5)) for g in alg1.generators}
            Y = coad_generic(alg1, A, float(rng.uniform(-1, 1)), X)
            assert dual_fields(alg1, Y)[0] == dual_fields(alg1, X)[0]


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
        j, c, h, d, k = parametrize(label, [0.0, 0.0, 2.0], np.zeros(3), x_levels)
        assert np.allclose(j, [0.0, 0.0, 3.0])
        assert np.allclose(c[0], [0.0, 1.0, 0.0])   # xi = p
        assert np.allclose(c[1], [1.0, 0.0, 0.0])   # zeta = m x
        assert h == pytest.approx(0.5)
        assert d == pytest.approx(0.0)
        assert k == pytest.approx(0.5)

    def test_base_point(self):
        chi = np.array([0.8, -0.1, 0.4])
        label = OrbitLabel(m=2.0, s2=1.0, chi_class=classify_orbit(chi))
        _, c, h, d, k = parametrize(label, [1.0, 0.0, 0.0], chi, np.zeros((4, 3)))
        assert h == pytest.approx(chi[0] - chi[1])
        assert d == pytest.approx(chi[2])
        assert k == pytest.approx(chi[0] + chi[1])
        assert np.allclose(c, 0.0)

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


def orbit_rows(alg, m, s, chi, x):
    """Packed dual rows of the orbit parametrization of stacked samples."""
    return pack_dual(alg, m, *orbit_components(m, np.asarray(s, dtype=float),
                                               np.asarray(chi, dtype=float), x))


class TestCasimirs:
    def test_spin_orbit_values(self, alg1):
        x = np.random.default_rng(6).uniform(-1, 1, (10, 2, 3))
        C1, C2, C3 = casimir_values(alg1, orbit_rows(alg1, 1.0, [0.0, 0.0, 2.0], np.zeros(3), x))
        assert C1.shape == C2.shape == C3.shape == (10,)
        assert np.all(C1 == 1.0)
        assert C2 == pytest.approx(4.0, abs=1e-12)
        assert C3 == pytest.approx(0.0, abs=1e-12)

    def test_internal_interval_value(self, alg1):
        V = orbit_rows(alg1, 1.0, np.zeros(3), [1.0, 0.0, 0.0], np.zeros((1, 2, 3)))
        assert casimir_values(alg1, V)[2] == pytest.approx(2.0, abs=1e-14)

    def test_pure_mass_point(self, alg1):
        V = pack_dual(alg1, 5.0, np.zeros(3), np.zeros((2, 3)), 0.0, 0.0, 0.0)[None]
        assert [C.tolist() for C in casimir_values(alg1, V)] == [[5.0], [0.0], [0.0]]

    @pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (2, 2), (4, 2)])
    def test_invariant_under_flows(self, N, dim):
        rng = np.random.default_rng(N + dim)
        alg = build_algebra(N, dim, central=True)
        for _ in range(25):
            X = random_dual(rng, alg, scale=0.5)
            A = {g: float(rng.uniform(-0.4, 0.4)) for g in alg.generators}
            Y = coad_generic(alg, A, float(rng.uniform(-0.5, 0.5)), X)
            for a, b in casimir_values(alg, np.array([X, Y])):
                assert a == pytest.approx(b, abs=1e-10)

    def test_2d_scalar_spin_orbit(self):
        # the spin as a bare number, through the labelled parametrization
        alg = build_algebra(2, 2, central=True)
        chi = np.array([0.0, 0.9, 0.0])
        label = OrbitLabel(m=1.5, s2=-0.7, chi_class=classify_orbit(chi))
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.uniform(-1, 1, (3, 2))
            V = pack_dual(alg, 1.5, *parametrize(label, -0.7, chi, x))[None]
            C1, C2, C3 = casimir_values(alg, V)
            assert C2 == pytest.approx(1.5 * -0.7, abs=1e-10)
            assert C3 == pytest.approx(2 * 1.5 ** 2 * -(0.9 ** 2), abs=1e-10)


def test_shape_mismatch(alg1):
    alg3 = build_algebra(3, 3, central=True)
    rng = np.random.default_rng(0)
    # a row of another algebra, one row that is not a stack, a non-central algebra
    with pytest.raises(ShapeMismatch):
        casimir_values(alg1, random_dual(rng, alg3)[None])
    with pytest.raises(ShapeMismatch):
        casimir_values(alg1, random_dual(rng, alg1))
    with pytest.raises(ShapeMismatch):
        casimir_values(build_algebra(1, 3, central=False), np.zeros((1, 12)))
    with pytest.raises(ShapeMismatch):
        coad_generic(alg1, {alg1.generator("H"): 1.0}, 0.5, random_dual(rng, alg3))
    with pytest.raises(ShapeMismatch):
        coad_generic(alg1, {alg1.generator("H"): 1.0}, 0.5, random_dual(rng, alg1)[None])
    V = random_dual(rng, alg1)[None]
    with pytest.raises(ShapeMismatch):
        coad_closed_form(alg1, "ctrans", np.zeros((1, 4, 3)), V)
    # a row of another algebra, and one row that is not a stack
    with pytest.raises(ShapeMismatch):
        coad_closed_form(alg1, "ctrans", np.zeros((1, 2, 3)), random_dual(rng, alg3)[None])
    with pytest.raises(ShapeMismatch):
        coad_closed_form(alg1, "ctrans", np.zeros((2, 3)), V[0])
    # one parameter per row, of the family's shape
    for fam, par in (("boost", np.zeros(3)), ("time", np.zeros(2)), ("rotation", np.zeros((1, 2)))):
        with pytest.raises(ShapeMismatch):
            coad_closed_form(alg1, fam, par, V)


def test_generic_flow_overflow_raises(alg1):
    # exp(800 ad*_D) scales h by e^800, past the largest double
    X = random_dual(np.random.default_rng(3), alg1)
    with pytest.raises(ConvergenceFailure):
        coad_generic(alg1, {alg1.generator("D"): 1.0}, 800.0, X)


def test_casimir_overflow_raises_without_warning(alg1):
    # finite input used to give C2 = C3 = inf and a numpy RuntimeWarning
    big = pack_dual(alg1, 1e300, [1e300, 0.0, 0.0], np.zeros((2, 3)), 1e300, 0.0, 1e300)
    V = np.array([random_dual(np.random.default_rng(3), alg1), big, big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult,
                           match="Casimirs of a finite dual vector overflow at row 1: "):
            casimir_values(alg1, V)
    # a row that is not finite has no finite Casimirs to lose
    V[1, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult, match="at row 2: "):
            casimir_values(alg1, V)


# ---------------------------------------------------------------------------
# the array paths against the dict-scan and per-generator references
# ---------------------------------------------------------------------------

def ad_star_reference(alg, a):
    """ad* of the coefficient row a, assembled by scanning the exact table
    one stored pair at a time."""
    n = len(alg.generators)
    B = np.zeros((n, n))
    idx = alg.index
    for ix in np.flatnonzero(a):
        gx, fx = alg.generators[ix], a[ix]
        for gy in alg.generators:
            row = alg.table.get((gx, gy))
            if not row:
                continue
            iy = idx[gy]
            for gz, cz in row.items():
                B[idx[gz], iy] += fx * float(cz)
    return B


def pack_dual_reference(alg, m, j, c, h, d, k):
    """pack_dual of one dual point, one generator at a time."""
    v = np.zeros(len(alg.generators))
    idx = alg.index
    v[[idx[g] for g in alg.generators if g.kind == "J"]] = j
    for lv in range(alg.N + 1):
        for a in range(alg.dim):
            v[idx[GeneratorId("C", axis=a + 1, level=lv)]] = c[lv, a]
    for kind, value in zip("HDKM", (h, d, k, m)):
        v[idx[GeneratorId(kind)]] = value
    return v


def dual_fields_reference(alg, v):
    """dual_fields of one packed row, one generator at a time."""
    idx = alg.index
    c = np.zeros((alg.N + 1, alg.dim))
    for lv in range(alg.N + 1):
        for a in range(alg.dim):
            c[lv, a] = v[idx[GeneratorId("C", axis=a + 1, level=lv)]]
    return (v[idx[GeneratorId("M")]], v[[idx[g] for g in alg.generators if g.kind == "J"]], c,
            v[idx[GeneratorId("H")]], v[idx[GeneratorId("D")]], v[idx[GeneratorId("K")]])


def expm_reference(mat, term_tol=1e-17, max_terms=40):
    """_expm with the sequential nilpotency probe: up to n matmuls, summing as it goes."""
    n = mat.shape[0]
    eye = np.eye(n)
    if not np.any(mat):
        return eye
    power = mat.copy()
    out = eye + mat
    fact = 1.0
    for k in range(2, n + 2):
        power = power @ mat
        if not np.any(power):
            return out
        if float(np.max(np.abs(power))) > 1e120:
            break
        fact *= k
        out = out + power / fact
    norm = float(np.linalg.norm(mat, np.inf))
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    B = mat / (2.0 ** s)
    theta = min(0.5, float(np.linalg.norm(B, np.inf)))
    out = eye.copy()
    term = eye.copy()
    for k in range(1, max_terms + 1):
        term = term @ B / k
        out = out + term
        if theta ** (k + 1) / math.factorial(k + 1) / (1.0 - theta) < term_tol:
            break
    for _ in range(s):
        out = out @ out
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def unit_row(alg, name):
    return element_rows(alg, [{alg.generator(name): 1.0}])[0]


def kind_row(alg, kind, values):
    """Coefficient row with values on the generators of one kind, in order."""
    a = np.zeros(len(alg.generators))
    a[[i for i, g in enumerate(alg.generators) if g.kind == kind]] = values
    return a


def probe_elements(alg, rng):
    """Random coefficient rows, plus per generator kind present a random row
    on that kind and a unit row on its last generator."""
    rows = [_random_element(rng, alg) for _ in range(5)]
    for kind in ("J", "C", "H", "D", "K", "M", "Ds"):
        gens = [g for g in alg.generators if g.kind == kind]
        if gens:
            rows.append(kind_row(alg, kind, rng.uniform(-1, 1, len(gens))))
            rows.append(unit_row(alg, gens[-1].name))
    return rows


class TestTensorPath:
    @pytest.mark.parametrize("spec", ACCEPTANCE_ALGEBRAS)
    def test_ad_star_matches_table_scan(self, spec):
        alg = build_algebra(*spec)
        rng = np.random.default_rng(sum(spec))
        for a in probe_elements(alg, rng):
            assert same_bits(ad_star_matrix(alg, a), ad_star_reference(alg, a))

    @pytest.mark.parametrize("N,dim", [(3, 3), (2, 2)])
    def test_mutants_get_their_own_tensor(self, N, dim):
        alg = build_algebra(N, dim, central=True)
        clean = alg.structure_tensor
        rng = np.random.default_rng(N)
        pairs = [(x, y) for x, y in alg.table if alg.index[x] < alg.index[y]]
        for x, y in pairs[::3]:
            bad = flip_constant(alg, x.name, y.name)
            assert not np.array_equal(bad.structure_tensor, clean)
            for a in probe_elements(bad, rng)[:4] + [unit_row(bad, x.name)]:
                got = ad_star_matrix(bad, a)
                assert same_bits(got, ad_star_reference(bad, a))
            assert not np.array_equal(got, ad_star_matrix(alg, unit_row(alg, x.name)))
        assert alg.structure_tensor is clean

    def test_unknown_generator_still_raises(self, alg1):
        X = random_dual(np.random.default_rng(1), alg1)
        for g in (GeneratorId("Ds"), GeneratorId("C", axis=1, level=2)):
            with pytest.raises(UnknownGenerator):
                element_rows(alg1, [{alg1.generator("H"): 1.0}, {g: 1.0}])
            with pytest.raises(UnknownGenerator):
                coad_generic(alg1, {alg1.generator("H"): 1.0, g: 1.0}, 0.5, X)
        plain = build_algebra(1, 3, central=False, with_ds=True)
        with pytest.raises(UnknownGenerator):
            element_rows(plain, [{GeneratorId("M"): 1.0}])

    @pytest.mark.parametrize("N,dim", FLOW_FAMILIES + ((7, 3), (6, 2)))
    def test_dual_packing_round_trip(self, N, dim):
        alg = build_algebra(N, dim, central=True)
        rng = np.random.default_rng(N * 10 + dim)
        for _ in range(10):
            drawn = random_dual(rng, alg)
            fields = dual_fields(alg, drawn)
            for got, want in zip(fields, dual_fields_reference(alg, drawn)):
                assert same_bits(np.asarray(got), np.asarray(want))
            v = pack_dual(alg, *fields)
            assert same_bits(v, drawn)
            assert same_bits(v, pack_dual_reference(alg, *fields))

    @pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
    def test_squaring_probe_matches_sequential_probe(self, N, dim):
        alg = build_algebra(N, dim, central=True)
        rng = np.random.default_rng(N + 100 * dim)
        n_c = (N + 1) * dim
        nilpotent = [kind_row(alg, "C", rng.uniform(-0.5, 0.5, n_c))]
        nilpotent += [unit_row(alg, k) for k in "HKM"]
        other = [unit_row(alg, "D"), kind_row(alg, "J", 1.0 / 3.0)]
        other += [_random_element(rng, alg) for _ in range(5)]
        for rows, want_zero in ((nilpotent, True), (other, False)):
            for a in rows:
                for t in (1.0, float(rng.uniform(-0.5, 0.5)), 2.5):
                    mat = t * ad_star_matrix(alg, a)
                    assert want_zero == (not np.any(np.linalg.matrix_power(mat, mat.shape[0])))
                    assert same_bits(_expm(mat), expm_reference(mat))


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
def test_random_element_is_one_uniform_row(N, dim):
    # the same values, in the same order, as one scalar draw per generator
    alg = build_algebra(N, dim, central=True)
    n = len(alg.generators)
    rng, row_rng, scalar_rng = (np.random.default_rng(N * 10 + dim) for _ in range(3))
    a = _random_element(rng, alg)
    assert same_bits(a, row_rng.uniform(-0.4, 0.4, n))
    assert same_bits(a, np.array([scalar_rng.uniform(-0.4, 0.4) for _ in range(n)]))
    assert rng.bit_generator.state == row_rng.bit_generator.state \
        == scalar_rng.bit_generator.state


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
def test_random_dual_draws_m_h_d_k_j_c_into_a_packed_row(N, dim):
    # the order in which the fields of the same draws were once built
    alg = build_algebra(N, dim, central=True)
    rng, field_rng = (np.random.default_rng(N * 10 + dim) for _ in range(2))
    v = random_dual(rng, alg, scale=0.3)
    u = field_rng.uniform
    m, h, d, k = u(0.5, 2.0), u(-0.3, 0.3), u(-0.3, 0.3), u(-0.3, 0.3)
    j, c = u(-0.3, 0.3, spin_components(dim)), u(-0.3, 0.3, (N + 1, dim))
    assert same_bits(v, pack_dual(alg, m, j, c, h, d, k))
    assert rng.bit_generator.state == field_rng.bit_generator.state


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
def test_pack_dual_inverts_dual_fields_on_stacks(N, dim):
    alg = build_algebra(N, dim, central=True)
    rng = np.random.default_rng(60 + N * 10 + dim)
    V = np.array([random_dual(rng, alg) for _ in range(6)])
    assert same_bits(pack_dual(alg, *dual_fields(alg, V)), V)
    m, j, c, h, d, k = dual_fields(alg, V.reshape(2, 3, -1))
    assert same_bits(pack_dual(alg, m, j, c, h, d, k), V.reshape(2, 3, -1))
    # one mass for every row
    same_m = V.copy()
    same_m[:, alg.dual_rows[2][0]] = 1.25
    assert same_bits(pack_dual(alg, 1.25, *dual_fields(alg, V)[1:]), same_m)


def test_cross3_matches_np_cross_bit_for_bit():
    # same values and the same C order: einsum sums over a layout-dependent order
    rng = np.random.default_rng(21)
    for shape in ((2, 3), (4, 3), (50, 4, 3), (7, 2, 3)):
        u = rng.uniform(-1, 1, shape)
        for v in (u[..., ::-1, :], rng.uniform(-1, 1, shape)):
            got = _cross3(u, v)
            assert got.flags.c_contiguous
            assert same_bits(got, np.cross(u, v))


def test_rowdot_does_not_depend_on_layout():
    # einsum's summation order follows the memory layout of its inputs: a
    # Fortran-ordered (1001, 3) operand changes the last bit of about a third
    # of the rows unless the inputs are made C-ordered first
    rng = np.random.default_rng(22)
    for n, width in ((1001, 3), (1001, 2), (40, 7)):
        u, v = rng.uniform(-1, 1, (n, width)), rng.uniform(-1, 1, (n, width))
        views = [np.asfortranarray(u), np.ascontiguousarray(u.T).T, u[::-1][::-1],
                 u[rng.permutation(n)][np.argsort(rng.permutation(n))]]
        stacked = np.asfortranarray(rng.uniform(-1, 1, (n, width, 4)))[..., 1]
        views.append(stacked)
        for view in views:
            c = np.ascontiguousarray(view)
            for other in (v, np.asfortranarray(v)):
                assert same_bits(_rowdot(view, other), _rowdot(c, np.ascontiguousarray(other)))
                assert same_bits(_rowdot(other, view), _rowdot(np.ascontiguousarray(other), c))


# ---------------------------------------------------------------------------
# stacked kernels: a row of any stack gives the bits of the sample alone
# ---------------------------------------------------------------------------

def mixed_ad_stack(alg, rng):
    """Coefficient rows, times and t * ad* matrices mixing zero, nilpotent
    (tower and H/K), central and non-nilpotent elements, the latter at times
    that give different scales."""
    n_c = (alg.N + 1) * alg.dim
    rows = [np.zeros(len(alg.generators))] + [unit_row(alg, k) for k in "MHKD"]
    rows += [kind_row(alg, "C", rng.uniform(-0.5, 0.5, n_c)) for _ in range(4)]
    rows += [_random_element(rng, alg) for _ in range(8)]
    rows = np.array(rows)
    times = rng.uniform(-0.5, 0.5, len(rows))
    times[-4:] = (0.05, 1.0, 3.0, 9.0)  # scales s = 0 up to several squarings
    return rows, times, times[:, None, None] * ad_star_matrix(alg, rows)


class TestStackedExpm:
    @pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
    def test_slices_match_reference(self, N, dim):
        alg = build_algebra(N, dim, central=True)
        rng = np.random.default_rng(300 + 10 * N + dim)
        _, _, mats = mixed_ad_stack(alg, rng)
        order = rng.permutation(len(mats))
        for stack in (mats, mats[order], mats.reshape((-1, 1) + mats.shape[1:]),
                      np.asfortranarray(mats)):
            got = _expm(stack)
            assert got.shape == stack.shape
            for i in np.ndindex(stack.shape[:-2]):
                alone = np.ascontiguousarray(stack[i])
                assert same_bits(got[i], expm_reference(alone)), i

    @pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
    def test_stacked_flow_matches_single_calls(self, N, dim):
        alg = build_algebra(N, dim, central=True)
        rng = np.random.default_rng(400 + 10 * N + dim)
        rows, times, _ = mixed_ad_stack(alg, rng)
        V = np.array([random_dual(rng, alg) for _ in rows])
        got = coad_flow(alg, rows, times, V)
        for row, a, t, v in zip(got, rows, times, V):
            A = dict(zip(alg.generators, a))  # through element_rows, as callers pass it
            assert same_bits(row, coad_generic(alg, A, float(t), v))

    def test_overflowing_member_raises_with_its_index(self, alg1):
        rng = np.random.default_rng(5)
        _, _, mats = mixed_ad_stack(alg1, rng)
        mats = mats.copy()
        mats[6] = 800.0 * ad_star_matrix(alg1, unit_row(alg1, "D"))
        with pytest.raises(ConvergenceFailure, match=r"stack index \(6,\)"):
            _expm(mats)
        mats[6, 0, 0] = np.nan
        with pytest.raises(ConvergenceFailure, match=r"stack index \(6,\)"):
            _expm(mats)


def layouts(rng, stack):
    """The same values as a C-ordered, a Fortran-ordered, a fancy-indexed and
    a strided stack."""
    n = len(stack)
    perm = rng.permutation(n)
    wide = np.zeros((2 * n,) + stack.shape[1:])
    wide[::2] = stack
    return {"C": np.ascontiguousarray(stack), "F": np.asfortranarray(stack),
            "fancy": stack[perm][np.argsort(perm)], "strided": wide[::2]}


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES + ((7, 3), (6, 2)))
def test_level_kernels_are_row_exact(N, dim):
    rng = np.random.default_rng(500 + 10 * N + dim)
    n = 33
    alg = build_algebra(N, dim, central=True)
    V = np.array([random_dual(rng, alg) for _ in range(n)])
    x = rng.uniform(-1, 1, (n, N + 1, dim))
    m, j, c, h, d, k = (np.ascontiguousarray(f) for f in dual_fields(alg, V))
    draws = [dual_fields(alg, v) for v in V]
    alone = [translate_dual(X[0], x[i], *X[1:]) for i, X in enumerate(draws)]
    cas_alone = [casimir_arrays(*X) for X in draws]
    for name, (xl, jl, cl) in ((key, (layouts(rng, x)[key], layouts(rng, j)[key],
                                      layouts(rng, c)[key])) for key in ("C", "F", "fancy",
                                                                         "strided")):
        for mass in (m, layouts(rng, m[:, None])[name][:, 0]):
            stacked = translate_dual(mass, xl, jl, cl, h, d, k)
            cas = casimir_arrays(mass, jl, cl, h, d, k)
            for i in range(n):
                for got, want in zip(stacked, alone[i]):
                    assert same_bits(got[i], np.asarray(want)), (name, i)
                for got, want in zip(cas, cas_alone[i]):
                    assert same_bits(got[i], np.asarray(want)), (name, i)
    # the orbit parametrization through the same kernels, one mass per sample
    chi = rng.uniform(-1, 1, (n, 3))
    s = rng.uniform(-1, 1, j.shape)
    stacked = casimir_arrays(m, *orbit_components(m, s, chi, x))
    for i in range(n):
        want = casimir_values(alg, orbit_rows(alg, m[i], s[i], chi[i], x[i:i + 1]))
        for got, w in zip(stacked, want):
            assert same_bits(got[i:i + 1], w), i


@pytest.mark.parametrize("N,dim", FLOW_FAMILIES)
def test_casimir_square_rounds_alike_alone_and_stacked(N, dim):
    # numpy squares a scalar with pow(), which in a libm that does not round
    # it correctly differs, for about one value in a thousand, from the
    # product an array squares by; 2000 draws hold some such values there
    n = 2000
    d = np.random.default_rng(7).uniform(-2.0, 2.0, n)
    j, c = np.zeros((n, spin_components(dim))), np.zeros((n, N + 1, dim))
    stacked = casimir_arrays(np.ones(n), j, c, np.zeros(n), d, np.zeros(n))[2]
    for i in range(n):
        assert same_bits(stacked[i], np.asarray(casimir_arrays(1.0, j[i], c[i], 0.0, d[i], 0.0)[2]))


def test_worst_draw_names_the_first_largest_defect():
    assert _worst_draw(np.array([0.0, 3e-16, 1e-16, 3e-16])) == (3e-16, "worst draw 1 of 4")
    assert _worst_draw(np.zeros(5)) == (0.0, "all 5 draws exact")


def test_orbit_cases_name_their_worst_draw():
    cases = {c["name"]: c for c in run_suites("orbit", 42)["suites"]["orbit"]}
    for prefix in ("oracle_table1_", "oracle_ctrans_", "casimir_invariance_",
                   "mass_invariance_"):
        named = [c for name, c in cases.items() if name.startswith(prefix)]
        assert named
        for c in named:
            exact = c["detail"] == "all 100 draws exact"
            assert exact == (c["defect"] == 0.0)
            assert exact or re.fullmatch(r"worst draw \d+ of 100", c["detail"]), c
    soundness = [c for name, c in cases.items() if name.startswith("orbit_label_soundness_")]
    assert len(soundness) == len(FLOW_FAMILIES)
    for c in soundness:
        match = re.fullmatch(r"worst draw (\d+) of 20 in class (\w+)", c["detail"])
        assert match and int(match[1]) < 20 and match[2] in ORBIT_TAGS, c
