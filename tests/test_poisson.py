"""Darboux charts, coordinate brackets and generator functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galconf import poisson as po
from galconf.algebra import build_algebra, eps2
from galconf.coadjoint import casimir_arrays
from galconf.errors import InvalidState, ShapeMismatch
from galconf.poisson import (
    PhasePoint,
    Poly,
    StructureMatrix,
    aux_top_momentum,
    dual_vector_at,
    from_darboux,
    generator_polynomials,
    generators_at,
    momentum_map,
    poly_bracket,
    q_levels,
    random_point,
    raw_bracket,
    to_darboux,
)
from galconf.verify import flip_constant, run_suites


class TestRawBracket:
    def test_printed_value(self):
        alg = build_algebra(1, 3, central=True)
        assert raw_bracket(alg, 0, 1, 1, 1, m=1.0) == -1.0

    def test_zero_when_levels_do_not_pair(self):
        alg = build_algebra(1, 3, central=True)
        assert raw_bracket(alg, 0, 1, 0, 2, m=1.0) == 0.0

    def test_2d_value(self):
        # pushed through the linear map from the central row: {x_0^1, x_2^2} = 1/(2m)
        alg = build_algebra(2, 2, central=True)
        m = 1.7
        assert raw_bracket(alg, 0, 1, 2, 2, m=m) == pytest.approx(1.0 / (2 * m))
        assert raw_bracket(alg, 0, 1, 2, 1, m=m) == 0.0

    def test_antisymmetry(self):
        alg = build_algebra(3, 3, central=True)
        for j in range(4):
            assert raw_bracket(alg, j, 2, 3 - j, 2, m=0.8) == \
                -raw_bracket(alg, 3 - j, 2, j, 2, m=0.8)

    def test_level_bounds(self):
        alg = build_algebra(1, 3, central=True)
        with pytest.raises(ShapeMismatch):
            raw_bracket(alg, 0, 1, 2, 1, m=1.0)


class TestDarboux:
    def test_schrodinger_coefficients(self):
        # N=1: x_0 = -q_0, x_1 = p_0 / m
        m = 2.5
        x = np.array([[0.4, -0.2, 0.9], [0.1, 0.0, -0.7]])
        q, p = to_darboux(x, m, 1, 3)
        assert np.allclose(q[0], -x[0])
        assert np.allclose(p[0], m * x[1])

    @pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (5, 3), (2, 2), (4, 2), (7, 3), (6, 2)])
    def test_roundtrip(self, N, dim):
        rng = np.random.default_rng(N * 7 + dim)
        x = rng.uniform(-2, 2, (N + 1, dim))
        q, p = to_darboux(x, 1.3, N, dim)
        assert np.max(np.abs(from_darboux(q, p, 1.3, N, dim) - x)) < 1e-13

    def test_zero_maps_to_zero(self):
        q, p = to_darboux(np.zeros((4, 3)), 1.0, 3, 3)
        assert not np.any(q) and not np.any(p)

    @pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (2, 2), (4, 2), (7, 3), (6, 2)])
    def test_pushed_brackets_are_canonical(self, N, dim):
        """Chain-rule the chart through the raw bracket; must give the
        canonical table (and the antisymmetric self-conjugate block in 2D)."""
        m = 1.1
        alg = build_algebra(N, dim, central=True)
        nq = q_levels(N, dim)
        probes_q, probes_p = {}, {}
        for j in range(N + 1):
            for b in range(dim):
                basis = np.zeros((N + 1, dim))
                basis[j, b] = 1.0
                qq, pp = to_darboux(basis, m, N, dim)
                probes_q[(j, b)] = qq
                probes_p[(j, b)] = pp

        def pushed(cu, cv):
            tot = 0.0
            for (j, a), wa in cu.items():
                if not wa:
                    continue
                for (k, b), wb in cv.items():
                    if wb:
                        tot += wa * wb * raw_bracket(alg, j, a + 1, k, b + 1, m)
            return tot

        def coeffs(kind, K, a):
            src = probes_q if kind == "q" else probes_p
            return {jb: src[jb][K, a] for jb in src}

        npp = nq if dim == 3 else nq - 1
        for K in range(nq):
            for a in range(dim):
                for L in range(npp):
                    for b in range(dim):
                        want = 1.0 if (K == L and a == b) else 0.0
                        assert pushed(coeffs("q", K, a), coeffs("p", L, b)) == \
                            pytest.approx(want, abs=1e-13)
                for L in range(nq):
                    for b in range(dim):
                        if dim == 2 and K == L == N // 2 and a != b:
                            want = eps2(b + 1, a + 1) / m
                        else:
                            want = 0.0
                        assert pushed(coeffs("q", K, a), coeffs("q", L, b)) == \
                            pytest.approx(want, abs=1e-13)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            to_darboux(np.zeros((3, 3)), 1.0, 3, 3)
        with pytest.raises(ShapeMismatch):
            from_darboux(np.zeros((2, 3)), np.zeros((1, 3)), 1.0, 3, 3)


class TestGeneratorFunctions:
    def test_printed_schrodinger_point(self):
        pt = PhasePoint(q=[[1.0, 0.0, 0.0]], p=[[0.0, 1.0, 0.0]],
                        s=[0.0, 0.0, 0.0], chi=np.zeros(3), m=1.0)
        g = generators_at(pt)
        assert g["h"] == pytest.approx(0.5)
        assert g["d"] == pytest.approx(0.0)
        assert g["k"] == pytest.approx(0.5)
        assert np.allclose(g["j"], [0.0, 0.0, 1.0])

    def test_zero_externals_reduce_to_internal(self):
        chi = np.array([0.3, -0.2, 0.7])
        s = np.array([0.1, 0.4, -0.5])
        pt = PhasePoint(q=np.zeros((2, 3)), p=np.zeros((2, 3)), s=s, chi=chi, m=1.0)
        g = generators_at(pt)
        assert g["h"] == pytest.approx(chi[0] - chi[1])
        assert g["d"] == pytest.approx(chi[2])
        assert g["k"] == pytest.approx(chi[0] + chi[1])
        assert np.allclose(g["j"], s)

    @pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (5, 3), (2, 2), (4, 2), (15, 3), (14, 2)])
    def test_route_equivalence(self, N, dim):
        """Reduced expressions vs orbit parametrization composed with the chart.

        Agreement is to 1e-12, or to 1e-15 relative where a value exceeds 1000:
        at (15, 3) and (14, 2) the factorial weights make values up to 1e12,
        and the routes differ there by at most one ulp.
        """
        rng = np.random.default_rng(N + 10 * dim)
        m = 1.4
        polys = generator_polynomials(N, dim, m)
        for _ in range(20):
            pt = random_point(rng, N, dim, m=m)
            env = pt.env()
            direct = generators_at(pt)
            dual_j, dual_c, *hdk = dual_vector_at(pt)
            for key, x in zip("hdk", hdk):
                assert direct[key] == pytest.approx(polys[key].eval(env), rel=1e-15, abs=1e-12)
                assert direct[key] == pytest.approx(x, rel=1e-15, abs=1e-12)
            jv = np.atleast_1d(np.asarray(direct["j"], dtype=float))
            jx = np.atleast_1d(np.asarray(dual_j, dtype=float))
            assert np.all(np.abs(jv - jx) < np.maximum(1e-12, 1e-15 * np.abs(jx)))
            for j in range(N + 1):
                for a in range(dim):
                    assert polys["c"][j][a].eval(env) == \
                        pytest.approx(dual_c[j, a], rel=1e-15, abs=1e-12)


    @pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (7, 3), (15, 3), (31, 3),
                                       (2, 2), (4, 2), (14, 2), (30, 2)])
    def test_casimirs_of_the_generator_polynomials(self, N, dim):
        """The Casimirs of the kernel's polynomials are the orbit invariants:
        C2 = m^2 |s|^2 (dim 3) or m s (dim 2) and C3 = 2 m^2 times the chi
        interval, coefficient by coefficient."""
        m = 1.5
        polys = generator_polynomials(N, dim, m)
        _, C2, C3 = casimir_arrays(m, np.array(polys["j"]), np.array(polys["c"]),
                                   polys["h"], polys["d"], polys["k"])
        s = [Poly.var(("s", i)) for i in range(len(polys["j"]))]
        chi = [Poly.var(("chi", a)) for a in range(3)]
        spin = s[0] * m if dim == 2 else (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]) * (m * m)
        interval = (chi[0] * chi[0] - chi[1] * chi[1] - chi[2] * chi[2]) * (2.0 * m * m)
        for residual in (C2 - spin, C3 - interval):
            assert max(map(abs, residual.terms.values()), default=0.0) <= 1e-12


class TestObservableBracket:
    def test_hk_closes_on_d(self):
        polys = generator_polynomials(1, 3, 1.0)
        rng = np.random.default_rng(3)
        hk = poly_bracket(polys["h"], polys["k"], StructureMatrix(1, 3, 1.0))
        for _ in range(50):
            pt = random_point(rng, 1, 3, m=1.0)
            got = hk.eval(pt.env())
            assert got == pytest.approx(-2.0 * polys["d"].eval(pt.env()), abs=1e-12)

    def test_bracket_with_itself_vanishes(self):
        polys = generator_polynomials(1, 3, 1.0)
        pt = random_point(np.random.default_rng(1), 1, 3)
        sm = StructureMatrix(1, 3, pt.m)
        assert poly_bracket(polys["h"], polys["h"], sm).eval(pt.env()) == 0.0

    def test_rotation_action_on_coordinates(self):
        # {j_3, q_0^1} = +q_0^2, matching the rotation row of the tower action
        polys = generator_polynomials(1, 3, 1.0)
        rng = np.random.default_rng(4)
        jq = poly_bracket(polys["j"][2], Poly.var(("q", 0, 0)), StructureMatrix(1, 3, 1.0))
        for _ in range(10):
            pt = random_point(rng, 1, 3, m=1.0)
            got = jq.eval(pt.env())
            assert got == pytest.approx(pt.q[0, 1], abs=1e-13)

    def test_self_conjugate_block(self):
        m = 1.6
        pt = random_point(np.random.default_rng(5), 2, 2, m=m)
        top = 1
        got = poly_bracket(Poly.var(("q", top, 0)), Poly.var(("q", top, 1)),
                           StructureMatrix(2, 2, m)).eval(pt.env())
        assert got == pytest.approx(eps2(2, 1) / m)

    @pytest.mark.parametrize("N,dim", [(1, 3), (2, 2)])
    def test_leibniz_and_antisymmetry(self, N, dim):
        rng = np.random.default_rng(17)
        m = 1.2
        sm = StructureMatrix(N, dim, m)
        syms = sm.coordinates()

        def rand_poly():
            out = Poly.const(float(rng.uniform(-1, 1)))
            for _ in range(3):
                term = Poly.const(float(rng.uniform(-1, 1)))
                for _ in range(int(rng.integers(1, 3))):
                    term = term * Poly.var(syms[int(rng.integers(0, len(syms)))])
                out = out + term
            return out

        for _ in range(10):
            f, g, hh = rand_poly(), rand_poly(), rand_poly()
            pt = random_point(rng, N, dim, m=m)
            env = pt.env()
            assert poly_bracket(f, g, sm).eval(env) == \
                pytest.approx(-poly_bracket(g, f, sm).eval(env), abs=1e-10)
            lhs = poly_bracket(f, g * hh, sm).eval(env)
            rhs = g.eval(env) * poly_bracket(f, hh, sm).eval(env) \
                + poly_bracket(f, g, sm).eval(env) * hh.eval(env)
            assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("N,dim", [(1, 3), (3, 3), (2, 2), (4, 2), (5, 3), (7, 3), (6, 2)])
def test_momentum_map_closure(N, dim):
    """{G_X, G_Y} = G_{[X,Y]} with the central charge entering as m."""
    m = 1.25
    alg = build_algebra(N, dim, central=True)
    mm = momentum_map(alg, m)
    sm = StructureMatrix(N, dim, m)
    rng = np.random.default_rng(100 + N)
    pts = [random_point(rng, N, dim, m=m) for _ in range(10)]
    envs = [pt.env() for pt in pts]
    gens = list(alg.generators)
    worst = 0.0
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            br = poly_bracket(mm[gens[i]], mm[gens[j]], sm)
            row = alg.table.get((gens[i], gens[j]), {})
            for env in envs:
                rhs = sum(float(c) * mm[Z].eval(env) for Z, c in row.items())
                worst = max(worst, abs(br.eval(env) - rhs))
    assert worst < 1e-9


def poisson_cases(algebra_factory=None):
    report = run_suites("poisson", seed=42, algebra_factory=algebra_factory)
    return {c["name"]: c for c in report["suites"]["poisson"]}


def test_closure_case_names_the_flipped_pair():
    def factory(N, dim, central, with_ds):
        alg = build_algebra(N, dim, central, with_ds)
        return flip_constant(alg, "C0_1", "C1_1") if (N, dim) == (1, 3) else alg

    case = poisson_cases(factory)["momentum_map_closure_N1_dim3"]
    assert not case["passed"]
    assert case["detail"] == "worst pair (C0_1, C1_1) at point 0 of 50"


def test_darboux_case_names_the_wrong_coordinate_pair(monkeypatch):
    # x_0 = -q_0 and x_1 = p_0 / m at N = 1, so a wrong {x_0^1, x_1^1} shows
    # up in {q0_1, p0_1} alone
    raw = po.raw_bracket

    def wrong(alg, j, a, k, b, m):
        return raw(alg, j, a, k, b, m) + (0.5 if (alg.N, j, a, k, b) == (1, 0, 1, 1, 1) else 0.0)

    assert poisson_cases()["darboux_brackets_N1_dim3"]["detail"] == "all 27 pairs exact"
    monkeypatch.setattr(po, "raw_bracket", wrong)
    case = poisson_cases()["darboux_brackets_N1_dim3"]
    assert not case["passed"]
    assert case["detail"] == "worst pair (q0_1, p0_1)"


def test_aux_top_momentum():
    q = np.array([0.3, -0.8])
    p = aux_top_momentum(q, m=2.0)
    assert np.allclose(p, [0.8, 0.3])  # (m/2) eps^{ba} q^b with m=2


def test_phase_point_shape_validation():
    with pytest.raises(ShapeMismatch):
        PhasePoint(q=np.zeros((2, 3)), p=np.zeros((1, 3)), s=np.zeros(3),
                   chi=np.zeros(3), m=1.0)
    with pytest.raises(ShapeMismatch):
        PhasePoint(q=np.zeros((1, 3)), p=np.zeros((1, 3)), s=np.zeros(2),
                   chi=np.zeros(3), m=1.0)


@pytest.mark.parametrize("field,value", [
    ("m", 0.0), ("m", -1.0), ("m", np.inf), ("m", np.nan),
    ("q", [[np.nan, 0.0, 0.0]]), ("p", [[0.0, np.inf, 0.0]]),
    ("s", [0.0, 0.0, -np.inf]), ("chi", [0.0, np.nan, 0.0]),
])
def test_phase_point_rejects_bad_values(field, value):
    kw = dict(q=np.zeros((1, 3)), p=np.zeros((1, 3)), s=np.zeros(3), chi=np.zeros(3), m=1.0)
    kw[field] = value
    with pytest.raises(InvalidState):
        PhasePoint(**kw)


# Poly arithmetic sanity, property style
coeff = st.integers(-5, 5)


@settings(max_examples=40, deadline=None)
@given(a=coeff, b=coeff, c=coeff)
def test_poly_derivative_linear(a, b, c):
    x, y = ("q", 0, 0), ("p", 0, 0)
    f = Poly.var(x, a) * Poly.var(x) + Poly.var(y, b) + Poly.const(c)
    df = f.diff(x)
    env = {x: 0.7, y: -1.2}
    assert df.eval(env) == pytest.approx(2 * a * 0.7)
    assert f.diff(y).eval(env) == b


@settings(max_examples=40, deadline=None)
@given(a=coeff, b=coeff)
def test_poly_product_rule(a, b):
    x = ("q", 0, 0)
    f = Poly.var(x, a) + Poly.const(1.0)
    g = Poly.var(x, b) * Poly.var(x)
    env = {x: 0.9}
    lhs = (f * g).diff(x).eval(env)
    rhs = f.diff(x).eval(env) * g.eval(env) + f.eval(env) * g.diff(x).eval(env)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("shape", [(300,), (20, 15)])
def test_poly_eval_on_arrays_matches_each_point_alone(shape):
    # numpy squares by a product and has its own pow; each rounds some
    # entries differently from the libm pow of a Python float
    rng = np.random.default_rng(17)
    syms = StructureMatrix(1, 3, 1.3).coordinates()[:3]  # few symbols: many powers
    for _ in range(10):
        f = Poly.const(float(rng.uniform(-1, 1)))
        for _ in range(6):
            mono = Poly.const(float(rng.uniform(-1, 1)))
            for _ in range(int(rng.integers(1, 5))):  # degree at most 4
                mono = mono * Poly.var(syms[int(rng.integers(0, len(syms)))])
            f = f + mono
        env = {sym: rng.uniform(-2.0, 2.0, shape) for sym in syms}
        got = f.eval(env)
        want = np.array([f.eval({sym: float(v[i]) for sym, v in env.items()})
                         for i in np.ndindex(shape)]).reshape(shape)
        assert got.shape == shape and got.tobytes() == want.tobytes()


def test_poly_eval_of_a_constant_has_the_env_shape():
    # a constant or empty polynomial used to give one Python float
    syms = StructureMatrix(1, 3, 1.3).coordinates()[:3]
    env = {sym: np.linspace(-1.0, 1.0, 7) for sym in syms}
    for f, value in ((Poly.const(2.0), 2.0), (Poly(), 0.0)):
        got = f.eval(env)
        assert got.shape == (7,) and np.all(got == value)
        assert f.eval({sym: 0.5 for sym in syms}) == value


def test_poly_operators_the_orbit_kernel_uses():
    x = ("q", 0, 0)
    f = Poly.var(x, 3.0) + Poly.const(1.0)
    assert (f / 2.0).terms == {((x, 1),): 1.5, (): 0.5}
    assert (0 - f).terms == (-f).terms
    assert (2.0 - f).terms == {((x, 1),): -3.0, (): 1.0}
    # a 0-d array is left to numpy, which applies the Poly operator per element
    two = np.asarray(2.0)
    for got, want in ((f + two, f + 2.0), (f - two, f - 2.0), (f * two, f * 2.0),
                      (f / two, f / 2.0)):
        assert isinstance(got, Poly) and got.terms == want.terms


def test_raw_levels_keeps_integer_blocks_exact():
    q, p = np.array([[1, 2, 3], [4, 5, 6]]), np.array([[7, 8, 9], [1, 1, 1]])
    x = po.raw_levels(q, p, 2.0)
    assert x.dtype == float
    assert x.tobytes() == po.raw_levels(q.astype(float), p.astype(float), 2.0).tobytes()
