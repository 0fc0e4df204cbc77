"""Machine-checkable property suites.

Each suite turns one block of structural claims (exact algebra identities,
coadjoint oracle agreement, bracket closure, conservation laws, symmetry
maps) into named cases with a measured defect and an allowed tolerance.
The CLI ``verify`` command drives these; the corruption helpers let tests
confirm that a single wrong structure constant is actually detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import numpy as np

from . import algebra as al
from . import coadjoint as co
from . import dynamics as dy
from . import poisson as po
from . import symmetry as sy
from .algebra import AlgebraSpec, build_algebra
from .errors import GalconfError

__all__ = [
    "Case",
    "DEFAULT_TOLERANCES",
    "ACCEPTANCE_ALGEBRAS",
    "FLOW_FAMILIES",
    "run_suites",
    "suite_names",
    "flip_constant",
    "break_antisymmetry",
    "random_dual",
]

DEFAULT_TOLERANCES: Dict[str, float] = {
    "jacobi": 0.0,           # exact rational identity
    "oracle": 1e-10,         # closed-form vs generic coadjoint flow
    "casimir": 1e-10,        # Casimir drift under coadjoint flows
    "closure": 1e-9,         # momentum-map closure
    "structure": 1e-10,      # bracket antisymmetry / Leibniz / Jacobi
    "route": 1e-12,          # independent evaluation routes
    "integrator": 1e-8,      # rk4 vs closed form, conservation drift
    "fit_closed": 1e-10,     # motion-order fit on closed-form samples
    "fit_rk4": 1e-7,         # motion-order fit on rk4 samples
    "column": 1e-9,          # active transform vs coadjoint column
    "oscillator": 1e-6,      # Newton-Hooke cosine solution
}

# (N, dim, central, with_ds) combinations pinned by the exact checks.
ACCEPTANCE_ALGEBRAS = (
    (1, 3, True, False),
    (3, 3, True, False),
    (5, 3, True, False),
    (7, 3, True, False),
    (2, 2, True, False),
    (4, 2, True, False),
    (1, 3, False, True),
)

# families exercised by flows, brackets and dynamics
FLOW_FAMILIES = ((1, 3), (3, 3), (2, 2), (4, 2))


@dataclass
class Case:
    name: str
    defect: float
    allowed: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "defect": self.defect, "allowed": self.allowed,
                "passed": bool(self.passed), "detail": self.detail}


def _case(name: str, defect: float, allowed: float, detail: str = "") -> Case:
    return Case(name=name, defect=float(defect), allowed=float(allowed),
                passed=bool(float(defect) <= float(allowed)), detail=detail)


# ---------------------------------------------------------------------------
# corruption helpers (test harness hooks)
# ---------------------------------------------------------------------------

def flip_constant(alg: AlgebraSpec, lhs: str, rhs: str) -> AlgebraSpec:
    """Copy of alg with one structure constant sign-flipped (both orders,
    so antisymmetry survives and the defect must be caught downstream)."""
    x, y = alg.generator(lhs), alg.generator(rhs)
    table = {k: dict(v) for k, v in alg.table.items()}
    if (x, y) not in table:
        raise GalconfError(f"no stored bracket for ({lhs}, {rhs})")
    table[(x, y)] = {g: -c for g, c in table[(x, y)].items()}
    table[(y, x)] = {g: -c for g, c in table[(y, x)].items()}
    return AlgebraSpec(N=alg.N, dim=alg.dim, central=alg.central,
                       with_ds=alg.with_ds, generators=alg.generators, table=table)


def break_antisymmetry(alg: AlgebraSpec, lhs: str, rhs: str) -> AlgebraSpec:
    """Copy of alg with only the (lhs, rhs) direction sign-flipped."""
    x, y = alg.generator(lhs), alg.generator(rhs)
    table = {k: dict(v) for k, v in alg.table.items()}
    if (x, y) not in table:
        raise GalconfError(f"no stored bracket for ({lhs}, {rhs})")
    table[(x, y)] = {g: -c for g, c in table[(x, y)].items()}
    return AlgebraSpec(N=alg.N, dim=alg.dim, central=alg.central,
                       with_ds=alg.with_ds, generators=alg.generators, table=table)


# ---------------------------------------------------------------------------
# shared draws
# ---------------------------------------------------------------------------

def random_dual(rng, alg: AlgebraSpec, scale: float = 0.7) -> np.ndarray:
    """Packed dual row (the pack_dual layout) of a random dual point of
    alg, drawn in the order m, h, d, k, j, c: m from [0.5, 2), the rest from
    [-scale, scale)."""
    j_rows, c_rows, (im, ih, i_d, ik) = alg.dual_rows
    v = np.zeros(len(alg.generators))
    v[im] = rng.uniform(0.5, 2.0)
    for i in (ih, i_d, ik):
        v[i] = rng.uniform(-scale, scale)
    v[j_rows] = rng.uniform(-scale, scale, len(j_rows))
    v[c_rows] = rng.uniform(-scale, scale, c_rows.shape)
    return v


def _random_element(rng, alg: AlgebraSpec) -> np.ndarray:
    """Coefficient row of a random element, one uniform draw per generator."""
    return rng.uniform(-0.4, 0.4, len(alg.generators))


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------

def _expected_schrodinger() -> Dict[tuple, Dict[str, Fraction]]:
    """Hand transcription of the Schrodinger table under C_0 -> P, C_1 -> B."""
    half = Fraction(1, 2)
    rows: Dict[tuple, Dict[str, Fraction]] = {}

    def put(x: str, y: str, res: Dict[str, object]) -> None:
        res = {g: Fraction(v) for g, v in res.items() if Fraction(v)}
        rows[(x, y)] = res
        rows[(y, x)] = {g: -v for g, v in res.items()}

    for (i, k, l, e) in [(1, 2, 3, 1), (1, 3, 2, -1), (2, 3, 1, 1)]:
        put(f"J{i}", f"J{k}", {f"J{l}": e})
    for i in range(1, 4):
        for k in range(1, 4):
            if i == k:
                continue
            l = 6 - i - k
            e = al.eps3(i, k, l)
            put(f"J{i}", f"C0_{k}", {f"C0_{l}": e})
            put(f"J{i}", f"C1_{k}", {f"C1_{l}": e})
    for i in range(1, 4):
        put(f"C1_{i}", "H", {f"C0_{i}": 1})          # [B_i, H] = i P_i
        put("D", f"C0_{i}", {f"C0_{i}": half})       # [D, P_i] = i/2 P_i
        put("D", f"C1_{i}", {f"C1_{i}": -half})      # [D, B_i] = -i/2 B_i
        put("K", f"C0_{i}", {f"C1_{i}": 1})          # [K, P_i] = i B_i
        put(f"C1_{i}", f"C0_{i}", {"M": 1})          # [B_i, P_i] = i M
    put("D", "H", {"H": 1})
    put("D", "K", {"K": -1})
    put("K", "H", {"D": 2})
    return rows


def suite_algebra(seed: int, tols: Dict[str, float],
                  factory: Callable[..., AlgebraSpec]) -> List[Case]:
    cases: List[Case] = []
    algs = {}
    for (N, dim, central, ds) in ACCEPTANCE_ALGEBRAS:
        alg = factory(N, dim, central, ds)
        algs[(N, dim, central, ds)] = alg
        tag = f"N{N}_dim{dim}" + ("_central" if central else "_plain") + ("_ds" if ds else "")
        defect, triple = al.jacobi_worst(alg)
        cases.append(_case(f"jacobi_{tag}", float(defect), tols["jacobi"],
                           detail=f"worst triple {triple}" if triple else ""))
        structure = al.structure_checks(alg)
        bad, detail = structure["antisymmetry"]
        cases.append(_case(f"antisymmetry_{tag}", bad, 0.0, detail))
        if central:
            bad, detail = structure["mass_central"]
            cases.append(_case(f"mass_central_N{N}_dim{dim}", bad, 0.0, detail))

    alg1 = algs[(1, 3, True, False)]
    expected = _expected_schrodinger()
    mismatches = 0
    names = [g.name for g in alg1.generators]
    for xn in names:
        for yn in names:
            if xn == yn:
                continue
            got = {g.name: c for g, c in
                   alg1.table.get((alg1.generator(xn), alg1.generator(yn)), {}).items()}
            want = {g: c for g, c in expected.get((xn, yn), {}).items()}
            if got != want:
                mismatches += 1
    cases.append(_case("schrodinger_specialization", mismatches, 0.0,
                       detail="ordered pairs whose constants differ from the "
                              "hand-written N=1 table"))

    for (N, dim, central, ds), alg in algs.items():
        if not central:
            continue
        mag_bad = 0
        for (x, y), res in alg.table.items():
            if x.kind == "C" and y.kind == "C":
                want = Fraction(math.factorial(x.level) * math.factorial(y.level))
                for coeff in res.values():
                    if abs(coeff) != want:
                        mag_bad += 1
        cases.append(_case(f"cc_magnitude_N{N}_dim{dim}", mag_bad, 0.0))

    Ns = al.so21_basis(alg1)
    worst = Fraction(0)
    for a in range(3):
        for b in range(3):
            got = al.bracket(alg1, Ns[a], Ns[b])
            want: Dict = {}
            for g in range(3):
                e = al.so21_epsilon_lower(a, b, g)
                if e:
                    for gid, cf in Ns[g].items():
                        want[gid] = want.get(gid, Fraction(0)) + e * cf
            keys = set(got) | set(want)
            for kk in keys:
                worst = max(worst, abs(got.get(kk, Fraction(0)) - want.get(kk, Fraction(0))))
    cases.append(_case("so21_closure", float(worst), 0.0))

    h, d, k = Fraction(3, 7), Fraction(-2, 5), Fraction(9, 4)
    chi = al.conformal_basis(h, d, k)
    cases.append(_case("conformal_basis_roundtrip",
                       0.0 if al.conformal_basis_inverse(chi) == (h, d, k) else 1.0, 0.0))
    return cases


# ---------------------------------------------------------------------------
# orbit (coadjoint) suite
# ---------------------------------------------------------------------------

def _worst_draw(defects: np.ndarray):
    """(largest defect, detail naming the draw that reaches it first)."""
    i = int(np.argmax(defects))
    if not defects[i]:
        return 0.0, f"all {len(defects)} draws exact"
    return float(defects[i]), f"worst draw {i} of {len(defects)}"


def suite_orbit(seed: int, tols: Dict[str, float],
                factory: Callable[..., AlgebraSpec]) -> List[Case]:
    """Coadjoint oracle, Casimir and orbit-label cases.

    Each case draws its samples one by one, in a fixed rng order, as packed
    dual rows; the printed closed forms (the independent oracle), the generic
    exp(ad*) flows, the Casimirs and the orbit parametrizations then run once
    per case on the stack of draws, in the same rng order.  A row of a stack
    gives the bits of the same draw evaluated alone.
    """
    rng = np.random.default_rng(seed + 1)
    cases: List[Case] = []
    alg1 = factory(1, 3, True, False)

    def oracle_case(name, alg, family, draws):
        """draws: (packed dual row, coefficient row of A, t, closed-form parameter) per draw."""
        V, a, t, params = (np.array(v) for v in zip(*draws))
        want = co.coad_closed_form(alg, family, params, V)
        got = co.coad_flow(alg, a, t, V)
        worst, detail = _worst_draw(np.abs(want - got).max(axis=1))
        cases.append(_case(name, worst, tols["oracle"], detail))

    # the generators each Table 1 column moves along
    columns = {"translation": "C0_1 C0_2 C0_3", "boost": "C1_1 C1_2 C1_3", "time": "H",
               "dilation": "D", "conformal": "K", "rotation": "J1 J2 J3"}
    for fam, names in columns.items():
        rows = [alg1.index[alg1.generator(n)] for n in names.split()]
        draws = []
        for _ in range(100):
            v = random_dual(rng, alg1)
            a = np.zeros(len(alg1.generators))
            if len(rows) == 3:  # a 3-vector parameter, flowed for time 1
                par = a[rows] = rng.uniform(-0.7, 0.7, 3)
                t = 1.0
            else:  # one generator, flowed for time p (back in time for H)
                par, a[rows] = rng.uniform(-0.7, 0.7), 1.0
                t = -par if fam == "time" else par
            draws.append((v, a, t, par))
        oracle_case(f"oracle_table1_{fam}", alg1, fam, draws)

    for (N, dim) in ((3, 3), (4, 2), (2, 2)):
        alg = factory(N, dim, True, False)
        draws = []
        for _ in range(100):
            v = random_dual(rng, alg)
            x = rng.uniform(-0.5, 0.5, (N + 1, dim))
            a = np.zeros(len(alg.generators))
            a[alg.dual_rows[1]] = x
            draws.append((v, a, 1.0, x))
        oracle_case(f"oracle_ctrans_N{N}_dim{dim}", alg, "ctrans", draws)

    v = random_dual(rng, alg1)
    for name, w in (("central_flow_identity",
                     co.coad_generic(alg1, {alg1.generator("M"): 1.0}, 0.7, v)),
                    ("zero_parameter_identity",
                     co.coad_closed_form(alg1, "ctrans", np.zeros((1, 2, 3)), v[None])[0])):
        cases.append(_case(name, np.abs(w - v).max(), 0.0))

    for (N, dim) in FLOW_FAMILIES:
        alg = factory(N, dim, True, False)
        V, As, ts = [], [], []
        for _ in range(100):
            V.append(random_dual(rng, alg, scale=0.5))
            As.append(_random_element(rng, alg))
            ts.append(float(rng.uniform(-0.5, 0.5)))
        V = np.array(V)
        W = co.coad_flow(alg, np.array(As), ts, V)
        fields_v, fields_w = co.dual_fields(alg, V), co.dual_fields(alg, W)
        worst_m, detail_m = _worst_draw(np.abs(fields_w[0] - fields_v[0]))
        cas = np.abs(np.array(co.casimir_arrays(*fields_v))
                     - np.array(co.casimir_arrays(*fields_w)))
        worst_cas, detail_cas = _worst_draw(cas.max(axis=0))
        cases.append(_case(f"mass_invariance_N{N}_dim{dim}", worst_m, 0.0, detail_m))
        cases.append(_case(f"casimir_invariance_N{N}_dim{dim}", worst_cas, tols["casimir"],
                           detail_cas))

    classes = [co.OrbitClass("HplusSigma", 1.5), co.OrbitClass("HminusSigma", 0.8),
               co.OrbitClass("HyperbolicSigma", 1.2), co.OrbitClass("Hplus0"),
               co.OrbitClass("Origin")]
    draws_per_class = 20
    for (N, dim) in FLOW_FAMILIES:
        alg = factory(N, dim, True, False)
        ms, ss, chis, xs, want_c2, want_c3 = [], [], [], [], [], []
        for cls in classes:
            chi = co.chi_for_class(cls)
            signed = co.chi_interval(chi)
            m = float(rng.uniform(0.5, 2.0))
            s = rng.uniform(-1, 1, al.spin_components(dim))
            xs += [rng.uniform(-1.0, 1.0, (N + 1, dim)) for _ in range(draws_per_class)]
            ms.append(m)
            ss.append(s)
            chis.append(chi)
            want_c2.append(m * m * float(s @ s) if dim == 3 else m * s[0])
            want_c3.append(2 * m * m * signed)
        m, s, chi, c2, c3 = (np.repeat(np.array(v), draws_per_class, axis=0)
                             for v in (ms, ss, chis, want_c2, want_c3))
        _, C2, C3 = co.casimir_arrays(m, *co.orbit_components(m, s, chi, np.array(xs)))
        defects = np.maximum(np.abs(C2 - c2), np.abs(C3 - c3))
        i = int(np.argmax(defects))
        cls, draw = classes[i // draws_per_class], i % draws_per_class
        cases.append(_case(f"orbit_label_soundness_N{N}_dim{dim}", float(defects[i]),
                           tols["casimir"],
                           f"worst draw {draw} of {draws_per_class} in class {cls.tag}"))

    worst_interval = 0.0
    tag_flips = 0
    for cls in classes:
        chi0 = co.chi_for_class(cls)
        base = co.classify_orbit(chi0)
        # chi(t) of the free flow does not depend on the external blocks
        _, _, chis = dy.free_flow(np.zeros((1, 3)), np.zeros((1, 3)), chi0, 1.0,
                                  np.linspace(0.0, 1.0, 11))
        for chi_t in chis:
            worst_interval = max(worst_interval,
                                 abs(co.chi_interval(chi_t) - co.chi_interval(chi0)))
            if co.classify_orbit(chi_t).tag != base.tag:
                tag_flips += 1
    cases.append(_case("classify_flow_interval", worst_interval, tols["structure"]))
    cases.append(_case("classify_flow_tag_stable", tag_flips, 0.0))
    return cases


# ---------------------------------------------------------------------------
# poisson suite
# ---------------------------------------------------------------------------

def _random_poly(rng, sm: po.StructureMatrix) -> po.Poly:
    """A constant plus three monomials of degree 1 or 2 in random coordinates."""
    syms = sm.coordinates()
    out = po.Poly.const(float(rng.uniform(-1, 1)))
    for _ in range(3):
        k = int(rng.integers(1, 3))
        mono = po.Poly.const(float(rng.uniform(-1, 1)))
        for _ in range(k):
            sym = syms[int(rng.integers(0, len(syms)))]
            mono = mono * po.Poly.var(sym)
        out = out + mono
    return out


def suite_poisson(seed: int, tols: Dict[str, float],
                  factory: Callable[..., AlgebraSpec]) -> List[Case]:
    rng = np.random.default_rng(seed + 2)
    cases: List[Case] = []
    for (N, dim) in FLOW_FAMILIES:
        m = float(rng.uniform(0.6, 1.8))
        alg = factory(N, dim, True, False)
        mm = po.momentum_map(alg, m)
        sm = po.StructureMatrix(N, dim, m)
        # one env of (n,) arrays: every polynomial is evaluated at all points at once
        envs = [po.random_point(rng, N, dim, m=m).env() for _ in range(50)]
        n = len(envs)
        env = {sym: np.array([e[sym] for e in envs]) for sym in envs[0]}
        values = {Z: g.eval(env) for Z, g in mm.items()}
        worst, detail = 0.0, f"all pairs exact at {n} points"
        gens = list(alg.generators)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                X, Y = gens[i], gens[j]
                rhs = sum(float(cz) * values[Z] for Z, cz in alg.table.get((X, Y), {}).items())
                gap = np.abs(po.poly_bracket(mm[X], mm[Y], sm).eval(env) - rhs)
                k = int(np.argmax(gap))  # the first point of the largest gap
                if gap[k] > worst:
                    worst = float(gap[k])
                    detail = f"worst pair ({X.name}, {Y.name}) at point {k} of {n}"
        cases.append(_case(f"momentum_map_closure_N{N}_dim{dim}", worst, tols["closure"],
                           detail))

    for (N, dim) in FLOW_FAMILIES:
        m = 0.9
        alg = factory(N, dim, True, False)
        sm = po.StructureMatrix(N, dim, m)
        coords = [sym for sym in sm.coordinates() if sym[0] in "qp"]
        # column (j, b) of the chart holds the Darboux image of the raw unit x_j^b
        raw_axes = [(j, b) for j in range(N + 1) for b in range(1, dim + 1)]
        chart = np.array([np.vstack(po.to_darboux(e.reshape(N + 1, dim), m, N, dim)).ravel()
                          for e in np.eye(len(raw_axes))]).T
        raw = np.array([[po.raw_bracket(alg, j, a, k, b, m) for k, b in raw_axes]
                        for j, a in raw_axes])
        want = sm.tensors[0][:len(coords), :len(coords)]
        defect = np.abs(chart @ raw @ chart.T - want)
        # every pair but (p, q): each q against the momenta, then the positions
        nq = po.q_levels(N, dim) * dim
        cols = [*range(nq, len(coords)), *range(nq)]
        names = [f"{kind}{level}_{axis + 1}" for kind, level, axis in coords]
        entries = [(defect[u, v], names[u], names[v])
                   for u in range(len(coords)) for v in cols if u < nq or v >= nq]
        worst, u, v = max(entries, key=lambda e: e[0])
        detail = f"worst pair ({u}, {v})" if worst else f"all {len(entries)} pairs exact"
        cases.append(_case(f"darboux_brackets_N{N}_dim{dim}", worst, tols["route"], detail))
        x = rng.uniform(-1, 1, (N + 1, dim))
        qq, pp = po.to_darboux(x, m, N, dim)
        roundtrip = float(np.max(np.abs(po.from_darboux(qq, pp, m, N, dim) - x)))
        cases.append(_case(f"darboux_roundtrip_N{N}_dim{dim}", roundtrip, tols["route"]))

    for (N, dim) in ((1, 3), (2, 2)):
        m = 1.1
        sm = po.StructureMatrix(N, dim, m)
        worst_anti = worst_leib = worst_jac = 0.0
        for _ in range(10):
            f = _random_poly(rng, sm)
            g = _random_poly(rng, sm)
            hh = _random_poly(rng, sm)
            pt = po.random_point(rng, N, dim, m=m)
            env = pt.env()
            worst_anti = max(worst_anti, abs(
                po.poly_bracket(f, g, sm).eval(env) + po.poly_bracket(g, f, sm).eval(env)))
            lhs = po.poly_bracket(f, g * hh, sm).eval(env)
            rhs = g.eval(env) * po.poly_bracket(f, hh, sm).eval(env) \
                + po.poly_bracket(f, g, sm).eval(env) * hh.eval(env)
            worst_leib = max(worst_leib, abs(lhs - rhs))
            jac = po.poly_bracket(f, po.poly_bracket(g, hh, sm), sm) \
                + po.poly_bracket(g, po.poly_bracket(hh, f, sm), sm) \
                + po.poly_bracket(hh, po.poly_bracket(f, g, sm), sm)
            worst_jac = max(worst_jac, abs(jac.eval(env)))
        cases.append(_case(f"bracket_antisymmetry_N{N}_dim{dim}", worst_anti, tols["structure"]))
        cases.append(_case(f"bracket_leibniz_N{N}_dim{dim}", worst_leib, tols["structure"]))
        cases.append(_case(f"bracket_jacobi_N{N}_dim{dim}", worst_jac, tols["structure"]))
    return cases


# ---------------------------------------------------------------------------
# dynamics suite
# ---------------------------------------------------------------------------

def _printed_free_field(pt: po.PhasePoint):
    """The free Hamiltonian vector field (dq, dp, dchi) at pt as printed.

    Each q level moves with the level above it, the top level with the top
    momentum over m, momenta cascade downward with p_0 frozen, and chi turns
    inside its hyperboloid.  This is the oracle for the bracket flows of h.
    """
    q, p, chi = pt.q, pt.p, pt.chi
    p_top = p[-1] if pt.dim == 3 else p[-1] @ po.EPS2
    dq = np.vstack([q[1:], p_top / pt.m])
    dp = np.vstack([np.zeros(pt.dim), -p[:-1]])
    return dq, dp, np.array([chi[2], chi[2], chi[0] - chi[1]])


def suite_dynamics(seed: int, tols: Dict[str, float],
                   factory: Callable[..., AlgebraSpec]) -> List[Case]:
    rng = np.random.default_rng(seed + 3)
    cases: List[Case] = []

    for (N, dim) in ((3, 3), (4, 2)):
        gaps = []  # (worst gap, draw index, sample time) per draw
        for draw in range(3):
            pt = po.random_point(rng, N, dim, m=float(rng.uniform(0.6, 1.8)))
            tr_rk = dy.integrate(pt, dy.FREE, 1.0, 1e-3, "rk4", record=False)
            tr_cl = dy.integrate(pt, dy.FREE, 1.0, 1e-3, "closed", record=False)
            times = tr_rk.times[::50]
            gap = np.max([np.abs(a[::50] - b[::50]).reshape(len(times), -1).max(axis=1)
                          for a, b in ((tr_rk.q, tr_cl.q), (tr_rk.p, tr_cl.p),
                                       (tr_rk.chi, tr_cl.chi))], axis=0)
            i = int(np.argmax(gap))
            gaps.append((float(gap[i]), draw, float(times[i])))
        worst, draw, t = max(gaps, key=lambda g: g[0])
        cases.append(_case(f"rk4_vs_closed_N{N}_dim{dim}", worst, tols["integrator"],
                           detail=f"worst gap at draw {draw}, t={t:g}"))

    for (N, dim) in FLOW_FAMILIES:
        pt = po.random_point(rng, N, dim)
        for method, tol_key in (("closed", "fit_closed"), ("rk4", "fit_rk4")):
            tr = dy.integrate(pt, dy.FREE, 1.0, 1e-3, method, record=False)
            res, diff = dy.verify_motion_order(tr)
            thr = dy.conditioning_threshold(tr)
            cases.append(_case(f"motion_order_fit_{method}_N{N}_dim{dim}", res, tols[tol_key]))
            cases.append(_case(f"motion_order_diff_{method}_N{N}_dim{dim}", diff, thr,
                               detail="max (N+1)-th difference over dt^(N+1) vs "
                                      "conditioning threshold"))

    for (N, dim) in FLOW_FAMILIES:
        pt = po.random_point(rng, N, dim)
        tr = dy.integrate(pt, dy.FREE, 1.0, 1e-3, "rk4", record=True)
        drifts, times = dy.conservation_drifts(tr)
        name = max(drifts, key=drifts.get)
        cases.append(_case(f"free_conservation_N{N}_dim{dim}", drifts[name], tols["integrator"],
                           detail=f"worst {name} at t={times[name]:g}"))

    for (N, dim) in FLOW_FAMILIES:
        m = float(rng.uniform(0.6, 1.8))
        L = dy._flow_matrix(N, dim, m, dy.FREE)
        worst = 0.0
        for _ in range(50):
            pt = po.random_point(rng, N, dim, m=m)
            printed = np.concatenate([f.ravel() for f in _printed_free_field(pt)])
            worst = max(worst, float(np.max(np.abs(L @ dy._pack(pt) - printed))))
        cases.append(_case(f"hamiltonian_consistency_N{N}_dim{dim}", worst, tols["structure"]))

    ham = dy.HamiltonianChoice("newton_hooke", omega=1.0, sign=1)
    pt = po.PhasePoint(q=[[0.7, -0.2, 0.4]], p=[[0.0, 0.0, 0.0]],
                       s=[0.1, 0.0, -0.2], chi=[0.3, 0.1, -0.2], m=1.0)
    n_steps = 3142
    tr = dy.integrate(pt, ham, math.pi, math.pi / n_steps, "rk4", record=True)
    cos_err = float(np.max(np.abs(tr.states[-1].q[0] + pt.q[0])))
    cases.append(_case("newton_hooke_cosine", cos_err, tols["oscillator"]))
    energy = tr.recorded["h"] + ham.omega ** 2 * tr.recorded["k"]
    cases.append(_case("newton_hooke_energy", float(np.max(np.abs(energy - energy[0]))),
                       tols["integrator"]))

    # the external modes turn at omega * (N - 2j), so at t = pi/omega each has
    # turned by pi * (N - 2j) and the external block is multiplied by (-1)^N
    omega = float(rng.uniform(0.5, 1.5))
    ham = dy.HamiltonianChoice("newton_hooke", omega=omega, sign=1)
    pt = po.random_point(rng, 3, 3, m=float(rng.uniform(0.6, 1.8)))
    T = math.pi / omega
    tr = dy.integrate(pt, ham, T, T / n_steps, "rk4", record=False)
    period_err = max(float(np.max(np.abs(tr.q[-1] + pt.q))),
                     float(np.max(np.abs(tr.p[-1] + pt.p))))
    cases.append(_case("newton_hooke_period_N3_dim3", period_err, tols["oscillator"],
                       detail="external block at t = pi/omega vs (-1)^N times t = 0"))
    return cases


# ---------------------------------------------------------------------------
# symmetry suite
# ---------------------------------------------------------------------------

def _worst_at(named: Dict[str, np.ndarray], labels: np.ndarray, where: str):
    """(largest defect, detail naming the first quantity and then the first
    sample that reach it) of (samples, ...) defect stacks; ``labels`` holds
    one time or row number per sample, printed after ``where``."""
    rows = np.array([np.abs(v).reshape(len(labels), -1).max(axis=1) for v in named.values()])
    name, i = np.unravel_index(int(np.argmax(rows)), rows.shape)
    if not rows[name, i]:
        return 0.0, "all exact"
    return float(rows[name, i]), f"worst {list(named)[name]} at {where}{labels[i]:g}"


def suite_symmetry(seed: int, tols: Dict[str, float],
                   factory: Callable[..., AlgebraSpec]) -> List[Case]:
    """Integrals of motion, solution-to-solution maps and coadjoint columns.

    The column cases map each draw with the library's maps, run the orbit
    parametrization once per family on the stacked inputs and images, and
    take the printed column of the inputs, on the stack of draws in the same
    rng order, as the oracle.
    """
    rng = np.random.default_rng(seed + 4)
    cases: List[Case] = []

    for (N, dim) in ((1, 3), (3, 3), (2, 2)):
        pt = po.random_point(rng, N, dim)
        for method, tol in (("rk4", tols["integrator"]), ("closed", tols["route"])):
            tr = dy.integrate(pt, dy.FREE, 1.0, 1e-3, method, record=False)
            drift, detail = _worst_at(
                {name: v[::59] - v[0] for name, v in zip("jchdk", sy.integrals_of_motion(tr))},
                tr.times[::59], "t=")
            cases.append(_case(f"integrals_constant_{method}_N{N}_dim{dim}", drift, tol, detail))

    pt = po.random_point(rng, 1, 3, m=1.7)
    tr = dy.integrate(pt, dy.FREE, 1.0, 1e-2, "closed", record=False)
    rows = [0, 37, 100]
    printed = {name: v[rows] for name, v in sy.schrodinger_integrals(tr).items()}
    j, c, h, d, k = (v[rows] for v in sy.integrals_of_motion(tr))
    pullback = {"h": h, "d_shifted": d, "k_shifted": k, "p": c[:, 0],
                "x_boost": c[:, 1] / tr.m, "j": j}
    worst, detail = _worst_at({name: printed[name] - v for name, v in pullback.items()},
                              np.array(rows), "row ")
    cases.append(_case("printed_vs_pullback_integrals", worst, tols["oracle"], detail))

    worst = 0.0
    for _ in range(50):
        t, c1, c2 = rng.uniform(-0.3, 0.3, 3)
        worst = max(worst, abs(sy.conformal_time(sy.conformal_time(t, c1), c2)
                               - sy.conformal_time(t, c1 + c2)))
    cases.append(_case("conformal_time_group_law", worst, tols["route"]))

    m = 1.5
    pt = po.random_point(rng, 1, 3, m=m)
    pt.chi[:] = 0.0
    tr = dy.integrate(pt, dy.FREE, 1.0, 1e-3, "rk4", record=False)
    maps = [(f"conformal_c{c}", sy.ConformalMap(c)) for c in (0.5, -0.5, 1.0)]
    maps += [
        ("galilei_boost", sy.GalileiMap(sy.GalileiParams(v=(0.4, -0.2, 0.1)))),
        ("galilei_translation", sy.GalileiMap(sy.GalileiParams(a=(1.0, 0.5, -0.3)))),
        ("galilei_timeshift", sy.GalileiMap(sy.GalileiParams(tau=0.35))),
        ("galilei_rotation", sy.GalileiMap(sy.GalileiParams(
            R=co.rotation_matrix([0.3, -0.5, 0.8])))),
        ("identity", sy.GalileiMap(sy.GalileiParams())),
    ]
    for name, mp in maps:
        tr2 = sy.map_trajectory(tr, mp)
        res, _ = dy.verify_motion_order(tr2)
        p0 = tr2.p[:, 0]
        h = tr2.recorded["h"]
        drift, detail = _worst_at({"p_0 drift": p0 - p0[0], "h drift": h - h[0]},
                                  tr2.times, "t'=")
        detail = "worst fit residual" if res >= drift else detail
        cases.append(_case(f"solution_to_solution_{name}", max(res, drift), tols["fit_rk4"],
                           detail))

    alg1 = factory(1, 3, True, False)
    # (input, image, column parameter) of each draw per family; states are (x, p, s, chi)
    draws: Dict[str, list] = {k: [] for k in
                              ("translation", "boost", "time", "conformal", "rotation")}
    zero = np.zeros(3)
    for _ in range(40):
        pt = po.random_point(rng, 1, 3, m=m)
        x, p, s, chi = pt.q[0], pt.p[0], pt.s, pt.chi
        a, v = rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3)
        tau, cpar = float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8))
        om = rng.uniform(-0.8, 0.8, 3)
        state = (x, p, s, chi)
        xa, pa, _ = sy.galilei_transform(x, p, 0.0, sy.GalileiParams(a=a), m)
        draws["translation"].append((state, (xa, pa, s, chi), -a))
        xv, pv, _ = sy.galilei_transform(x, p, 0.0, sy.GalileiParams(v=v), m)
        draws["boost"].append((state, (xv, pv, s, chi), v))
        qt, ptau, chit = dy.free_flow(pt.q, pt.p, chi, m, -tau)
        draws["time"].append((state, (qt[0], ptau[0], s, chit), -tau))
        # the conformal column moves chi, which the active map leaves alone
        xc, pc, _ = sy.conformal_transform(x, p, 0.0, cpar, m)
        draws["conformal"].append(((x, p, s, zero), (xc, pc, s, zero), -cpar))
        # the rotation column also turns the internal spin
        xr, pr, _ = sy.galilei_transform(x, p, 0.0, sy.GalileiParams(R=co.rotation_matrix(om)), m)
        draws["rotation"].append(((x, p, zero, chi), (xr, pr, zero, chi), om))

    def duals(states):
        """Packed dual rows of (x, p, s, chi) states, parametrized as one stack."""
        x, p, s, chi = (np.array(v) for v in zip(*states))
        fields = co.orbit_components(m, s, chi, po.raw_levels(x[:, None], p[:, None], m))
        return co.pack_dual(alg1, m, *fields)

    for fam, fam_draws in draws.items():
        inputs, images, params = zip(*fam_draws)
        cols = co.coad_closed_form(alg1, fam, np.array(params), duals(inputs))
        worst, detail = _worst_draw(np.abs(duals(images) - cols).max(axis=1))
        cases.append(_case(f"column_consistency_{fam}", worst, tols["column"], detail))
    return cases


SUITES = {
    "algebra": suite_algebra,
    "orbit": suite_orbit,
    "poisson": suite_poisson,
    "dynamics": suite_dynamics,
    "symmetry": suite_symmetry,
}


def suite_names() -> List[str]:
    return list(SUITES)


def run_suites(which="all", seed: int = 42, tolerances: Optional[Dict[str, float]] = None,
               algebra_factory: Optional[Callable[..., AlgebraSpec]] = None) -> dict:
    """Run one suite, or every suite for "all", and return a machine-readable report.

    Deterministic for a given seed.  ``algebra_factory`` lets tests inject a
    corrupted table builder; each case reports measured defect vs allowance.
    """
    if which != "all" and not (isinstance(which, str) and which in SUITES):
        raise GalconfError(f"unknown suite {which!r}; choose from {list(SUITES)} or 'all'")
    names = list(SUITES) if which == "all" else [which]
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(tolerances or {})
    factory = algebra_factory or build_algebra
    suites = {}
    for name in names:
        cases = SUITES[name](seed, tols, factory)
        suites[name] = [c.as_dict() for c in sorted(cases, key=lambda c: c.name)]
    passed = all(c["passed"] for cs in suites.values() for c in cs)
    return {
        "schema_version": 1,
        "seed": seed,
        "tolerances": {k: tols[k] for k in sorted(tols)},
        "suites": suites,
        "passed": passed,
    }
