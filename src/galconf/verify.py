"""Machine-checkable property suites.

Each suite turns one block of structural claims (exact algebra identities,
coadjoint oracle agreement, bracket closure, conservation laws, symmetry
maps) into named cases with a measured defect and an allowed tolerance.
The CLI ``verify`` command drives these; the corruption helpers let tests
confirm that a single wrong structure constant is actually detected.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cache
from fractions import Fraction
from itertools import combinations
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


def _case(name: str, defect: float, allowed: float, detail: str = "") -> dict:
    """The report entry of one case: its measured defect against its allowance."""
    defect, allowed = float(defect), float(allowed)
    return {"name": name, "defect": defect, "allowed": allowed,
            "passed": defect <= allowed, "detail": detail}


# ---------------------------------------------------------------------------
# corruption helpers (test harness hooks)
# ---------------------------------------------------------------------------

def _negated(alg: AlgebraSpec, lhs: str, rhs: str, both: bool) -> AlgebraSpec:
    """Copy of alg with the stored bracket of (lhs, rhs) sign-flipped, and
    that of (rhs, lhs) too if both."""
    x, y = alg.generator(lhs), alg.generator(rhs)
    table = dict(alg.table)  # rows are never changed in place, so they are shared
    if (x, y) not in table:
        raise GalconfError(f"no stored bracket for ({lhs}, {rhs})")
    for pair in ((x, y), (y, x)) if both else ((x, y),):
        table[pair] = {g: -c for g, c in table[pair].items()}
    return replace(alg, table=table)


def flip_constant(alg: AlgebraSpec, lhs: str, rhs: str) -> AlgebraSpec:
    """Copy of alg with one structure constant sign-flipped (both orders,
    so antisymmetry survives and the defect must be caught downstream)."""
    return _negated(alg, lhs, rhs, both=True)


def break_antisymmetry(alg: AlgebraSpec, lhs: str, rhs: str) -> AlgebraSpec:
    """Copy of alg with only the (lhs, rhs) direction sign-flipped."""
    return _negated(alg, lhs, rhs, both=False)


# ---------------------------------------------------------------------------
# shared draws
# ---------------------------------------------------------------------------

def _draw_duals(rng, alg: AlgebraSpec, k: int, scale: float, *spans):
    """(V, *params): k rounds of one random dual point followed by one
    ``rng.uniform(lo, hi, w)`` call per span (lo, hi, w), drawn as one block.

    V is the (k, n) stack of packed dual rows (the pack_dual layout), each
    drawn in the order m, h, d, k, j, c: m from [0.5, 2), the rest from
    [-scale, scale); each parameter is a (k, w) array.
    """
    j_rows, c_rows, mhdk_rows = alg.dual_rows
    order = np.concatenate([mhdk_rows, j_rows, c_rows.ravel()])
    m, rest, *params = po.uniform_block(rng, k, [(0.5, 2.0, 1), (-scale, scale, len(order) - 1),
                                                 *spans])
    V = np.zeros((k, len(alg.generators)))
    V[:, order] = np.concatenate([m, rest], axis=1)
    return (V, *params)


def random_dual(rng, alg: AlgebraSpec, scale: float = 0.7) -> np.ndarray:
    """Packed dual row of one random dual point of alg (see _draw_duals)."""
    return _draw_duals(rng, alg, 1, scale)[0][0]


def _element_span(alg: AlgebraSpec):
    """The draw span of the coefficient row of a random element."""
    return (-0.4, 0.4, len(alg.generators))


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
        for tower in ("C0", "C1"):                   # [J_i, P_k] = i eps_ikl P_l
            put(f"J{i}", f"{tower}_{k}", {f"{tower}_{l}": e})
            put(f"J{k}", f"{tower}_{i}", {f"{tower}_{l}": -e})
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
                  factory: Callable[..., AlgebraSpec]) -> List[dict]:
    cases: List[dict] = []
    algs = {}
    for (N, dim, central, ds) in ACCEPTANCE_ALGEBRAS:
        alg = factory(N, dim, central, ds)
        algs[(N, dim, central, ds)] = alg
        tag = f"N{N}_dim{dim}" + ("_central" if central else "_plain") + ("_ds" if ds else "")
        case_names = {"jacobi": f"jacobi_{tag}", "antisymmetry": f"antisymmetry_{tag}",
                      "mass_central": f"mass_central_N{N}_dim{dim}"}
        for check, (bad, detail) in al.structure_checks(alg).items():
            allowed = tols["jacobi"] if check == "jacobi" else 0.0
            cases.append(_case(case_names[check], bad, allowed, detail))

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
                factory: Callable[..., AlgebraSpec]) -> List[dict]:
    """Coadjoint oracle, Casimir and orbit-label cases.

    Each case draws all of its samples as one block, in a fixed rng order,
    as packed dual rows and parameters; the printed closed forms (the
    independent oracle), the generic exp(ad*) flows, the Casimirs and the
    orbit parametrizations then run once per case on the stack of draws.  A
    row of a stack gives the bits of the same draw evaluated alone.
    """
    rng = np.random.default_rng(seed + 1)
    cases: List[dict] = []
    alg1 = factory(1, 3, True, False)
    n_draws = 100

    def oracle_case(name, alg, want, V, a, t):
        """One row of want, V, a and t per draw: the closed-form flow of the
        packed dual row V, the coefficient row of A and its flow time."""
        got = co.coad_flow(alg, a, t, V)
        worst, detail = _worst_draw(np.abs(want - got).max(axis=1))
        cases.append(_case(name, worst, tols["oracle"], detail))

    for fam, names in co.SCHRODINGER_COLUMNS.items():
        rows = [alg1.index[alg1.generator(n)] for n in names]
        V, par = _draw_duals(rng, alg1, n_draws, 0.7, (-0.7, 0.7, len(rows)))
        a = np.zeros((n_draws, len(alg1.generators)))
        if len(rows) == 3:  # a 3-vector parameter, flowed for time 1
            a[:, rows] = par
            t = np.ones(n_draws)
        else:  # one generator, flowed for time p (back in time for H)
            par, a[:, rows] = par[:, 0], 1.0
            t = -par if fam == "time" else par
        oracle_case(f"oracle_table1_{fam}", alg1, co.coad_closed_form(alg1, fam, par, V), V, a, t)

    for (N, dim) in ((3, 3), (4, 2), (2, 2)):
        alg = factory(N, dim, True, False)
        V, x = _draw_duals(rng, alg, n_draws, 0.7, (-0.5, 0.5, (N + 1) * dim))
        x = x.reshape(n_draws, N + 1, dim)
        a = np.zeros((n_draws, len(alg.generators)))
        a[:, alg.dual_rows[1]] = x
        oracle_case(f"oracle_ctrans_N{N}_dim{dim}", alg, co.ctrans(alg, x, V), V, a,
                    np.ones(n_draws))

    v = random_dual(rng, alg1)
    for name, w in (("central_flow_identity",
                     co.coad_generic(alg1, {alg1.generator("M"): 1.0}, 0.7, v)),
                    ("zero_parameter_identity",
                     co.ctrans(alg1, np.zeros((1, 2, 3)), v[None])[0])):
        cases.append(_case(name, np.abs(w - v).max(), 0.0))

    for (N, dim) in FLOW_FAMILIES:
        alg = factory(N, dim, True, False)
        V, A, t = _draw_duals(rng, alg, n_draws, 0.5, _element_span(alg), (-0.5, 0.5, 1))
        W = co.coad_flow(alg, A, t[:, 0], V)
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
    chis = np.array([co.chi_for_class(cls) for cls in classes])
    for (N, dim) in FLOW_FAMILIES:
        # per class: its mass, its spin, then the tower levels of each draw
        ms, ss, xs = po.uniform_block(rng, len(classes), [
            (0.5, 2.0, 1), (-1.0, 1.0, al.spin_components(dim)),
            (-1.0, 1.0, draws_per_class * (N + 1) * dim)])
        ms = ms[:, 0]
        want_c2 = [m * m * float(s @ s) if dim == 3 else m * s[0] for m, s in zip(ms, ss)]
        want_c3 = [2 * m * m * co.chi_interval(chi) for m, chi in zip(ms, chis)]
        m, s, chi, c2, c3 = (np.repeat(np.array(v), draws_per_class, axis=0)
                             for v in (ms, ss, chis, want_c2, want_c3))
        x = xs.reshape(-1, N + 1, dim)
        _, C2, C3 = co.casimir_arrays(m, *co.orbit_components(m, s, chi, x))
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
    """A constant plus three monomials of degree 1 or 2 in random coordinates,
    summed term by term as Poly sums do, a sum of zero dropping its term."""
    syms = sm.coordinates()
    terms = {(): float(rng.uniform(-1, 1))}
    for _ in range(3):
        k, coeff, mono = int(rng.integers(1, 3)), float(rng.uniform(-1, 1)), {}
        for _ in range(k):
            sym = syms[int(rng.integers(0, len(syms)))]
            mono[sym] = mono.get(sym, 0) + 1
        key = tuple(sorted(mono.items()))
        if total := terms.get(key, 0.0) + coeff:
            terms[key] = total
        else:
            terms.pop(key, None)
    return po.Poly(terms)


def suite_poisson(seed: int, tols: Dict[str, float],
                  factory: Callable[..., AlgebraSpec]) -> List[dict]:
    rng = np.random.default_rng(seed + 2)
    cases: List[dict] = []
    for (N, dim) in FLOW_FAMILIES:
        m = float(rng.uniform(0.6, 1.8))
        alg = factory(N, dim, True, False)
        mm = po.momentum_map(alg, m)
        sm = po.StructureMatrix(N, dim, m)
        # one env of (n,) arrays: every polynomial is evaluated at all points at once
        n = 50
        env = dict(zip(sm.coordinates(), po.random_points(rng, n, N, dim).T))
        values = {Z: g.eval(env) for Z, g in mm.items()}
        pairs = list(combinations(alg.generators, 2))
        gaps = np.abs([po.poly_bracket(mm[X], mm[Y], sm).eval(env)
                       - sum(float(cz) * values[Z] for Z, cz in alg.table.get((X, Y), {}).items())
                       for X, Y in pairs])
        i = int(np.argmax(gaps))  # the largest gap: its first pair, then its first point
        (X, Y), worst = pairs[i // n], float(gaps.flat[i])
        detail = f"worst pair ({X.name}, {Y.name}) at point {i % n} of {n}" if worst \
            else f"all pairs exact at {n} points"
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
            fg = po.poly_bracket(f, g, sm)  # shared by all three identities
            fg_at = fg.eval(env)
            worst_anti = max(worst_anti, abs(fg_at + po.poly_bracket(g, f, sm).eval(env)))
            lhs = po.poly_bracket(f, g * hh, sm).eval(env)
            rhs = g.eval(env) * po.poly_bracket(f, hh, sm).eval(env) + fg_at * hh.eval(env)
            worst_leib = max(worst_leib, abs(lhs - rhs))
            jac = po.poly_bracket(f, po.poly_bracket(g, hh, sm), sm) \
                + po.poly_bracket(g, po.poly_bracket(hh, f, sm), sm) \
                + po.poly_bracket(hh, fg, sm)
            worst_jac = max(worst_jac, abs(jac.eval(env)))
        cases.append(_case(f"bracket_antisymmetry_N{N}_dim{dim}", worst_anti, tols["structure"]))
        cases.append(_case(f"bracket_leibniz_N{N}_dim{dim}", worst_leib, tols["structure"]))
        cases.append(_case(f"bracket_jacobi_N{N}_dim{dim}", worst_jac, tols["structure"]))
    return cases


# ---------------------------------------------------------------------------
# dynamics suite
# ---------------------------------------------------------------------------

def _printed_free_field(q, p, chi, m: float):
    """The free Hamiltonian vector field (dq, dp, dchi) at stacked points as printed.

    Each q level moves with the level above it, the top level with the top
    momentum over m, momenta cascade downward with p_0 frozen, and chi turns
    inside its hyperboloid.  This is the oracle for the bracket flows of h.
    """
    p_top = p[..., -1:, :] if q.shape[-1] == 3 else p[..., -1:, :] @ po.EPS2
    dq = np.concatenate([q[..., 1:, :], p_top / m], axis=-2)
    dp = np.concatenate([np.zeros_like(p[..., :1, :]), -p[..., :-1, :]], axis=-2)
    dchi = np.stack([chi[..., 2], chi[..., 2], chi[..., 0] - chi[..., 1]], axis=-1)
    return dq, dp, dchi


def suite_dynamics(seed: int, tols: Dict[str, float],
                   factory: Callable[..., AlgebraSpec]) -> List[dict]:
    rng = np.random.default_rng(seed + 3)
    cases: List[dict] = []

    for (N, dim) in ((3, 3), (4, 2)):
        gaps = []  # (worst gap, draw index, sample time) per draw
        for draw in range(3):
            pt = po.random_point(rng, N, dim, m=float(rng.uniform(0.6, 1.8)))
            tr_rk = dy.integrate(pt, dy.FREE, 1.0, 1e-3, "rk4", record=False)
            # the closed form only at the compared samples: each time gets its own bits
            times = tr_rk.times[::50]
            closed = dy.free_flow(pt.q, pt.p, pt.chi, pt.m, times)
            gap = np.max([np.abs(a[::50] - b).reshape(len(times), -1).max(axis=1)
                          for a, b in zip((tr_rk.q, tr_rk.p, tr_rk.chi), closed)], axis=0)
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
        q, p, _, chi = po.chart_blocks(po.random_points(rng, 50, N, dim), N, dim)
        z, printed = (np.concatenate([f.reshape(50, -1) for f in fields], axis=1)
                      for fields in ((q, p, chi), _printed_free_field(q, p, chi, m)))
        worst = float(np.max(np.abs((L @ z[..., None])[..., 0] - printed)))
        cases.append(_case(f"hamiltonian_consistency_N{N}_dim{dim}", worst, tols["structure"]))

    ham = dy.HamiltonianChoice("newton_hooke", omega=1.0, sign=1)
    pt = po.PhasePoint(q=[[0.7, -0.2, 0.4]], p=[[0.0, 0.0, 0.0]],
                       s=[0.1, 0.0, -0.2], chi=[0.3, 0.1, -0.2], m=1.0)
    n_steps = 3142
    tr = dy.integrate(pt, ham, math.pi, math.pi / n_steps, "rk4", record=False)
    cos_err = float(np.max(np.abs(tr.states[-1].q[0] + pt.q[0])))
    cases.append(_case("newton_hooke_cosine", cos_err, tols["oscillator"]))
    # on the whole stack, as recording took it: a row of generators_at depends on its stack
    gens = dy.generator_values(tr.states)
    energy = gens["h"] + ham.omega ** 2 * gens["k"]
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
                   factory: Callable[..., AlgebraSpec]) -> List[dict]:
    """Integrals of motion, solution-to-solution maps and coadjoint columns.

    The column cases map each draw with the library's maps, run the orbit
    parametrization once per family on the stacked inputs and images, and
    take the printed column of the inputs, on the stack of draws in the same
    rng order, as the oracle.
    """
    rng = np.random.default_rng(seed + 4)
    cases: List[dict] = []

    for (N, dim) in ((1, 3), (3, 3), (2, 2)):
        pt = po.random_point(rng, N, dim)
        for method, tol in (("rk4", tols["integrator"]), ("closed", tols["route"])):
            tr = dy.integrate(pt, dy.FREE, 1.0, 1e-3, method, record=False)
            # only every 59th sample is compared, and its row does not depend on the others
            sub = dy.Trajectory(times=tr.times[::59], states=tr.states[::59], ham=tr.ham)
            drift, detail = _worst_at(
                {name: v - v[0] for name, v in zip("jchdk", sy.integrals_of_motion(sub))},
                sub.times, "t=")
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

    t, c1, c2 = rng.uniform(-0.3, 0.3, (50, 3)).T  # 50 draws of (t, c1, c2), one map per draw
    worst = np.abs(sy.ConformalMap(c2).time(sy.ConformalMap(c1).time(t))
                   - sy.ConformalMap(c1 + c2).time(t)).max()
    cases.append(_case("conformal_time_group_law", worst, tols["route"]))

    m = 1.5
    pt = po.random_point(rng, 1, 3, m=m)
    pt.chi[:] = 0.0
    tr = dy.integrate(pt, dy.FREE, 1.0, 1e-3, "rk4", record=False)
    maps = [(f"conformal_c{c}", sy.ConformalMap(c)) for c in (0.5, -0.5, 1.0)]
    maps += [
        ("galilei_boost", sy.GalileiMap(v=(0.4, -0.2, 0.1))),
        ("galilei_translation", sy.GalileiMap(a=(1.0, 0.5, -0.3))),
        ("galilei_timeshift", sy.GalileiMap(tau=0.35)),
        ("galilei_rotation", sy.GalileiMap(R=co.rotation_matrix([0.3, -0.5, 0.8]))),
        ("identity", sy.GalileiMap()),
    ]
    for name, mp in maps:
        tr2 = sy.map_trajectory(tr, mp)
        res, _ = dy.verify_motion_order(tr2)
        p0 = tr2.p[:, 0]
        h = dy.generator_values(tr2.states)["h"]  # the whole stack, as recording took it
        drift, detail = _worst_at({"p_0 drift": p0 - p0[0], "h drift": h - h[0]},
                                  tr2.times, "t'=")
        detail = "worst fit residual" if res >= drift else detail
        cases.append(_case(f"solution_to_solution_{name}", max(res, drift), tols["fit_rk4"],
                           detail))

    alg1 = factory(1, 3, True, False)
    # 40 draws as one block, in the rng order of a random_point and then a, v,
    # tau, cpar and om per draw; each family's map runs once on the stack
    z, a, v, tau, cpar, om = po.uniform_block(rng, 40, [(-0.7, 0.7, 12), (-0.8, 0.8, 3),
                                                        (-0.8, 0.8, 3), (-0.8, 0.8, 1),
                                                        (-0.8, 0.8, 1), (-0.8, 0.8, 3)])
    tau, cpar = tau[:, 0], cpar[:, 0]
    pts = po.PhasePoint(*po.chart_blocks(z, 1, 3), m=m)
    x, p, s, chi = pts.q[:, 0], pts.p[:, 0], pts.s, pts.chi
    state, zero = (x, p, s, chi), np.zeros_like(chi)
    xa, pa, _ = sy.GalileiMap(a=a).apply(x, p, 0.0, m)
    xv, pv, _ = sy.GalileiMap(v=v).apply(x, p, 0.0, m)
    qt, ptau, chit = dy.free_flow(pts.q, pts.p, chi, m, -tau)
    xc, pc, _ = sy.ConformalMap(cpar).apply(x, p, 0.0, m)
    # one rotation_matrix call per draw (a stacked sin or norm need not round
    # alike), shared by the active map and the rotation column
    R = np.array([co.rotation_matrix(w) for w in om])
    xr, pr, _ = sy.GalileiMap(R=R).apply(x, p, 0.0, m)
    # (inputs, images, column parameters) per family; states are (x, p, s, chi).
    # Every Table-1 column but dilation, which has no active map to compare with
    draws = {"translation": (state, (xa, pa, s, chi), -a),
             "boost": (state, (xv, pv, s, chi), v),
             "time": (state, (qt[:, 0], ptau[:, 0], s, chit), -tau),
             # the conformal column moves chi, which the active map leaves alone
             "conformal": ((x, p, s, zero), (xc, pc, s, zero), -cpar),
             # the rotation column also turns the internal spin
             "rotation": ((x, p, zero, chi), (xr, pr, zero, chi), om)}

    def duals(states):
        """Packed dual rows of stacked (x, p, s, chi) states."""
        x, p, s, chi = states
        pts = po.PhasePoint(q=x[:, None], p=p[:, None], s=s, chi=chi, m=m)
        return co.pack_dual(alg1, m, *po.dual_vector_at(pts))

    for fam, (inputs, images, params) in draws.items():
        cols = co.coad_closed_form(alg1, fam, params, duals(inputs),
                                   R if fam == "rotation" else None)
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
    # each suite asks for the same few algebras: build each once per call
    factory = cache(algebra_factory or build_algebra)
    suites = {}
    for name in names:
        cases = SUITES[name](seed, tols, factory)
        suites[name] = sorted(cases, key=lambda c: c["name"])
    passed = all(c["passed"] for cs in suites.values() for c in cs)
    return {
        "schema_version": 1,
        "seed": seed,
        "tolerances": {k: tols[k] for k in sorted(tols)},
        "suites": suites,
        "passed": passed,
    }
