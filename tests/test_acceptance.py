"""Acceptance criteria.

One test per criterion, each at its stated size and tolerance, printing a
single pass/fail line (run with -s to see them inline).
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from galconf import coadjoint as co
from galconf import dynamics as dy
from galconf import poisson as po
from galconf import symmetry as sy
from galconf import verify as vf
from galconf.algebra import build_algebra, jacobi_worst


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def dual_row(alg, pt):
    """The packed dual row realized by the phase point pt."""
    return co.pack_dual(alg, pt.m, *po.dual_vector_at(pt))


def column_defect(alg, fam, par, X, Y):
    """Largest field gap between the dual point of the phase point Y and the
    printed column of family fam with parameter par applied to that of X, as
    a one-row stack."""
    got = co.coad_closed_form(alg, fam, np.array([par]), dual_row(alg, X)[None])[0]
    return float(np.max(np.abs(got - dual_row(alg, Y))))


def test_c01_exact_jacobi():
    """Criterion 1: Jacobi defect exactly zero for the listed family, < 10 s."""
    start = time.time()
    combos = [(1, 3, True, False), (3, 3, True, False), (5, 3, True, False),
              (7, 3, True, False), (2, 2, True, False), (4, 2, True, False),
              (1, 3, False, True)]
    worst = Fraction(0)
    for (N, dim, central, ds) in combos:
        worst = max(worst, jacobi_worst(build_algebra(N, dim, central, ds))[0])
    elapsed = time.time() - start
    report("criterion 1 (exact Jacobi)", worst == 0 and elapsed < 10.0,
           f"max defect {worst}, {elapsed:.2f}s for {len(combos)} algebras")


def test_c02_schrodinger_specialization():
    """Criterion 2: the N=1 table is coefficient-exactly the printed one."""
    alg = build_algebra(1, 3, central=True)
    half = Fraction(1, 2)
    expected = {}

    def put(x, y, res):
        res = {g: Fraction(v) for g, v in res.items() if v}
        expected[(x, y)] = res
        expected[(y, x)] = {g: -v for g, v in res.items()}

    # rotations among themselves and on the two vector towers
    eps3 = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1, (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}
    for i in range(1, 4):
        for k in range(1, 4):
            if i == k:
                continue
            l = 6 - i - k
            put_needed = (i < k)  # store each unordered pair once
            if put_needed:
                put(f"J{i}", f"J{k}", {f"J{l}": eps3[i, k, l]})
            put(f"J{i}", f"C0_{k}", {f"C0_{l}": eps3[i, k, l]})
            put(f"J{i}", f"C1_{k}", {f"C1_{l}": eps3[i, k, l]})
    for i in range(1, 4):
        put(f"C1_{i}", "H", {f"C0_{i}": 1})           # [B_i, H] = i P_i
        put("D", f"C0_{i}", {f"C0_{i}": half})        # [D, P_i] = i/2 P_i
        put("D", f"C1_{i}", {f"C1_{i}": -half})       # [D, B_i] = -i/2 B_i
        put("K", f"C0_{i}", {f"C1_{i}": 1})           # [K, P_i] = i B_i
        put(f"C1_{i}", f"C0_{i}", {"M": 1})           # [B_i, P_k] = i M delta
    put("D", "H", {"H": 1})
    put("D", "K", {"K": -1})
    put("K", "H", {"D": 2})

    names = [g.name for g in alg.generators]
    mismatches = []
    for xn in names:
        for yn in names:
            if xn == yn:
                continue
            got = {g.name: c for g, c in
                   alg.table.get((alg.generator(xn), alg.generator(yn)), {}).items()}
            want = expected.get((xn, yn), {})
            if got != want:
                mismatches.append((xn, yn, got, want))
    report("criterion 2 (Schrodinger specialization)", not mismatches,
           f"{len(names) * (len(names) - 1)} ordered pairs compared, "
           f"{len(mismatches)} mismatches")


def test_c03_coadjoint_oracle_equivalence():
    """Criterion 3: closed forms match the generic flow on 100 draws each."""
    rng = np.random.default_rng(42)
    alg1 = build_algebra(1, 3, central=True)
    worst = 0.0

    def element(alg, names_vals):
        return {alg.generator(n): float(v) for n, v in names_vals.items()}

    for fam in ("translation", "boost", "time", "dilation", "conformal", "rotation"):
        V, pars, want = [], [], []
        for _ in range(100):
            V.append(vf.random_dual(rng, alg1))
            if fam in ("translation", "boost", "rotation"):
                prefix = {"translation": "C0_", "boost": "C1_", "rotation": "J"}[fam]
                par = rng.uniform(-0.7, 0.7, 3)
                A = element(alg1, {f"{prefix}{i+1}": par[i] for i in range(3)})
                t = 1.0
            else:
                par = float(rng.uniform(-0.7, 0.7))
                A = element(alg1, {{"time": "H", "dilation": "D", "conformal": "K"}[fam]: 1})
                t = -par if fam == "time" else par
            pars.append(par)
            want.append(co.coad_generic(alg1, A, t, V[-1]))
        got = co.coad_closed_form(alg1, fam, np.array(pars), np.array(V))
        worst = max(worst, float(np.max(np.abs(got - np.array(want)))))

    for (N, dim) in ((3, 3), (4, 2)):
        alg = build_algebra(N, dim, central=True)
        V, arrs, want = [], [], []
        for _ in range(100):
            V.append(vf.random_dual(rng, alg))
            arrs.append(rng.uniform(-0.5, 0.5, (N + 1, dim)))
            A = element(alg, {f"C{j}_{a+1}": arrs[-1][j, a]
                              for j in range(N + 1) for a in range(dim)})
            want.append(co.coad_generic(alg, A, 1.0, V[-1]))
        got = co.ctrans(alg, np.array(arrs), np.array(V))
        worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    report("criterion 3 (coadjoint oracle equivalence)", worst < 1e-10,
           f"max defect {worst:.3e} over 800 draws")


def test_c04_casimir_invariance():
    """Criterion 4: Casimir drift < 1e-10 under flows; orbit values exact."""
    rng = np.random.default_rng(43)
    worst_flow = 0.0
    for (N, dim) in vf.FLOW_FAMILIES:
        alg = build_algebra(N, dim, central=True)
        for _ in range(100):
            X = vf.random_dual(rng, alg, scale=0.5)
            A = {g: float(rng.uniform(-0.4, 0.4)) for g in alg.generators}
            Y = co.coad_generic(alg, A, float(rng.uniform(-0.5, 0.5)), X)
            C = np.array(co.casimir_values(alg, np.array([X, Y])))
            worst_flow = max(worst_flow, float(np.max(np.abs(C[:, 0] - C[:, 1]))))
    classes = [co.OrbitClass("HplusSigma", 1.5), co.OrbitClass("HminusSigma", 0.7),
               co.OrbitClass("HyperbolicSigma", 1.1), co.OrbitClass("Hplus0"),
               co.OrbitClass("Origin")]
    worst_label = 0.0
    for (N, dim) in vf.FLOW_FAMILIES:
        alg = build_algebra(N, dim, central=True)
        for _ in range(100):
            cls = classes[int(rng.integers(0, len(classes)))]
            chi = co.chi_for_class(cls)
            m = float(rng.uniform(0.5, 2.0))
            if dim == 3:
                s = rng.uniform(-1, 1, 3)
                want_c2 = m * m * float(s @ s)
            else:
                s = float(rng.uniform(-1, 1))
                want_c2 = m * s
            fields = co.orbit_components(m, np.reshape(s, -1), chi,
                                         rng.uniform(-1, 1, (N + 1, dim)))
            _, C2, C3 = co.casimir_values(alg, co.pack_dual(alg, m, *fields)[None])
            worst_label = max(worst_label, abs(C2[0] - want_c2),
                              abs(C3[0] - 2 * m * m * co.chi_interval(chi)))
    ok = worst_flow < 1e-10 and worst_label < 1e-10
    report("criterion 4 (Casimir invariance)", ok,
           f"flow drift {worst_flow:.3e}, label defect {worst_label:.3e}")


def test_c05_momentum_map_closure():
    """Criterion 5: {G_X, G_Y} = G_[X,Y] (+ m c) at 50 points per family."""
    rng = np.random.default_rng(44)
    worst = 0.0
    for (N, dim) in vf.FLOW_FAMILIES:
        m = float(rng.uniform(0.6, 1.8))
        alg = build_algebra(N, dim, central=True)
        mm = po.momentum_map(alg, m)
        sm = po.StructureMatrix(N, dim, m)
        envs = [po.random_point(rng, N, dim, m=m).env() for _ in range(50)]
        gens = list(alg.generators)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                br = po.poly_bracket(mm[gens[i]], mm[gens[j]], sm)
                row = alg.table.get((gens[i], gens[j]), {})
                for env in envs:
                    rhs = sum(float(c) * mm[Z].eval(env) for Z, c in row.items())
                    worst = max(worst, abs(br.eval(env) - rhs))
    report("criterion 5 (momentum-map closure)", worst < 1e-9,
           f"max defect {worst:.3e} at 50 points per family, all generator pairs")


def test_c06_motion_order():
    """Criterion 6: degree-N fit of q_0; (N+1)-th difference within threshold."""
    rng = np.random.default_rng(45)
    ok = True
    details = []
    for (N, dim) in vf.FLOW_FAMILIES:
        pt = po.random_point(rng, N, dim)
        for method, tol in (("closed", 1e-10), ("rk4", 1e-7)):
            tr = dy.integrate(pt, dy.FREE, 1.0, 1e-3, method, record=False)
            res, diff = dy.verify_motion_order(tr)
            thr = dy.conditioning_threshold(tr)
            ok = ok and res < tol and diff <= thr
            details.append(f"N={N},{method}: fit {res:.1e}, diff {diff:.1e}<={thr:.1e}")
    report("criterion 6 (motion order)", ok, "; ".join(details[:4]) + " ...")


def test_c07_conservation():
    """Criterion 7: invariants and time-dependent integrals along rk4 flow."""
    rng = np.random.default_rng(46)
    worst = 0.0
    for (N, dim) in vf.FLOW_FAMILIES:
        pt = po.random_point(rng, N, dim)
        tr = dy.integrate(pt, dy.FREE, 1.0, 1e-3, "rk4")
        series = {
            "m": np.array([st.m for st in tr.states]),
            "spin": co.spin_invariant(tr.s),
            "interval": np.array([co.chi_interval(st.chi) for st in tr.states]),
            "chi_diff": np.array([st.chi[0] - st.chi[1] for st in tr.states]),
            "h": tr.recorded["h"],
        }
        for name, vals in series.items():
            worst = max(worst, float(np.max(np.abs(vals - vals[0]))))
        p0 = np.array([st.p[0] for st in tr.states])
        worst = max(worst, float(np.max(np.abs(p0 - p0[0]))))
        jv = tr.recorded["j"]
        worst = max(worst, float(np.max(np.abs(jv - jv[0]))))
        for v in sy.integrals_of_motion(tr):
            worst = max(worst, float(np.max(np.abs(v[::111] - v[0]))))
    report("criterion 7 (conservation)", worst < 1e-8,
           f"max drift {worst:.3e} across {len(vf.FLOW_FAMILIES)} families")


def test_c08_solution_to_solution():
    """Criterion 8: finite maps send free solutions to free solutions and
    generator values follow the matching coadjoint column."""
    rng = np.random.default_rng(47)
    m = 1.5
    pt = po.random_point(rng, 1, 3, m=m)
    pt.chi[:] = 0.0
    tr = dy.integrate(pt, dy.FREE, 1.0, 1e-3, "rk4", record=False)
    worst_res = 0.0
    maps = [sy.ConformalMap(c) for c in (0.5, -0.5, 1.0)]
    maps.append(sy.GalileiMap(a=(0.4, -0.1, 0.2), v=(0.3, 0.2, -0.1), tau=0.3,
                              R=co.rotation_matrix([0.4, -0.2, 0.6])))
    for mp in maps:
        tr2 = sy.map_trajectory(tr, mp)
        res, _ = dy.verify_motion_order(tr2)
        p0 = np.array([st.p[0] for st in tr2.states])
        worst_res = max(worst_res, res, float(np.max(np.abs(p0 - p0[0]))))

    alg1 = build_algebra(1, 3, central=True)
    worst_col = 0.0
    for _ in range(50):
        base = po.random_point(rng, 1, 3, m=m)
        x0, p0 = base.q[0], base.p[0]
        a = rng.uniform(-0.8, 0.8, 3)
        worst_col = max(worst_col, column_defect(
            alg1, "translation", -a, base,
            po.PhasePoint(q=[x0 + a], p=[p0], s=base.s, chi=base.chi, m=m)))
        v = rng.uniform(-0.8, 0.8, 3)
        worst_col = max(worst_col, column_defect(
            alg1, "boost", v, base,
            po.PhasePoint(q=[x0], p=[p0 + m * v], s=base.s, chi=base.chi, m=m)))
        tau = float(rng.uniform(-0.8, 0.8))
        q, p, chi = dy.free_flow(base.q, base.p, base.chi, m, -tau)
        worst_col = max(worst_col, column_defect(
            alg1, "time", -tau, base, po.PhasePoint(q=q, p=p, s=base.s, chi=chi, m=m)))
        nochi = po.PhasePoint(q=base.q, p=base.p, s=base.s, chi=np.zeros(3), m=m)
        c = float(rng.uniform(-0.8, 0.8))
        xc, pc, _ = sy.ConformalMap(c).apply(x0, p0, 0.0, m)
        worst_col = max(worst_col, column_defect(
            alg1, "conformal", -c, nochi,
            po.PhasePoint(q=[xc], p=[pc], s=nochi.s, chi=nochi.chi, m=m)))
        nospin = po.PhasePoint(q=base.q, p=base.p, s=np.zeros(3), chi=base.chi, m=m)
        om = rng.uniform(-0.8, 0.8, 3)
        R = co.rotation_matrix(om)
        worst_col = max(worst_col, column_defect(
            alg1, "rotation", om, nospin,
            po.PhasePoint(q=[R @ x0], p=[R @ p0], s=nospin.s, chi=nospin.chi, m=m)))
    ok = worst_res < 1e-7 and worst_col < 1e-9
    report("criterion 8 (solution to solution)", ok,
           f"motion residual {worst_res:.3e}, column defect {worst_col:.3e}")


def test_c09_newton_hooke():
    """Criterion 9: cosine solution at omega=1 and deformed-energy drift."""
    ham = dy.HamiltonianChoice("newton_hooke", omega=1.0, sign=1)
    pt = po.PhasePoint(q=[[1.0, -0.4, 0.2]], p=[[0.0, 0.0, 0.0]],
                       s=[0.1, 0.2, 0.0], chi=[0.3, -0.1, 0.2], m=1.0)
    tr = dy.integrate(pt, ham, math.pi, math.pi / 3142)
    cos_err = float(np.max(np.abs(tr.states[-1].q[0] + pt.q[0])))
    energy = tr.recorded["h"] + tr.recorded["k"]
    drift = float(np.max(np.abs(energy - energy[0])))
    ok = cos_err < 1e-6 and drift < 1e-8
    report("criterion 9 (Newton-Hooke)", ok,
           f"|x(pi) - cos(pi) x(0)| = {cos_err:.3e}, energy drift {drift:.3e}")


def test_c10_mutation_sensitivity():
    """Criterion 10: any single flipped central-row constant fails verification."""
    missed = []
    tried = 0
    for N in (1, 3, 5):
        alg = build_algebra(N, 3, central=True)
        cc_pairs = sorted({tuple(sorted((x.name, y.name)))
                           for (x, y) in alg.table
                           if x.kind == "C" and y.kind == "C"})
        for lhs, rhs in cc_pairs:
            tried += 1

            def factory(n, d, c, ds, _N=N, _l=lhs, _r=rhs):
                a = build_algebra(n, d, c, ds)
                if (n, d, c) == (_N, 3, True):
                    return vf.flip_constant(a, _l, _r)
                return a

            rep = vf.run_suites("algebra", seed=42, algebra_factory=factory)
            if rep["passed"]:
                missed.append((N, lhs, rhs))
    # a one-directional flip must be caught as well, with the triple named
    def factory_dir(n, d, c, ds):
        a = build_algebra(n, d, c, ds)
        if (n, d, c) == (3, 3, True):
            return vf.break_antisymmetry(a, "C0_1", "C3_1")
        return a

    rep = vf.run_suites("all", seed=42, algebra_factory=factory_dir)
    named = any("C0_1" in case["detail"] and "C3_1" in case["detail"]
                for case in rep["suites"]["algebra"] if not case["passed"])
    ok = not missed and not rep["passed"] and named
    report("criterion 10 (mutation sensitivity)", ok,
           f"{tried} single-constant flips all detected; offending triple named")


def test_c10b_clean_verify_all_exits_zero():
    """Positive control for criterion 10: the unmodified build passes end to end."""
    proc = subprocess.run(
        [sys.executable, "-m", "galconf.cli", "verify", "all", "--seed", "42"],
        capture_output=True, text=True)
    ok = proc.returncode == 0
    detail = "exit 0"
    if ok:
        detail += f", {sum(len(v) for v in json.loads(proc.stdout)['suites'].values())} cases"
    report("criterion 10b (clean verify all)", ok, detail)
