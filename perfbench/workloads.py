"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of operations.  An operation
has a timed ``run`` that calls into galconf and an untimed ``check`` that
decides whether the output is correct and digests it, so that the warm-up
pass and every timed pass can be compared byte for byte.

Why these four: ``verify_all`` is the verdict users and CI wait for and mixes
every module; ``simulate`` is dominated by per-state recording and CSV;
``propagate`` uses dynamics as a bare stepper (no recording), so a storage
change that helps ``simulate`` but costs per step shows here; and
``algebra_scale`` is almost all exact Jacobi checking, which no other
workload stresses.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

T, DT = 1.0, 1e-3
COMPARE_STRIDE = 50  # every 50th sample, as the dynamics suite compares

SIMULATE_FAMILIES = ((1, 3), (3, 3), (5, 3), (2, 2), (4, 2))
PROPAGATE_FAMILIES = ((1, 3), (3, 3), (7, 3), (2, 2), (4, 2))
# (N, dim, central, with_ds) passed to `galconf algebra check`
ALGEBRA_CHECKS = tuple((N, 3, True, False) for N in (9, 11, 13, 15)) \
    + tuple((N, 2, True, False) for N in (8, 10, 12, 14)) + ((9, 3, False, True),)
MUTANT_BASES = ((7, 3), (6, 2))


@dataclass
class Outcome:
    ok: bool
    work: int
    digest: str
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class Op:
    span: str                      # name of the operation's root span
    run: Callable[[], object]      # timed
    check: Callable[[object], Outcome]  # untimed


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _arrays_digest(arrays) -> str:
    return _digest(*(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays))


# ---------------------------------------------------------------------------
# verify_all: one suite per operation, at the benchmark seed
# ---------------------------------------------------------------------------

def _check_report(report: dict) -> Outcome:
    cases = [c for cs in report["suites"].values() for c in cs]
    failed = sum(1 for c in cases if not c["passed"])
    return Outcome(ok=bool(report["passed"]) and failed == 0, work=len(cases),
                   digest=_digest(json.dumps(report, sort_keys=True).encode()),
                   counts={"verify.cases": len(cases), "verify.cases_failed": failed})


def verify_all(g, seed: int, workdir: Path) -> List[Op]:
    return [Op(f"verify.{suite}", partial(g.verify.run_suites, suite, seed=seed),
               _check_report)
            for suite in g.verify.suite_names()]


# ---------------------------------------------------------------------------
# simulate: `galconf simulate --config` with CSV output
# ---------------------------------------------------------------------------

def _initial_state(rng, po, N: int, dim: int) -> dict:
    return {
        "m": float(rng.uniform(0.6, 1.8)),
        "q": rng.uniform(-0.7, 0.7, (po.q_levels(N, dim), dim)).tolist(),
        "p": rng.uniform(-0.7, 0.7, (po.p_levels(N, dim), dim)).tolist(),
        "s": rng.uniform(-0.7, 0.7, 3).tolist() if dim == 3 else float(rng.uniform(-0.7, 0.7)),
        "chi": rng.uniform(-0.7, 0.7, 3).tolist(),
    }


def _check_simulate(cfg: dict, code: int) -> Outcome:
    summary = Path(cfg["summary"]).read_bytes()
    csv = Path(cfg["csv"]).read_bytes()
    data = json.loads(summary)
    return Outcome(ok=code == 0 and bool(data["passed"]), work=int(data["samples"]),
                   digest=_digest(csv, summary), counts={"cli.exit_nonzero": int(code != 0)})


def simulate(g, seed: int, workdir: Path) -> List[Op]:
    rng = np.random.default_rng(seed)
    configs = []
    for N, dim in SIMULATE_FAMILIES:
        state = _initial_state(rng, g.poisson, N, dim)
        configs += [dict(N=N, dim=dim, method=method, **state) for method in ("rk4", "closed")]
    for sign in (1, -1):
        configs.append(dict(N=1, dim=3, method="rk4", hamiltonian="newton_hooke",
                            omega=float(rng.uniform(0.5, 1.5)), sign=sign,
                            **_initial_state(rng, g.poisson, 1, 3)))
    ops = []
    for i, cfg in enumerate(configs):
        cfg.update(T=T, dt=DT, csv=str(workdir / f"sim{i:02d}.csv"),
                   summary=str(workdir / f"sim{i:02d}.json"))
        path = workdir / f"sim{i:02d}-config.json"
        path.write_text(json.dumps(cfg))
        ops.append(Op("cli.simulate", partial(g.cli.main, ["simulate", "--config", str(path)]),
                      partial(_check_simulate, cfg)))
    return ops


# ---------------------------------------------------------------------------
# propagate: integrate(record=False), motion order, rk4 vs closed
# ---------------------------------------------------------------------------

def _max_state_gap(a, b) -> float:
    return max(float(np.max(np.abs(a.q - b.q))), float(np.max(np.abs(a.p - b.p))),
               float(np.max(np.abs(a.chi - b.chi))))


def _propagate_free(dy, pt):
    rk = dy.integrate(pt, dy.FREE, T, DT, "rk4", record=False)
    cl = dy.integrate(pt, dy.FREE, T, DT, "closed", record=False)
    return rk, cl, dy.verify_motion_order(rk), dy.verify_motion_order(cl)


def _propagate_newton_hooke(dy, pt, ham):
    return dy.integrate(pt, ham, T, DT, "rk4", record=False)


def _check_free(dy, tols, result) -> Outcome:
    rk, cl, (fit_rk, diff_rk), (fit_cl, diff_cl) = result
    gap = max(_max_state_gap(a, b) for a, b in
              zip(rk.states[::COMPARE_STRIDE], cl.states[::COMPARE_STRIDE]))
    ok = (gap <= tols["integrator"] and fit_rk <= tols["fit_rk4"]
          and fit_cl <= tols["fit_closed"] and diff_rk <= dy.conditioning_threshold(rk)
          and diff_cl <= dy.conditioning_threshold(cl))
    last = [rk.states[-1], cl.states[-1]]
    return Outcome(ok=ok, work=len(rk.times) + len(cl.times),
                   digest=_arrays_digest([x for st in last for x in (st.q, st.p, st.chi)]
                                         + [[fit_rk, diff_rk, fit_cl, diff_cl]]))


def _check_newton_hooke(pt, ham, tols, traj) -> Outcome:
    """Compare q and p with the analytic oscillator (sign +1) or
    inverted-oscillator (sign -1) solution of h + sign * omega^2 * k."""
    w, m = ham.omega, pt.m
    c, s = (np.cos, np.sin) if ham.sign == 1 else (np.cosh, np.sinh)
    gap = 0.0
    for t, st in zip(traj.times[::COMPARE_STRIDE], traj.states[::COMPARE_STRIDE]):
        q = pt.q * c(w * t) + pt.p / (m * w) * s(w * t)
        p = pt.p * c(w * t) - ham.sign * m * w * pt.q * s(w * t)
        gap = max(gap, float(np.max(np.abs(st.q - q))), float(np.max(np.abs(st.p - p))))
    last = traj.states[-1]
    return Outcome(ok=gap <= tols["integrator"], work=len(traj.times),
                   digest=_arrays_digest([last.q, last.p, last.chi]))


def propagate(g, seed: int, workdir: Path) -> List[Op]:
    rng = np.random.default_rng(seed)
    dy, tols = g.dynamics, g.verify.DEFAULT_TOLERANCES
    ops = []
    for N, dim in PROPAGATE_FAMILIES:
        pt = g.poisson.random_point(rng, N, dim, m=float(rng.uniform(0.6, 1.8)))
        ops.append(Op("propagate.free", partial(_propagate_free, dy, pt),
                      partial(_check_free, dy, tols)))
    for sign in (1, -1):
        pt = g.poisson.random_point(rng, 1, 3, m=float(rng.uniform(0.6, 1.8)))
        ham = dy.HamiltonianChoice("newton_hooke", omega=float(rng.uniform(0.5, 1.5)),
                                   sign=sign)
        ops.append(Op("propagate.newton_hooke", partial(_propagate_newton_hooke, dy, pt, ham),
                      partial(_check_newton_hooke, pt, ham, tols)))
    return ops


# ---------------------------------------------------------------------------
# algebra_scale: `galconf algebra check` at large N, plus central-row mutants
# ---------------------------------------------------------------------------

def _check_algebra(out: Path, triples: int, code: int) -> Outcome:
    raw = out.read_bytes()
    checks = {c["name"]: c for c in json.loads(raw)["checks"]}
    ok = code == 0 and checks["jacobi"]["defect"] == 0 and all(c["passed"] for c in checks.values())
    return Outcome(ok=ok, work=triples, digest=_digest(raw),
                   counts={"cli.exit_nonzero": int(code != 0)})


def _mutant(al, vf, base, lhs: str, rhs: str):
    return al.jacobi_worst(vf.flip_constant(base, lhs, rhs))


def _check_mutant(triples: int, result) -> Outcome:
    detected = result[0] != 0  # result is (worst defect, worst triple)
    return Outcome(ok=detected, work=triples, digest=_digest(repr(result).encode()),
                   counts={"algebra.mutants.tried": 1, "algebra.mutants.detected": int(detected)})


def algebra_scale(g, seed: int, workdir: Path) -> List[Op]:
    al = g.algebra
    ops = []
    for i, (N, dim, central, with_ds) in enumerate(ALGEBRA_CHECKS):
        triples = math.comb(len(al.build_algebra(N, dim, central, with_ds).generators), 3)
        out = workdir / f"check{i:02d}.json"
        argv = ["algebra", "check", "--N", str(N), "--dim", str(dim), "-o", str(out)]
        argv += ["--central"] if central else []
        argv += ["--with-ds"] if with_ds else []
        ops.append(Op("cli.algebra_check", partial(g.cli.main, argv),
                      partial(_check_algebra, out, triples)))
    for N, dim in MUTANT_BASES:
        base = al.build_algebra(N, dim, central=True)
        triples = math.comb(len(base.generators), 3)
        central_rows = sorted({tuple(sorted((x.name, y.name))) for (x, y) in base.table
                               if x.kind == "C" and y.kind == "C"})
        ops += [Op("algebra.mutant", partial(_mutant, al, g.verify, base, lhs, rhs),
                   partial(_check_mutant, triples))
                for lhs, rhs in central_rows]
    random.Random(seed).shuffle(ops)  # the algebras are fixed; the seed sets the order
    return ops


WORKLOADS = {
    "verify_all": verify_all,
    "simulate": simulate,
    "propagate": propagate,
    "algebra_scale": algebra_scale,
}
