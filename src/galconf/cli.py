"""Configuration-driven command-line entry point.

Subcommands: algebra {check,dump}, orbit {classify,parametrize},
casimir eval, simulate, symmetry verify, verify.  Exit codes: 0 on
success, 1 on verification failure, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import cache
from typing import Optional

import numpy as np

from . import algebra as al
from . import coadjoint as co
from . import dynamics as dy
from . import poisson as po
from . import verify as vf
from .errors import (
    AmbiguousClass,
    BadDimension,
    BadStep,
    GalconfError,
    InvalidConfig,
    InvalidState,
    LabelMismatch,
    NonFiniteResult,
    UnsupportedExtension,
    UnsupportedHamiltonian,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2

SCHEMA_VERSION = 1


def _open(path, mode: str):
    """path opened in mode; a path that is not a string or cannot be opened
    is InvalidConfig naming it."""
    if not isinstance(path, str):
        raise InvalidConfig(f"an output path must be a string, got {path!r}")
    try:
        return open(path, mode)
    except OSError as exc:
        raise InvalidConfig(f"cannot write output path {path!r}: {exc.strerror}")
    except ValueError:  # a path with an embedded NUL byte
        raise InvalidConfig(f"cannot write output path {path!r}: it holds a NUL byte")


def _emit(data: dict, path: Optional[str], files=()) -> None:
    """Write data as JSON to path, or to stdout when it is None, and each (path,
    bytes) of files, in that order, so where two paths name one file the JSON
    is what it holds.  Files are written as bytes (binary mode, the JSON
    encoded as ASCII), so their line ends are "\n" on every platform.

    Every path is first opened for appending, which changes no file that
    exists.  If one cannot be opened, the files those opens created are
    removed and nothing is written, so a command that fails on an output
    path leaves every file as it was."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    outputs = [*files, *([(path, text.encode())] if path is not None else [])]
    created = []
    try:
        for name, _ in outputs:
            new = isinstance(name, str) and not os.path.lexists(name)
            _open(name, "ab").close()
            if new:
                created.append(name)
    except InvalidConfig:
        for name in created:
            os.remove(name)
        raise
    for name, body in outputs:
        with _open(name, "wb") as fh:
            fh.write(body)
    if path is None:
        sys.stdout.write(text)


# The keys each config may hold; any other is invalid input, so a misspelled
# key cannot fall back to its default unnoticed.
ORBIT_CONFIG_KEYS = frozenset("x m s chi chi_class sigma".split())
RUN_CONFIG_KEYS = ORBIT_CONFIG_KEYS - {"x"} | frozenset(
    "N dim classify_tol q p hamiltonian omega sign dt T method csv summary "
    "tol_conservation tol_fit".split())
SYMMETRY_CONFIG_KEYS = frozenset("seed tolerances report".split())


def _known_keys(cfg: dict, known: frozenset) -> dict:
    """cfg, or InvalidConfig naming each of its keys that is not in known."""
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise InvalidConfig(f"unknown config keys {unknown}; known keys are {sorted(known)}")
    return cfg


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"cannot read JSON config {path}: {exc}")
    if not isinstance(data, dict):
        raise InvalidConfig(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def cmd_algebra_check(args) -> int:
    alg = al.build_algebra(args.N, args.dim, args.central, args.with_ds)
    checks = [{"name": name, "defect": bad, "allowed": 0.0, "passed": bad == 0,
               "detail": detail} for name, (bad, detail) in al.structure_checks(alg).items()]
    passed = all(c["passed"] for c in checks)
    _emit({"schema_version": SCHEMA_VERSION,
           "algebra": {"N": alg.N, "dim": alg.dim, "central": alg.central,
                       "with_ds": alg.with_ds},
           "checks": checks, "passed": passed}, args.out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_algebra_dump(args) -> int:
    alg = al.build_algebra(args.N, args.dim, args.central, args.with_ds)
    _emit(al.dump_table(alg), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# orbits and Casimirs
# ---------------------------------------------------------------------------

def cmd_orbit_classify(args) -> int:
    chi = _chi(args.chi)
    try:
        cls = co.classify_orbit(chi, tol=_tolerance("tol", args.tol))
    except AmbiguousClass as exc:
        _emit({"schema_version": SCHEMA_VERSION, "error": str(exc)}, args.out)
        return EXIT_FAIL
    _emit({"schema_version": SCHEMA_VERSION, "tag": cls.tag, "sigma": cls.sigma,
           "interval": co.chi_interval(chi)}, args.out)
    return EXIT_OK


def _finite(name: str, value):
    """value, or InvalidConfig if any entry of it is NaN or infinite."""
    if not np.all(np.isfinite(value)):
        raise InvalidConfig(f"{name} must be finite, got {np.asarray(value).tolist()}")
    return value


def _array(name: str, value) -> np.ndarray:
    """value as a float array; a string or a boolean entry is InvalidConfig,
    not parsed or read as 0/1."""
    def bad(v):
        return any(map(bad, v)) if isinstance(v, list) else isinstance(v, (str, bool))
    if bad(value):
        raise InvalidConfig(f"{name} must hold numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _chi(value) -> np.ndarray:
    """value as a chi triple, or InvalidConfig unless the sum of its squared
    entries is finite, which bounds its interval and its length."""
    chi = _finite("chi", _array("chi", value).reshape(3))
    with np.errstate(over="ignore"):
        if not math.isfinite(chi @ chi):
            raise InvalidConfig(f"chi={chi.tolist()} is too large: its squares overflow")
    return chi


def _tolerance(name: str, value) -> float:
    """value as a float: a number (see _number) that is finite and nonnegative,
    or InvalidConfig."""
    out = _number(name, value)
    if not (math.isfinite(out) and out >= 0):
        raise InvalidConfig(f"{name} must be finite and nonnegative, got {value!r}")
    return out


def _integer(name: str, value) -> int:
    """value as an int; a fraction, a boolean or a string is InvalidConfig, not truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name: str, value) -> float:
    """value as a float; a string or a boolean is InvalidConfig, not parsed or read as 0/1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise InvalidConfig(f"{name} is out of the float range, got {value!r}")


def _resolve_internal(cfg: dict, dim: int, tol: float):
    """(s, chi, label) from the flat config keys m / s / chi / chi_class / sigma.

    A chi without chi_class is classified at tol; a chi with one must pass
    check_chi_class at tol (LabelMismatch otherwise)."""
    m = _number("m", cfg["m"])
    if not (math.isfinite(m) and m > 0):
        raise InvalidConfig(f"m must be finite and positive, got {m}")
    n = al.spin_components(dim)
    s = _array("s", cfg.get("s", np.zeros(n)))
    if s.shape != (n,) and not (s.shape == () and n == 1):  # a bare spin in dimension 2
        raise InvalidConfig(f"s must hold {n} spin components in dimension {dim}, "
                            f"got shape {s.shape}")
    s = _finite("s", s.reshape(n))
    s2 = float(co.spin_invariant(s))
    has_chi = "chi" in cfg
    if has_chi:
        chi = _chi(cfg["chi"])
    if "chi_class" in cfg:
        sigma = _finite("sigma", _number("sigma", cfg.get("sigma", 0.0)))
        try:
            cls = co.OrbitClass(cfg["chi_class"], sigma)
        except LabelMismatch as exc:  # an unknown tag or a bad sigma is bad input
            raise InvalidConfig(str(exc))
        if has_chi:
            co.check_chi_class(cls, chi, tol)
        else:
            chi = _chi(co.chi_for_class(cls))
    elif has_chi:
        cls = co.classify_orbit(chi, tol)
    else:
        chi = np.zeros(3)
        cls = co.OrbitClass("Origin")
    label = co.OrbitLabel(m=m, s2=s2, chi_class=cls)
    return s, chi, label


def cmd_orbit_parametrize(args) -> int:
    cfg = _known_keys(_load_json(args.config), ORBIT_CONFIG_KEYS)
    try:
        x = _finite("x", _array("x", cfg["x"]))
        if x.ndim != 2:
            raise InvalidConfig("x must be an (N+1) x dim array")
        al.check_family(x.shape[0] - 1, x.shape[1], central=True)
        s, chi, label = _resolve_internal(cfg, x.shape[1], 1e-9)
        j, c, h, d, k = co.parametrize(label, s, chi, x)
    except KeyError as exc:
        raise InvalidConfig(f"missing config key {exc}")
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad config value: {exc}")
    except (LabelMismatch, AmbiguousClass) as exc:
        _emit({"schema_version": SCHEMA_VERSION, "error": str(exc)}, args.out)
        return EXIT_FAIL
    bad = [name for name, v in zip("hdkjc", (h, d, k, j, c)) if not np.isfinite(v).all()]
    if bad:
        raise InvalidConfig(f"x is too large: the parametrized dual has non-finite {bad}")
    out = {"schema_version": SCHEMA_VERSION, "dual": _dual_json(label.m, j, c, h, d, k),
           "label": {"m": label.m, "s2": label.s2,
                     "chi_class": label.chi_class.tag,
                     "sigma": label.chi_class.sigma}}
    _emit(out, args.out)
    return EXIT_OK


def _dual_json(m, j, c, h, d, k) -> dict:
    """The JSON object of one dual point's fields, as _load_dual reads it."""
    return {"m": float(m), "h": float(h), "d": float(d), "k": float(k),
            "j": j.tolist(), "c": c.tolist()}


def _load_dual(path: str):
    """(alg, V): the central algebra of the dual point of a JSON file, bare or
    under a "dual" key (as written by orbit parametrize), and the point as a
    stack of one packed row.  Its entries must be finite and its mass positive."""
    data = _load_json(path)
    data = data.get("dual", data)
    if not isinstance(data, dict):
        raise InvalidConfig(f"dual must be a JSON object, got {type(data).__name__}")
    try:
        m, h, d, k = (_number(key, data[key]) for key in "mhdk")
        j, c = (_array(key, data[key]) for key in "jc")
    except KeyError as exc:
        raise InvalidConfig(f"missing dual key {exc}")
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad dual value: {exc}")
    j = j.reshape(-1)
    if c.ndim != 2 or c.shape[1] not in (2, 3) or j.size != al.spin_components(c.shape[1]):
        raise InvalidConfig(f"bad dual value: c must be (N+1, dim) and j must have one entry "
                            f"per rotation generator, got shapes {c.shape} and {j.shape}")
    _finite("dual", np.concatenate([[m, h, d, k], j, c.ravel()]))
    if not m > 0:
        raise InvalidConfig(f"m must be positive, got {m}")
    alg = al.build_algebra(c.shape[0] - 1, c.shape[1], central=True)
    return alg, co.pack_dual(alg, m, j, c, h, d, k)[None]


def cmd_casimir_eval(args) -> int:
    alg, V = _load_dual(args.dual)
    try:
        c1, c2, c3 = (float(C[0]) for C in co.casimir_values(alg, V))
    except NonFiniteResult as exc:
        raise InvalidConfig(str(exc))
    _emit({"schema_version": SCHEMA_VERSION, "C1": c1, "C2": c2, "C3": c3}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _load_run_config(path: str) -> dict:
    cfg = _load_json(path)
    try:
        return _parse_run_config(cfg)
    except (TypeError, ValueError, InvalidState, UnsupportedHamiltonian) as exc:
        raise InvalidConfig(f"bad config value: {exc}")


def _parse_run_config(cfg) -> dict:
    _known_keys(cfg, RUN_CONFIG_KEYS)
    for key in ("N", "dim", "m", "dt", "T"):
        if key not in cfg:
            raise InvalidConfig(f"missing required config key {key!r}")
    N, dim = _integer("N", cfg["N"]), _integer("dim", cfg["dim"])
    al.check_family(N, dim, central=True)
    method = cfg.get("method", "rk4")
    if method not in ("rk4", "closed"):
        raise InvalidConfig(f"unknown method {method!r}")
    ham_tag = cfg.get("hamiltonian", "free")
    if ham_tag == "newton_hooke" and method == "closed":
        raise InvalidConfig("closed-form sampling covers the free flow only")
    ham = dy.HamiltonianChoice(ham_tag, omega=_number("omega", cfg.get("omega", 0.0)),
                               sign=_integer("sign", cfg.get("sign", 1)))
    want = {"q": (po.q_levels(N, dim), dim), "p": (po.p_levels(N, dim), dim)}
    given = {key: _array(key, cfg[key]) for key in want if key in cfg}
    if any(block.shape != want[key] for key, block in given.items()):
        got = " ".join(f"{key}:{block.shape}" for key, block in given.items())
        raise InvalidConfig(f"initial blocks must be q:{want['q']} p:{want['p']}, got {got}")
    try:  # a default block is zeros
        q, p = (given[key] if key in given else np.zeros(want[key]) for key in "qp")
    except MemoryError:
        raise InvalidConfig(f"N={N} is too large: its initial blocks do not fit in memory")
    tol = _tolerance("classify_tol", cfg.get("classify_tol", 1e-9))
    try:
        s, chi, label = _resolve_internal(cfg, dim, tol)
    except (LabelMismatch, AmbiguousClass) as exc:
        raise InvalidConfig(str(exc))
    m = label.m
    dt, T = _number("dt", cfg["dt"]), _number("T", cfg["T"])
    tol_fit_default = vf.DEFAULT_TOLERANCES["fit_closed" if method == "closed" else "fit_rk4"]
    return {
        "N": N, "dim": dim, "m": m, "method": method, "ham": ham,
        "pt": po.PhasePoint(q=q, p=p, s=s, chi=chi, m=m),
        "dt": dt, "T": T,
        "csv": cfg.get("csv"), "summary": cfg.get("summary"),
        "tol_conservation": _tolerance("tol_conservation", cfg.get(
            "tol_conservation", vf.DEFAULT_TOLERANCES["integrator"])),
        "tol_fit": _tolerance("tol_fit", cfg.get("tol_fit", tol_fit_default)),
        "raw": cfg,
    }


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args.config)
    try:
        traj = dy.integrate(cfg["pt"], cfg["ham"], cfg["T"], cfg["dt"], cfg["method"])
    except (BadStep, NonFiniteResult, InvalidState) as exc:  # InvalidState: the run overflows
        raise InvalidConfig(str(exc))
    files = [(cfg["csv"], dy.trajectory_csv_text(traj))] if cfg["csv"] is not None else []
    drifts, drift_times = dy.conservation_drifts(traj)
    rec = traj.recorded
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg["raw"],
        "samples": len(traj.times),
        "drifts": drifts,
        "drift_times": drift_times,
        "tolerances": {"conservation": cfg["tol_conservation"], "fit": cfg["tol_fit"]},
        "casimirs": {"C1": float(rec["C1"][0]), "C2": float(rec["C2"][0]),
                     "C3": float(rec["C3"][0])},
    }
    passed = all(v <= cfg["tol_conservation"] for v in drifts.values())
    if cfg["ham"].free and len(traj.times) >= traj.N + 3:
        residual, diff = dy.verify_motion_order(traj)
        threshold = dy.conditioning_threshold(traj)
        summary["motion_order"] = {
            "degree": traj.N, "fit_residual": residual,
            "scaled_difference": diff, "difference_threshold": threshold,
            "allowed_residual": cfg["tol_fit"],
        }
        passed = passed and residual <= cfg["tol_fit"] and diff <= threshold
    summary["passed"] = bool(passed)
    _emit(summary, args.out if cfg["summary"] is None else cfg["summary"], files)
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _check_tols(tols) -> dict:
    """Tolerance overrides {name: float}; each must name a default tolerance
    and be a _tolerance."""
    if not isinstance(tols, dict):
        raise InvalidConfig(f"tolerances must be an object, got {type(tols).__name__}")
    unknown = set(tols) - set(vf.DEFAULT_TOLERANCES)
    if unknown:
        raise InvalidConfig(f"unknown tolerances {sorted(unknown)}")
    return {name: _tolerance(f"tolerance {name}", value) for name, value in tols.items()}


def _parse_tols(pairs) -> dict:
    """{name: float} of the --tol name=value items."""
    tols = {}
    for item in pairs or []:
        name, eq, value = item.partition("=")
        if not eq:
            raise InvalidConfig(f"tolerance override must be name=value, got {item!r}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise InvalidConfig(f"tolerance {name} must be a number, got {value!r}")
    return tols


def _check_seed(seed) -> int:
    value = _integer("seed", seed)
    if value < 0:
        raise InvalidConfig(f"seed must be nonnegative, got {value}")
    return value


def _verify(which: str, seed, tolerances, out: Optional[str]) -> int:
    """Run the suites of which at seed with the tolerance overrides, both
    checked, and emit the report to out (stdout without one); exit 1 if a
    case failed."""
    report = vf.run_suites(which, seed=_check_seed(seed), tolerances=_check_tols(tolerances))
    _emit(report, out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_verify(args) -> int:
    return _verify(args.suite, args.seed, _parse_tols(args.tol), args.out)


def cmd_symmetry_verify(args) -> int:
    cfg = _known_keys(_load_json(args.config), SYMMETRY_CONFIG_KEYS)
    return _verify("symmetry", cfg.get("seed", 42), cfg.get("tolerances", {}),
                   cfg.get("report") if args.out is None else args.out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_algebra_flags(p) -> None:
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--central", action="store_true")
    p.add_argument("--with-ds", dest="with_ds", action="store_true")
    p.add_argument("-o", "--out", default=None)


# Built once per process: building costs about as much as a short command,
# and parse_args leaves the parser as it was.
@cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="galconf",
        description="Exact construction and verification of conformal "
                    "extensions of Galilei symmetry, their coadjoint orbits "
                    "and orbit dynamics.")
    sub = ap.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="structure-constant table tools")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    chk = alg_sub.add_parser("check", help="exact identity checks")
    _add_algebra_flags(chk)
    chk.set_defaults(func=cmd_algebra_check)
    dmp = alg_sub.add_parser("dump", help="dump the table as JSON")
    _add_algebra_flags(dmp)
    dmp.set_defaults(func=cmd_algebra_dump)

    orb = sub.add_parser("orbit", help="orbit classification and parametrization")
    orb_sub = orb.add_subparsers(dest="subcommand", required=True)
    ocl = orb_sub.add_parser("classify")
    # argparse reads "-1e-5" or "-inf" as an option unless it matches this
    # pattern, whose default covers only plain decimals
    ocl._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)
    ocl.add_argument("--chi", type=float, nargs=3, required=True)
    ocl.add_argument("--tol", type=float, default=1e-9)
    ocl.add_argument("-o", "--out", default=None)
    ocl.set_defaults(func=cmd_orbit_classify)
    opa = orb_sub.add_parser("parametrize")
    opa.add_argument("--config", required=True)
    opa.add_argument("-o", "--out", default=None)
    opa.set_defaults(func=cmd_orbit_parametrize)

    cas = sub.add_parser("casimir", help="Casimir evaluation")
    cas_sub = cas.add_subparsers(dest="subcommand", required=True)
    cev = cas_sub.add_parser("eval")
    cev.add_argument("--dual", required=True, help="dual point JSON, as orbit parametrize writes")
    cev.add_argument("-o", "--out", default=None)
    cev.set_defaults(func=cmd_casimir_eval)

    sim = sub.add_parser("simulate", help="run a configured trajectory")
    sim.add_argument("--config", required=True)
    sim.add_argument("-o", "--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    sym = sub.add_parser("symmetry", help="symmetry transformation checks")
    sym_sub = sym.add_subparsers(dest="subcommand", required=True)
    svf = sym_sub.add_parser("verify")
    svf.add_argument("--config", required=True)
    svf.add_argument("-o", "--out", default=None)
    svf.set_defaults(func=cmd_symmetry_verify)

    ver = sub.add_parser("verify", help="run property suites")
    ver.add_argument("suite", nargs="?", default="all",
                     choices=["all"] + vf.suite_names())
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--tol", action="append", metavar="NAME=VALUE",
                     help="tolerance override (repeatable)")
    ver.add_argument("-o", "--out", default=None)
    ver.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GalconfError as exc:
        sys.stderr.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        bad_input = isinstance(exc, (InvalidConfig, BadDimension, UnsupportedExtension))
        return EXIT_BAD_INPUT if bad_input else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
