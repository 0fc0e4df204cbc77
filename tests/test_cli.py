"""Exit-code contract, artifacts and determinism of the command line."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galconf import algebra as al
from galconf import coadjoint as co
from galconf import dynamics as dy
from galconf import poisson as po
from galconf.cli import RUN_CONFIG_KEYS, _dual_json, _load_dual, main
from galconf.errors import GalconfError
from galconf.verify import ACCEPTANCE_ALGEBRAS, DEFAULT_TOLERANCES, run_suites


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def algebra_suite(tmp_path_factory):
    """The cases of the `verify algebra` report, by name."""
    out = tmp_path_factory.mktemp("verify") / "report.json"
    assert main(["verify", "algebra", "-o", str(out)]) == 0
    return {c["name"]: c for c in json.loads(out.read_text())["suites"]["algebra"]}


class TestAlgebraCommands:
    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "algebra", "check", "--N", "3",
                               "--dim", "3", "--central")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} >= {"jacobi", "antisymmetry"}

    def test_check_rejects_bad_extension(self, capsys):
        code, _, err = run_cli(capsys, "algebra", "check", "--N", "2",
                               "--dim", "3", "--central")
        assert code == 2
        assert "UnsupportedExtension" in err

    def test_check_rejects_the_unbuilt_planar_extension(self, capsys):
        code, _, err = run_cli(capsys, "algebra", "check", "--N", "3",
                               "--dim", "2", "--central")
        assert code == 2
        assert "UnsupportedExtension" in err and "does not build" in err

    def test_check_rejects_bad_dimension(self, capsys):
        code, _, err = run_cli(capsys, "algebra", "check", "--N", "1", "--dim", "5")
        assert code == 2
        assert "BadDimension" in err

    @pytest.mark.parametrize("N,dim", [(31, 3), (30, 2)])
    def test_check_exact_at_scale(self, capsys, N, dim):
        code, out, _ = run_cli(capsys, "algebra", "check", "--N", str(N),
                               "--dim", str(dim), "--central")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["jacobi"]["defect"] == 0 and checks["jacobi"]["detail"] == ""
        assert set(checks) == {"jacobi", "antisymmetry", "mass_central"}
        assert all(c["passed"] for c in checks.values())

    @pytest.mark.parametrize("N,dim,central,ds", ACCEPTANCE_ALGEBRAS)
    def test_check_reports_the_cases_of_verify_algebra(self, capsys, algebra_suite,
                                                       N, dim, central, ds):
        # both commands read one list of per-algebra checks
        argv = ["algebra", "check", "--N", str(N), "--dim", str(dim)]
        code, out, err = run_cli(capsys, *argv, *["--central"] * central, *["--with-ds"] * ds)
        assert code == 0, err
        tag = f"N{N}_dim{dim}" + ("_central" if central else "_plain") + ("_ds" if ds else "")
        case_names = {"jacobi": f"jacobi_{tag}", "antisymmetry": f"antisymmetry_{tag}",
                      "mass_central": f"mass_central_N{N}_dim{dim}"}
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == list(case_names)[:3 if central else 2]
        for check in checks:
            case = algebra_suite[case_names[check["name"]]]
            assert (check["defect"], check["detail"]) == (case["defect"], case["detail"])

    def test_dump_contains_dilatation_row(self, capsys):
        code, out, _ = run_cli(capsys, "algebra", "dump", "--N", "1",
                               "--dim", "3", "--central")
        assert code == 0
        rows = {(r["lhs"], r["rhs"]): r["results"]
                for r in json.loads(out)["brackets"]}
        assert rows[("D", "H")] == [{"gen": "H", "num": 1, "den": 1}]


class TestOrbitCommands:
    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "classify", "--chi", "2", "0", "0")
        assert code == 0
        data = json.loads(out)
        assert data["tag"] == "HplusSigma"
        assert data["sigma"] == pytest.approx(2.0)

    def test_classify_reads_a_negative_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "classify", "--chi", "-1e-5", "0", "0")
        assert code == 0
        assert json.loads(out)["tag"] == "Hminus0"

    def test_classify_ambiguous_is_failure(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "classify",
                               "--chi", "0", "1e-4", "1e-4", "--tol", "1e-6")
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("argv,message", [
        (["--chi", "1", "0", "0", "--tol", "-1"], "tol must be finite and nonnegative"),
        (["--chi", "1", "0", "0", "--tol", "nan"], "tol must be finite and nonnegative"),
        (["--chi", "nan", "0", "0"], "chi must be finite"),
        (["--chi", "inf", "0", "0"], "chi must be finite"),
        (["--chi", "1e200", "0", "0"], "squares overflow"),
        (["--chi", "1e154", "1e154", "0"], "squares overflow"),  # interval 0, length inf
        # a negative number in exponent form or -inf is a value, not an option
        (["--chi", "1", "0", "0", "--tol", "-1e-9"], "tol must be finite and nonnegative"),
        (["--chi", "-inf", "0", "0"], "chi must be finite"),
    ])
    def test_classify_rejects_bad_input(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "orbit", "classify", *argv)
        assert code == 2
        assert out == ""
        assert message in json.loads(err)["error"]

    def test_parametrize_and_casimir_chain(self, capsys, tmp_path):
        cfg = tmp_path / "orbit.json"
        cfg.write_text(json.dumps({
            "m": 1.0, "s": [0.0, 0.0, 2.0], "chi": [0.0, 0.0, 0.0],
            "x": [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        }))
        dual_path = tmp_path / "dual.json"
        code, _, _ = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg),
                             "-o", str(dual_path))
        assert code == 0
        dual = json.loads(dual_path.read_text())["dual"]
        assert dual["h"] == pytest.approx(0.5)
        assert dual["j"] == [0.0, 0.0, 3.0]
        code, out, _ = run_cli(capsys, "casimir", "eval", "--dual", str(dual_path))
        assert code == 0
        cas = json.loads(out)
        assert cas["C2"] == pytest.approx(4.0, abs=1e-12)
        assert cas["C3"] == pytest.approx(0.0, abs=1e-12)

    def test_parametrize_label_mismatch(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "m": 1.0, "s": [0.0, 0.0, 1.0],
            "chi": [2.0, 0.0, 0.0], "chi_class": "Origin",
            "x": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        }))
        code, out, _ = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 1

    def test_parametrize_sigma_mismatch(self, capsys, tmp_path):
        # the same keys simulate rejects with exit 2
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": 1.0, "chi": [2.0, 0.0, 0.0], "chi_class": "HplusSigma",
                                   "sigma": 1.0, "x": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}))
        code, out, _ = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 1
        assert json.loads(out)["error"] == "sigma 2.0 does not match label value 1.0"

    def test_parametrize_rejects_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": 1.0, "chi_clas": "Origin",
                                   "x": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}))
        code, out, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "chi_clas" in json.loads(err)["error"]

    @pytest.mark.parametrize("key,value", [
        ("x", [["-1.0", 0.0, 0.0], [0.0, 1.0, 0.0]]),
        ("x", [[True, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        ("s", [0.0, 0.0, "2"]),
        ("chi", [0.0, False, 0.0]),
    ])
    def test_parametrize_rejects_string_and_bool_entries(self, capsys, tmp_path, key, value):
        # numeric strings and booleans in an array used to be read by np.asarray and run
        config = {"m": 1.0, "s": [0.0, 0.0, 2.0], "chi": [0.0, 0.0, 0.0],
                  "x": [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(config, **{key: value})))
        code, out, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{key} must hold numbers" in json.loads(err)["error"]

    def test_parametrize_missing_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": 1.0}))
        code, _, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("config", [
        {"m": 1.0, "x": "abc"},
        {"m": 1.0, "s": [0.0, 1.0], "x": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
        {"m": 1.0, "x": [0.0, 0.0, 0.0]},
    ])
    def test_parametrize_bad_value(self, capsys, tmp_path, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("x,s,j", [
        # a nesting with the right number of entries used to be flattened:
        # s = [[0, 0, 1]] or [[0], [0], [1]] exited 0 with j = [0, 0, 1]
        ([[0.0] * 3] * 2, [[0.0, 0.0, 1.0]], None),
        ([[0.0] * 3] * 2, [[0.0], [0.0], [1.0]], None),
        ([[0.0] * 3] * 2, 1.0, None),
        ([[0.0] * 3] * 2, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]),
        ([[0.0] * 2] * 3, 1.0, [1.0]),  # the bare spin of dimension 2
        ([[0.0] * 2] * 3, [1.0], [1.0]),
        ([[0.0] * 2] * 3, [[1.0]], None),
    ])
    def test_parametrize_reads_a_spin_of_spin_components_entries(self, capsys, tmp_path,
                                                                 x, s, j):
        cfg = tmp_path / "orbit.json"
        cfg.write_text(json.dumps({"m": 1.0, "s": s, "x": x}))
        code, out, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        if j is None:
            assert code == 2
            assert out == ""
            assert "InvalidConfig: s must hold" in json.loads(err)["error"]
        else:
            assert code == 0, err
            assert json.loads(out)["dual"]["j"] == j

    @pytest.mark.parametrize("overrides", [
        {"s": [0.0, float("nan"), 1.0]},
        {"chi": [float("nan"), 0.0, 0.0]},
        {"chi_class": "HplusSigma", "sigma": float("nan")},
        {"x": [[0.0, float("inf"), 0.0], [0.0, 0.0, 0.0]]},
        {"x": [[0.0, float("nan"), 0.0], [0.0, 0.0, 0.0]]},
    ])
    def test_parametrize_rejects_non_finite_input(self, capsys, tmp_path, overrides):
        # these used to exit 1 as an ambiguous class, or 0 with NaN in the output
        config = {"m": 1.0, "s": [0.0, 0.0, 1.0], "x": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(config, **overrides)))
        code, out, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "must be finite" in json.loads(err)["error"]

    @pytest.mark.parametrize("overrides,message", [
        ({"chi_class": "Bogus"}, "unknown orbit tag 'Bogus'"),
        ({"chi_class": "HplusSigma", "sigma": -1}, "sigma must be nonnegative"),
        ({"chi_class": "HplusSigma", "sigma": 1e200},
         "chi=[1e+200, 0.0, 0.0] is too large: its squares overflow"),
    ])
    def test_parametrize_rejects_bad_orbit_label(self, capsys, tmp_path, overrides, message):
        # these used to exit 1 with the error on stdout, as a verification failure
        config = {"m": 1, "x": [[0, 0, 0], [0, 0, 0]]}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(config, **overrides)))
        code, out, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"InvalidConfig: {message}"

    @pytest.mark.parametrize("sigma", [{}, {"sigma": 0.0}])
    @pytest.mark.parametrize("tag", ["HplusSigma", "HminusSigma", "HyperbolicSigma"])
    def test_parametrize_rejects_a_sigma_orbit_class_at_sigma_0(self, capsys, tmp_path,
                                                               tag, sigma):
        # these used to exit 1: the chi of sigma 0 classifies as Origin
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": 1, "x": [[0, 0, 0], [0, 0, 0]], "chi_class": tag,
                                   **sigma}))
        code, out, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"InvalidConfig: {tag} requires sigma > 0"

    def test_parametrize_rejects_an_overflowing_dual(self, capsys, tmp_path):
        # finite x whose translation overflows used to print Infinity and exit 0
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"m": 1.0, "x": [[1e200, 0.0, 0.0], [1e200, 0.0, 0.0]],
                                   "chi": [1.0, 0.0, 0.0]}))
        code, out, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == \
            "InvalidConfig: x is too large: the parametrized dual has non-finite ['h', 'd', 'k']"

    @pytest.mark.parametrize("m", [-1.0, 0.0, float("nan")])
    def test_parametrize_rejects_bad_mass(self, capsys, tmp_path, m):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": m, "x": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}))
        code, out, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "m must be finite and positive" in json.loads(err)["error"]

    @pytest.mark.parametrize("x", [[[0.0] * 3] * 3, [[0.0] * 2] * 2])
    def test_parametrize_rejects_family_without_central_extension(self, capsys, tmp_path, x):
        # x for N=2 in dim 3 or N=1 in dim 2 used to exit 0 and print a dual vector
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": 1.0, "x": x}))
        code, out, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "UnsupportedExtension" in json.loads(err)["error"]


def test_admissibility_gates_build_no_algebra(capsys, tmp_path, monkeypatch):
    """simulate and orbit parametrize check (N, dim) with check_family; a run
    of either builds no structure table, and the gates still reject."""
    def refuse(*args, **kwargs):
        raise AssertionError("build_algebra was called")
    monkeypatch.setattr(al, "build_algebra", refuse)
    cfg = write_free_config(tmp_path, T=0.01, dt=0.005)
    assert run_cli(capsys, "simulate", "--config", str(cfg))[0] == 0
    orbit = tmp_path / "orbit.json"
    orbit.write_text(json.dumps({"m": 1.0, "x": [[0.5, 0.0, 0.0], [0.0, 1.0, 0.0]]}))
    assert run_cli(capsys, "orbit", "parametrize", "--config", str(orbit))[0] == 0
    orbit.write_text(json.dumps({"m": 1.0, "x": [[0.0] * 3] * 3}))
    code, _, err = run_cli(capsys, "orbit", "parametrize", "--config", str(orbit))
    assert code == 2 and "UnsupportedExtension" in json.loads(err)["error"]
    cfg = write_free_config(tmp_path, N=2, q=[[0.0] * 3] * 2, p=[[0.0] * 3])
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and "UnsupportedExtension" in json.loads(err)["error"]


DUAL_3D = {"m": 1.0, "h": 0.5, "d": 0.0, "k": 0.5, "j": [0.0, 0.0, 3.0],
           "c": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]}
DUAL_2D = {"m": 1.5, "h": 0.2, "d": 0.1, "k": -0.3, "j": [0.4],
           "c": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}


# an orbit parametrize config per family, without x; (2, 2) has a bare-number spin
ORBIT_CONFIGS = {
    (1, 3): {"m": 1.3, "s": [0.2, -0.4, 0.9], "chi": [1.5, 0.3, -0.2]},
    (3, 3): {"m": 0.7, "s": [0.1, 0.5, -0.3], "chi_class": "HyperbolicSigma", "sigma": 1.2},
    (2, 2): {"m": 1.1, "s": -0.7, "chi": [0.2, 0.9, 0.0]},
    (4, 2): {"m": 0.6, "s": [0.35], "chi_class": "HplusSigma", "sigma": 0.8},
}


class TestCasimirEval:
    @pytest.mark.parametrize("N,dim", ORBIT_CONFIGS)
    def test_dual_json_boundary(self, capsys, tmp_path, N, dim):
        """orbit parametrize -> casimir eval gives the printed on-orbit values,
        and a "dual" read and written again keeps its bytes."""
        x = np.random.default_rng(N + dim).uniform(-1, 1, (N + 1, dim))
        cfg = dict(ORBIT_CONFIGS[N, dim], x=x.tolist())
        cfg_path, dual_path = tmp_path / "orbit.json", tmp_path / "dual.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "orbit", "parametrize", "--config", str(cfg_path),
                               "-o", str(dual_path))
        assert code == 0, err
        code, out, err = run_cli(capsys, "casimir", "eval", "--dual", str(dual_path))
        assert code == 0, err
        cas, text = json.loads(out), dual_path.read_text()
        label = json.loads(text)["label"]
        m, s = cfg["m"], np.reshape(cfg["s"], -1)
        interval = co.chi_interval(co.chi_for_class(
            co.OrbitClass(label["chi_class"], label["sigma"])))
        assert cas["C1"] == m
        assert cas["C2"] == pytest.approx(m * m * (s @ s) if dim == 3 else m * s[0], abs=1e-12)
        assert cas["C3"] == pytest.approx(2 * m * m * interval, abs=1e-12)
        alg, V = _load_dual(str(dual_path))
        again = dict(json.loads(text), dual=_dual_json(*co.dual_fields(alg, V[0])))
        assert json.dumps(again, indent=2, sort_keys=True) + "\n" == text

    def test_dim2_dual(self, capsys, tmp_path):
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(DUAL_2D))
        code, out, _ = run_cli(capsys, "casimir", "eval", "--dual", str(path))
        assert code == 0
        assert json.loads(out)["C2"] == pytest.approx(1.5 * 0.4, abs=1e-15)

    @pytest.mark.parametrize("data", [
        {k: v for k, v in DUAL_3D.items() if k != "c"},   # KeyError traceback
        dict(DUAL_3D, j=[0.0, 3.0]),                        # ValueError traceback
        [DUAL_3D],                                          # AttributeError traceback
        dict(DUAL_3D, m=-1.0, h=float("nan")),              # exit 0, printed C3: NaN
        dict(DUAL_2D, j=[]),                                # silently read as j = 0
        {"dual": [DUAL_2D]},
        dict(DUAL_3D, m="1.5"),                             # numeric strings were read by float()
        dict(DUAL_3D, h="0.25"),
        dict(DUAL_2D, d="-1"),
        dict(DUAL_2D, k=True),
        dict(DUAL_3D, c=[[0.0, 1.0, 0.0], [1.0, 0.0]]),
        dict(DUAL_3D, m=0),
    ], ids=["missing_c", "short_j", "list", "negative_m_nan_h", "empty_j_2d", "dual_list",
            "string_m", "string_h", "string_d_2d", "bool_k_2d", "ragged_c", "zero_m"])
    def test_malformed_dual_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "casimir", "eval", "--dual", str(path))
        assert code == 2
        assert out == ""
        assert "InvalidConfig" in json.loads(err)["error"]

    @pytest.mark.parametrize("data", [
        dict(DUAL_3D, j=[0.0, 0.0, "3"]),
        dict(DUAL_2D, j=[True]),
        dict(DUAL_3D, c=[["0", 0.0, 0.0], [0.0, 0.0, 0.0]]),
        dict(DUAL_3D, c=[[0.0, 0.0, 0.0], [0.0, False, 0.0]]),
    ], ids=["string_j", "bool_j_2d", "string_c", "bool_c"])
    def test_string_and_bool_entries_exit_2(self, capsys, tmp_path, data):
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "casimir", "eval", "--dual", str(path))
        assert code == 2
        assert out == ""
        assert "must hold numbers" in json.loads(err)["error"]

    def test_overflowing_casimirs_exit_2(self, capsys, tmp_path):
        # finite input used to print "C2": Infinity with exit 0 and a RuntimeWarning
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(dict(DUAL_3D, m=1e300, h=1e300, k=1e300,
                                        j=[1e300, 0.0, 0.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "casimir", "eval", "--dual", str(path))
        assert code == 2
        assert out == ""
        assert "InvalidConfig: Casimirs of a finite dual vector overflow" in \
            json.loads(err)["error"]


def write_free_config(tmp_path, **overrides):
    cfg = {
        "N": 1, "dim": 3, "m": 1.0,
        "s": [0.0, 0.0, 0.5],
        "chi_class": "HplusSigma", "sigma": 1.0,
        "q": [[0.4, 0.0, 0.0]], "p": [[0.0, 0.3, 0.0]],
        "hamiltonian": "free",
        "dt": 1e-3, "T": 1.0, "method": "rk4",
        "csv": str(tmp_path / "traj.csv"),
        "summary": str(tmp_path / "summary.json"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_free_schrodinger_run(self, capsys, tmp_path):
        cfg = write_free_config(tmp_path)
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["motion_order"]["degree"] == 1
        assert summary["motion_order"]["fit_residual"] < 1e-9
        header = (tmp_path / "traj.csv").read_text().split("\n")[0]
        assert header.startswith("t,q0_1")

    def test_free_higher_order_run(self, capsys, tmp_path):
        cfg = write_free_config(
            tmp_path, N=3,
            q=[[0.3, 0.0, 0.0], [0.0, 0.2, 0.0]],
            p=[[0.0, 0.1, 0.0], [0.4, 0.0, 0.0]])
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["motion_order"]["degree"] == 3
        assert summary["motion_order"]["fit_residual"] < 1e-7

    def test_newton_hooke_run(self, capsys, tmp_path):
        two_pi = 2 * np.pi
        cfg = write_free_config(
            tmp_path, hamiltonian="newton_hooke", omega=1.0, sign=1,
            q=[[1.0, 0.0, 0.0]], p=[[0.0, 0.0, 0.0]],
            T=two_pi, dt=two_pi / 6283)
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["drifts"]["deformed_energy"] < 1e-8

    def test_newton_hooke_higher_order_run(self, capsys, tmp_path):
        cfg = write_free_config(
            tmp_path, hamiltonian="newton_hooke", omega=1.0, sign=1, N=3,
            q=[[0.3, 0.0, 0.0], [0.0, 0.2, 0.0]], p=[[0.0, 0.1, 0.0], [0.4, 0.0, 0.0]])
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0, err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["drifts"]["deformed_energy"] <= 1e-8

    @pytest.mark.parametrize("method,fit", [("rk4", "fit_rk4"), ("closed", "fit_closed")])
    def test_default_tolerances_are_the_suites(self, capsys, tmp_path, method, fit):
        cfg = write_free_config(tmp_path, method=method)
        run_cli(capsys, "simulate", "--config", str(cfg))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["tolerances"] == {"conservation": DEFAULT_TOLERANCES["integrator"],
                                         "fit": DEFAULT_TOLERANCES[fit]}

    def test_drift_times_name_the_worst_sample(self, capsys, tmp_path):
        cfg = write_free_config(tmp_path)
        run_cli(capsys, "simulate", "--config", str(cfg))
        summary = json.loads((tmp_path / "summary.json").read_text())
        rows = np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1)
        header = (tmp_path / "traj.csv").read_text().split("\n")[0].split(",")
        h = rows[:, header.index("h")]
        i = int(np.argmax(np.abs(h - h[0])))
        assert summary["drift_times"]["h"] == rows[i, 0]
        assert set(summary["drift_times"]) == set(summary["drifts"])

    @pytest.mark.parametrize("overrides", [
        {"method": "leapfrog"},
        {"hamiltonian": "newton_hooke", "omega": 1.0, "N": 3, "method": "closed",
         "q": [[0, 0, 0], [0, 0, 0]], "p": [[0, 0, 0], [0, 0, 0]]},
        {"q": [[0.0, 0.0]]},
        {"m": -1.0},
        {"dt": 2.0},
        {"N": 2},
        {"chi": [0.0, 2.0, 0.0], "chi_class": "HplusSigma", "sigma": 2.0},
        {"dt": "x"},
        {"s": [0.0, 1.0]},
        {"q": [[float("nan"), 0.0, 0.0]]},
        {"T": float("inf")},
        {"hamiltonian": "newton_hooke", "omega": float("nan")},
        {"hamiltonian": "newton_hooke", "omega": float("inf")},
        {"hamiltonian": "newton_hooke", "omega": 1e200},
        {"hamiltonian": "newton_hooke", "omega": 1.0, "sign": 0},
        {"chi": [1.0, 0.0, 0.0], "classify_tol": float("nan")},
        {"chi": [1.0, 0.0, 0.0], "classify_tol": -1e-9},
        {"chi": [1e200, 0.0, 0.0], "chi_class": "Hplus0", "sigma": 0.0},
        {"q": [[1e300, 0.0, 0.0]], "p": [[1e300, 0.0, 0.0]]},
        # a finite start whose trajectory overflows used to exit 1 with InvalidState
        {"hamiltonian": "newton_hooke", "omega": 50.0, "sign": -1, "T": 20.0, "dt": 0.01},
        # integer keys used to be truncated or read by int(): these ran N=1, dim=3, sign=+1
        {"N": 1.9},
        {"N": True},
        {"dim": 3.2},
        {"dim": "3"},
        {"hamiltonian": "newton_hooke", "omega": 1.0, "sign": 1.7},
        {"hamiltonian": "newton_hooke", "omega": 1.0, "sign": True},
        {"hamiltonian": "newton_hooke", "omega": 1.0, "sign": "-1"},
        # numeric strings and booleans used to be read by float() and run
        {"m": "1.0"},
        {"m": True},
        {"dt": "0.001"},
        {"T": "1"},
        {"hamiltonian": "newton_hooke", "omega": "1.0"},
        {"sigma": "1.0"},
        {"tol_conservation": "1e-8"},
        {"tol_fit": "1e-7"},
        {"chi": [1.0, 0.0, 0.0], "classify_tol": "1e-9"},
        {"m": 10 ** 400},
        # a free run takes no oscillator parameters; these used to be dropped
        {"omega": 2.0},
        {"sign": -1},
        # horizons whose samples do not fit in the address space used to exit 1
        # with an OverflowError or a MemoryError traceback
        {"T": 1e300, "dt": 1e-10},
        {"T": 1e15, "dt": 1.0},
    ])
    def test_invalid_configs_exit_2(self, capsys, tmp_path, overrides):
        cfg = write_free_config(tmp_path, **overrides)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2, err
        assert "error" in json.loads(err)
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("sigma", [None, 0.0])
    @pytest.mark.parametrize("tag", ["HplusSigma", "HminusSigma", "HyperbolicSigma"])
    def test_a_sigma_orbit_class_at_sigma_0_exits_2(self, capsys, tmp_path, tag, sigma):
        # without chi these used to run at the origin and exit 0
        cfg = write_free_config(tmp_path, chi_class=tag, sigma=sigma)
        if sigma is None:
            cfg.write_text(json.dumps({k: v for k, v in json.loads(cfg.read_text()).items()
                                       if k != "sigma"}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"InvalidConfig: {tag} requires sigma > 0"
        assert not (tmp_path / "traj.csv").exists()

    def test_sigma_that_chi_contradicts_exits_2(self, capsys, tmp_path):
        # chi = (2, 0, 0) has sigma 2: a label of sigma 1 used to run and exit 0,
        # while orbit parametrize rejected the same keys
        cfg = write_free_config(tmp_path, chi=[2.0, 0.0, 0.0], sigma=1.0)
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == \
            "InvalidConfig: sigma 2.0 does not match label value 1.0"
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("classify_tol,code", [(1e-9, 2), (1e-5, 0)])
    def test_sigma_is_compared_at_classify_tol(self, capsys, tmp_path, classify_tol, code):
        cfg = write_free_config(tmp_path, chi=[2.0, 0.0, 0.0], sigma=2.0 + 1e-6,
                                classify_tol=classify_tol, T=0.01)
        assert run_cli(capsys, "simulate", "--config", str(cfg))[0] == code

    @pytest.mark.parametrize("classify_tol,error", [
        # an ambiguous chi used to escape the check as AmbiguousClass, exit 1
        (1e-9, "InvalidConfig: chi=[0.0, 1e-05, 0.0] sits within tol=1e-09 of the cone"),
        (1e-12, "InvalidConfig: chi classifies as HyperbolicSigma, label says Origin"),
        (1e-4, None),
    ])
    def test_chi_is_checked_against_its_class_at_classify_tol(self, capsys, tmp_path,
                                                              classify_tol, error):
        cfg = write_free_config(tmp_path, chi=[0.0, 1e-5, 0.0], chi_class="Origin", sigma=0.0,
                                classify_tol=classify_tol, T=0.01)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        if error is None:
            assert code == 0, err
        else:
            assert code == 2
            assert json.loads(err)["error"].startswith(error)

    @pytest.mark.parametrize("classify_tol,code", [(1e-9, 2), (1e-12, 0)])
    def test_chi_alone_is_classified_at_classify_tol(self, capsys, tmp_path, classify_tol, code):
        # near the cone: ambiguous at 1e-9, one-sheet at 1e-12
        cfg = write_free_config(tmp_path, chi=[0.0, 1e-5, 0.0], classify_tol=classify_tol, T=0.01)
        cfg.write_text(json.dumps({k: v for k, v in json.loads(cfg.read_text()).items()
                                   if k not in ("chi_class", "sigma")}))
        assert run_cli(capsys, "simulate", "--config", str(cfg))[0] == code

    def test_a_bad_classify_tol_is_rejected_without_chi(self, capsys, tmp_path):
        cfg = write_free_config(tmp_path, classify_tol=-1.0)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["error"] == \
            "InvalidConfig: classify_tol must be finite and nonnegative, got -1.0"

    @pytest.mark.parametrize("overrides", [
        {"q": [["0.4", "0", "0"]]},
        {"q": [[0.4, True, 0.0]]},
        {"p": [[0.0, "0.3", 0.0]]},
        {"s": ["0", "0", "0.5"]},
        {"s": [0.0, False, 0.5]},
        {"chi": [1.0, "0", 0.0]},
        {"N": 2, "dim": 2, "s": "0.5", "q": [[0, 0], [0, 0]], "p": [[0, 0]]},
    ])
    def test_string_and_bool_array_entries_exit_2(self, capsys, tmp_path, overrides):
        # np.asarray(..., dtype=float) used to parse these and the run exited 0
        cfg = write_free_config(tmp_path, **overrides)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2, err
        assert "must hold numbers" in json.loads(err)["error"]
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("key", ["tol_conservation", "tol_fit"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_bad_run_tolerances_exit_2(self, capsys, tmp_path, key, value):
        # a negative or NaN allowance used to fail every check and exit 1
        cfg = write_free_config(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2, err
        assert f"{key} must be finite and nonnegative" in json.loads(err)["error"]
        assert not (tmp_path / "traj.csv").exists()

    def test_unknown_key_is_rejected_by_name(self, capsys, tmp_path):
        # a misspelled method used to run rk4 and exit 0
        cfg = write_free_config(tmp_path, metod="closed")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "'metod'" in json.loads(err)["error"]
        assert not (tmp_path / "summary.json").exists()

    def test_benchmark_keys_are_accepted(self, capsys, tmp_path):
        cfg = {"N": 1, "dim": 3, "method": "rk4", "m": 1.2,
               "q": [[0.4, 0.0, 0.0]], "p": [[0.0, 0.3, 0.0]],
               "s": [0.0, 0.0, 0.5], "chi": [1.0, 0.0, 0.0], "T": 1.0, "dt": 1e-2,
               "csv": str(tmp_path / "traj.csv"), "summary": str(tmp_path / "summary.json"),
               "hamiltonian": "newton_hooke", "omega": 0.8, "sign": -1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0, err

    PLANAR = {"N": 2, "dim": 2, "q": [[0.4, 0.0], [0.0, 0.1]], "p": [[0.0, 0.3]]}

    @pytest.mark.parametrize("overrides,code", [
        ({"s": [[0.0, 0.0, 0.5]]}, 2),  # these two used to run with s flattened
        ({"s": [[0.0], [0.0], [0.5]]}, 2),
        ({"s": 0.5}, 2),
        ({**PLANAR, "s": 0.5}, 0),  # the bare spin of perfbench's dimension-2 configs
        ({**PLANAR, "s": [0.5]}, 0),
        ({**PLANAR, "s": [[0.5]]}, 2),
        ({**PLANAR, "s": [0.0, 0.5]}, 2),
    ])
    def test_spin_must_have_spin_components_entries(self, capsys, tmp_path, overrides, code):
        cfg = write_free_config(tmp_path, T=0.01, dt=0.005, **overrides)
        got, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert got == code, err
        if code == 2:
            assert "InvalidConfig: s must hold" in json.loads(err)["error"]
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("method", ["rk4", "closed"])
    def test_outputs_are_the_csv_bytes_and_the_summary_json(self, capsys, tmp_path, method):
        """The CSV file holds trajectory_csv_text of the run's trajectory and
        the summary file its indented JSON with a final newline, byte for byte;
        where csv and summary name one path, the summary is what it holds."""
        cfg = write_free_config(tmp_path, T=0.1, dt=0.01, method=method)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0, err
        pt = po.PhasePoint(q=np.array([[0.4, 0.0, 0.0]]), p=np.array([[0.0, 0.3, 0.0]]),
                           s=np.array([0.0, 0.0, 0.5]),
                           chi=co.chi_for_class(co.OrbitClass("HplusSigma", 1.0)), m=1.0)
        want = dy.trajectory_csv_text(dy.integrate(pt, dy.FREE, 0.1, 0.01, method))
        assert (tmp_path / "traj.csv").read_bytes() == want
        raw = (tmp_path / "summary.json").read_bytes()
        summary = json.loads(raw)
        assert summary["samples"] == 11
        assert raw == (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
        same = str(tmp_path / "same")
        cfg = write_free_config(tmp_path, T=0.1, dt=0.01, method=method, csv=same, summary=same)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0, err
        summary["config"].update(csv=same, summary=same)
        assert (tmp_path / "same").read_bytes() == \
            (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()

    def test_readme_table_lists_every_known_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = readme.split("### Run configuration (`galconf simulate`)")[1].splitlines()
        start = lines.index("| key | meaning | default |") + 2  # past the rule row
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        documented = {key for row in rows for key in row.split("|")[1].split("`")[1::2]}
        assert documented == set(RUN_CONFIG_KEYS)

    def test_horizon_must_be_reached(self, capsys, tmp_path):
        # dt = 0.3 used to stop at t = 0.9 and still report a pass
        cfg = write_free_config(tmp_path, dt=0.3, T=1.0)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "does not divide" in json.loads(err)["error"]
        assert not (tmp_path / "summary.json").exists()

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("key", ["csv", "summary"])
    def test_unwritable_output_path_exits_2(self, capsys, tmp_path, key):
        # a path in a missing directory used to end in a FileNotFoundError traceback
        missing = str(tmp_path / "missing" / "out")
        cfg = write_free_config(tmp_path, T=0.01, dt=0.005, **{key: missing})
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"].startswith(f"InvalidConfig: cannot write output "
                                                   f"path {missing!r}")
        # neither output is left: the CSV used to be written before the summary failed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_csv_and_summary_at_one_path_keep_the_summary(self, capsys, tmp_path):
        path = str(tmp_path / "out")
        # the CSV is longer than the summary written over it
        cfg = write_free_config(tmp_path, T=0.1, dt=0.001, csv=path, summary=path)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0, err
        assert json.loads((tmp_path / "out").read_text())["samples"] == 101

    def test_failed_run_leaves_an_existing_output_as_it_was(self, capsys, tmp_path):
        # the rollback of a failed run used to remove every output it had
        # opened, a file that was there before included
        old = tmp_path / "old.csv"
        old.write_text("kept\n")
        missing = str(tmp_path / "missing" / "summary.json")
        cfg = write_free_config(tmp_path, T=0.01, dt=0.005, csv=str(old), summary=missing)
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert f"cannot write output path {missing!r}" in json.loads(err)["error"]
        assert old.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "old.csv"]

    def test_csv_to_a_character_device(self, capsys, tmp_path):
        # each output used to be truncated after it was written, which fails
        # with EINVAL on /dev/null
        cfg = write_free_config(tmp_path, T=0.01, dt=0.005, csv=os.devnull)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0, err
        assert json.loads((tmp_path / "summary.json").read_text())["samples"] == 3

    @pytest.mark.parametrize("key", ["csv", "summary"])
    @pytest.mark.parametrize("value", [["traj.csv"], 1.5, 12345])
    def test_non_string_output_path_exits_2(self, capsys, tmp_path, key, value):
        # open() used to take a list or a float as a TypeError traceback, and an
        # integer as a file descriptor to write to
        cfg = write_free_config(tmp_path, T=0.01, dt=0.005, **{key: value})
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "an output path must be a string" in json.loads(err)["error"]

    @pytest.mark.parametrize("key", ["csv", "summary"])
    @pytest.mark.parametrize("value", [0, False, ""])
    def test_falsy_output_path_exits_2(self, capsys, tmp_path, key, value):
        # a falsy path used to be dropped: "csv": 0 exited 0 without a CSV, and
        # "summary": 0 printed the summary to stdout
        cfg = write_free_config(tmp_path, T=0.01, dt=0.005, **{key: value})
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "InvalidConfig" in json.loads(err)["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("key", ["csv", "summary"])
    def test_output_path_with_a_nul_byte_exits_2(self, capsys, tmp_path, key):
        # open() used to raise "ValueError: embedded null byte" as a traceback
        bad = str(tmp_path / "x\u0000.csv")
        cfg = write_free_config(tmp_path, T=0.01, dt=0.005, **{key: bad})
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"cannot write output path {bad!r}: it holds a NUL byte" \
            in json.loads(err)["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    # Only these sizes: their default blocks exceed the address space, so the
    # allocation fails at once without touching memory.
    @pytest.mark.parametrize("N,dim", [(10 ** 15 + 1, 3), (10 ** 15, 2)])
    def test_a_state_too_large_to_allocate_exits_2(self, capsys, tmp_path, N, dim):
        # the default zero blocks used to end in a MemoryError traceback
        cfg = json.loads(write_free_config(tmp_path, N=N, dim=dim).read_text())
        del cfg["q"], cfg["p"]
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "config.json"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == (f"InvalidConfig: N={N} is too large: its "
                                            f"initial blocks do not fit in memory")

    def test_explicit_blocks_are_checked_before_a_default_is_built(self, capsys, tmp_path):
        # the default p block used to be built, and fail, before q's shape was read
        cfg = json.loads(write_free_config(tmp_path, N=10 ** 15 + 1).read_text())
        del cfg["p"]
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "config.json"))
        assert code == 2
        assert json.loads(err)["error"] == ("InvalidConfig: initial blocks must be "
                                            "q:(500000000000001, 3) p:(500000000000001, 3), "
                                            "got q:(1, 3)")

    def test_deterministic_artifacts(self, capsys, tmp_path):
        cfg = write_free_config(tmp_path)
        run_cli(capsys, "simulate", "--config", str(cfg))
        first_csv = (tmp_path / "traj.csv").read_bytes()
        first_sum = (tmp_path / "summary.json").read_bytes()
        run_cli(capsys, "simulate", "--config", str(cfg))
        assert (tmp_path / "traj.csv").read_bytes() == first_csv
        assert (tmp_path / "summary.json").read_bytes() == first_sum


BAD_NUMBERS = [float("nan"), float("inf"), -1.0, 0.0, "x", None, [1.0]]
BAD_VALUES = {
    "N": [0, 2.5, "3", None, 4],
    "dim": [4, "x", None, 2],
    "m": BAD_NUMBERS,
    "T": BAD_NUMBERS,
    "dt": [0.3, 0.7, -0.1] + BAD_NUMBERS,
    "q": ["x", 1.0, [[0.0]], [[float("nan"), 0.0, 0.0]], [[0.1, 0.2]]],
    "p": ["x", [[float("inf"), 0.0, 0.0]], [[0.1, 0.2, 0.3]] * 3],
    "s": [[0.0, 1.0], 0.5, float("nan"), "x"],
    "chi_class": ["Bogus", 3, "Origin"],
    "sigma": [float("nan"), -1.0, "x"],
    "chi": [[0.0, 2.0], "x", [float("nan"), 0.0, 0.0], [0.0, 2.0, 0.0]],
    "method": ["leapfrog", None],
    "hamiltonian": ["bogus", "newton_hooke"],
    "omega": [float("nan"), -1.0, 0.0, "x", 50.0],
    "sign": [0, 2, "x"],
}


@st.composite
def simulate_configs(draw):
    """A valid simulate config with up to two fields replaced by a wrong type,
    a non-finite value, a mass that is not positive, a mismatched shape, a dt
    that does not divide T, or a missing key; T/dt is at most 200 steps."""
    N, dim = draw(st.sampled_from([(1, 3), (3, 3), (2, 2), (4, 2)]))
    levels = N // 2 + 1
    finite = st.floats(-1.0, 1.0, allow_nan=False)
    vectors = st.lists(st.lists(finite, min_size=dim, max_size=dim),
                       min_size=levels, max_size=levels)
    T = draw(st.sampled_from([0.5, 1.0, 2.0]))
    cfg = {"N": N, "dim": dim, "T": T, "dt": T / draw(st.integers(1, 200)),
           "m": draw(st.floats(0.1, 3.0)), "q": draw(vectors), "p": draw(vectors),
           "s": draw(st.lists(finite, min_size=3, max_size=3) if dim == 3 else finite),
           "chi_class": "HplusSigma", "sigma": draw(st.floats(0.1, 2.0)),
           "method": draw(st.sampled_from(["rk4", "closed"])), "hamiltonian": "free"}
    if draw(st.booleans()):
        cfg.update(hamiltonian="newton_hooke", method="rk4",
                   omega=draw(st.floats(0.1, 3.0)), sign=draw(st.sampled_from([1, -1])))
    for key in draw(st.lists(st.sampled_from(sorted(BAD_VALUES)), max_size=2, unique=True)):
        cfg[key] = draw(st.sampled_from(BAD_VALUES[key]))
    if draw(st.integers(0, 9)) == 0:
        del cfg[draw(st.sampled_from(["N", "dim", "m", "dt", "T"]))]
    return cfg


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cfg=simulate_configs())
def test_simulate_fuzz_never_crashes(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(cfg, csv=str(Path(tmp) / "traj.csv"))
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error" in json.loads(err.getvalue())


def assert_clean_exit(argv, data):
    """Run the CLI on data written as its JSON input file (the last argument):
    exit code in {0, 1, 2}, no traceback, and a JSON error on exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning from an overflow
                code = main(argv + [str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error" in json.loads(err.getvalue())
    if code == 0:  # no silent inf or NaN in what is printed
        assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()


CENTRAL_FAMILIES = [(1, 3), (3, 3), (2, 2), (4, 2)]
INADMISSIBLE_ROWS = [[[0.0] * 3] * 3, [[0.0] * 2] * 2, [[0.0] * 3], [[0.0] * 2]]
BAD_ORBIT_VALUES = {
    "m": BAD_NUMBERS,
    "s": [[0.0, 1.0], "x", None, float("nan"), [float("inf"), 0.0, 0.0], [[0.0]]],
    "chi": [[0.0, 2.0], "x", None, [float("nan"), 0.0, 0.0]],
    "chi_class": ["Bogus", 3, None, "Origin"],
    "sigma": [float("nan"), -1.0, "x"],
    "x": ["x", None, [], [[[0.0]]], [[float("nan"), 0.0, 0.0], [0.0, 0.0, 0.0]]]
         + INADMISSIBLE_ROWS,
}
HUGE = [1e300, -1e300, 1.7e308]
BAD_DUAL_VALUES = {
    "m": BAD_NUMBERS + [1e300],
    "h": [float("nan"), float("inf"), "x", None, [1.0]] + HUGE,
    "k": HUGE,
    "j": [[], [0.0, 1.0], "x", None, [float("nan")], [[0.0, 0.0, 1.0]],
          [1e300], [1e300, 0.0, -1e300]],
    "c": ["x", None, [], [[]], [[float("inf"), 0.0, 0.0], [0.0, 0.0, 0.0]],
          [[1e300, 0.0, 0.0], [0.0, -1e300, 0.0]], [[1e300, 0.0]] * 3]
         + INADMISSIBLE_ROWS,
}
FINITE = st.floats(-1.0, 1.0, allow_nan=False)


def level_rows(N, dim):
    return st.lists(st.lists(FINITE, min_size=dim, max_size=dim),
                    min_size=N + 1, max_size=N + 1)


def spoil(draw, data, bad_values, required):
    """data with up to two fields replaced by bad values, sometimes a required
    key dropped, and sometimes wrapped in a JSON list."""
    for key in draw(st.lists(st.sampled_from(sorted(bad_values)), max_size=2, unique=True)):
        data[key] = draw(st.sampled_from(bad_values[key]))
    if draw(st.integers(0, 9)) == 0:
        del data[draw(st.sampled_from(required))]
    return [data] if draw(st.integers(0, 19)) == 0 else data


@st.composite
def orbit_configs(draw):
    """An orbit parametrize config for an admissible (N, dim), then spoiled."""
    N, dim = draw(st.sampled_from(CENTRAL_FAMILIES))
    spin = st.lists(FINITE, min_size=3, max_size=3) if dim == 3 else \
        st.one_of(FINITE, st.lists(FINITE, min_size=1, max_size=1))
    cfg = {"m": draw(st.floats(0.1, 3.0)), "s": draw(spin), "x": draw(level_rows(N, dim))}
    if draw(st.booleans()):
        cfg.update(chi_class="HplusSigma", sigma=draw(st.floats(0.1, 2.0)))
    else:
        cfg["chi"] = draw(st.lists(FINITE, min_size=3, max_size=3))
    return spoil(draw, cfg, BAD_ORBIT_VALUES, ["m", "x"])


@st.composite
def dual_files(draw):
    """A dual vector JSON for an admissible (N, dim), bare or under "dual", then spoiled."""
    N, dim = draw(st.sampled_from(CENTRAL_FAMILIES))
    n_rot = 3 if dim == 3 else 1
    dual = {"m": draw(st.floats(0.1, 3.0)), "h": draw(FINITE), "d": draw(FINITE),
            "k": draw(FINITE), "j": draw(st.lists(FINITE, min_size=n_rot, max_size=n_rot)),
            "c": draw(level_rows(N, dim))}
    dual = spoil(draw, dual, BAD_DUAL_VALUES, ["m", "h", "d", "k", "j", "c"])
    return {"dual": dual} if draw(st.booleans()) else dual


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cfg=orbit_configs())
def test_parametrize_fuzz_never_crashes(cfg):
    assert_clean_exit(["orbit", "parametrize", "--config"], cfg)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=dual_files())
def test_casimir_eval_fuzz_never_crashes(data):
    assert_clean_exit(["casimir", "eval", "--dual"], data)


NUMBERS = st.one_of(st.floats(), st.floats(-2.0, 2.0), st.sampled_from([1e154, 1e200]))


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(chi=st.lists(NUMBERS, min_size=3, max_size=3), tol=st.one_of(st.none(), NUMBERS))
def test_orbit_classify_fuzz_never_crashes(chi, tol):
    """Exit code in {0, 1, 2}, no traceback or warning, strict JSON on stdout,
    and a JSON error, not argparse usage text, on exit 2."""
    argv = ["orbit", "classify", "--chi"] + [repr(x) for x in chi]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from an overflow
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        json.loads(err.getvalue())
    else:
        json.loads(out.getvalue(), parse_constant=reject_constant)


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "algebra", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert set(report["suites"]) == {"algebra"}

    def test_reports_are_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "poisson", "--seed", "3", "-o", str(a))
        run_cli(capsys, "verify", "poisson", "--seed", "3", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_reports_do_not_depend_on_the_hash_seed(self):
        # the bracket sums used to follow set order, which varies with the hash seed
        for suite in ("poisson", "dynamics"):
            outs = [subprocess.run(
                [sys.executable, "-m", "galconf.cli", "verify", suite, "--seed", "42"],
                capture_output=True, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                check=True).stdout for hash_seed in ("1", "2")]
            assert outs[0] == outs[1], suite

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "quantum"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["verify", "algebra"],
                                      ["algebra", "check", "--N", "1", "--dim", "3"]])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv):
        # -o in a missing directory used to end in a FileNotFoundError traceback
        missing = str(tmp_path / "missing" / "report.json")
        code, out, err = run_cli(capsys, *argv, "-o", missing)
        assert code == 2
        assert out == ""
        assert f"cannot write output path {missing!r}" in json.loads(err)["error"]

    def test_out_to_a_character_device(self, capsys):
        code, out, err = run_cli(capsys, "algebra", "check", "--N", "1", "--dim", "3",
                                 "-o", os.devnull)
        assert (code, out) == (0, ""), err

    @pytest.mark.parametrize("which", [None, ["algebra"], ("orbit",), 5, "quantum"])
    def test_run_suites_takes_all_or_one_suite_name(self, which):
        # None and sequences of names used to be accepted, and 5 raised a TypeError
        with pytest.raises(GalconfError, match="unknown suite"):
            run_suites(which)

    def test_bad_tolerance_override(self, capsys):
        code, _, err = run_cli(capsys, "verify", "algebra", "--tol", "nope=1")
        assert code == 2

    def test_tolerance_override_needs_a_value(self, capsys):
        code, out, err = run_cli(capsys, "verify", "algebra", "--tol", "oracle")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == \
            "InvalidConfig: tolerance override must be name=value, got 'oracle'"

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1e-9"])
    def test_tolerance_override_must_be_finite_nonnegative(self, capsys, value):
        # "abc" used to raise a ValueError traceback; "nan" was accepted
        code, out, err = run_cli(capsys, "verify", "algebra", "--tol", f"oracle={value}")
        assert code == 2
        assert out == ""
        assert "tolerance oracle" in json.loads(err)["error"]

    def test_negative_seed_rejected(self, capsys):
        # the suites seed numpy with seed + k, which raised a ValueError traceback
        code, out, err = run_cli(capsys, "verify", "orbit", "--seed", "-3")
        assert code == 2
        assert out == ""
        assert "seed must be nonnegative" in json.loads(err)["error"]

    def test_each_call_sees_only_its_own_overrides(self, capsys):
        # main reuses one parser; the appended --tol list must not carry over
        seen = []
        for override in (["--tol", "oracle=0.5", "--tol", "route=0.25"],
                         ["--tol", "casimir=0.125"], ["--tol", "oracle=1e-12"]):
            code, out, _ = run_cli(capsys, "verify", "algebra", *override)
            assert code == 0
            seen.append(json.loads(out)["tolerances"])
        assert {k: v for k, v in seen[0].items() if v != DEFAULT_TOLERANCES[k]} \
            == {"oracle": 0.5, "route": 0.25}
        assert {k: v for k, v in seen[1].items() if v != DEFAULT_TOLERANCES[k]} \
            == {"casimir": 0.125}
        assert {k: v for k, v in seen[2].items() if v != DEFAULT_TOLERANCES[k]} \
            == {"oracle": 1e-12}
        code, out, _ = run_cli(capsys, "verify", "algebra")
        assert json.loads(out)["tolerances"] == DEFAULT_TOLERANCES

    def test_tight_tolerance_can_fail(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "orbit", "--seed", "5",
                               "--tol", "oracle=0")
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestSymmetryVerify:
    def test_config_driven_report(self, capsys, tmp_path):
        cfg = tmp_path / "sym.json"
        cfg.write_text(json.dumps({"seed": 11}))
        rep = tmp_path / "rep.json"
        code, _, _ = run_cli(capsys, "symmetry", "verify", "--config", str(cfg),
                             "-o", str(rep))
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["suites"]["symmetry"]}
        assert any(n.startswith("solution_to_solution") for n in names)
        assert any(n.startswith("column_consistency") for n in names)

    def test_report_path_with_a_nul_byte_exits_2(self, capsys, tmp_path):
        # open() used to raise "ValueError: embedded null byte" as a traceback
        bad = str(tmp_path / "x\u0000.json")
        cfg = tmp_path / "sym.json"
        cfg.write_text(json.dumps({"report": bad}))
        code, out, err = run_cli(capsys, "symmetry", "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"cannot write output path {bad!r}: it holds a NUL byte" \
            in json.loads(err)["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sym.json"]

    @pytest.mark.parametrize("value", [False, 0, ""])
    def test_falsy_report_path_exits_2(self, capsys, tmp_path, value):
        # a falsy report path used to be dropped and the report printed to stdout
        cfg = tmp_path / "sym.json"
        cfg.write_text(json.dumps({"report": value}))
        code, out, err = run_cli(capsys, "symmetry", "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "InvalidConfig" in json.loads(err)["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sym.json"]

    def test_unknown_tolerance_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sym.json"
        cfg.write_text(json.dumps({"tolerances": {"bogus": 1.0}}))
        code, _, _ = run_cli(capsys, "symmetry", "verify", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("config", [
        {"tolerances": {"oracle": "x"}},
        {"tolerances": {"oracle": None}},
        {"tolerances": {"oracle": float("nan")}},
        {"tolerances": {"oracle": -1.0}},
        {"tolerances": ["oracle"]},
        [{"seed": 11}],
        {"seed": "x"},
        {"seed": -5},
        {"sed": 11},
        # these used to run seed 1 (or 7)
        {"seed": 1.5},
        {"seed": True},
        {"seed": "7"},
        # these used to run with oracle = 1.0 and 1e-3
        {"tolerances": {"oracle": True}},
        {"tolerances": {"oracle": "1e-3"}},
    ])
    def test_bad_config_rejected(self, capsys, tmp_path, config):
        cfg = tmp_path / "sym.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "symmetry", "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "InvalidConfig" in json.loads(err)["error"]


def test_out_to_a_pipe():
    # -o /dev/stdout into a pipe used to fail after writing, on the truncate
    proc = subprocess.run(
        [sys.executable, "-m", "galconf.cli", "algebra", "check", "--N", "1",
         "--dim", "3", "-o", "/dev/stdout"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_console_script_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "galconf.cli", "orbit", "classify",
         "--chi", "0", "1", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tag"] == "HyperbolicSigma"


def test_python_dash_m_galconf():
    # the package had no __main__ module: "No module named galconf.__main__"
    proc = subprocess.run(
        [sys.executable, "-m", "galconf", "algebra", "check", "--N", "1", "--dim", "3",
         "--central"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
