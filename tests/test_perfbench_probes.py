"""The functions the perfbench tracer wraps must exist in galconf, and its
work counters must fit their signatures."""

import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from galconf import algebra as al
from galconf import dynamics as dy
from galconf import poisson as po
from galconf import symmetry as sy

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def probe_names():
    """The "module.function" keys of PROBES, read from the source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "PROBES":
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no PROBES in {TRACING}")


def test_every_probe_names_a_galconf_callable():
    names = probe_names()
    assert names
    missing = []
    for name in names:
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"galconf.{module}"), func, None)):
            missing.append(name)
    assert not missing


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, registered only for this test."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_work_of_each_probed_call(monkeypatch):
    """The work counters read the arguments and results of the probed
    functions, so a signature change shows here and not only in traced runs."""
    tracer = load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        pt = po.random_point(np.random.default_rng(3), 1, 3, m=1.2)
        rk = dy.integrate(pt, dy.FREE, 0.2, 0.01, "rk4")
        cl = dy.integrate(pt, dy.FREE, 0.2, 0.01, "closed")
        text = dy.trajectory_csv_text(rk)
        dy.verify_motion_order(cl)
        dy.record_values(sy.map_trajectory(rk, sy.ConformalMap(0.5)).states)
        alg = al.build_algebra(1, 3, central=True)
        al.jacobi_worst(alg)
    finally:
        tracer.uninstall()
    spans = {}
    for name, work in zip(tracer.names, tracer.work):
        spans.setdefault(name, []).append(work)
    assert spans["dynamics.integrate.rk4"] == [20]
    assert spans["dynamics.integrate.closed"] == [20]
    assert spans["dynamics.record_values"] == [21, 21, 21]
    assert spans["dynamics.trajectory_csv_text"] == [len(text)]
    assert spans["dynamics.verify_motion_order"] == [0]
    assert spans["symmetry.map_trajectory"] == [0]
    assert spans["algebra.jacobi_worst"] == [math.comb(len(alg.generators), 3)]
    # recording (twice by integrate, once of the mapped image) goes through the
    # two probed chart functions, so their per-layer metrics measure live code
    assert len(spans["poisson.generators_at"]) == 3
    assert len(spans["poisson.dual_vector_at"]) == 3
    # uninstall restores every binding
    assert not hasattr(dy.record_values, "__wrapped__")
    assert sy.generators_at is po.generators_at
