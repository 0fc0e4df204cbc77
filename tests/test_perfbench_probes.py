"""The functions the perfbench tracer wraps must exist in galconf."""

import ast
import importlib
from pathlib import Path

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
