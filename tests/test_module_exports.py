"""Every name a galconf module lists in ``__all__`` exists, and only once."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import galconf

MODULES = [importlib.import_module(f"galconf.{info.name}")
           for info in pkgutil.iter_modules(galconf.__path__)]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_the_scan_finds_the_exporting_modules():
    names = {module.__name__ for module in EXPORTING}
    assert names >= {f"galconf.{m}" for m in
                     ("algebra", "coadjoint", "poisson", "dynamics", "symmetry", "verify")}


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_all_lists_each_existing_name_once(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(module.__all__) == len(set(module.__all__))


def test_readme_quickstart_runs(capsys):
    """The python block under "Library quickstart" runs on the exported
    names and prints what its comment says."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert capsys.readouterr().out == "[1.0, 4.0, 0.0]\n"
