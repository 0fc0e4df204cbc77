"""Every name a galconf module lists in ``__all__`` exists, and only once."""

import importlib
import pkgutil

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
