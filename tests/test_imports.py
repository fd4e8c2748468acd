import pkgutil

import pytest

import mmtopic

from conftest import run_fresh_python

MODULES = sorted(m.name for m in pkgutil.iter_modules(mmtopic.__path__))

# Registers an empty ``mmtopic`` package so that the named module, not the
# package ``__init__``, is the first mmtopic module imported.
IMPORT_FIRST = """
import importlib, importlib.util, sys, types
package = types.ModuleType("mmtopic")
package.__path__ = importlib.util.find_spec("mmtopic").submodule_search_locations
sys.modules["mmtopic"] = package
importlib.import_module("mmtopic." + sys.argv[1])
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    run_fresh_python(IMPORT_FIRST, module)


# Sweeps import ``multiprocessing`` only when they fork their workers, so
# importing the package stays as cheap as it was.
POOL_MODULES = """
import sys
import mmtopic
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "multiprocessing" or m.startswith("concurrent")))
"""


def test_package_import_loads_no_process_pool_modules():
    assert run_fresh_python(POOL_MODULES).strip() == "[]"


# mmtopic is numpy-only: importing the package and every submodule brings in
# no top-level module beyond the standard library but numpy (whatever the
# interpreter's own start-up loaded is left out).
THIRD_PARTY_MODULES = """
import importlib, sys
before = set(sys.modules)
for name in ["mmtopic", *("mmtopic." + m for m in sys.argv[1:])]:
    importlib.import_module(name)
print(sorted({m.split(".")[0] for m in set(sys.modules) - before}
             - set(sys.stdlib_module_names) - {"mmtopic", "numpy"}))
"""


def test_package_imports_no_third_party_module_but_numpy():
    assert run_fresh_python(THIRD_PARTY_MODULES, *MODULES).strip() == "[]"
