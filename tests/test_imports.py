import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mmtopic

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
    source_root = str(Path(mmtopic.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([source_root, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", IMPORT_FIRST, module], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
