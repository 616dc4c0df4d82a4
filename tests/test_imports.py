"""Each module of the package imports cleanly when it is the first one
loaded, in a fresh interpreter, so an import cycle fails here."""

import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

PACKAGE = Path(find_spec("fraccore").origin).parent


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__main__":
            continue  # runs the command line
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


# parent packages stand in without running their __init__, which would
# otherwise import its own choice of modules first
_IMPORT_FIRST = """
import importlib, sys, types
name, root = sys.argv[1], sys.argv[2]
sys.path.insert(0, root.rpartition("/")[0])
parts = name.split(".")
for k in range(1, len(parts)):
    pkg = types.ModuleType(".".join(parts[:k]))
    pkg.__path__ = [root + "/" + "/".join(parts[1:k])]
    sys.modules[pkg.__name__] = pkg
importlib.import_module(name)
"""


@pytest.mark.parametrize("name", list(_modules()))
def test_module_imports_first(name):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_FIRST, name, str(PACKAGE)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
