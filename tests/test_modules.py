"""Each layer is its own module, and importing one loads only what it needs.

The package root holds only `__version__`; every other name is imported
from the module that defines it.  The import checks run in a fresh
interpreter, since this one has already loaded every module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import triblock

PACKAGE = Path(triblock.__file__).parent
SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _loaded_by(module: str, prefix: str = "triblock.") -> set:
    """The modules under `prefix` a fresh interpreter holds after importing
    module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = (f"import sys, {module}\n"
            f"print(*(m for m in sys.modules if m.startswith({prefix!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         timeout=120, stdout=subprocess.PIPE, text=True).stdout
    return set(out.split())


def test_no_module_reads_a_name_through_the_package_root():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "triblock" and node.level == 0
                    or node.module is None and node.level == 1):
                names = {a.name for a in node.names}
                assert names <= SUBMODULES | {"__version__"}, (path.name, names)


def test_torus_green_loads_only_the_argument_policy():
    assert _loaded_by("triblock.torus_green") == {"triblock.torus_green",
                                                  "triblock._args"}


def test_geometry_loads_no_later_layer():
    later = {f"triblock.{m}" for m in ("partition", "phasefield", "placement",
                                       "torus_green", "cli")}
    assert not _loaded_by("triblock.geometry") & later


def test_cli_loads_neither_the_solver_nor_the_labelling():
    loaded = _loaded_by("triblock.cli", "scipy.")
    assert "scipy.special" in loaded
    # each loads on the first call of its one user: concavity_threshold,
    # and extract_components' periodic labelling
    assert not loaded & {"scipy.optimize", "scipy.ndimage", "scipy.sparse"}
