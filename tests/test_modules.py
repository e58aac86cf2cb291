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
from test_acceptance import PIPELINES

PACKAGE = Path(triblock.__file__).parent
SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _fresh(code: str) -> str:
    """What a fresh interpreter prints running code; raises if it fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          timeout=120, stdout=subprocess.PIPE, text=True).stdout


def _loaded_after(code: str, prefix: str) -> set:
    """The modules under `prefix` a fresh interpreter holds after running
    code."""
    code += f"\nimport sys\nprint(*(m for m in sys.modules if m.startswith({prefix!r})))"
    return set(_fresh(code).split())


def _loaded_by(module: str, prefix: str = "triblock.") -> set:
    """The modules under `prefix` a fresh interpreter holds after importing
    module."""
    return _loaded_after(f"import {module}", prefix)


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


def test_cli_loads_no_scipy():
    # triblock.cli imports every module of the package, none of which
    # imports scipy
    assert not _loaded_by("triblock.cli", "scipy")


def test_every_pipeline_runs_without_scipy(tmp_path):
    # criterion 10's pipelines, in an interpreter that cannot import scipy
    code = f"""
import os, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is refused")

sys.meta_path.insert(0, RefuseScipy())
from triblock.cli import main
for command, flags in {PIPELINES!r}:
    out = os.path.join({str(tmp_path)!r}, command)
    if main([command, *flags, "--out", out]) != 0:
        sys.exit(f"{{command}} failed")
print("ok")
"""
    assert _fresh(code).split()[-1] == "ok"


def test_placement_pipeline_loads_no_scipy_subpackage():
    # the Ewald sums take E1 from numpy quadratures, not scipy.special
    code = """
from triblock.geometry import GammaMatrix
from triblock.placement import F0, FK, minimize_FK
from triblock.torus_green import green, green_gradient, regular_part
g = GammaMatrix(1.0, 1.0, 0.5)
layout = minimize_FK(((1.2, 0.8), (0.0, 1.5)), g, restarts=1)
FK(layout, g)
F0(layout, g, n_points=2 ** 8, replicates=2)
pts = [[0.1, 0.2], [0.3, -0.1]]
green(pts), green_gradient(pts), regular_part(pts)
"""
    assert not _loaded_after(code, "scipy.")
