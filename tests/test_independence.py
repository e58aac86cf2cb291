"""An oracle shares no code with what it checks.

Each reference route (the real-space Poisson solve, the spectral Green
sums, the quantized dynamic program) is read as source, and the names it
uses are checked against the code it is compared with.
"""

import ast
import inspect

from triblock import partition as P, phasefield as PF, torus_green as TG


def _tree(module):
    return ast.parse(inspect.getsource(module))


def _names(node) -> set:
    """Every identifier and attribute name used under the node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
               for a in n.names})


def _functions(module) -> dict:
    """Top-level function definitions in source order, keyed by name."""
    return {n.name: n for n in _tree(module).body
            if isinstance(n, ast.FunctionDef)}


def test_phasefield_does_not_use_the_poisson_reference():
    assert "periodic_poisson_solve" not in _names(_tree(PF))


def test_spectral_green_routes_use_no_ewald_code():
    ewald = {"_ewald", "_SHIFTS", "_ORIGIN", "_RECIP_COEF", "_MODE_WEIGHTS",
             "_MODE_PHASE", "_e1_laguerre", "_e1_ein", "_LAGUERRE_T",
             "_LAGUERRE_W", "_EIN_S", "_EIN_W"}
    funcs = _functions(TG)
    for name in ("green_spectral", "_stripe_terms",
                 "regular_part_zero_spectral"):
        assert not _names(funcs[name]) & ewald, name


def test_quantized_oracle_calls_no_search_function():
    funcs = _functions(P)
    order = list(funcs)
    search = set(order[order.index("_packing_grid"):
                       order.index("_row_clusters") + 1]) | {"ebar", "thresholds"}
    assert {"_packing_grid", "_unit_grid", "_ansatz_for_doubles",
            "_cell_feasible", "_candidate_cells", "_newton", "_kkt",
            "_cell_starts"} <= search
    for name in ("ebar_oracle", "_min_plus", "_corner_min_plus",
                 "_quantized_energy_table", "round_config_to_grid",
                 "quantization_bound"):
        assert not _names(funcs[name]) & search, name
