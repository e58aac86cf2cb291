"""One argument policy for every public scalar argument.

A number is a real value that is not a bool, a string or a complex; an
integer is an integral value that is not a bool; numpy scalars count.
Every refusal is a ValueError whose message starts with the argument's name.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from triblock import geometry as G, partition as P, phasefield as PF
from triblock import placement as PL, torus_green as TG
from triblock._args import integer, mass_pair, real

GAMMA = G.GammaMatrix(1.0, 1.0, 0.5)
CONF = P.Configuration((P.Cluster(0.5, 0.25),), (0.5, 0.25))
U = np.full((4, 4), 0.2)
FIELD = PF.Field(U, U, 0.1)
IND = np.zeros((4, 4), dtype=bool)
IND[1, 1] = True
NO_IND = np.zeros((4, 4), dtype=bool)

# (entry point, argument, kind, valid value, call with the argument set to v).
# A mass pair is probed through its first entry.  The integer arguments of
# minimize_FK and ebar_oracle, and relax's four, are in their modules'
# refusal tests.
CASES = [
    ("solve_geometry", "m", "real", 0.5, lambda v: G.solve_geometry((v, 1.0))),
    ("perimeter", "m", "real", 0.5, lambda v: G.perimeter((v, 1.0))),
    ("perimeter_gradient", "m", "real", 0.5,
     lambda v: G.perimeter_gradient((v, 1.0))),
    ("perimeter_hessian", "m", "real", 0.5,
     lambda v: G.perimeter_hessian((v, 1.0))),
    ("e0", "m", "real", 0.5, lambda v: G.e0((v, 1.0), GAMMA)),
    ("e0_gradient", "m", "real", 0.5, lambda v: G.e0_gradient((v, 1.0), GAMMA)),
    ("GammaMatrix", "g11", "real", 1.0, lambda v: G.GammaMatrix(v, 1.0, 0.0)),
    ("GammaMatrix", "g22", "real", 1.0, lambda v: G.GammaMatrix(1.0, v, 0.0)),
    ("GammaMatrix", "g12", "real", 0.5, lambda v: G.GammaMatrix(1.0, 1.0, v)),
    ("single_energy", "mass", "real", 1.5, lambda v: G.single_energy(v, 1.0)),
    ("single_energy", "gamma_ii", "real", 2.0,
     lambda v: G.single_energy(1.5, v)),
    ("single_energy_gradient", "mass", "real", 1.5,
     lambda v: G.single_energy_gradient(v, 1.0)),
    ("single_energy_gradient", "gamma_ii", "real", 2.0,
     lambda v: G.single_energy_gradient(1.5, v)),
    ("concavity_threshold", "gamma_ii", "real", 2.0,
     lambda v: G.concavity_threshold(v)),
    ("concavity_threshold", "probe_other_mass", "real", 3.0,
     lambda v: G.concavity_threshold(1.0, 1, v)),
    ("concavity_threshold", "i", "int", 2,
     lambda v: G.concavity_threshold(1.0, v)),
    ("e0_hessian_diag", "i", "int", 2,
     lambda v: G.e0_hessian_diag((0.5, 1.0), GAMMA, v)),
    ("Cluster", "m1", "real", 0.5, lambda v: P.Cluster(v, 1.0)),
    ("Cluster", "m2", "real", 0.5, lambda v: P.Cluster(1.0, v)),
    ("coexistence_bounds", "k_doubles", "int", 2,
     lambda v: P.coexistence_bounds(GAMMA, v, 1)),
    ("coexistence_bounds", "k_singles", "int", 2,
     lambda v: P.coexistence_bounds(GAMMA, 1, v)),
    ("coexistence_bounds", "m1", "real", 500.0,
     lambda v: P.coexistence_bounds(GAMMA, 1, 1, m1=v)),
    ("ebar", "M", "real", 0.5, lambda v: P.ebar((v, 0.5), GAMMA)),
    ("ebar_oracle", "M", "real", 0.5,
     lambda v: P.ebar_oracle((v, 0.5), GAMMA, delta=0.125, max_parts=2)),
    ("ebar_oracle", "delta", "real", 0.125,
     lambda v: P.ebar_oracle((0.5, 0.5), GAMMA, delta=v, max_parts=2)),
    ("classify_regime", "M", "real", 0.5,
     lambda v: P.classify_regime((v, 0.5), GAMMA, run_search=False)),
    ("round_config_to_grid", "delta", "real", 0.125,
     lambda v: P.round_config_to_grid(CONF, v)),
    ("quantization_bound", "delta", "real", 0.125,
     lambda v: P.quantization_bound(CONF, GAMMA, v)),
    ("Layout", "masses", "real", 0.5,
     lambda v: PL.Layout(((0.0, 0.0), (0.5, 0.5)), ((v, 1.0), (1.0, 0.0)))),
    ("Layout", "points", "real", 0.25,
     lambda v: PL.Layout(((v, 0.0), (0.5, 0.5)), ((1.0, 0.0), (0.0, 1.0)))),
    ("minimize_FK", "masses", "real", 0.5,
     lambda v: PL.minimize_FK([(v, 1.0), (1.0, 0.0)], GAMMA, restarts=1)),
    ("minimize_FK", "gtol", "real", 1e-10,
     lambda v: PL.minimize_FK([(1.0, 0.5), (0.5, 1.0)], GAMMA, restarts=1,
                              gtol=v)),
    ("self_interaction", "m", "real", 0.5,
     lambda v: PL.self_interaction((v, 1.0), 1, 2)),
    ("self_interaction", "i", "int", 2,
     lambda v: PL.self_interaction((0.5, 1.0), v, 1)),
    ("self_interaction", "j", "int", 2,
     lambda v: PL.self_interaction((0.5, 1.0), 1, v)),
    ("disk_self_interaction", "mass", "real", 1.5,
     lambda v: PL.disk_self_interaction(v)),
    ("green_spectral", "tol", "real", 1e-14,
     lambda v: TG.green_spectral((0.3, 0.1), tol=v)),
    ("regular_part_zero_spectral", "tol", "real", 1e-16,
     lambda v: TG.regular_part_zero_spectral(v)),
    ("Field", "epsilon", "real", 0.1, lambda v: PF.Field(U, U, v)),
    ("uniform_field", "N", "int", 4,
     lambda v: PF.uniform_field(v, 0.1, (0.1, 0.2))),
    ("uniform_field", "epsilon", "real", 0.1,
     lambda v: PF.uniform_field(4, v, (0.1, 0.2))),
    ("uniform_field", "means", "real", 0.1,
     lambda v: PF.uniform_field(4, 0.1, (v, 0.2))),
    ("noisy_uniform_field", "N", "int", 4,
     lambda v: PF.noisy_uniform_field(v, 0.1, (0.1, 0.2))),
    ("noisy_uniform_field", "epsilon", "real", 0.1,
     lambda v: PF.noisy_uniform_field(4, v, (0.1, 0.2))),
    ("noisy_uniform_field", "means", "real", 0.1,
     lambda v: PF.noisy_uniform_field(4, 0.1, (v, 0.2))),
    ("noisy_uniform_field", "amplitude", "real", 0.02,
     lambda v: PF.noisy_uniform_field(4, 0.1, (0.1, 0.2), amplitude=v)),
    ("noisy_uniform_field", "seed", "int", 3,
     lambda v: PF.noisy_uniform_field(4, 0.1, (0.1, 0.2), seed=v)),
    ("droplet_field", "N", "int", 16,
     lambda v: PF.droplet_field(v, 0.1, 0.2, [(1.0, 0.5)], [(0.5, 0.5)])),
    ("droplet_field", "epsilon", "real", 0.1,
     lambda v: PF.droplet_field(16, v, 0.2, [(1.0, 0.5)], [(0.5, 0.5)])),
    ("droplet_field", "eta", "real", 0.2,
     lambda v: PF.droplet_field(16, 0.1, v, [(1.0, 0.5)], [(0.5, 0.5)])),
    ("droplet_field", "masses", "real", 1.0,
     lambda v: PF.droplet_field(16, 0.1, 0.2, [(v, 0.5)], [(0.5, 0.5)])),
    ("scaled_gamma", "eta", "real", 0.2, lambda v: PF.scaled_gamma(GAMMA, v)),
    ("SharpConfig", "eta", "real", 0.2, lambda v: PF.SharpConfig(IND, NO_IND, v)),
    ("SharpConfig", "overlap_fraction", "real", 0.25,
     lambda v: PF.SharpConfig(IND, NO_IND, 0.2, v)),
    ("threshold", "level", "real", 0.5,
     lambda v: PF.threshold(FIELD, v, eta=0.2)),
    ("threshold", "eta", "real", 0.2,
     lambda v: PF.threshold(FIELD, 0.5, eta=v)),
]
IDS = [f"{entry}-{name}" for entry, name, *_ in CASES]

NOT_NUMBERS = [True, "1", 1 + 0j, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("entry, name, kind, good, call", CASES, ids=IDS)
def test_refuses_a_bad_scalar_by_name(entry, name, kind, good, call):
    bad = NOT_NUMBERS + ([2.0, np.float64(2.0), -1] if kind == "int" else [])
    for v in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name} must ") as err:
                call(v)
        assert type(err.value) is ValueError, v


@pytest.mark.parametrize("entry, name, kind, good, call", CASES, ids=IDS)
def test_accepts_numpy_scalars(entry, name, kind, good, call):
    call(np.int64(good) if kind == "int" else np.float64(good))


@pytest.mark.parametrize("call, name", [
    (lambda: P.coexistence_bounds(GAMMA, -1, 1), "k_doubles"),
    (lambda: PF.noisy_uniform_field(4, 0.1, (0.1, 0.2), seed=-1), "seed"),
    (lambda: PF.droplet_field(16, 0.1, 0.0, [(1.0, 0.5)], [(0.5, 0.5)]), "eta"),
    (lambda: PF.uniform_field(0, 0.1, (0.1, 0.2)), "N"),
    (lambda: P.Cluster(-1.0, 1.0), "m1"),
    (lambda: G.perimeter(("1", "2")), "m"),
    (lambda: G.perimeter((1.0,)), "m"),
    (lambda: G.solve_geometry((0.0, 1.0)), "m"),
    (lambda: G.e0((0.0, 0.0), GAMMA), "m"),
    (lambda: P.ebar((0, 0), GAMMA), "M"),
    (lambda: P.ebar_oracle((0.0, 0.0), GAMMA), "M"),
    (lambda: P.classify_regime((0.0, 0.0), GAMMA), "M"),
    (lambda: P.Cluster(0.0, 0.0), "m1 and m2"),
    (lambda: PL.Layout(((0.0, 0.0),), ((0.0, 0.0),)), "masses"),
    (lambda: PL.self_interaction((0.0, 0.0), 1, 1), "m"),
    (lambda: PF.droplet_field(16, 0.1, 0.2, [(0, 0)], [(0.5, 0.5)]), "masses"),
    (lambda: G.e0_hessian_diag((0.5, 1.0), GAMMA, 3), "i"),
    (lambda: G.concavity_threshold(1.0, 3), "i"),
    (lambda: PL.Layout((0.0, 0.5), ((1.0, 0.0), (0.0, 1.0))), "points"),
    (lambda: PL.Layout(((0.0, 0.5, 0.5),), ((1.0, 0.0),)), "points"),
    (lambda: TG.green_spectral((0.3, 0.1), tol=0.0), "tol"),
    (lambda: TG.regular_part_zero_spectral(-1e-16), "tol"),
    (lambda: PF.SharpConfig(IND, NO_IND, 1.0), "eta"),
    (lambda: PF.threshold(FIELD, 0.5, eta=1.0), "eta"),
    (lambda: PF.SharpConfig(IND, NO_IND, 1e-160), "eta"),
    (lambda: PF.SharpConfig(IND, NO_IND, 1e-300), "eta"),
    (lambda: PF.SharpConfig(IND[:0, :0], NO_IND[:0, :0], 0.2), "indicators"),
    (lambda: PF.scaled_gamma(GAMMA, 1e-104), "eta"),
    (lambda: PF.scaled_gamma(GAMMA, 1e-120), "eta"),
    (lambda: PF.scaled_gamma(GAMMA, 1e-300), "eta"),
], ids=["k-negative", "seed-negative", "eta-zero", "N-zero", "m1-negative",
        "pair-of-strings", "one-mass", "zero-lobe", "e0-empty", "ebar-empty",
        "oracle-empty", "regime-empty", "cluster-empty", "layout-empty",
        "self-empty", "droplet-empty",
        "species-three", "threshold-species-three", "layout-bare-point",
        "layout-triple", "tol-zero", "tol-negative", "sharp-eta-one",
        "threshold-eta-one",
        "sharp-cell-mass-inf", "sharp-cell-mass-zero-division",
        "sharp-empty-grid", "scaled-factor-inf", "scaled-zero-division",
        "scaled-eta-1e-300"])
def test_refuses_an_out_of_range_scalar_by_name(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must "):
            call()


def test_policy_helpers():
    assert real("x", np.float32(0.5), 0.0, 1.0) == 0.5
    assert real("x", 0, 0.0, closed=True) == 0.0
    assert type(real("x", np.float64(2.0))) is float
    assert integer("n", np.int32(3), 1) == 3
    assert mass_pair("m", np.array([1.0, 0.0])) == (1.0, 0.0)
    assert mass_pair("m", (1, 2), True) == (1.0, 2.0)
    with pytest.raises(ValueError, match="^x must be a number"):
        real("x", np.bool_(True))
    with pytest.raises(ValueError, match=r"^x must be finite, got 1000"):
        real("x", 10 ** 400)
    with pytest.raises(ValueError, match=r"^x must be in \(0, 1\)"):
        real("x", 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^m must be positive and finite"):
        mass_pair("m", (0.0, 1.0), True)
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        integer("n", 0, 1)


def test_dataclasses_store_the_checked_floats():
    lay = PL.Layout(((0, np.float64(0.5)),), ((1, np.float64(0.5)),))
    assert [type(v) for v in lay.masses[0]] == [float, float]
    assert [type(v) for v in lay.points[0]] == [float, float]
    assert type(G.GammaMatrix(1, 1, 0).g11) is float
    assert type(PF.Field(U, U, np.float64(0.1)).epsilon) is float


def test_only_the_policy_module_imports_numbers():
    src = Path(P.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "_args.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            assert "numbers" not in names, path.name
