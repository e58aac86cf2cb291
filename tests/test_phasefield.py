"""Diffuse relaxation: energies, descent invariants, thresholding, snapshots."""

import json
import logging
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.integrate import quad

from triblock import phasefield as PF, torus_green as TG
from triblock.geometry import GammaMatrix, e0
from triblock.partition import classify_regime, ebar
from triblock.phasefield import (
    GUARD_BAND,
    INTERFACE_COST,
    Field,
    SharpConfig,
    _mass_exact_clip,
    _periodic_labels,
    _well_forces,
    diffuse_energy,
    droplet_field,
    extract_components,
    grid_perimeter,
    noisy_uniform_field,
    relax,
    scaled_gamma,
    sharp_energy,
    threshold,
    uniform_field,
    write_field_pgm,
    write_trace_csv,
)

# GammaMatrix diagonals must be positive; this is "no interaction" in practice.
NO_COUPLING = GammaMatrix(1e-300, 1e-300, 0.0)


def torus_grid(n):
    xs = np.arange(n) / n
    return np.meshgrid(xs, xs, indexing="ij")


def disk_indicator(n, center, radius):
    X, Y = torus_grid(n)
    dx = np.mod(X - center[0] + 0.5, 1.0) - 0.5
    dy = np.mod(Y - center[1] + 0.5, 1.0) - 0.5
    return np.hypot(dx, dy) < radius


def well_prime(u, printed_well=False):
    """W'(u) in product form: W = u^2 (1 - u)^2, or u^2 (1 - u^2) printed."""
    if printed_well:
        return 2.0 * u * (1.0 - 2.0 * u * u)
    return 2.0 * u * (1.0 - u) * (1.0 - 2.0 * u)


def tanh_stripe_field(n, epsilon, lo=0.25, hi=0.75):
    X, _ = torus_grid(n)
    u1 = 0.5 * (np.tanh((X - lo) / (2.0 * epsilon))
                - np.tanh((X - hi) / (2.0 * epsilon)))
    return Field(u1, np.zeros((n, n)), epsilon)


# ---------------------------------------------------------------------------
# Field container and initializers.

def test_field_validation():
    ones = np.zeros((8, 8))
    with pytest.raises(ValueError):
        Field(np.zeros((8, 4)), np.zeros((8, 4)), 0.1)  # not square
    with pytest.raises(ValueError):
        Field(ones, np.zeros((4, 4)), 0.1)  # mismatched shapes
    with pytest.raises(ValueError):
        Field(ones, ones, 0.0)
    with pytest.raises(ValueError):
        Field(ones, ones, float("nan"))
    bad = ones.copy()
    bad[2, 3] = float("inf")
    with pytest.raises(ValueError):
        Field(bad, ones, 0.1)


def test_field_refuses_an_empty_grid():
    # relax would divide by N = 0 on it.
    with pytest.raises(ValueError, match="non-empty"):
        Field(np.zeros((0, 0)), np.zeros((0, 0)), 0.1)


def test_field_rejects_values_outside_guard_band():
    # Out-of-band input is refused, never clipped (a clip would lose mass).
    lo, hi = GUARD_BAND
    inside = np.full((4, 4), 0.5)
    with pytest.raises(ValueError, match=r"u1 leaves the guard band.*min 7, max 7"):
        Field(np.full((4, 4), 7.0), inside, 0.1)
    low = inside.copy()
    low[1, 2] = -3.0
    with pytest.raises(ValueError, match=r"u2 leaves the guard band.*min -3, max 0.5"):
        Field(inside, low, 0.1)
    # the band edges themselves are accepted, and the grids are copied
    u1, u2 = np.full((4, 4), hi), np.full((4, 4), lo)
    f = Field(u1, u2, 0.1)
    u1[0, 0] = 0.0
    assert float(f.u1.min()) == hi and float(f.u2.max()) == lo
    assert f.N == 4
    assert f.max_overlap() == pytest.approx(hi + lo - 1.0)


def test_uniform_field_means():
    f = uniform_field(16, 0.05, (0.03, 0.07))
    assert f.means() == pytest.approx((0.03, 0.07), abs=1e-15)
    assert f.max_overlap() == pytest.approx(0.1 - 1.0)


def test_noisy_uniform_seeded():
    f = noisy_uniform_field(32, 0.05, (0.02, 0.04), amplitude=1e-2, seed=7)
    m1, m2 = f.means()
    assert m1 == pytest.approx(0.02, abs=1e-15)
    assert m2 == pytest.approx(0.04, abs=1e-15)
    assert np.max(np.abs(f.u1 - 0.02)) <= 2e-2
    again = noisy_uniform_field(32, 0.05, (0.02, 0.04), amplitude=1e-2, seed=7)
    assert np.array_equal(f.u1, again.u1)
    other = noisy_uniform_field(32, 0.05, (0.02, 0.04), amplitude=1e-2, seed=8)
    assert not np.array_equal(f.u1, other.u1)


def test_droplet_field_single_disk():
    n, eta, mass = 256, 0.1, 2.0
    f = droplet_field(n, 2.0 / n, eta, [(mass, 0.0)], [(0.5, 0.5)])
    assert f.means()[0] == pytest.approx(eta ** 2 * mass, rel=1e-12)
    assert f.means()[1] == 0.0
    conf, centers = extract_components(threshold(f, 0.5, eta=eta))
    assert [c.kind for c in conf.clusters] == ["single_type1"]
    assert conf.clusters[0].m1 == pytest.approx(mass, rel=0.05)
    assert centers[0][0] == pytest.approx(0.5, abs=2.0 / n)


def test_droplet_field_double_lobes():
    n, eta = 256, 0.1
    h = 1.0 / n
    f = droplet_field(n, 2.0 / n, eta, [(2.0, 3.0)], [(0.5 + h / 2, 0.5)])
    assert f.means() == pytest.approx((eta ** 2 * 2.0, eta ** 2 * 3.0))
    conf, _ = extract_components(threshold(f, 0.5, eta=eta))
    assert [c.kind for c in conf.clusters] == ["double"]
    assert conf.clusters[0].m1 == pytest.approx(2.0, rel=0.08)
    assert conf.clusters[0].m2 == pytest.approx(3.0, rel=0.08)


@pytest.mark.parametrize("masses, centers", [
    ([(4.0, 0.0), (0.0, 4.0)], [(0.25, 0.25), (0.75, 0.75)]),
    ([(4.0, 4.0)], [(0.5 + 1.0 / 1024, 0.5)]),
    ([(3.0, 6.0), (0.0, 6.0)], [(0.3, 0.3), (0.75, 0.75)]),
], ids=["singles", "double", "coexistence"])
def test_droplet_field_matches_the_full_grid_offsets(monkeypatch, masses,
                                                     centers):
    # perfbench's relax scenarios at n = 512: distances broadcast from the
    # axis offsets are bit-identical to those of full meshgrid offsets
    n, eta = 512, 0.04
    fast = droplet_field(n, 2.0 / n, eta, masses, centers)

    def grid_offsets(xs, center):
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        return (np.mod(X - center[0] + 0.5, 1.0) - 0.5,
                np.mod(Y - center[1] + 0.5, 1.0) - 0.5)

    monkeypatch.setattr(PF, "_periodic_offsets", grid_offsets)
    full = droplet_field(n, 2.0 / n, eta, masses, centers)
    assert np.array_equal(fast.u1, full.u1)
    assert np.array_equal(fast.u2, full.u2)


def test_droplet_field_validation():
    with pytest.raises(ValueError):
        droplet_field(32, 0.05, 0.1, [(1.0, 0.0)], [])
    with pytest.raises(ValueError):
        droplet_field(32, 0.05, 0.1, [(0.0, 0.0)], [(0.5, 0.5)])
    with pytest.raises(ValueError):
        droplet_field(32, 0.05, 0.1, [(-1.0, 2.0)], [(0.5, 0.5)])


def test_scaled_gamma_factor():
    eta = 0.04
    g = scaled_gamma(GammaMatrix(2.0, 1.0, 0.5), eta)
    factor = INTERFACE_COST / (eta ** 3 * abs(math.log(eta)))
    assert g.g11 == pytest.approx(2.0 * factor)
    assert g.g12 == pytest.approx(0.5 * factor)
    with pytest.raises(ValueError):
        scaled_gamma(GammaMatrix(1.0, 1.0, 0.0), 1.5)


# ---------------------------------------------------------------------------
# Diffuse energy.

def test_uniform_energy_is_well_only():
    m1, m2 = 0.1, 0.2
    eps = 0.03125
    f = uniform_field(64, eps, (m1, m2))
    parts = diffuse_energy(f, GammaMatrix(2.0, 1.0, 0.5), parts=True)
    w = lambda s: s * s * (1.0 - s) ** 2
    expected = 0.5 / eps * (w(1.0 - m1 - m2) + w(m1) + w(m2))
    assert parts["gradient"] == pytest.approx(0.0, abs=1e-12)
    assert parts["nonlocal"] == pytest.approx(0.0, abs=1e-12)
    assert parts["total"] == pytest.approx(expected, rel=1e-12)


def test_energy_nonnegative_for_definite_gamma():
    f = droplet_field(128, 2.0 / 128, 0.1, [(1.0, 0.0), (0.0, 1.0)],
                      [(0.3, 0.3), (0.7, 0.7)])
    g = scaled_gamma(GammaMatrix(1.0, 1.0, 0.9), 0.1)
    assert g.is_positive_definite()
    parts = diffuse_energy(f, g, parts=True)
    assert parts["nonlocal"] >= 0.0
    assert parts["total"] >= 0.0


def test_stripe_surface_tension_matches_quadrature():
    # Two flat interfaces of unit length; each flips two species, and the
    # optimal 1D profile costs int_0^1 sqrt(W(s)) ds per species.
    n = 256
    f = tanh_stripe_field(n, 4.0 / n)
    parts = diffuse_energy(f, NO_COUPLING, parts=True)
    per_species = quad(lambda s: math.sqrt(s * s * (1.0 - s) ** 2), 0.0, 1.0)[0]
    oracle = 4.0 * per_species
    assert oracle == pytest.approx(2.0 * INTERFACE_COST, rel=1e-12)
    assert parts["gradient"] + parts["well"] == pytest.approx(oracle, rel=0.05)


def test_printed_well_variant():
    m1, m2 = 0.1, 0.2
    eps = 0.03125
    f = uniform_field(64, eps, (m1, m2))
    w = lambda s: s * s * (1.0 - s * s)
    expected = 0.5 / eps * (w(1.0 - m1 - m2) + w(m1) + w(m2))
    e = diffuse_energy(f, GammaMatrix(1.0, 1.0, 0.0), printed_well=True)
    assert e == pytest.approx(expected, rel=1e-12)
    assert e != diffuse_energy(f, GammaMatrix(1.0, 1.0, 0.0))


def cosine_modes(n, modes):
    """sum of amp cos(2 pi (a x + b y)) over {(a, b): amp} on the n-grid."""
    X, Y = torus_grid(n)
    return sum(amp * np.cos(2.0 * math.pi * (a * X + b * Y))
               for (a, b), amp in modes.items())


def gradient_closed_form(n, modes):
    """mean |grad u|^2 of cosine_modes(n, modes) for distinct, non-conjugate
    modes with 0 <= a, b <= n/2: (2 pi)^2 (a^2 + b^2) amp^2 times the grid mean
    of the squared cosine, which is 1 for self-conjugate modes (a, b in
    {0, n/2}, sampled as +-1) and 1/2 otherwise."""
    return sum((2.0 * math.pi) ** 2 * (a * a + b * b) * amp ** 2
               * (1.0 if (2 * a) % n == 0 and (2 * b) % n == 0 else 0.5)
               for (a, b), amp in modes.items())


@pytest.mark.parametrize("n", [32, 33])
def test_gradient_energy_matches_mode_closed_form(n):
    top = n // 2  # the Nyquist frequency for even n
    modes1 = {(1, 2): 0.05, (top, 3): 0.03, (0, top): 0.02}
    modes2 = {(1, 2): 0.04, (5, top): 0.03, (top, top): 0.01}
    modes0 = {key: modes1.get(key, 0.0) + modes2.get(key, 0.0)
              for key in {**modes1, **modes2}}
    eps = 0.05
    f = Field(0.4 + cosine_modes(n, modes1), 0.3 + cosine_modes(n, modes2), eps)
    expected = 0.5 * eps * (gradient_closed_form(n, modes0)
                            + gradient_closed_form(n, modes1)
                            + gradient_closed_form(n, modes2))
    parts = diffuse_energy(f, NO_COUPLING, parts=True)
    assert parts["gradient"] == pytest.approx(expected, rel=1e-12)


def real_space_green(u1, u2, g):
    """sum_ij Gamma_ij mean(psi_i u_j) with psi_i the periodic Poisson solve."""
    psi1 = TG.periodic_poisson_solve(u1)
    psi2 = TG.periodic_poisson_solve(u2)
    return (g.g11 * float(np.mean(psi1 * u1))
            + 2.0 * g.g12 * float(np.mean(psi1 * u2))
            + g.g22 * float(np.mean(psi2 * u2)))


@pytest.mark.parametrize("n", [64, 65])
def test_nonlocal_energy_matches_real_space_poisson(n):
    f = droplet_field(n, 2.0 / n, 0.1, [(3.0, 2.0), (0.0, 4.0)],
                      [(0.3, 0.4), (0.75, 0.7)])
    g = GammaMatrix(2.0, 1.0, 0.7)
    expected = 0.5 * real_space_green(f.u1, f.u2, g)
    parts = diffuse_energy(f, g, parts=True)
    assert parts["nonlocal"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [64, 65])
def test_sharp_interaction_matches_real_space_poisson(n):
    eta = 0.1
    X, _ = torus_grid(n)
    disk = disk_indicator(n, (0.4, 0.5), 0.15)
    ind1 = disk & (X < 0.4)
    ind2 = (disk & ~ind1) | disk_indicator(n, (0.85, 0.1), 0.08)
    c = SharpConfig(ind1, ind2, eta)
    g = GammaMatrix(1.0, 2.0, 0.5)
    per = (grid_perimeter(ind1) + grid_perimeter(ind2)
           + grid_perimeter(~(ind1 | ind2)))
    interaction = real_space_green(ind1 / eta ** 2, ind2 / eta ** 2, g) \
        / (2.0 * abs(math.log(eta)))
    energy = sharp_energy(c, g)
    assert abs(energy - (per / (2.0 * eta) + interaction)) \
        <= 1e-12 * interaction


# ---------------------------------------------------------------------------
# Relaxation.

def test_uniform_state_is_fixed_point():
    f = uniform_field(64, 2.0 / 64, (0.05, 0.08))
    out, trace = relax(f, scaled_gamma(GammaMatrix(1.0, 1.0, 0.5), 0.1),
                       steps=20, trace_every=20)
    assert np.max(np.abs(out.u1 - 0.05)) < 1e-13
    assert np.max(np.abs(out.u2 - 0.08)) < 1e-13
    assert trace[0][1] == pytest.approx(trace[-1][1], rel=1e-12)


def test_mass_conservation():
    f = noisy_uniform_field(64, 2.0 / 64, (0.02, 0.03), seed=1)
    out, _ = relax(f, scaled_gamma(GammaMatrix(1.0, 1.0, 0.5), 0.1),
                   steps=200, trace_every=200)
    assert out.means()[0] == pytest.approx(0.02, abs=1e-12)
    assert out.means()[1] == pytest.approx(0.03, abs=1e-12)


def test_energy_monotone_eight_seeds():
    g = scaled_gamma(GammaMatrix(1.0, 1.0, 0.5), 0.1)
    for seed in range(8):
        f = noisy_uniform_field(64, 2.0 / 64, (0.02, 0.03), seed=seed)
        _, trace = relax(f, g, steps=1000)
        totals = np.array([row[1] for row in trace])
        assert np.all(np.diff(totals) <= 1e-10), f"seed {seed} increased"


def test_translation_equivariance():
    n = 128
    shift = (17, -5)
    g = scaled_gamma(GammaMatrix(1.0, 1.0, 0.2), 0.1)
    f = droplet_field(n, 2.0 / n, 0.1, [(1.0, 1.0)], [(0.5 + 0.5 / n, 0.5)])
    base, _ = relax(f, g, steps=40, trace_every=40)
    rolled = Field(np.roll(f.u1, shift, (0, 1)), np.roll(f.u2, shift, (0, 1)),
                   f.epsilon)
    moved, _ = relax(rolled, g, steps=40, trace_every=40)
    assert np.max(np.abs(np.roll(base.u1, shift, (0, 1)) - moved.u1)) < 1e-10
    assert np.max(np.abs(np.roll(base.u2, shift, (0, 1)) - moved.u2)) < 1e-10


def test_species_swap_symmetry():
    eps = 2.0 / 64
    f = noisy_uniform_field(64, eps, (0.02, 0.05), seed=3)
    out, _ = relax(f, scaled_gamma(GammaMatrix(2.0, 1.0, 0.5), 0.1),
                   steps=50, trace_every=50)
    swapped, _ = relax(Field(f.u2.copy(), f.u1.copy(), eps),
                       scaled_gamma(GammaMatrix(1.0, 2.0, 0.5), 0.1),
                       steps=50, trace_every=50)
    assert np.max(np.abs(out.u1 - swapped.u2)) < 1e-14
    assert np.max(np.abs(out.u2 - swapped.u1)) < 1e-14


def test_printed_well_blow_up_raises():
    # The printed well is non-coercive, so a concentrated state driven hard
    # escapes the unit interval; the guard reports instead of looping on NaN.
    f = noisy_uniform_field(64, 2.0 / 64, (0.7, 0.1), amplitude=0.05, seed=1)
    with pytest.raises(RuntimeError, match="blow-up"):
        relax(f, NO_COUPLING, dt=0.05, steps=400, printed_well=True,
              blow_limit=1.5, trace_every=400)


@pytest.mark.parametrize("printed_well", [False, True])
def test_well_forces_match_the_product_forms(printed_well):
    # The species forces w_i = W'(u_i) - W'(u0), u0 = 1 - u1 - u2, written
    # as products, against the cubics in u1 + u2 and u1 - u2; random points
    # fill the guard band, and its edges and corners are included.
    lo, hi = GUARD_BAND
    rng = np.random.default_rng(14)
    u1 = rng.uniform(lo, hi, size=(40, 40))
    u2 = rng.uniform(lo, hi, size=(40, 40))
    edges = np.linspace(lo, hi, 40)
    u1[0], u2[0] = lo, edges
    u1[1], u2[1] = hi, edges
    u1[2], u2[2] = edges, lo
    u1[3], u2[3] = edges, hi
    w0 = well_prime(1.0 - u1 - u2, printed_well)
    w1 = well_prime(u1, printed_well) - w0
    w2 = well_prime(u2, printed_well) - w0
    fs, fd = _well_forces(u1.copy(), u2.copy(), np.empty_like(u1),
                          np.empty_like(u1), printed_well)
    assert np.max(np.abs(fs - (w1 + w2))) <= 1e-13
    assert np.max(np.abs(fd - (w1 - w2))) <= 1e-13


@pytest.mark.parametrize("printed_well", [False, True])
def test_relax_leaves_its_input_unchanged(printed_well):
    f = droplet_field(64, 2.0 / 64, 0.2, [(2.0, 1.5)], [(0.4, 0.5)])
    before = (f.u1.tobytes(), f.u2.tobytes())
    relax(f, scaled_gamma(GammaMatrix(1.0, 1.0, 0.3), 0.2), dt=0.05 / 64,
          steps=3, printed_well=printed_well)
    assert (f.u1.tobytes(), f.u2.tobytes()) == before


def relax_peak(n, steps):
    """tracemalloc peak of a relax traced every step, in n x n arrays."""
    f = noisy_uniform_field(n, 2.0 / n, (0.1, 0.1), seed=0)
    g = scaled_gamma(GammaMatrix(1.0, 1.0, 0.1), 0.04)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        relax(f, g, steps=steps, trace_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (n * n * 8)


def test_relax_peak_memory_at_n512():
    # A step holds the copies of the caller's grids, the stacked complex
    # half-planes of the force transforms and of the carried transforms,
    # the six multipliers, |k|^2 with (-Delta)^-1, the trace's one n x n
    # grid and one 64-row block of two real grids and of complex half-plane
    # rows: about 11.41 arrays, with trace rows formed over the dead force
    # stack.  The bound keeps a step or a trace row from growing a
    # full-grid temporary.
    assert relax_peak(512, 2) <= 12.5


def test_relax_allocates_nothing_per_step():
    # per-step garbage would raise the peak of the longer run
    assert abs(relax_peak(256, 12) - relax_peak(256, 2)) <= 0.1


def test_relax_validation():
    f = uniform_field(16, 0.1, (0.1, 0.1))
    with pytest.raises(ValueError):
        relax(f, NO_COUPLING, dt=0.0)
    with pytest.raises(ValueError):
        relax(f, NO_COUPLING, steps=-1)


@pytest.mark.parametrize("name, bad", [
    ("trace_every", 0), ("trace_every", -2), ("trace_every", 1.5),
    ("trace_every", True), ("steps", 2.5), ("steps", True),
    ("blow_limit", float("nan")), ("blow_limit", 0.0),
    ("dt", True), ("dt", "0.1"), ("dt", 1e-3 + 0j), ("dt", float("inf")),
    ("blow_limit", True), ("blow_limit", "5"), ("blow_limit", 5 + 0j),
    ("steps", "3"), ("steps", float("nan")), ("trace_every", "2"),
    ("trace_every", 2 + 0j), ("dt", float("nan")), ("dt", -1e-3),
    ("blow_limit", float("inf")),
])
def test_relax_refuses_a_bad_argument_by_name(name, bad):
    f = uniform_field(8, 0.1, (0.1, 0.1))
    with pytest.raises(ValueError, match=name):
        relax(f, NO_COUPLING, **{name: bad})


def test_relax_accepts_numpy_integer_counts():
    f = uniform_field(8, 0.1, (0.1, 0.1))
    _, trace = relax(f, NO_COUPLING, steps=np.int64(4), trace_every=np.int32(2))
    assert [row[0] for row in trace] == [0, 2, 4]


def test_trace_rows_and_csv(tmp_path):
    f = noisy_uniform_field(32, 2.0 / 32, (0.05, 0.05), seed=0)
    _, trace = relax(f, NO_COUPLING, steps=7, trace_every=3)
    assert [row[0] for row in trace] == [0, 3, 6, 7]
    assert all(len(row) == 5 for row in trace)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,total,gradient,well,nonlocal"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == pytest.approx(trace[0][1])
    with pytest.raises(ValueError):
        write_trace_csv([], str(path))



@pytest.mark.parametrize("comment", ["a\nb", "a\rb"], ids=["LF", "CR"])
def test_multi_line_comment_is_refused_before_writing(tmp_path, comment):
    f = uniform_field(4, 0.1, (0.1, 0.2))
    with pytest.raises(ValueError, match="^comment must be a single line"):
        write_trace_csv([(0, 1.0, 0.5, 0.25, 0.25)], str(tmp_path / "t.csv"),
                        comment=comment)
    with pytest.raises(ValueError, match="^comment must be a single line"):
        write_field_pgm(f, str(tmp_path / "snap"), comment=comment)
    assert not any(tmp_path.iterdir())

def test_relaxed_shapes_follow_interaction_regime():
    # Weak cross-repulsion keeps a seeded cluster as one double (the regime
    # classifier guarantees it); strong cross-repulsion makes two disks at
    # distance 1/2 relax to the separated-singles optimum.
    n, eta, eps = 256, 0.06, 2.0 / 256
    masses = (2.0, 2.0)

    weak = GammaMatrix(1.0, 1.0, 0.1)
    assert classify_regime(masses, weak, run_search=False)["one_double"]["holds"]
    f = droplet_field(n, eps, eta, [masses], [(0.5 + 0.5 / n, 0.5)])
    out, _ = relax(f, scaled_gamma(weak, eta), steps=200, trace_every=200)
    conf, _ = extract_components(threshold(out, 0.5, eta=eta))
    assert [c.kind for c in conf.clusters] == ["double"]

    strong = GammaMatrix(1.0, 1.0, 6.0)
    _, best = ebar(masses, strong)
    assert sorted(c.kind for c in best.clusters) == [
        "single_type1", "single_type2"]
    f = droplet_field(n, eps, eta, [(masses[0], 0.0), (0.0, masses[1])],
                      [(0.25, 0.25), (0.25, 0.75)])
    out, _ = relax(f, scaled_gamma(strong, eta), steps=200, trace_every=200)
    conf, _ = extract_components(threshold(out, 0.5, eta=eta))
    assert sorted(c.kind for c in conf.clusters) == [
        "single_type1", "single_type2"]


def fresh_transform_relax(f, g, dt, steps, printed_well=False):
    """The semi-implicit step written out in the species basis, with u1 and
    u2 transformed afresh on every step and the means restored in real
    space; returns the final grids and the total energy after every step."""
    n, eps = f.N, f.epsilon
    ky = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n)
    kx = 2.0 * math.pi * np.fft.rfftfreq(n, d=1.0 / n)
    k2 = ky[:, None] ** 2 + kx[None, :] ** 2
    inv_lap = np.zeros_like(k2)
    inv_lap[k2 > 0.0] = 1.0 / k2[k2 > 0.0]
    c_s = 2.0 / eps
    lo, hi = GUARD_BAND
    u1, u2 = f.u1.copy(), f.u2.copy()
    m1, m2 = u1.mean(), u2.mean()
    totals = [diffuse_energy(f, g, printed_well)]
    for _ in range(steps):
        a, b = np.fft.rfft2(u1), np.fft.rfft2(u2)
        w0 = well_prime(1.0 - u1 - u2, printed_well)
        w1 = well_prime(u1, printed_well) - w0
        w2 = well_prime(u2, printed_well) - w0
        f1 = np.fft.rfft2(w1) / (2.0 * eps) + (g.g11 * a + g.g12 * b) * inv_lap
        f2 = np.fft.rfft2(w2) / (2.0 * eps) + (g.g12 * a + g.g22 * b) * inv_lap
        s = ((1.0 + dt * c_s) * (a + b) - dt * (f1 + f2)) / (1.0 + dt * (3.0 * eps * k2 + c_s))
        d = ((1.0 + dt * c_s) * (a - b) - dt * (f1 - f2)) / (1.0 + dt * (eps * k2 + c_s))
        u1 = np.fft.irfft2(0.5 * (s + d), s=(n, n))
        u2 = np.fft.irfft2(0.5 * (s - d), s=(n, n))
        assert lo <= min(u1.min(), u2.min()) and max(u1.max(), u2.max()) <= hi
        u1 += m1 - u1.mean()
        u2 += m2 - u2.mean()
        totals.append(diffuse_energy(Field(u1, u2, eps), g, printed_well))
    return u1, u2, np.array(totals)


@pytest.mark.parametrize("n, printed_well", [(63, False), (64, False), (64, True)],
                         ids=["63", "64", "64-printed"])
def test_carried_transforms_match_fresh_transforms(n, printed_well):
    # Odd n has no Nyquist column; even n has one, counted once by Parseval.
    # The printed well drives separated phases out of the band, so its case
    # relaxes noise around means at which that well is convex.
    eps = 2.0 / n
    g = scaled_gamma(GammaMatrix(2.0, 1.0, 0.5), 0.2)
    if printed_well:
        means = (0.3, 0.35)
        f = noisy_uniform_field(n, eps, means, amplitude=0.1, seed=4)
        floor = diffuse_energy(uniform_field(n, eps, means), g, printed_well)
    else:
        f = droplet_field(n, eps, 0.2, [(2.0, 1.5), (0.0, 2.0)],
                          [(0.3, 0.35), (0.7, 0.8)])
        floor = 0.0
    out, trace = relax(f, g, dt=eps / n, steps=1000, printed_well=printed_well)
    u1, u2, totals = fresh_transform_relax(f, g, eps / n, 1000, printed_well)
    assert np.max(np.abs(out.u1 - u1)) <= 1e-12
    assert np.max(np.abs(out.u2 - u2)) <= 1e-12
    rows = np.array([row[1] for row in trace])
    assert np.max(np.abs(rows - totals) / np.abs(totals)) <= 1e-12
    # the droplets did move, or the noise did decay
    assert totals[-1] - floor < 0.9 * (totals[0] - floor)


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 5])
def test_last_trace_row_is_the_returned_field(steps):
    eps = 2.0 / 64
    f = droplet_field(64, eps, 0.2, [(2.0, 1.5)], [(0.4, 0.5)])
    g = scaled_gamma(GammaMatrix(1.0, 1.0, 0.3), 0.2)
    for printed_well in (False, True):
        out, trace = relax(f, g, dt=eps / 64, steps=steps, trace_every=2,
                           printed_well=printed_well)
        parts = diffuse_energy(out, g, printed_well, parts=True)
        assert trace[-1][0] == steps
        for value, key in zip(trace[-1][1:],
                              ("total", "gradient", "well", "nonlocal")):
            assert value == pytest.approx(parts[key], rel=1e-13), key
        # the well term adds the same floats over the same grids on both sides
        assert trace[-1][3] == parts["well"]


def reference_relax(f, g, dt, steps, printed_well=False):
    """relax's semi-implicit step on whole arrays, written from its update
    formulas in the same float operations, and a trace row after every step
    from the Parseval sums of the carried transforms: an oracle for the
    row-blocked step.  Only the fixed-mass clip is relax's own
    (`_mass_exact_clip`)."""
    n, eps = f.N, f.epsilon
    freq = np.fft.rfftfreq(n, d=1.0 / n)
    k2 = (2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n))[:, None] ** 2 \
        + (2.0 * math.pi * freq)[None, :] ** 2
    inv_lap = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0.0)
    weights = np.where((freq == 0) | (2 * freq == n), 1.0, 2.0) / n ** 4
    keep = 1.0 + dt * (2.0 / eps)
    den_s = 2.0 * (keep + dt * 3.0 * eps * k2)
    den_d = 2.0 * (keep + dt * eps * k2)
    s1 = (keep - dt * (g.g11 + g.g12) * inv_lap) / den_s
    s2 = (keep - dt * (g.g12 + g.g22) * inv_lap) / den_s
    d1 = (keep - dt * (g.g11 - g.g12) * inv_lap) / den_d
    d2 = (-keep - dt * (g.g12 - g.g22) * inv_lap) / den_d
    s3 = -dt / (2.0 * eps) / den_s
    d3 = -dt / (2.0 * eps) / den_d

    def W(u):
        if printed_well:
            return u * u * (1.0 - u * u)
        return u * u * ((1.0 - u) * (1.0 - u))

    def row(step, u1, u2, a, b):
        p11 = a.real * a.real + a.imag * a.imag
        p22 = b.real * b.real + b.imag * b.imag
        p12 = a.real * b.real + a.imag * b.imag
        grad = 2.0 * float(np.sum((p11 + p12 + p22) * k2, axis=0) @ weights)
        grad *= 0.5 * eps
        t = (p11 * g.g11 + p12 * (2.0 * g.g12) + p22 * g.g22) * inv_lap
        nonlocal_term = float(np.sum(t, axis=0) @ weights) * 0.5
        well = 0.5 / eps * float(np.mean(W(1.0 - u1 - u2) + W(u1) + W(u2)))
        return (step, grad + well + nonlocal_term, grad, well, nonlocal_term)

    lo, hi = GUARD_BAND
    u1, u2 = f.u1, f.u2
    m1, m2 = float(u1.mean()), float(u2.mean())
    a, b = np.fft.rfft2(u1), np.fft.rfft2(u2)
    trace = [row(0, u1, u2, a, b)]
    for step in range(1, steps + 1):
        s, d = u1 + u2, u1 - u2
        if printed_well:
            p = s * s * -3.0 + 2.0 - d * d
            force_s, force_d = ((s * 8.0 - 8.0 + p) * s * 3.0 + 4.0), d * p
        else:
            r = (s - 2.0) * s * 3.0 + d * d + 2.0
            force_s, force_d = ((r + s) * s - d * d) * 3.0, d * r
        s_new = np.fft.rfft2(force_s) * s3 + a * s1 + b * s2
        d_new = np.fft.rfft2(force_d) * d3 + a * d1 + b * d2
        a, b = s_new + d_new, s_new - d_new
        a[0, 0], b[0, 0] = m1 * n * n, m2 * n * n
        u1, u2 = np.fft.irfft2(a, s=(n, n)), np.fft.irfft2(b, s=(n, n))
        if u1.min() < lo or u1.max() > hi:
            u1 = _mass_exact_clip(u1, m1)
            a = np.fft.rfft2(u1)
        if u2.min() < lo or u2.max() > hi:
            u2 = _mass_exact_clip(u2, m2)
            b = np.fft.rfft2(u2)
        trace.append(row(step, u1, u2, a, b))
    return u1, u2, trace


@pytest.mark.parametrize("n, block_rows", [(64, None), (40, 3), (64, 5)],
                         ids=["one-block", "40-rows-of-3", "64-rows-of-5"])
@pytest.mark.parametrize("printed_well", [False, True],
                         ids=["standard", "printed"])
def test_blocked_step_matches_the_whole_array_reference(monkeypatch, n,
                                                        block_rows,
                                                        printed_well):
    # 40 rows in blocks of 3 end on a block of 1, 64 rows of 5 on one of 4
    if block_rows is not None:
        monkeypatch.setattr(PF, "_BLOCK_BYTES", block_rows * n * 8)
    eps = 2.0 / n
    g = scaled_gamma(GammaMatrix(2.0, 1.0, 0.5), 0.2)
    if printed_well:
        f = noisy_uniform_field(n, eps, (0.3, 0.35), amplitude=0.1, seed=4)
    else:
        f = droplet_field(n, eps, 0.2, [(2.0, 1.5), (0.0, 2.0)],
                          [(0.3, 0.35), (0.7, 0.8)])
    out, trace = relax(f, g, dt=eps / n, steps=40, printed_well=printed_well,
                       trace_every=1)
    u1, u2, ref = reference_relax(f, g, eps / n, 40, printed_well)
    assert np.array_equal(out.u1, u1) and np.array_equal(out.u2, u2)
    assert trace == ref


@pytest.mark.parametrize("block_rows", [None, 5])
def test_blocked_clip_run_matches_the_whole_array_reference(monkeypatch,
                                                            block_rows):
    if block_rows is not None:
        monkeypatch.setattr(PF, "_BLOCK_BYTES", block_rows * 64 * 8)
    out, trace = clip_probe(trace_every=1)
    f = noisy_uniform_field(64, 2.0 / 64, (0.7, 0.1), amplitude=0.05, seed=1)
    u1, u2, ref = reference_relax(f, NO_COUPLING, 0.05, 50, printed_well=True)
    assert np.array_equal(out.u1, u1) and np.array_equal(out.u2, u2)
    assert trace == ref


def clip_probe(**kwargs):
    """The printed well drives this state out of the guard band."""
    f = noisy_uniform_field(64, 2.0 / 64, (0.7, 0.1), amplitude=0.05, seed=1)
    return relax(f, NO_COUPLING, dt=0.05, steps=50, printed_well=True,
                 **kwargs)


def test_clip_keeps_mass_and_trace_describes_the_state(caplog):
    with caplog.at_level(logging.DEBUG, logger="triblock.phasefield"):
        out, trace = clip_probe(trace_every=1)
    clips = [r.getMessage() for r in caplog.records if "guard band" in r.getMessage()]
    assert any("u1 left" in m for m in clips) and any("u2 left" in m for m in clips)
    assert out.means()[0] == pytest.approx(0.7, abs=1e-12)
    assert out.means()[1] == pytest.approx(0.1, abs=1e-12)
    lo, hi = GUARD_BAND
    assert lo <= min(out.u1.min(), out.u2.min())
    assert max(out.u1.max(), out.u2.max()) <= hi
    parts = diffuse_energy(out, NO_COUPLING, printed_well=True, parts=True)
    assert trace[-1][1] == pytest.approx(parts["total"], rel=1e-12)


def test_summary_line_counts_the_clips(caplog):
    with caplog.at_level(logging.DEBUG, logger="triblock.phasefield"):
        out, _ = clip_probe(trace_every=1)
    lines = [r.getMessage() for r in caplog.records]
    per_clip = [sum(f"u{i} left the guard band" in m for m in lines)
                for i in (1, 2)]
    summaries = [m for m in lines if m.startswith("relax: ")]
    assert len(summaries) == 1
    found = re.fullmatch(r"relax: (\d+) steps, clips u1 (\d+), u2 (\d+), "
                         r"smallest blow-up margin (\S+)", summaries[0])
    assert found is not None, summaries[0]
    steps, clips1, clips2 = (int(x) for x in found.groups()[:3])
    assert (steps, [clips1, clips2]) == (50, per_clip)
    assert per_clip[0] > 0 and per_clip[1] > 0
    # the last step's max |u| bounds the margin, before its clip shrank it
    worst = max(np.abs(out.u1).max(), np.abs(out.u2).max())
    assert 0.0 < float(found.group(4)) <= 5.0 - worst + 1e-3


@pytest.mark.parametrize("low, high, mean", [
    (-0.5, 1.5, 0.3), (3.0, 5.0, 1.0), (-5.0, -3.0, -0.1), (-0.2, 4.9, 1.1),
    (-0.5, 1.5, GUARD_BAND[0]), (-0.5, 1.5, GUARD_BAND[1])])
def test_mass_exact_clip_hits_the_mean(low, high, mean):
    # shifts of several units, where one ulp of the shift is wider than
    # one ulp of the band width, and targets on the band's edges
    v = np.random.default_rng(3).uniform(low, high, size=(16, 16))
    u = _mass_exact_clip(v, mean)
    lo, hi = GUARD_BAND
    assert lo <= u.min() and u.max() <= hi
    assert abs(float(u.mean()) - mean) <= 1e-15


def fft_counts(rfft2=0, rfft=0, fft=0, ifft=0, irfft=0):
    return {"rfft2": rfft2, "irfft2": 0, "rfft": rfft, "fft": fft,
            "ifft": ifft, "irfft": irfft}


def test_relax_fft_counts(fft_calls, caplog, monkeypatch):
    f = noisy_uniform_field(32, 2.0 / 32, (0.05, 0.05), seed=0)
    # set-up: one rfft2 per species; a step: per row block one rfft and one
    # irfft per species, and one fft and one ifft down the stacked columns
    for trace_every in (1, 7):
        fft_calls.update(dict.fromkeys(fft_calls, 0))
        relax(f, NO_COUPLING, steps=7, trace_every=trace_every)
        assert fft_calls == fft_counts(rfft2=2, rfft=2 * 7, fft=7, ifft=7,
                                       irfft=2 * 7)
    # each species clipped costs one rfft2 to transform it afresh
    fft_calls.update(dict.fromkeys(fft_calls, 0))
    with caplog.at_level(logging.DEBUG, logger="triblock.phasefield"):
        clip_probe(trace_every=1)
    clips = sum("guard band" in r.getMessage() for r in caplog.records)
    assert clips > 0
    assert fft_calls == fft_counts(rfft2=2 + clips, rfft=2 * 50, fft=50,
                                   ifft=50, irfft=2 * 50)
    # four row blocks of 8
    monkeypatch.setattr(PF, "_BLOCK_BYTES", 8 * 32 * 8)
    fft_calls.update(dict.fromkeys(fft_calls, 0))
    relax(f, NO_COUPLING, steps=7)
    assert fft_calls == fft_counts(rfft2=2, rfft=2 * 4 * 7, fft=7, ifft=7,
                                   irfft=2 * 4 * 7)


def test_energy_fft_counts(fft_calls):
    f = noisy_uniform_field(32, 2.0 / 32, (0.05, 0.05), seed=0)
    diffuse_energy(f, NO_COUPLING)
    assert fft_calls == fft_counts(rfft2=2)
    ind = disk_indicator(32, (0.5, 0.5), 0.2)
    sharp_energy(SharpConfig(ind, np.zeros_like(ind), 0.1),
                 GammaMatrix(1.0, 1.0, 0.0))
    assert fft_calls == fft_counts(rfft2=4)


# ---------------------------------------------------------------------------
# Sharp grid energies.

def test_grid_perimeter_disk_and_square():
    n = 512
    disk = disk_indicator(n, (0.5, 0.5), 0.3)
    assert grid_perimeter(disk) == pytest.approx(2.0 * math.pi * 0.3, rel=0.01)
    X, Y = torus_grid(n)
    square = (np.abs(X - 0.5) < 0.2) & (np.abs(Y - 0.5) < 0.2)
    rel = grid_perimeter(square) / 1.6 - 1.0
    assert -0.08 < rel < 0.0  # axis-aligned squares read a few percent low


def test_sharp_disk_energy_near_closed_form():
    n, eta, mass = 512, 0.05, 3.0
    g = GammaMatrix(1.0, 1.0, 0.0)
    ind = disk_indicator(n, (0.5, 0.5), eta * math.sqrt(mass / math.pi))
    c = SharpConfig(ind, np.zeros_like(ind), eta)
    measured = c.masses()[0]
    assert measured == pytest.approx(mass, rel=0.01)
    assert sharp_energy(c, g) == pytest.approx(e0((measured, 0.0), g), rel=0.1)


def test_far_disks_cross_term_decays_like_inverse_log():
    # Point-charge reduction: the cross term is g12 m1 m2 G(d) / |log eta|,
    # so it shrinks logarithmically relative to the self energies.
    n = 512
    d = np.array([0.5, 0.5])
    for eta in (0.05, 0.02):
        radius = eta * math.sqrt(2.0 / math.pi)
        c = SharpConfig(disk_indicator(n, (0.25, 0.25), radius),
                        disk_indicator(n, (0.75, 0.75), radius), eta)
        coupled = sharp_energy(c, GammaMatrix(1.0, 1.0, 1.0))
        self_only = sharp_energy(c, GammaMatrix(1.0, 1.0, 0.0))
        cross = coupled - self_only
        m1, m2 = c.masses()
        predicted = m1 * m2 * float(TG.green(d)) / abs(math.log(eta))
        assert cross == pytest.approx(predicted, rel=0.03)
        assert abs(cross) < abs(self_only) / abs(math.log(eta))


def test_sharp_energy_empty_raises():
    zeros = np.zeros((32, 32), dtype=bool)
    c = SharpConfig(zeros, zeros, 0.1)
    with pytest.raises(ValueError):
        sharp_energy(c, GammaMatrix(1.0, 1.0, 0.0))


def test_sharp_energy_at_tiny_eta_is_finite_or_refused():
    # One occupied cell of a 4x4 grid.  The interaction is formed from the
    # bare indicators, so it stays finite down to eta = 1e-77, where the
    # indicators over eta^2 would overflow; at 1e-100 and 1e-154 the energy
    # itself is past the float range.
    ind = np.zeros((4, 4), dtype=bool)
    ind[1, 1] = True
    g = GammaMatrix(1.0, 1.0, 0.5)

    def energy(eta):
        return sharp_energy(SharpConfig(ind, np.zeros_like(ind), eta), g)

    per = 2.0 * grid_perimeter(ind)
    bare = (energy(0.5) - per) * 2.0 * math.log(2.0) * 0.5 ** 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eta = 1e-77
        want = per / (2.0 * eta) + math.exp(
            math.log(bare / (2.0 * abs(math.log(eta)))) - 4.0 * math.log(eta))
        assert energy(eta) == pytest.approx(want, rel=1e-12)
        for eta in (1e-100, 1e-154):
            with pytest.raises(ValueError, match="^eta must give a finite energy"):
                energy(eta)


def test_sharp_config_validation():
    ind = disk_indicator(64, (0.5, 0.5), 0.2)
    with pytest.raises(ValueError):
        SharpConfig(ind, ind, 0.1)  # overlapping supports
    with pytest.raises(ValueError):
        SharpConfig(ind, np.zeros_like(ind), 0.0)
    with pytest.raises(ValueError):
        SharpConfig(np.zeros((4, 8), dtype=bool), np.zeros((4, 8), dtype=bool),
                    0.1)
    c = SharpConfig(ind, np.zeros_like(ind), 0.1)
    cells = float(np.count_nonzero(ind))
    assert c.masses()[0] == pytest.approx(cells / (64 ** 2 * 0.01))
    assert c.masses()[1] == 0.0


# ---------------------------------------------------------------------------
# Thresholding and component extraction.

def test_threshold_stripe_midline_within_one_cell():
    n = 256
    f = tanh_stripe_field(n, 4.0 / n)
    c = threshold(f, 0.5, eta=0.1)
    rows = np.nonzero(c.ind1.any(axis=1))[0]
    assert abs(rows.min() / n - 0.25) <= 1.5 / n
    assert abs((rows.max() + 1) / n - 0.75) <= 1.5 / n
    assert not c.ind2.any()
    assert c.overlap_fraction == 0.0


def test_threshold_empty_and_level_validation():
    f = uniform_field(32, 0.1, (0.0, 0.0))
    c = threshold(f, 0.5, eta=0.1)
    assert not c.ind1.any() and not c.ind2.any()
    with pytest.raises(ValueError):
        threshold(f, 0.0, eta=0.1)
    with pytest.raises(ValueError):
        threshold(f, 1.0, eta=0.1)


def test_threshold_idempotent_on_indicators():
    ind1 = disk_indicator(64, (0.3, 0.3), 0.15)
    ind2 = disk_indicator(64, (0.7, 0.7), 0.15)
    f = Field(ind1.astype(float), ind2.astype(float), 0.05)
    c = threshold(f, 0.5, eta=0.1)
    assert np.array_equal(c.ind1, ind1)
    assert np.array_equal(c.ind2, ind2)


def test_threshold_overlap_goes_to_larger_value():
    u1 = np.zeros((8, 8))
    u2 = np.zeros((8, 8))
    u1[2, 2], u2[2, 2] = 0.7, 0.6
    u1[5, 5], u2[5, 5] = 0.6, 0.9
    f = Field(u1, u2, 0.1)
    c = threshold(f, 0.5, eta=0.1)
    assert c.ind1[2, 2] and not c.ind2[2, 2]
    assert c.ind2[5, 5] and not c.ind1[5, 5]
    assert c.overlap_fraction == 1.0


def test_threshold_counts_positive_parts():
    # At (2, 2) neither species passes 0.5 alone, as in a wall cell; at
    # (5, 5) u1 + u2 < 0.5 because u2 is negative.  Both cells go to u1.
    u1 = np.zeros((8, 8))
    u2 = np.zeros((8, 8))
    u1[2, 2], u2[2, 2] = 0.3, 0.25
    u1[5, 5], u2[5, 5] = 0.52, -0.04
    c = threshold(Field(u1, u2, 0.1), 0.5, eta=0.1)
    assert np.array_equal(np.argwhere(c.ind1), [[2, 2], [5, 5]])
    assert not c.ind2.any()
    assert c.overlap_fraction == 0.0


def test_threshold_keeps_a_grid_line_wall_in_its_double():
    # The double's wall lies on the grid line x = 1/2, where u1 = u2 < 1/2,
    # so no wall cell passes the level on one species alone.
    f = droplet_field(64, 2.0 / 64, 0.1, [(4.0, 4.0)], [(0.5, 0.5)])
    conf, _ = extract_components(threshold(f, 0.5, eta=0.1))
    assert [c.kind for c in conf.clusters] == ["double"]


def test_extract_two_disks():
    n, eta = 256, 0.1
    ind1 = disk_indicator(n, (0.25, 0.25), 0.05)
    ind2 = disk_indicator(n, (0.75, 0.75), 0.08)
    conf, centers = extract_components(SharpConfig(ind1, ind2, eta))
    assert sorted(c.kind for c in conf.clusters) == [
        "single_type1", "single_type2"]
    cell = 1.0 / (n ** 2 * eta ** 2)
    by_kind = {c.kind: c for c in conf.clusters}
    assert by_kind["single_type1"].m1 == pytest.approx(
        np.count_nonzero(ind1) * cell, abs=cell)
    assert by_kind["single_type2"].m2 == pytest.approx(
        np.count_nonzero(ind2) * cell, abs=cell)
    pairs = sorted(zip([c.kind for c in conf.clusters], centers))
    assert pairs[0][1] == pytest.approx((0.25, 0.25), abs=1.0 / n)
    assert pairs[1][1] == pytest.approx((0.75, 0.75), abs=1.0 / n)


def test_extract_double_shaped_region():
    n, eta = 256, 0.1
    X, _ = torus_grid(n)
    disk = disk_indicator(n, (0.5, 0.5), 0.1)
    ind1 = disk & (X < 0.5)
    ind2 = disk & ~ind1
    conf, _ = extract_components(SharpConfig(ind1, ind2, eta))
    assert [c.kind for c in conf.clusters] == ["double"]
    assert conf.clusters[0].m1 > 0.0 and conf.clusters[0].m2 > 0.0


def test_extract_wraparound_component():
    n, eta = 128, 0.1
    ind1 = disk_indicator(n, (0.0, 0.0), 0.08)
    conf, centers = extract_components(
        SharpConfig(ind1, np.zeros_like(ind1), eta))
    assert len(conf.clusters) == 1
    cx, cy = centers[0]
    assert min(cx, 1.0 - cx) < 1.0 / n
    assert min(cy, 1.0 - cy) < 1.0 / n


def test_extract_empty():
    zeros = np.zeros((16, 16), dtype=bool)
    conf, centers = extract_components(SharpConfig(zeros, zeros, 0.1))
    assert conf.clusters == () and centers == []


def _reference_labels(mask):
    """ndimage's planar labels joined across the wraps by csgraph, which
    numbers components by their smallest planar label."""
    from scipy import ndimage
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    labels, n = ndimage.label(mask)
    a = np.concatenate((labels[0], labels[:, 0]))
    b = np.concatenate((labels[-1], labels[:, -1]))
    wrap = (a > 0) & (b > 0)
    pairs = coo_array((np.ones(np.count_nonzero(wrap)), (a[wrap], b[wrap])),
                      shape=(n + 1, n + 1))
    count, component = connected_components(pairs, directed=False)
    return component[labels], count - 1


_CHECKERBOARD = np.indices((6, 6)).sum(axis=0) % 2 == 0
_STRIPES = np.zeros((7, 9), dtype=bool)
_STRIPES[:, [0, 8]] = True   # two columns joined across the row wrap
_STRIPES[3, 2:7] = True      # a stripe touching no wrap
_STRIPES[0, 2:4] = True      # two stripes joined across the column wrap
_STRIPES[6, 3:5] = True


@given(mask=arrays(bool, array_shapes(min_dims=2, max_dims=2, max_side=24)))
@example(mask=np.ones((1, 1), dtype=bool))
@example(mask=np.zeros((1, 1), dtype=bool))
@example(mask=np.array([[True, False, True, True, False, True]]))
@example(mask=np.array([[True], [False], [True], [True], [False], [True]]))
@example(mask=np.ones((5, 4), dtype=bool))
@example(mask=_CHECKERBOARD)
@example(mask=_STRIPES)
@example(mask=_STRIPES.T.copy())
def test_periodic_labels_match_scipy(mask):
    labels, count = _periodic_labels(mask)
    want, want_count = _reference_labels(mask)
    assert count == want_count
    assert np.array_equal(labels, want)


def test_extract_components_matches_a_per_component_pass():
    # One mask, circular mean and count per component, as extract_components
    # once computed them.  Its sums now run in another order, so the
    # centers agree to rounding only.
    rng = np.random.default_rng(11)
    n, eta = 48, 0.1
    occupied = rng.random((n, n)) < 0.45
    ind1 = occupied & (rng.random((n, n)) < 0.5)
    ind2 = occupied & ~ind1
    conf, centers = extract_components(SharpConfig(ind1, ind2, eta))
    labels, count = _periodic_labels(occupied)
    assert count > 50 and len(conf.clusters) == len(centers) == count

    def circular_mean(coords):
        angles = 2.0 * math.pi * coords / n
        return math.atan2(np.mean(np.sin(angles)),
                          np.mean(np.cos(angles))) / (2.0 * math.pi) % 1.0

    cell = 1.0 / (n ** 2 * eta ** 2)
    for k, cluster, center in zip(range(1, count + 1), conf.clusters, centers):
        mask = labels == k
        assert cluster.m1 == np.count_nonzero(mask & ind1) * cell
        assert cluster.m2 == np.count_nonzero(mask & ind2) * cell
        ii, jj = np.nonzero(mask)
        for got, want in zip(center, (circular_mean(ii), circular_mean(jj))):
            gap = abs(got - want)
            assert min(gap, 1.0 - gap) <= 1e-13


# ---------------------------------------------------------------------------
# Snapshots.

def test_pgm_round_trip(tmp_path):
    f = noisy_uniform_field(32, 0.05, (0.3, 0.4), amplitude=0.2, seed=5)
    stem = str(tmp_path / "snap")
    paths = write_field_pgm(f, stem, metadata={"eta": 0.1, "step": 12},
                            comment="cfg deadbeef")
    assert len(paths) == 3
    lo, hi = GUARD_BAND
    quantum = (hi - lo) / 65535.0
    for name, grid in (("u1", f.u1), ("u2", f.u2)):
        data = (tmp_path / f"snap_{name}.pgm").read_bytes()
        header = b"P5\n# cfg deadbeef\n32 32\n65535\n"
        assert data.startswith(header)
        samples = np.frombuffer(data[len(header):], dtype=">u2")
        back = samples.reshape(32, 32) / 65535.0 * (hi - lo) + lo
        assert np.max(np.abs(back - grid)) <= 0.5 * quantum + 1e-12
    meta = json.loads((tmp_path / "snap_meta.json").read_text())
    assert meta == {"n": 32, "epsilon": f.epsilon, "value_range": [lo, hi],
                    "eta": 0.1, "step": 12}
