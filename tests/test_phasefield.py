"""Diffuse relaxation: energies, descent invariants, thresholding, snapshots."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from triblock import torus_green as TG
from triblock.geometry import GammaMatrix, e0
from triblock.partition import classify_regime, ebar
from triblock.phasefield import (
    GUARD_BAND,
    INTERFACE_COST,
    Field,
    SharpConfig,
    diffuse_energy,
    droplet_field,
    extract_components,
    grid_perimeter,
    noisy_uniform_field,
    read_field_pgm,
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


def test_field_clips_to_guard_band():
    u1 = np.full((4, 4), 7.0)
    u2 = np.full((4, 4), -3.0)
    f = Field(u1, u2, 0.1)
    lo, hi = GUARD_BAND
    assert float(f.u1.max()) == hi and float(f.u2.min()) == lo
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
    raw = scaled_gamma(GammaMatrix(2.0, 1.0, 0.5), eta, match_sharp=False)
    assert raw.g11 == pytest.approx(g.g11 / INTERFACE_COST)
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


def test_relax_validation():
    f = uniform_field(16, 0.1, (0.1, 0.1))
    with pytest.raises(ValueError):
        relax(f, NO_COUPLING, dt=0.0)
    with pytest.raises(ValueError):
        relax(f, NO_COUPLING, steps=-1)


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


# ---------------------------------------------------------------------------
# Snapshots.

def test_pgm_round_trip(tmp_path):
    f = noisy_uniform_field(32, 0.05, (0.3, 0.4), amplitude=0.2, seed=5)
    stem = str(tmp_path / "snap")
    paths = write_field_pgm(f, stem, metadata={"eta": 0.1, "step": 12},
                            comment="cfg deadbeef")
    assert len(paths) == 3
    assert b"# cfg deadbeef" in (tmp_path / "snap_u1.pgm").read_bytes()
    back = read_field_pgm(stem)
    lo, hi = GUARD_BAND
    quantum = (hi - lo) / 65535.0
    assert np.max(np.abs(back.u1 - f.u1)) <= 0.5 * quantum + 1e-12
    assert np.max(np.abs(back.u2 - f.u2)) <= 0.5 * quantum + 1e-12
    assert back.epsilon == f.epsilon
    meta = (tmp_path / "snap_meta.json").read_text()
    assert '"eta"' in meta and '"step"' in meta


def test_read_pgm_rejects_wrong_magic(tmp_path):
    stem = str(tmp_path / "bad")
    (tmp_path / "bad_meta.json").write_text('{"epsilon": 0.1, "n": 2}\n')
    (tmp_path / "bad_u1.pgm").write_bytes(b"P2\n2 2\n65535\n" + b"\x00" * 8)
    (tmp_path / "bad_u2.pgm").write_bytes(b"P2\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ValueError):
        read_field_pgm(stem)


@pytest.mark.parametrize("header, payload, fault", [
    (b"P5\n2 2\n255\n", b"\x00" * 8, "maxval"),
    (b"P5\n2 2\n65535\n", b"\x00" * 9, "payload"),
    (b"P5\n2\n65535\n", b"\x00" * 8, "dimensions"),
    (b"P5\n2 0\n65535\n", b"", "dimensions"),
    (b"P5\n2 2\n65535\n", b"\x00" * 6, "payload"),
], ids=["maxval-8-bit", "trailing-bytes", "missing-dimension",
        "zero-dimension", "short-payload"])
def test_read_pgm_rejects_malformed_header(tmp_path, header, payload, fault):
    stem = str(tmp_path / "bad")
    write_field_pgm(uniform_field(2, 0.1, (0.2, 0.3)), stem)
    (tmp_path / "bad_u2.pgm").write_bytes(header + payload)
    with pytest.raises(ValueError, match=fault):
        read_field_pgm(stem)
