"""Tests for the cluster-splitting search and its quantized oracle."""

import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from triblock import partition
from triblock.geometry import (GammaMatrix, concavity_threshold, e0,
                               e0_gradient, perimeter, single_energy)
from triblock.partition import (
    Cluster,
    Configuration,
    KIND_DOUBLE,
    KIND_SINGLE_1,
    KIND_SINGLE_2,
    check_necessary_conditions,
    classify_regime,
    cluster_from_masses,
    coexistence_bounds,
    ebar,
    ebar_oracle,
    quantization_bound,
    round_config_to_grid,
    thresholds,
    write_sweep_csv,
)

G_PLAIN = GammaMatrix(1.0, 1.0, 0.0)
G_WEAK_CROSS = GammaMatrix(1.0, 1.0, 0.1)
DELTA = 1.0 / 64


def best_equal_split(mass, gamma_ii, k_max=12):
    return min(k * single_energy(mass / k, gamma_ii) for k in range(1, k_max + 1))


def test_threshold_closed_forms():
    th = thresholds(G_PLAIN)
    assert th.max_mass[0] == pytest.approx(8.0 * math.pi, rel=1e-14)
    assert th.max_mass[1] == pytest.approx(8.0 * math.pi, rel=1e-14)
    assert th.single_floor[0] == pytest.approx(math.pi / 16.0, rel=1e-14)
    expected_split = (4.0 * math.pi * math.sqrt(math.pi)
                      * 2.0 * math.sqrt(8.0 * math.pi)
                      / (th.concavity[0] * th.concavity[1]))
    assert th.gamma12_split == pytest.approx(expected_split, rel=1e-12)


def test_threshold_scaling_with_gamma():
    th1 = thresholds(G_PLAIN)
    th8 = thresholds(GammaMatrix(8.0, 8.0, 0.0))
    assert th8.max_mass[0] == pytest.approx(th1.max_mass[0] / 4.0, rel=1e-13)
    assert th8.single_floor[0] == pytest.approx(
        4.0 * math.pi ** 3 / (8.0 * th8.max_mass[0]) ** 2, rel=1e-13)


def test_threshold_probe_dependence():
    # The concavity threshold shrinks as the partner lobe grows, so the
    # uniform value (against the partner's mass cap) sits below a
    # light-partner value.
    th_uniform = thresholds(G_PLAIN)
    light = concavity_threshold(1.0, 1, probe_other_mass=1.0)
    assert th_uniform.concavity[0] < light


def test_cluster_kind_validation():
    with pytest.raises(ValueError):
        Cluster(KIND_DOUBLE, 1.0, 0.0)
    with pytest.raises(ValueError):
        Cluster(KIND_SINGLE_1, 1.0, 0.5)
    with pytest.raises(ValueError):
        Cluster(KIND_SINGLE_2, 0.0, -1.0)
    with pytest.raises(ValueError):
        Cluster("triple", 1.0, 1.0)
    with pytest.raises(ValueError):
        cluster_from_masses(0.0, 0.0)


def test_configuration_sum_validation():
    good = Configuration((cluster_from_masses(1.0, 0.5),), (1.0, 0.5))
    assert good.counts()[KIND_DOUBLE] == 1
    with pytest.raises(ValueError):
        Configuration((cluster_from_masses(1.0, 0.5),), (1.0, 0.6))


def test_ebar_single_species_small_mass():
    value, conf = ebar((2.0, 0.0), G_PLAIN)
    assert value == pytest.approx(single_energy(2.0, 1.0), rel=1e-12)
    assert conf.counts() == {KIND_DOUBLE: 0, KIND_SINGLE_1: 1, KIND_SINGLE_2: 0}


def test_ebar_single_species_splits():
    value, conf = ebar((20.0, 0.0), G_PLAIN)
    assert value == pytest.approx(best_equal_split(20.0, 1.0), rel=1e-10)
    n = conf.counts()[KIND_SINGLE_1]
    assert n >= 2
    sizes = [c.m1 for c in conf.clusters]
    assert max(sizes) - min(sizes) <= 1e-8 * max(sizes)


def test_ebar_small_masses_prefer_one_double():
    value, conf = ebar((1.0, 1.0), G_WEAK_CROSS)
    assert conf.counts() == {KIND_DOUBLE: 1, KIND_SINGLE_1: 0, KIND_SINGLE_2: 0}
    assert value == pytest.approx(e0((1.0, 1.0), G_WEAK_CROSS), rel=1e-12)
    assert conf.clusters[0].m1 == pytest.approx(1.0, abs=1e-12)
    assert conf.clusters[0].m2 == pytest.approx(1.0, abs=1e-12)


def test_cell_energy_is_e0_at_a_vanishing_lobe():
    # Cells take the exact droplet energy at every lobe ratio.
    g = GammaMatrix(2.0, 0.5, 0.3)
    for m in ((1e-12, 1.0), (3.0, 3e-12)):
        assert partition._cell_energy(*m, g) == e0(m, g)
        assert partition._cell_gradient(*m, g) == e0_gradient(m, g)


def test_ansatz_grids_share_one_perimeter_solve_per_ratio(monkeypatch):
    # p is homogeneous of degree 1/2: when no mass cap binds, every double
    # count kd has x_hi/y_hi = M1/M2, and sqrt(y_hi) times the one unit grid
    # is the perimeter on that count's grid.  The ansatz value is the grid
    # minimum of kd doubles at one lobe pair plus the best equal-disk
    # packing of what is left, and the single counts are the disk counts of
    # that packing at the minimizing pair.
    n = 12
    monkeypatch.setattr(partition, "_ANSATZ_GRID", n)
    M, grids = (1.0, 0.75), {}
    g = GammaMatrix(2.0, 1.0, 0.3)
    th = thresholds(g)
    found = [partition._ansatz_for_doubles(kd, M, g, th, grids)
             for kd in (1, 2, 4)]
    assert len(grids) == 1
    (unit,) = grids.values()
    u = np.linspace(1.0 / n, 1.0, n)

    def packing(rest, gii):
        # (cost, disk count) of the best split into at most 12 equal disks
        if rest <= 1e-9:
            return (0.0, 0)
        return min((k * single_energy(rest / k, gii), k) for k in range(1, 13))

    for kd, (value, ks1, ks2) in zip((1, 2, 4), found):
        x_hi, y_hi = M[0] / kd, M[1] / kd
        want = [[perimeter((x, y)) for y in y_hi * u] for x in x_hi * u]
        assert np.allclose(math.sqrt(y_hi) * unit, want, rtol=1e-13, atol=0.0)
        grid = np.array([[kd * e0((x, y), g) + packing(M[0] - kd * x, g.g11)[0]
                          + packing(M[1] - kd * y, g.g22)[0]
                          for y in y_hi * u] for x in x_hi * u])
        i, j = np.unravel_index(np.argmin(grid), grid.shape)
        assert value == pytest.approx(grid[i, j], rel=1e-12)
        assert ks1 == packing(M[0] - kd * x_hi * u[i], g.g11)[1]
        assert ks2 == packing(M[1] - kd * y_hi * u[j], g.g22)[1]
    assert any(ks1 or ks2 for _, ks1, ks2 in found)  # a leftover is packed


@pytest.mark.parametrize("gii", [0.5, 1.0, 16.0])
def test_packing_grid_count_attains_the_cheapest_equal_split(gii):
    # Against a walk over every disk count up to far past the optimum.
    mass = np.array([0.0, 1e-6, 0.3, 2.0, 17.0, 95.0, 400.0])
    cost, count = partition._packing_grid(mass, gii)
    assert cost[0] == 0.0 and count[0] == 0
    for m, c, k in zip(mass[1:], cost[1:], count[1:]):
        want = min((j * single_energy(m / j, gii), j) for j in range(1, 400))
        assert c == pytest.approx(want[0], rel=1e-13)
        assert k == want[1]


@pytest.mark.parametrize("M, gg, kd", [
    ((1.0, 0.75), (2.0, 1.0, 0.3), 1),
    ((4.0, 2.5), (1.0, 1.0, 0.5), 2),
    ((300.0, 300.0), (1.0, 1.0, 2.0), 5),
])
def test_packing_grid_separates_by_axis(M, gg, kd):
    # The leftover of species 1 varies along the ansatz grid's axis 0 only,
    # so packing the grid lines and broadcasting repeats the 2-D arithmetic.
    g = GammaMatrix(*gg)
    th = thresholds(g)
    n = partition._ANSATZ_GRID
    x_hi = min(M[0] / kd, 1.5 * th.max_mass[0])
    y_hi = min(M[1] / kd, 1.5 * th.max_mass[1])
    xs, ys = np.linspace(x_hi / n, x_hi, n), np.linspace(y_hi / n, y_hi, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    full = (partition._packing_grid(np.maximum(M[0] - kd * X, 0.0), g.g11)[0]
            + partition._packing_grid(np.maximum(M[1] - kd * Y, 0.0), g.g22)[0])
    lines = (partition._packing_grid(np.maximum(M[0] - kd * xs, 0.0), g.g11)[0][:, None]
             + partition._packing_grid(np.maximum(M[1] - kd * ys, 0.0), g.g22)[0])
    assert np.array_equal(full, lines)


def test_ebar_tiny_species_one_total_is_one_double():
    value, conf = ebar((1e-8, 1.0), G_PLAIN)
    assert conf.counts() == {KIND_DOUBLE: 1, KIND_SINGLE_1: 0, KIND_SINGLE_2: 0}
    assert value == pytest.approx(3.624706845901019, rel=1e-12)
    assert check_necessary_conditions(conf, G_PLAIN)["all_pass"]


@pytest.mark.parametrize("M, g", [((1e-9, 1.0), GammaMatrix(1.0, 1.0, 0.5)),
                                  ((1e-10, 1.0), G_PLAIN),
                                  ((1.0, 1e-10), G_PLAIN)])
def test_ebar_tiny_species_total_survives_the_polish(M, g):
    # The polish floor is relative to each species' own total; a floor on
    # M1 + M2 zeroed the tiny species and left no feasible configuration.
    value, conf = ebar(M, g)
    assert math.isfinite(value)
    assert conf.counts() == {KIND_DOUBLE: 1, KIND_SINGLE_1: 0, KIND_SINGLE_2: 0}
    assert check_necessary_conditions(conf, g)["all_pass"]


def test_ebar_strong_cross_splits_to_singles():
    g = GammaMatrix(4.0, 4.0, 6.0)
    value, conf = ebar((1.0, 1.0), g)
    assert conf.counts() == {KIND_DOUBLE: 0, KIND_SINGLE_1: 1, KIND_SINGLE_2: 1}
    assert value == pytest.approx(single_energy(1.0, 4.0) * 2.0, rel=1e-12)


def test_ebar_swap_invariance_exact():
    g = GammaMatrix(1.0, 2.0, 0.3)
    v_a, conf_a = ebar((0.7, 1.9), g)
    v_b, conf_b = ebar((1.9, 0.7), g.swapped())
    assert v_a == v_b
    swapped_back = [(c.kind, c.m2, c.m1) for c in conf_b.clusters]
    direct = [(c.kind, c.m1, c.m2) for c in conf_a.clusters]
    kind_swap = {KIND_SINGLE_1: KIND_SINGLE_2, KIND_SINGLE_2: KIND_SINGLE_1,
                 KIND_DOUBLE: KIND_DOUBLE}
    swapped_back = sorted((kind_swap[k], a, b) for k, a, b in swapped_back)
    assert swapped_back == sorted(direct)


def test_ebar_deterministic_repeat():
    out1 = ebar((1.3, 0.9), G_WEAK_CROSS)
    out2 = ebar((1.3, 0.9), G_WEAK_CROSS)
    assert out1[0] == out2[0]
    assert out1[1] == out2[1]


def test_ebar_subadditive_under_random_splits():
    rng = np.random.default_rng(11)
    value, _ = ebar((1.3, 0.9), G_WEAK_CROSS)
    for trial in range(100):
        parts = rng.integers(2, 5)
        w1 = rng.dirichlet(np.ones(parts)) * 1.3
        w2 = rng.dirichlet(np.ones(parts)) * 0.9
        clusters = [cluster_from_masses(a, b) for a, b in zip(w1, w2)]
        split_energy = sum(c.energy(G_WEAK_CROSS) for c in clusters)
        assert value <= split_energy + 1e-12 * max(1.0, split_energy)


def test_ebar_agrees_with_oracle():
    cases = [((1.0, 1.0), G_PLAIN),
             ((1.0, 1.0), GammaMatrix(4.0, 4.0, 6.0)),
             ((1.5, 1.0), GammaMatrix(8.0, 2.0, 0.5)),
             ((2.0, 2.0), GammaMatrix(16.0, 16.0, 0.0))]
    for M, g in cases:
        value, conf = ebar(M, g)
        grid_value = ebar_oracle(M, g, delta=DELTA, max_parts=12)
        bound = quantization_bound(conf, g, DELTA)
        assert value <= grid_value + 1e-9
        assert grid_value <= value + bound


def test_oracle_pure_species_closed_form():
    assert ebar_oracle((1.0, 0.0), G_PLAIN, delta=DELTA) == pytest.approx(
        single_energy(1.0, 1.0), rel=1e-12)
    assert ebar_oracle((2.0, 0.0), GammaMatrix(16.0, 1.0, 0.0),
                       delta=DELTA) == pytest.approx(
        best_equal_split(2.0, 16.0), rel=1e-12)


def test_oracle_refines_monotonically():
    # Every coarse-grid configuration is representable on the finer grid,
    # so the optimum cannot rise; allow a couple of ulps of float noise.
    values = [ebar_oracle((1.0, 1.0), G_WEAK_CROSS, delta=d)
              for d in (1.0 / 16, 1.0 / 32, 1.0 / 64)]
    eps = 1e-12 * values[0]
    assert values[0] >= values[1] - eps
    assert values[1] >= values[2] - eps


def test_oracle_guards():
    with pytest.raises(RuntimeError, match="budget"):
        ebar_oracle((10.0, 10.0), G_PLAIN, delta=DELTA)
    with pytest.raises(ValueError):
        ebar_oracle((1.0, 1.0), G_PLAIN, max_parts=0)
    with pytest.raises(ValueError):
        ebar_oracle((0.001, 0.001), G_PLAIN, delta=1.0)
    with pytest.raises(ValueError):
        ebar_oracle((0.0, 0.0), G_PLAIN)
    # M/delta overflows to inf: no grid exists, which is a budget failure.
    with pytest.raises(RuntimeError, match="budget"):
        ebar_oracle((1.0, 1.0), G_PLAIN, delta=1e-320)
    for bad in (2.5, 3.9, True, float("inf"), 12.0, "12"):
        with pytest.raises(ValueError, match="max_parts"):
            ebar_oracle((1.0, 1.0), G_PLAIN, max_parts=bad)
    # states > nan is False, so a NaN budget would disable the state check.
    for bad in (float("nan"), float("inf"), 2.5, True, "12", 0):
        with pytest.raises(ValueError, match="max_states"):
            ebar_oracle((1.0, 1.0), G_PLAIN, max_states=bad)
    assert ebar_oracle((0.5, 0.5), G_PLAIN, delta=1.0 / 16,
                       max_parts=np.int64(3)) == ebar_oracle(
        (0.5, 0.5), G_PLAIN, delta=1.0 / 16, max_parts=3)
    assert ebar_oracle((0.5, 0.5), G_PLAIN, delta=1.0 / 16,
                       max_states=np.int64(289)) == ebar_oracle(
        (0.5, 0.5), G_PLAIN, delta=1.0 / 16)


def test_oracle_pure_species_values():
    # One species only: the table is a single row or column (n1 = 0 or
    # n2 = 0), and the min-plus products work on vectors.  Pinned values.
    cases = [((1.0, 0.0), G_PLAIN, 3.6244851733569794),
             ((0.0, 2.0), GammaMatrix(16.0, 16.0, 0.0), 9.63629449309239),
             ((2.0, 0.0), GammaMatrix(16.0, 1.0, 0.0), 9.63629449309239)]
    for M, g, want in cases:
        assert ebar_oracle(M, g, delta=DELTA) == pytest.approx(want, rel=1e-15)


def _min_plus_reference(A, B):
    S1, S2 = A.shape
    C = np.full(A.shape, np.inf)
    for s1 in range(S1):
        for s2 in range(S2):
            for a1 in range(s1 + 1):
                for a2 in range(s2 + 1):
                    C[s1, s2] = min(C[s1, s2], A[a1, a2] + B[s1 - a1, s2 - a2])
    return C


@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 7), (4, 9), (9, 4),
                                   (6, 6), (3, 40), (40, 3)])
def test_min_plus_matches_quadruple_loop(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(3):
        A = rng.uniform(0.0, 4.0, size=shape)
        B = rng.uniform(0.0, 4.0, size=shape)
        A[rng.uniform(size=shape) < 0.2] = np.inf
        B[rng.uniform(size=shape) < 0.2] = np.inf
        assert np.array_equal(partition._min_plus(A, B),
                              _min_plus_reference(A, B))


def test_oracle_powers_match_repeated_products():
    # At most k clusters is the k-th min-plus power of the cluster table
    # (its [0, 0] entry is 0); repeated squaring, including the answer-only
    # last product, must agree with k - 1 plain products for every k.
    # Strong self-interaction: the optimum keeps falling up to 8 clusters.
    M, g, delta = (2.0, 1.5), GammaMatrix(256.0, 128.0, 4.0), 0.25
    table = partition._quantized_energy_table(8, 6, delta, g)
    power = table
    for k in range(1, 10):
        if k > 1:
            power = _min_plus_reference(power, table)
        assert ebar_oracle(M, g, delta=delta, max_parts=k) == pytest.approx(
            power[8, 6], rel=1e-13), k


def test_min_plus_small_buffer_and_many_blocks(monkeypatch):
    # Row chunks of one row and blocks of one column reach the same minima.
    monkeypatch.setattr(partition, "_MIN_PLUS_BUFFER_BYTES", 1)
    monkeypatch.setattr(partition, "_MIN_PLUS_BLOCKS", 50)
    rng = np.random.default_rng(7)
    A = rng.uniform(size=(7, 11))
    B = rng.uniform(size=(7, 11))
    A[2, 3] = np.inf
    assert np.array_equal(partition._min_plus(A, B), _min_plus_reference(A, B))


def test_ebar_propagates_programming_errors(monkeypatch):
    # A failed start is dropped by its result; a TypeError from the
    # energy is a defect and must reach the caller.
    def broken(m1, m2, gamma):
        raise TypeError("broken cell energy")

    monkeypatch.setattr(partition, "_cell_energy", broken)
    with pytest.raises(TypeError, match="broken cell energy"):
        ebar((2.0, 0.0), G_PLAIN)


def test_round_to_grid_preserves_totals():
    clusters = (cluster_from_masses(0.37, 0.21),
                cluster_from_masses(0.63, 0.79))
    conf = Configuration(clusters, (1.0, 1.0))
    rounded = round_config_to_grid(conf, DELTA)
    s1 = sum(c.m1 for c in rounded)
    s2 = sum(c.m2 for c in rounded)
    assert s1 == pytest.approx(1.0, abs=1e-12)
    assert s2 == pytest.approx(1.0, abs=1e-12)
    for c in rounded:
        for m in (c.m1, c.m2):
            assert abs(m / DELTA - round(m / DELTA)) < 1e-9


def test_quantization_bound_positive_and_valid():
    value, conf = ebar((1.0, 0.75), GammaMatrix(8.0, 2.0, 0.5))
    bound = quantization_bound(conf, GammaMatrix(8.0, 2.0, 0.5), DELTA)
    assert bound > 0.0
    grid_value = ebar_oracle((1.0, 0.75), GammaMatrix(8.0, 2.0, 0.5),
                             delta=DELTA)
    assert grid_value <= value + bound


def test_necessary_conditions_pass_on_search_output():
    for M, g in [((1.0, 1.0), G_WEAK_CROSS),
                 ((20.0, 0.0), G_PLAIN),
                 ((2.0, 2.0), GammaMatrix(16.0, 16.0, 0.0))]:
        _, conf = ebar(M, g)
        report = check_necessary_conditions(conf, g)
        assert report["all_pass"], report


_LOG_TOTAL = st.floats(-10.0, math.log10(600.0))
_LOG_SHARE = st.floats(-6.0, math.log10(0.5))
_DIAGONAL = st.floats(0.5, 20.0)


@settings(max_examples=60)
@given(log_total=_LOG_TOTAL, log_share=_LOG_SHARE, swap=st.booleans(),
       g11=_DIAGONAL, g22=_DIAGONAL, g12=st.floats(0.0, 20.0))
@example(log_total=math.log10(600.0), log_share=math.log10(0.5), swap=False,
         g11=1.0, g22=1.0, g12=2.0)  # (300, 300): 76 singles
@example(log_total=math.log10(610.0), log_share=math.log10(10.0 / 610.0),
         swap=True, g11=1.0, g22=1.0, g12=2.0)  # (600, 10): 77 singles
def test_ebar_meets_necessary_conditions_or_refuses(log_total, log_share,
                                                     swap, g11, g22, g12):
    # The smaller species holds a share of 1e-6..1/2 of the total, in
    # either order.  No cluster of a minimizer outweighs its species' mass
    # cap, so ebar refuses totals whose caps force more than 64 clusters.
    total, share = 10.0 ** log_total, 10.0 ** log_share
    M = (total * share, total * (1.0 - share))
    M = M[::-1] if swap else M
    g = GammaMatrix(g11, g22, g12)
    cap = thresholds(g).max_mass
    needed = sum(math.ceil(m / c - 1e-9) for m, c in zip(M, cap))
    if needed > 64:
        with pytest.raises(ValueError, match="search bound of 64"):
            ebar(M, g)
        return
    _, conf = ebar(M, g)
    report = check_necessary_conditions(conf, g)
    assert report["all_pass"], (M, g, report)


def test_ebar_near_ties_pick_the_balanced_candidate():
    # ebar answers only from rows whose KKT residual converged, so among
    # near-tied cells the returned configuration is balanced to rounding.
    coexist = thresholds(G_PLAIN).max_mass[0] * 1.02
    coexist = (coexist,
               1.02 * coexistence_bounds(G_PLAIN, 1, 1, m1=coexist)[1])
    for M, g in [((101.0, 101.0), GammaMatrix(1.0, 1.0, 41.0)),
                 ((200.0, 170.0), GammaMatrix(1.0, 1.0, 2.0)),
                 ((300.0, 300.0), GammaMatrix(1.0, 1.0, 2.0)),
                 (coexist, G_PLAIN)]:
        _, conf = ebar(M, g)
        spread = check_necessary_conditions(conf, g)["balance_spread"]
        assert max(spread) <= 1e-12, (M, spread)


def test_necessary_conditions_flag_violations():
    # One oversized single trips the mass cap.
    big = Configuration((cluster_from_masses(30.0, 0.0),), (30.0, 0.0))
    assert not check_necessary_conditions(big, G_PLAIN)["mass_caps"]
    # Two singles below the repeated-singles floor.
    tiny = Configuration((cluster_from_masses(0.1, 0.0),
                          cluster_from_masses(0.1, 0.0)), (0.2, 0.0))
    report = check_necessary_conditions(tiny, G_PLAIN)
    assert not report["single_floor"]
    # Unequal singles of the same species break derivative balance.
    lopsided = Configuration((cluster_from_masses(10.0, 0.0),
                              cluster_from_masses(14.0, 0.0)), (24.0, 0.0))
    report = check_necessary_conditions(lopsided, G_PLAIN)
    assert not report["derivative_balance"]


def test_classify_regime_one_double():
    report = classify_regime((1.0, 1.0), G_WEAK_CROSS)
    assert report["guarantee"] == "one_double"
    assert report["one_double"]["split_margin"] > 0.0
    assert report["search"]["consistent"]


def test_classify_regime_all_singles():
    g = GammaMatrix(1.0, 1.0, 41.0)
    th = thresholds(g)
    assert g.g12 > th.gamma12_split
    report = classify_regime((101.0, 101.0), g)
    assert report["guarantee"] == "no_doubles"
    counts = report["search"]["counts"]
    assert counts[KIND_DOUBLE] == 0
    assert report["search"]["consistent"]


def test_classify_regime_coexistence():
    th = thresholds(G_PLAIN)
    m1 = 1.02 * th.max_mass[0]
    _, b2 = coexistence_bounds(G_PLAIN, 1, 1, m1=m1)
    report = classify_regime((m1, 1.02 * b2), G_PLAIN)
    assert report["guarantee"] == "coexistence"
    assert report["coexistence"]["guaranteed_doubles"] >= 1
    assert report["coexistence"]["singles_species"] == 2
    counts = report["search"]["counts"]
    assert counts[KIND_DOUBLE] >= 1
    assert counts[KIND_SINGLE_2] >= 1
    assert report["search"]["consistent"]


def test_write_sweep_csv_deterministic(tmp_path):
    rows = [{"m1": 1.0, "m2": 0.5, "energy": 6.534199691360831},
            {"m1": 2.0, "m2": 1.0, "energy": 9.213}]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_sweep_csv(p1, rows)
    write_sweep_csv(p2, rows)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "energy,m1,m2"
    with pytest.raises(ValueError):
        write_sweep_csv(p1, [])
    empty = tmp_path / "empty.csv"
    write_sweep_csv(empty, [], columns=["m1", "m2", "energy"])
    assert empty.read_text() == "m1,m2,energy\n"


# Values and cluster counts (doubles, type-1 singles, type-2 singles) that
# ebar gave with the SLSQP search the batched Newton solve replaced; the
# Newton solve must reproduce them.  "coexist" is criterion 06's
# coexistence total.  The last three, x = 66.58, 94.30 and 150 from
# geomspace(0.05, 150, 70) at Gamma = (1, 9, 0.2), were computed with
# several starts per cell; there a +-1 neighbour of the ansatz cell wins.
_PINNED = [
    ((101.0, 101.0), (1.0, 1.0, 41.0), 381.78954447822287, (0, 13, 13)),
    ((1.0, 1.0), (1.0, 1.0, 0.1), 6.53419969136083, (1, 0, 0)),
    ("coexist", (1.0, 1.0, 0.0), 664.8433548748119, (4, 0, 37)),
    ((200.0, 170.0), (1.0, 1.0, 2.0), 699.3069215413375, (0, 25, 21)),
    ((300.0, 300.0), (1.0, 1.0, 2.0), 1133.9310564185225, (0, 38, 38)),
    ((1e-08, 1.0), (1.0, 1.0, 0.0), 3.624706845901018, (1, 0, 0)),
    ((1e-09, 1.0), (1.0, 1.0, 0.5), 3.6245552705337603, (1, 0, 0)),
    ((1e-10, 1.0), (1.0, 1.0, 0.0), 3.6245073398138086, (1, 0, 0)),
    ((0.75, 1.25), (1.0, 1.0, 0.0), 6.490508687275532, (1, 0, 0)),
    ((1.0, 1.0), (4.0, 4.0, 6.0), 7.726435175989645, (0, 1, 1)),
    ((1.25, 0.75), (8.0, 2.0, 0.5), 7.480253489628256, (1, 0, 0)),
    ((66.5793923888248, 66.5793923888248), (1.0, 9.0, 0.2),
     379.52096664301916, (10, 0, 26)),
    ((94.30158936051934, 94.30158936051934), (1.0, 9.0, 0.2),
     537.5564669932445, (14, 0, 37)),
    ((150.0, 150.0), (1.0, 9.0, 0.2), 855.0420271385364, (23, 0, 59)),
]


@pytest.mark.parametrize("M, gg, value, counts", _PINNED)
def test_ebar_matches_pinned_values(M, gg, value, counts):
    if M == "coexist":
        m1 = 1.02 * thresholds(G_PLAIN).max_mass[0]
        M = (m1, 1.02 * coexistence_bounds(G_PLAIN, 1, 1, m1=m1)[1])
    got, conf = ebar(M, GammaMatrix(*gg))
    assert got == pytest.approx(value, rel=1e-12)
    assert tuple(conf.counts().values()) == counts


def test_kkt_jacobian_is_the_derivative_of_the_residual():
    # Central differences of F against the exact J, on rows with two
    # doubles, a double with one live lobe (a disk) and singles of both
    # species; g12 > 0 so the Gamma block shows off the diagonal.
    g = GammaMatrix(4.0, 2.0, 3.0)
    M = np.array([1.3, 0.9])
    w = np.array([[2, 2, 1, 1, 1, 1, 3, 1], [0, 0, 1, 1, 0, 1, 0, 1]], float)
    act = np.array([[1, 1, 1, 1, 1, 1, 1, 1], [0, 0, 1, 0, 0, 1, 0, 1]], bool)
    t = np.array([[0.2, 0.1, 0.3, 0.05, 0.15, 0.25, 0.1, 0.3, 1.7, 2.2],
                  [0.0, 0.0, 0.6, 0.0, 0.0, 0.7, 0.0, 0.9, 1.1, 2.9]])
    _, J, _, _ = partition._kkt(t, act, w, M, g)
    # inactive slots are identity rows, not derivatives
    live = np.hstack([act, np.ones((2, 2), bool)])
    J = np.where(live[:, :, None], J, 0.0)
    for j in range(t.shape[1]):
        h = 1e-6 * np.maximum(np.abs(t[:, j]), 1.0)
        up, down = t.copy(), t.copy()
        up[:, j] += h
        down[:, j] -= h
        Fu = partition._kkt(up, act, w, M, g)[0]
        Fd = partition._kkt(down, act, w, M, g)[0]
        fd = (Fu - Fd) / (2.0 * h[:, None])
        assert np.allclose(J[:, :, j], fd, rtol=1e-6, atol=1e-6), j


def test_rows_driven_to_the_floor_leave_their_active_set():
    # One double plus one type-1 single at (1, 1), Gamma = (16, 16, 0): from
    # the even split the double's species-1 lobe runs to the floor and the
    # double becomes a type-2 disk; from a 95% split the single vanishes.
    # Either row then converges, and its slots give the clusters left.  The
    # slots held are the free double's (2, 3) and the free type-1 single's
    # (5); the even split is the cell's own start.
    g, M = GammaMatrix(16.0, 16.0, 0.0), (1.0, 1.0)
    w = partition._slot_weights((1, 1, 0))
    starts = np.zeros((2, 10))
    starts[:, 3] = 1.0
    starts[:, [2, 5]] = [[0.5, 0.5], [0.95, 0.05]]
    assert np.array_equal(partition._cell_starts(w[None], M)[0], starts[0])
    t, energy, fnorm, converged, _ = partition._newton(
        starts, np.tile(w, (2, 1)), M, g)
    for row, gone, counts in ((0, 2, (0, 1, 1)), (1, 5, (1, 0, 0))):
        assert starts[row, gone] >= 0.05 and t[row, gone] == 0.0
        assert fnorm[row] <= 1e-13 and converged[row]
        conf = Configuration(tuple(partition._row_clusters(t[row], w)), M)
        value = conf.energy(g)
        assert tuple(conf.counts().values()) == counts
        assert value == pytest.approx(energy[row], rel=1e-12)
        assert check_necessary_conditions(conf, g)["all_pass"]


@pytest.mark.parametrize("M, g", [((1.0, 1.0), G_WEAK_CROSS),
                                  ((1e-10, 1.0), G_PLAIN),
                                  ((300.0, 300.0), GammaMatrix(1.0, 1.0, 2.0))])
def test_ebar_is_silent_under_warnings_as_errors(M, g):
    # The flat middle arc divides by sin(0) inside the array geometry; the
    # errstate there keeps every warning category silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ebar(M, g)


def test_ebar_logs_one_debug_line_per_call(caplog):
    with caplog.at_level(logging.DEBUG, logger="triblock.partition"):
        ebar((1.25, 0.75), GammaMatrix(8.0, 2.0, 0.5))  # solved swapped
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    for word in ("rows", "converged", "Newton iterations", "geometry calls",
                 "KKT residual", "chosen cell"):
        assert word in record.getMessage()
    assert "worst" not in record.getMessage()


@pytest.mark.parametrize("flaw", ["stalled", "mass gap"])
def test_ebar_never_answers_from_a_stalled_or_short_row(monkeypatch, flaw):
    # Every row that ties the lowest energy is spoilt: marked as stalled
    # short of the KKT tolerance, or with its masses 1e-9 short of the
    # totals.  ebar must answer from the best row left that qualifies.
    newton = partition._newton
    seen = {}

    def spoil_best_rows(t, w, M, gamma):
        t, energy, fnorm, converged, stats = newton(t, w, M, gamma)
        low = converged & (energy <= energy[converged].min() * (1 + 1e-9))
        if flaw == "stalled":
            fnorm[low], converged[low] = 1.0, False
        else:
            t[low, :partition._NSLOT] *= 1.0 - 1e-9
        seen["next"] = energy[converged & ~low].min()
        return t, energy, fnorm, converged, stats

    M, g = (1.0, 1.0), GammaMatrix(4.0, 4.0, 6.0)
    best, _ = ebar(M, g)
    monkeypatch.setattr(partition, "_newton", spoil_best_rows)
    got, _ = ebar(M, g)
    assert got > best * (1 + 1e-9)
    assert got == pytest.approx(seen["next"], rel=1e-12)
