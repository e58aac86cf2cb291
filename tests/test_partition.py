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
    coexistence_bounds,
    ebar,
    ebar_oracle,
    quantization_bound,
    round_config_to_grid,
    thresholds,
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


_EXTREME = (1e-300, 1e-250, 1e-200, 1e200, 1e250, 1e300)


@pytest.mark.parametrize("g", [G_PLAIN, GammaMatrix(4.0, 0.3, 0.0),
                               GammaMatrix(0.2, 25.0, 3.0),
                               GammaMatrix(8.0, 2.0, 0.5)]
                         + [GammaMatrix(s, 2.0 * s, 0.0) for s in _EXTREME],
                         ids=["plain", "4-0.3", "0.2-25", "8-2"]
                         + [f"{s:.0e}" for s in _EXTREME])
def test_thresholds_of_the_swapped_matrix_are_the_mirror(g):
    # classify_regime and ebar's species swap build the swapped thresholds
    # from th.swapped() instead of two more solves; they must agree
    # exactly.  Every bound is finite at every scale: the splitting bound
    # divides by the two concavity thresholds, whose product leaves the
    # float range for Gamma outside about 1e+-230.
    th = thresholds(g)
    assert thresholds(g.swapped()) == th.swapped()
    assert th.swapped().swapped() == th
    bounds = (*th.max_mass, *th.single_floor, *th.concavity, th.gamma12_split)
    assert all(0.0 < b < math.inf for b in bounds)


def test_cluster_kind_validation():
    # The kind follows from which masses are positive.
    assert Cluster(1.0, 0.5).kind == KIND_DOUBLE
    assert Cluster(1.0, 0.0).kind == KIND_SINGLE_1
    assert Cluster(0.0, 2.0).kind == KIND_SINGLE_2
    assert Cluster(1.0, 0.0).as_dict() == {"kind": KIND_SINGLE_1,
                                           "m1": 1.0, "m2": 0.0}
    with pytest.raises(ValueError, match="^m2 must"):
        Cluster(0.0, -1.0)
    with pytest.raises(ValueError, match="must not both be zero"):
        Cluster(0.0, 0.0)


def test_configuration_sum_validation():
    good = Configuration((Cluster(1.0, 0.5),), (1.0, 0.5))
    assert good.counts()[KIND_DOUBLE] == 1
    with pytest.raises(ValueError):
        Configuration((Cluster(1.0, 0.5),), (1.0, 0.6))


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
        assert Cluster(*m).energy(g) == e0(m, g)
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
    # Only floor(m/x*) and the count above are compared, so the masses
    # include some within 3 ulps of j x*, where the floor may land on
    # either side of j, and some below x*.
    xstar = (4.0 * math.pi * math.sqrt(math.pi) / gii) ** (2.0 / 3.0)
    edges = [j * xstar + k * np.spacing(j * xstar)
             for j in (1, 2, 17) for k in range(-3, 4)]
    mass = np.array([0.0, 1e-6, 0.3, 2.0, 17.0, 95.0, 400.0, *edges,
                     1e-3 * xstar, 0.5 * xstar, 0.999 * xstar])
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
        clusters = [Cluster(a, b) for a, b in zip(w1, w2)]
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
    for bad in (2.5, 3.9, True, float("inf"), 12.0, "12", 12 + 0j):
        with pytest.raises(ValueError, match="max_parts"):
            ebar_oracle((1.0, 1.0), G_PLAIN, max_parts=bad)
    # states > nan is False, so a NaN budget would disable the state check.
    for bad in (float("nan"), float("inf"), 2.5, True, "12", 0, 12 + 0j):
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
    # B = A itself is a square, where _min_plus visits only the row pairs
    # b1 >= a1.
    rng = np.random.default_rng(sum(shape))
    for _ in range(3):
        A = rng.uniform(0.0, 4.0, size=shape)
        B = rng.uniform(0.0, 4.0, size=shape)
        A[rng.uniform(size=shape) < 0.2] = np.inf
        B[rng.uniform(size=shape) < 0.2] = np.inf
        for other in (B, A):
            assert np.array_equal(partition._min_plus(A, other),
                                  _min_plus_reference(A, other))


def test_min_plus_square_equals_the_full_pass():
    # The same floats whether the square path or the full pass forms them,
    # on a real cluster table and on its square.
    T = partition._quantized_energy_table(32, 32, 1.0 / 32,
                                          GammaMatrix(4.0, 4.0, 6.0))
    for _ in range(2):
        square = partition._min_plus(T, T)
        assert np.array_equal(square, partition._min_plus(T, T.copy()))
        T = square


def _squared_without_exit(table, k):
    """The answer's entry of table^k by repeated squaring to the last bit,
    with no fixed-point exit."""
    result, power = None, table
    while k > 1:
        if k & 1:
            result = (power if result is None
                      else partition._min_plus(result, power))
        k >>= 1
        if k == 1 and result is None:
            return partition._corner_min_plus(power, power)
        power = partition._min_plus(power, power)
    if result is None:
        return float(power[-1, -1])
    return partition._corner_min_plus(result, power)


@pytest.mark.parametrize("M, gg, delta, squares", [
    # Strong self-interaction: the optimum keeps falling up to 8 clusters,
    # so no square returns its input.
    ((2.0, 1.5), (256.0, 128.0, 4.0), 0.25, 3),
    # One cluster is optimal at every state: the table is its own square.
    ((1.0, 1.0), (1.0, 1.0, 0.0), 1.0 / 16, 1),
    # The first square changes 83 states, the second none.
    ((1.5, 1.0), (4.0, 4.0, 6.0), 1.0 / 16, 2),
], ids=["no-fixed-point", "fixed-at-one-part", "fixed-at-two-parts"])
def test_oracle_powers_match_repeated_products(monkeypatch, M, gg, delta,
                                               squares):
    # At most k clusters is the k-th min-plus power of the cluster table
    # (its [0, 0] entry is 0); repeated squaring, including the answer-only
    # last product, must agree with k - 1 plain products for every k.  Past
    # a fixed point the exit returns the same floats as squaring on.
    g = GammaMatrix(*gg)
    n1, n2 = round(M[0] / delta), round(M[1] / delta)
    table = partition._quantized_energy_table(n1, n2, delta, g)
    power = table
    for k in range(1, 16):
        if k > 1:
            power = _min_plus_reference(power, table)
        got = ebar_oracle(M, g, delta=delta, max_parts=k)
        assert got == _squared_without_exit(table, k), k
        assert got == pytest.approx(power[n1, n2], rel=1e-13), k
    min_plus, calls = partition._min_plus, []

    def counted(A, B):
        calls.append(A is B)
        return min_plus(A, B)

    monkeypatch.setattr(partition, "_min_plus", counted)
    ebar_oracle(M, g, delta=delta, max_parts=12)
    assert calls == [True] * squares


def test_oracle_stops_only_when_every_state_holds(monkeypatch):
    # The answer's state can hold through a square while a smaller one
    # falls: 2.5 -> 1 + 1, and only the next square finds 2 + 2 < 4.2.
    table = np.array([[0.0], [1.0], [2.5], [3.5], [4.2]])
    monkeypatch.setattr(partition, "_quantized_energy_table",
                        lambda n1, n2, delta, gamma: table)
    assert _squared_without_exit(table, 4) == 4.0
    assert ebar_oracle((4.0, 0.0), G_PLAIN, delta=1.0, max_parts=4) == 4.0


def test_min_plus_small_buffer_and_many_blocks(monkeypatch):
    # Row chunks of one row and blocks of one column reach the same minima,
    # in a product and in a square.
    monkeypatch.setattr(partition, "_MIN_PLUS_BUFFER_BYTES", 1)
    monkeypatch.setattr(partition, "_MIN_PLUS_BLOCKS", 50)
    rng = np.random.default_rng(7)
    A = rng.uniform(size=(7, 11))
    B = rng.uniform(size=(7, 11))
    A[2, 3] = np.inf
    for other in (B, A):
        assert np.array_equal(partition._min_plus(A, other),
                              _min_plus_reference(A, other))


@pytest.mark.parametrize("M, counts", [
    ((1e-300, 1e-300), (1, 0, 0)), ((1e-250, 1e-250), (1, 0, 0)),
    ((1e-200, 1.0), (0, 1, 1)), ((1.0, 1e-300), (0, 1, 1))])
def test_ebar_is_silent_at_vanishing_masses(M, counts):
    # A lobe under 3e-206 overflows its Hessian terms; that raised under
    # the suite's error::RuntimeWarning filter, though the answers hold.
    g = GammaMatrix(1.0, 1.0, 0.1)
    _, conf = ebar(M, g)
    assert tuple(conf.counts().values()) == counts
    assert check_necessary_conditions(conf, g)["all_pass"]


def test_ebar_propagates_programming_errors(monkeypatch):
    # A failed start is dropped by its result; a TypeError from the
    # energy is a defect and must reach the caller.
    def broken(m, gamma):
        raise TypeError("broken cell energy")

    monkeypatch.setattr(partition, "e0", broken)
    with pytest.raises(TypeError, match="broken cell energy"):
        ebar((2.0, 0.0), G_PLAIN)


def test_round_to_grid_preserves_totals():
    clusters = (Cluster(0.37, 0.21), Cluster(0.63, 0.79))
    conf = Configuration(clusters, (1.0, 1.0))
    rounded = round_config_to_grid(conf, DELTA)
    s1 = sum(c.m1 for c in rounded)
    s2 = sum(c.m2 for c in rounded)
    assert s1 == pytest.approx(1.0, abs=1e-12)
    assert s2 == pytest.approx(1.0, abs=1e-12)
    for c in rounded:
        for m in (c.m1, c.m2):
            assert abs(m / DELTA - round(m / DELTA)) < 1e-9


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
def test_quantization_refuses_a_bad_delta_by_name(delta):
    # 0 divided by zero, -0.1 gave a bound of 6.5e-10, nan failed in int()
    conf = Configuration((Cluster(0.37, 0.21),), (0.37, 0.21))
    with pytest.raises(ValueError, match="^delta must be positive"):
        round_config_to_grid(conf, delta)
    with pytest.raises(ValueError, match="^delta must be positive"):
        quantization_bound(conf, G_PLAIN, delta)


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
_LOG_SHARE = st.floats(-12.0, math.log10(0.5))
_DIAGONAL = st.floats(0.5, 20.0)


@settings(max_examples=60)
@given(log_total=_LOG_TOTAL, log_share=_LOG_SHARE, swap=st.booleans(),
       g11=_DIAGONAL, g22=_DIAGONAL, g12=st.floats(0.0, 20.0))
@example(log_total=math.log10(600.0), log_share=math.log10(0.5), swap=False,
         g11=1.0, g22=1.0, g12=2.0)  # (300, 300): 76 singles
@example(log_total=math.log10(610.0), log_share=math.log10(10.0 / 610.0),
         swap=True, g11=1.0, g22=1.0, g12=2.0)  # (600, 10): 77 singles
# Five draws whose answers once kept two doubles with a small lobe of the
# same species: the one-double cell that holds the merged lobes stopped
# unconverged, one ulp over its mass cap or above an absolute tolerance.
@example(log_total=1.123238273880558, log_share=-5.518390059455544,
         swap=False, g11=12.724624273904107, g22=1.9027046944706403,
         g12=13.802444976552874)
@example(log_total=0.9299530604793986, log_share=-4.524791505542905,
         swap=True, g11=5.9150074544033675, g22=14.198894252292133,
         g12=14.365583419520378)
@example(log_total=0.45461715559502025, log_share=-2.9295067666425467,
         swap=True, g11=19.459725371861875, g22=19.936106273083706,
         g12=17.53164793192989)
@example(log_total=2.0614345402708647, log_share=-9.1377288792339,
         swap=False, g11=7.521901888938677, g22=14.097805217858888,
         g12=1.7383220029550683)
@example(log_total=2.429525637419715, log_share=-8.8676807700212,
         swap=True, g11=8.739546332593592, g22=6.260690144684795,
         g12=13.022067704569382)
# Four draws whose double keeps a lobe of ratio below 1e-11: a stop rule on
# the whole residual let the partner species stop 1e-6 to 2e-5 unbalanced.
@example(log_total=0.7864207522248048, log_share=-11.666577486901005,
         swap=False, g11=2.1134860479544884, g22=13.316344126800663,
         g12=3.8592128013221405)
@example(log_total=0.46285651605917444, log_share=-11.158331361632863,
         swap=False, g11=18.381212043308754, g22=17.81345884292085,
         g12=13.243004993157971)
@example(log_total=1.839486345219484, log_share=-11.309793119646441,
         swap=True, g11=2.915662382566613, g22=2.880568609816684,
         g12=10.623002966475124)
@example(log_total=2.0071686463898164, log_share=-11.660211143384625,
         swap=False, g11=16.442213609608437, g22=3.325049894831028,
         g12=3.3111873697082794)
def test_ebar_meets_necessary_conditions_or_refuses(log_total, log_share,
                                                     swap, g11, g22, g12):
    # The smaller species holds a share of 1e-12..1/2 of the total, in
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


@settings(max_examples=50)
@given(k1=st.integers(7, 128), k2=st.integers(7, 128), g11=_DIAGONAL,
       g22=_DIAGONAL, g12=st.floats(0.0, 20.0))
def test_ebar_agrees_with_oracle_on_its_grid(k1, k2, g11, g22, g12):
    # Criterion 05's checks on drawn instances.  The totals lie on the
    # oracle's grid: off it the oracle solves the rounded totals, and its
    # value can fall below ebar's by the rounding alone.
    M, g = (k1 * DELTA, k2 * DELTA), GammaMatrix(g11, g22, g12)
    value, conf = ebar(M, g)
    grid_value = ebar_oracle(M, g, delta=DELTA, max_parts=12)
    assert value <= grid_value + 1e-9, (M, g)
    assert grid_value <= value + quantization_bound(conf, g, DELTA), (M, g)
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
    big = Configuration((Cluster(30.0, 0.0),), (30.0, 0.0))
    assert not check_necessary_conditions(big, G_PLAIN)["mass_caps"]
    # Two singles below the repeated-singles floor.
    tiny = Configuration((Cluster(0.1, 0.0), Cluster(0.1, 0.0)), (0.2, 0.0))
    report = check_necessary_conditions(tiny, G_PLAIN)
    assert not report["single_floor"]
    # Unequal singles of the same species break derivative balance.
    lopsided = Configuration((Cluster(10.0, 0.0), Cluster(14.0, 0.0)),
                             (24.0, 0.0))
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


@pytest.mark.parametrize("M", [(1.0, 1.0), (3.0, 1.0)],
                         ids=["in-order", "species-swap"])
def test_one_thresholds_solve_per_question(monkeypatch, M):
    # a thresholds solve is two concavity_threshold calls; classify_regime
    # hands its own to the search, and ebar's species swap mirrors its
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return concavity_threshold(*args, **kwargs)

    monkeypatch.setattr(partition, "concavity_threshold", counted)
    report = classify_regime(M, G_WEAK_CROSS)
    assert len(calls) == 2
    calls.clear()
    assert ebar(M, G_WEAK_CROSS) == (report["search"]["energy"],
                                     report["search"]["configuration"])
    assert len(calls) == 2


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
    frame = partition._frame(act, w)
    J = partition._kkt(t, act, w, frame, M, g, 1e-13)[1]
    # inactive slots are identity rows, not derivatives
    live = np.hstack([act, np.ones((2, 2), bool)])
    J = np.where(live[:, :, None], J, 0.0)
    for j in range(t.shape[1]):
        h = 1e-6 * np.maximum(np.abs(t[:, j]), 1.0)
        up, down = t.copy(), t.copy()
        up[:, j] += h
        down[:, j] -= h
        Fu = partition._kkt(up, act, w, frame, M, g, 1e-13)[0]
        Fd = partition._kkt(down, act, w, frame, M, g, 1e-13)[0]
        fd = (Fu - Fd) / (2.0 * h[:, None])
        assert np.allclose(J[:, :, j], fd, rtol=1e-6, atol=1e-6), j


_STOPS = ("converged", "left_cell", "no_descent", "iteration_cap")


def test_rows_whose_double_would_vanish_end_under_a_named_stop():
    # One double plus one type-1 single at (1, 1), Gamma = (16, 16, 0): from
    # the even split (the cell's own start) the double's species-1 lobe
    # would run to zero, from a 95% split the single would.  Neither row
    # reaches a KKT point in its cell, and each ends under one named stop;
    # the neighbour cell that holds only the double answers.
    g, M = GammaMatrix(16.0, 16.0, 0.0), (1.0, 1.0)
    w = partition._slot_weights((1, 1, 0))
    starts = np.zeros((2, 10))
    starts[:, 3] = 1.0
    starts[:, [2, 5]] = [[0.5, 0.5], [0.95, 0.05]]
    assert np.array_equal(partition._cell_starts(w[None], M)[0], starts[0])
    _, _, fnorm, converged, stats = partition._newton(
        starts, np.tile(w, (2, 1)), M, g)
    assert not converged.any() and (fnorm > 1.0).all()
    assert [stats[k] for k in _STOPS] == [0, 0, 2, 0]
    value, conf = ebar(M, g)
    assert value == 8.905608343430071
    assert tuple(conf.counts().values()) == (1, 0, 0)


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
    for word in ("cells ranked", "ansatz unit grids", "rows", "converged",
                 "left the cell", "no descent", "iteration cap",
                 "Newton iterations", "geometry calls", "KKT residual",
                 "chosen cell"):
        assert word in record.getMessage()
    assert ("26 cells ranked, 1 ansatz unit grids, 24 rows: 23 converged, "
            "0 left the cell, 1 no descent, 0 at the iteration cap") in (
        record.getMessage())
    assert "worst" not in record.getMessage()


def test_ebar_oracle_logs_one_debug_line_per_call(caplog):
    with caplog.at_level(logging.DEBUG, logger="triblock.partition"):
        ebar_oracle((1.5, 1.0), GammaMatrix(4.0, 4.0, 6.0), delta=1.0 / 16)
        ebar_oracle((2.0, 1.5), GammaMatrix(256.0, 128.0, 4.0), delta=0.25)
    fixed, moving = (r.getMessage() for r in caplog.records)
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    assert fixed == ("ebar_oracle M=(1.5, 1): 425 states, 2 full squares, "
                     "fixed point at 2 parts")
    assert moving == ("ebar_oracle M=(2, 1.5): 63 states, 3 full squares, "
                      "fixed point not reached")
    caplog.clear()
    ebar_oracle((1.5, 1.0), GammaMatrix(4.0, 4.0, 6.0), delta=1.0 / 16)
    assert not caplog.records  # silent by default


def _newton_stats(monkeypatch, M, g):
    """ebar's answer and the stats of its one `_newton` call."""
    newton, seen = partition._newton, []

    def spy(*args):
        out = newton(*args)
        seen.append(out[4])
        return out

    monkeypatch.setattr(partition, "_newton", spy)
    value, conf = ebar(M, g)
    (stats,) = seen
    assert sum(stats[k] for k in _STOPS) == stats["rows"]
    return value, conf, tuple(stats[k] for k in ("rows", "converged",
                                                 "iterations",
                                                 "geometry_calls"))


# The perfbench sweep instances at their template Gamma: (rows, converged,
# Newton iterations, array geometry calls).
@pytest.mark.parametrize("M, gg, stats", [
    ((0.75, 1.25), (1.0, 1.0, 0.0), (24, 24, 4, 5)),
    ((1.0, 1.0), (4.0, 4.0, 6.0), (24, 24, 5, 6)),
    ((1.25, 0.75), (8.0, 2.0, 0.5), (24, 23, 5, 6)),
])
def test_newton_stats_on_the_sweep_instances(monkeypatch, M, gg, stats):
    assert _newton_stats(monkeypatch, M, GammaMatrix(*gg))[2] == stats


# A double whose lobe ratio q is tiny sits at its KKT point once ||F|| is
# down to the accuracy of its small-lobe slope, ~eps/sqrt(q) relative: every
# row converges there, in a few iterations.  The values are the answers
# that running on to 50 iterations gave.
@pytest.mark.parametrize("share, value, iterations", [
    (1e-12, 3.624487389994687, 4),
    (1e-20, 3.624485173578643, 4),
    (1e-27, 3.6244851733570496, 4),
])
def test_rows_with_a_tiny_lobe_converge(monkeypatch, share, value,
                                        iterations):
    got, conf, stats = _newton_stats(monkeypatch, (share, 1.0), G_PLAIN)
    assert got == pytest.approx(value, rel=1e-12)
    assert tuple(conf.counts().values()) == (1, 0, 0)
    assert stats[1] == stats[0] and stats[2] == iterations


def test_scale_widens_only_the_small_lobe_species_below_ratio_4e_8():
    # Rows: a double of lobe ratio 1e-6 (species 1 small), one of 1e-10
    # (species 2 small), a lone lobe of mass 1e-12 beside an inactive
    # partner, and singles only.  Multipliers (2, -3).
    t = np.zeros((4, 10))
    t[:, 8:] = [[2.0, -3.0]] * 4
    t[0, 0:2], t[1, 2:4], t[2, 0] = (1e-6, 1.0), (1.0, 1e-10), 1e-12
    t[3, 4:8] = 0.5
    act = t[:, :8] > 0.0
    got = partition._scale(t, act, 1e-13)
    base = 1e-13 + partition._KKT_RTOL * np.array([2.0, 3.0])
    species = partition._SLOT_SPECIES
    assert (got[:, 8:] == 1e-13).all()  # the mass equations
    for row in (0, 2, 3):
        assert np.array_equal(got[row, :8], base[species])
    assert np.array_equal(got[1, :8][species == 0], np.full(4, base[0]))
    assert got[1, :8][species == 1] == pytest.approx(
        1e-13 + 3.0 * math.sqrt(10.0) * np.finfo(float).eps / 1e-5 * 3.0,
        rel=1e-12)


def test_cell_starts_follow_the_per_species_rule():
    # Reference: per row and species, the doubles take half the total (all
    # of it without singles of that species, none without doubles), and
    # each group's part is shared equally by its slot weight.
    counts = np.array([(kd, k1, k2) for kd in range(3) for k1 in range(3)
                       for k2 in range(3)])
    w = partition._slot_weights(counts)
    M = (0.7, 1.9)
    want = np.zeros((len(w), 10))
    for row, wr in enumerate(w):
        for s in (0, 1):
            dbl = [k for k in (0, 1, 2, 3) if k % 2 == s and wr[k] > 0]
            sgl = [k for k in ((4, 5), (6, 7))[s] if wr[k] > 0]
            d, g = sum(wr[dbl]), sum(wr[sgl])
            f = 0.0 if d == 0 else 0.5 if g > 0 else 1.0
            want[row, dbl] = M[s] * f / max(d, 1.0)
            want[row, sgl] = M[s] * (1.0 - f) / max(g, 1.0)
    assert np.array_equal(partition._cell_starts(w, M), want)


def test_slot_weights_of_many_cells_match_one_at_a_time():
    counts = np.array([(0, 3, 2), (1, 0, 0), (2, 1, 4), (5, 7, 0)])
    assert np.array_equal(partition._slot_weights(counts),
                          [partition._slot_weights(c) for c in counts])


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
