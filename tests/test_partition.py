"""Tests for the cluster-splitting search and its quantized oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from triblock import partition
from triblock.geometry import (GammaMatrix, e0, e0_gradient, perimeter,
                               single_energy)
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
    # uniform (probe=None) value sits below a light-partner value.
    th_uniform = thresholds(G_PLAIN)
    th_light = thresholds(G_PLAIN, probe=1.0)
    assert th_uniform.concavity[0] < th_light.concavity[0]


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


def test_ansatz_grids_share_one_perimeter_solve_per_ratio():
    # p is homogeneous of degree 1/2: when no mass cap binds, every double
    # count kd has x_hi/y_hi = M1/M2, and sqrt(y_hi) times the one unit grid
    # is the perimeter on that count's grid.  The ansatz value is the grid
    # minimum: kd doubles at the hint plus the best equal-disk packing of
    # what is left, and no grid point is lower.
    M, grids, n = (1.0, 0.75), {}, partition._ANSATZ_GRID
    g = GammaMatrix(2.0, 1.0, 0.3)
    th = thresholds(g)
    found = [partition._ansatz_for_doubles(kd, M, g, th, grids)
             for kd in (1, 2, 4)]
    assert len(grids) == 1
    (unit,) = grids.values()
    u = np.linspace(1.0 / n, 1.0, n)
    for kd, (value, x, y, ks1, ks2) in zip((1, 2, 4), found):
        x_hi, y_hi = M[0] / kd, M[1] / kd
        want = [[perimeter((x, y)) for y in y_hi * u] for x in x_hi * u]
        assert np.allclose(math.sqrt(y_hi) * unit, want, rtol=1e-13, atol=0.0)
        assert x in x_hi * u and y in y_hi * u

        def packing(rest, gii):
            return best_equal_split(rest, gii) if rest > 0.0 else 0.0

        def ansatz(a, b):
            return (kd * e0((a, b), g) + packing(M[0] - kd * a, g.g11)
                    + packing(M[1] - kd * b, g.g22))

        assert value == pytest.approx(ansatz(x, y), rel=1e-12)
        assert value <= min(ansatz(a, b) for a in x_hi * u[::5]
                            for b in y_hi * u[::5]) * (1.0 + 1e-12)
        for rest, gii, ks in ((M[0] - kd * x, g.g11, ks1),
                              (M[1] - kd * y, g.g22, ks2)):
            assert ks * single_energy(rest / max(ks, 1), gii) == pytest.approx(
                packing(rest, gii), rel=1e-12, abs=1e-12)


def test_finalize_rejects_a_repair_that_empties_a_lobe():
    # The species-1 excess of 1e-8 is within the repair tolerance, but taking
    # it off the largest holder would leave that lobe empty.
    raw = [[0.0, 1.0], [1e-8, 0.0], [1e-8, 0.0]]
    assert partition._finalize(raw, (1e-8, 1.0), G_PLAIN) is None


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


def test_solve_cell_propagates_programming_errors(monkeypatch):
    # A failed restart is dropped by its result; a TypeError from the
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
