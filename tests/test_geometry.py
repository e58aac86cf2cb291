"""Double-bubble geometry: closed forms, residuals, derivatives, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from triblock import geometry as G

SYM_PERIMETER = 2.0 * math.sqrt(2.0) * math.sqrt(4.0 * math.pi / 3.0 + math.sqrt(3.0) / 2.0)


def random_pairs(n, seed, ratio_lo=1e-4):
    """Mass pairs with ratio log-uniform in [ratio_lo, 1] and random scale."""
    rng = np.random.default_rng(seed)
    ratio = 10.0 ** rng.uniform(np.log10(ratio_lo), 0.0, size=n)
    m2 = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    return np.column_stack([ratio * m2, m2])


def test_symmetric_closed_form():
    assert G.perimeter((1.0, 1.0)) == pytest.approx(SYM_PERIMETER, rel=1e-12)
    assert G.perimeter((3.0, 3.0)) == pytest.approx(math.sqrt(3.0) * SYM_PERIMETER, rel=1e-12)


def test_single_closed_form():
    assert G.perimeter((1.0, 0.0)) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)
    assert G.perimeter((0.0, 3.0)) == pytest.approx(2.0 * math.sqrt(3.0 * math.pi), rel=1e-13)
    assert G.perimeter((0.0, 0.0)) == 0.0


def test_residuals_random_pairs():
    worst = 0.0
    for m1, m2 in random_pairs(2000, seed=42):
        geom = G.solve_geometry((m1, m2))
        res = G.geometry_residuals(geom, (m1, m2))
        worst = max(worst, max(abs(v) for v in res.values()))
    assert worst < 1e-12


def test_canonical_angle_relations():
    for m1, m2 in random_pairs(200, seed=3):
        g = G.solve_geometry((m1, m2))
        assert 0.0 <= g.theta0 < math.pi / 3.0
        assert g.theta1 == pytest.approx(2.0 * math.pi / 3.0 - g.theta0, abs=1e-15)
        assert g.theta2 == pytest.approx(2.0 * math.pi / 3.0 + g.theta0, abs=1e-15)
        assert g.r1 <= g.r2
        assert g.swapped == (m1 > m2)


def test_scaling_symmetry():
    base = G.perimeter((0.3, 1.7))
    for lam in (0.1, 0.33, 2.0, 10.0):
        scaled = G.perimeter((lam**2 * 0.3, lam**2 * 1.7))
        assert scaled == pytest.approx(lam * base, rel=1e-12)


def test_swap_invariance():
    for a, b in [(0.2, 1.0), (3.0, 0.4), (1e-3, 1.0)]:
        assert G.perimeter((a, b)) == pytest.approx(G.perimeter((b, a)), rel=1e-13)
        ga = G.perimeter_gradient((a, b))
        gb = G.perimeter_gradient((b, a))
        assert ga[0] == pytest.approx(gb[1], rel=1e-13)
        assert ga[1] == pytest.approx(gb[0], rel=1e-13)


def _arc_shoelace(center, radius, phi_a, phi_b):
    """Green's-theorem contribution (1/2) int (x dy - y dx) along an arc."""
    ox, oy = center

    def integrand(phi):
        return radius * (ox * math.cos(phi) + oy * math.sin(phi) + radius)

    val, err = quad(integrand, phi_a, phi_b, epsabs=1e-12, epsrel=1e-12)
    return 0.5 * val


def test_lobe_areas_by_quadrature():
    # Independent of the segment-area algebra: rebuild each lobe from the arc
    # positions (junctions at (0, +-h), arc centers on the x-axis) and check
    # that the Green's-theorem shoelace areas reproduce the input masses.
    for m1, m2 in [(0.3, 1.7), (2.0, 2.0002), (2e-4, 2.0), (5.0, 0.5)]:
        g = G.solve_geometry((m1, m2))
        a, b = min(m1, m2), max(m1, m2)
        o1 = (g.r1 * math.cos(g.theta1), 0.0)
        o2 = (-g.r2 * math.cos(g.theta2), 0.0)
        area1 = _arc_shoelace(o1, g.r1, math.pi - g.theta1, math.pi + g.theta1)
        area2 = _arc_shoelace(o2, g.r2, -g.theta2, g.theta2)
        if math.isinf(g.r0):
            mid = 0.0  # straight segment along x = 0 contributes nothing
        else:
            o0 = (-g.r0 * math.cos(g.theta0), 0.0)
            mid = _arc_shoelace(o0, g.r0, -g.theta0, g.theta0)
        scale = a + b
        assert abs((area1 + mid) - a) / scale < 1e-9
        assert abs((area2 - mid) - b) / scale < 1e-9


def test_perimeter_below_two_singles():
    for m1, m2 in random_pairs(300, seed=7):
        p = G.perimeter((m1, m2))
        singles = 2.0 * math.sqrt(math.pi * m1) + 2.0 * math.sqrt(math.pi * m2)
        assert p < singles


def test_gradient_matches_fd():
    worst = 0.0
    for m1, m2 in random_pairs(300, seed=11, ratio_lo=1e-3):
        g1, g2 = G.perimeter_gradient((m1, m2))
        h1 = 1e-6 * m1
        fd1 = (G.perimeter((m1 + h1, m2)) - G.perimeter((m1 - h1, m2))) / (2.0 * h1)
        h2 = 1e-6 * m2
        fd2 = (G.perimeter((m1, m2 + h2)) - G.perimeter((m1, m2 - h2))) / (2.0 * h2)
        worst = max(worst, abs(fd1 - g1) / g1, abs(fd2 - g2) / g2)
    assert worst < 1e-6


def test_gradient_positive_and_ordered():
    for m1, m2 in random_pairs(200, seed=13):
        g1, g2 = G.perimeter_gradient((m1, m2))
        assert g1 > 0.0 and g2 > 0.0
        if m1 < m2:  # smaller lobe has the larger curvature
            assert g1 > g2


def test_e0_value_and_errors():
    gamma = G.GammaMatrix(1.0, 1.0, 0.0)
    val = G.e0((1.0, 1.0), gamma)
    assert val == pytest.approx(SYM_PERIMETER + 2.0 / (4.0 * math.pi), rel=1e-12)
    single = G.e0((1.0, 0.0), gamma)
    assert single == pytest.approx(2.0 * math.sqrt(math.pi) + 1.0 / (4.0 * math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        G.e0((0.0, 0.0), gamma)
    with pytest.raises(ValueError):
        G.perimeter((-1.0, 1.0))
    with pytest.raises(ValueError):
        G.perimeter_gradient((0.0, 1.0))
    with pytest.raises(ValueError):
        G.solve_geometry((1.0, float("nan")))


def test_e0_gradient_components():
    gamma = G.GammaMatrix(2.0, 0.5, 0.3)
    m = (0.8, 1.9)
    p1, p2 = G.perimeter_gradient(m)
    d1, d2 = G.e0_gradient(m, gamma)
    assert d1 == pytest.approx(p1 + (2.0 * 0.8 + 0.3 * 1.9) / (2.0 * math.pi), rel=1e-12)
    assert d2 == pytest.approx(p2 + (0.3 * 0.8 + 0.5 * 1.9) / (2.0 * math.pi), rel=1e-12)


def test_near_symmetric_band():
    # Just outside the symmetric short-circuit the solver still meets the
    # residual contract with a middle angle of order (1 - ratio).
    m2 = 1.0
    for gap in (1e-9, 5e-10, 2e-10):
        m1 = m2 * (1.0 - gap)
        geom = G.solve_geometry((m1, m2))
        assert 0.0 < geom.theta0 < 1e-8
        res = G.geometry_residuals(geom, (m1, m2))
        assert max(abs(v) for v in res.values()) < 1e-12
    sym = G.solve_geometry((1.0 - 5e-11, 1.0))
    assert sym.theta0 == 0.0 and math.isinf(sym.r0)


def test_hessian_negative_small_divergent():
    gamma = G.GammaMatrix(1.0, 1.0, 0.0)
    vals = [G.e0_hessian_diag((m1, 1.0), gamma, 1) for m1 in (1e-2, 1e-3, 1e-4)]
    assert all(v < 0.0 for v in vals)
    assert vals[0] > vals[1] > vals[2]  # monotone divergence toward -inf


def test_hessian_positive_large_mass():
    gamma = G.GammaMatrix(1.0, 1.0, 0.0)
    assert G.e0_hessian_diag((50.0, 1.0), gamma, 1) > 0.0


def test_hessian_boundary_rejected():
    gamma = G.GammaMatrix(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        G.e0_hessian_diag((0.0, 1.0), gamma, 1)
    with pytest.raises(ValueError):
        G.e0_hessian_diag((1.0, 1.0), gamma, 3)


def test_concavity_threshold_sign_change():
    gamma = G.GammaMatrix(1.0, 1.0, 0.0)
    m_star = G.concavity_threshold(1.0, 1, 1.0)
    assert 0.1 < m_star < 100.0
    assert G.e0_hessian_diag((m_star * 0.999, 1.0), gamma, 1) < 0.0
    assert G.e0_hessian_diag((m_star * 1.001, 1.0), gamma, 1) > 0.0


def test_concavity_threshold_scaling():
    # e0(lam^2 m, Gamma/lam^3) = lam e0(m, Gamma) maps thresholds as
    # m*(Gamma/lam^3, lam^2 probe) = lam^2 m*(Gamma, probe).
    base = G.concavity_threshold(1.0, 1, 1.0)
    scaled = G.concavity_threshold(1.0 / 8.0, 1, 4.0)
    assert scaled == pytest.approx(4.0 * base, rel=1e-6)


def test_single_energy_helpers():
    assert G.single_energy(4.0, 2.0) == pytest.approx(
        2.0 * math.sqrt(4.0 * math.pi) + 2.0 * 16.0 / (4.0 * math.pi), rel=1e-13)
    m_inflect = math.pi * 2.0 ** (-2.0 / 3.0)
    assert G.single_energy_hessian(m_inflect * 0.99, 2.0) < 0.0
    assert G.single_energy_hessian(m_inflect * 1.01, 2.0) > 0.0


def test_gamma_matrix_validation():
    with pytest.raises(ValueError):
        G.GammaMatrix(0.0, 1.0)
    with pytest.raises(ValueError):
        G.GammaMatrix(1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        G.GammaMatrix(1.0, 1.0, 1.5, enforce_definite=True)
    ok = G.GammaMatrix(1.0, 4.0, 1.5, enforce_definite=True)
    assert ok.is_positive_definite()
    sw = ok.swapped()
    assert (sw.g11, sw.g22, sw.g12) == (4.0, 1.0, 1.5)


# Array solver `_perimeters` against the scalar `perimeter`.  Below a mass
# ratio of about 2e-7 the scalar solve itself raises ConvergenceError.
_PAIR = st.tuples(st.floats(math.log10(2e-7), 0.0),  # log10 of the ratio
                  st.floats(-6.0, 6.0),               # log10 of the scale
                  st.booleans())                      # small mass first


@given(pairs=st.lists(_PAIR, min_size=1, max_size=20))
def test_array_perimeters_match_scalar(pairs):
    m1, m2 = [], []
    for log_ratio, log_scale, small_first in pairs:
        big = 10.0 ** log_scale
        small = 10.0 ** log_ratio * big
        m1.append(small if small_first else big)
        m2.append(big if small_first else small)
    got = G._perimeters(m1, m2)
    want = np.array([G.perimeter(m) for m in zip(m1, m2)])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_array_perimeters_special_values():
    assert G._perimeters([], []).shape == (0,)
    masses = [(0.0, 0.0), (0.0, 3.0), (1.0, 0.0), (2.0, 2.0),
              (1.0 - 5e-11, 1.0), (1.0 - 1e-9, 1.0), (0.3, 1.7)]
    got = G._perimeters(*np.array(masses).T)
    want = [G.perimeter(m) for m in masses]
    assert np.all(np.abs(got - want) <= 1e-13 * np.array(want))
    # broadcasting keeps the shape of the table
    table = G._perimeters(np.arange(3.0)[:, None],
                          np.arange(1.0, 5.0)[None, :])
    assert table.shape == (3, 4)
    assert table[2, 1] == pytest.approx(G.perimeter((2.0, 2.0)), rel=1e-13)


def test_array_perimeters_raise_on_unconverged_pair():
    # A ratio of 1e-10 is far below where the solve meets its residual gate:
    # the whole call raises, naming that pair, and returns nothing.
    with pytest.raises(G.ConvergenceError, match=r"\(1e-10, 1\)"):
        G._perimeters([0.5, 1e-10, 1e-10], [1.0, 1.0, 2.0])
    # At 3e-8 the Newton residual is met but the geometry residuals are
    # 1.8e-12: the per-element gate rejects it, as in solve_geometry.
    with pytest.raises(G.ConvergenceError):
        G.solve_geometry((3e-8, 1.0))
    with pytest.raises(G.ConvergenceError, match=r"\(1, 3e-08\)"):
        G._perimeters([1.0, 1.0], [0.5, 3e-8])
    with pytest.raises(ValueError):
        G._perimeters([-1.0], [1.0])
    with pytest.raises(ValueError):
        G._perimeters([np.nan], [1.0])
