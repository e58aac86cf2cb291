"""Double-bubble geometry: closed forms, residuals, derivatives, thresholds."""

import math
import warnings

import mpmath
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
    assert scaled == pytest.approx(4.0 * base, rel=1e-12)


def test_single_energy_helpers():
    assert G.single_energy(4.0, 2.0) == pytest.approx(
        2.0 * math.sqrt(4.0 * math.pi) + 2.0 * 16.0 / (4.0 * math.pi), rel=1e-13)


def test_gamma_matrix_validation():
    with pytest.raises(ValueError):
        G.GammaMatrix(0.0, 1.0)
    with pytest.raises(ValueError):
        G.GammaMatrix(1.0, 1.0, -0.1)
    assert not G.GammaMatrix(1.0, 1.0, 1.5).is_positive_definite()
    ok = G.GammaMatrix(1.0, 4.0, 1.5)
    assert ok.is_positive_definite()
    sw = ok.swapped()
    assert (sw.g11, sw.g22, sw.g12) == (4.0, 1.0, 1.5)


def _mass_pair(log_ratio, log_scale, small_first):
    big = 10.0 ** log_scale
    small = 10.0 ** log_ratio * big
    return (small, big) if small_first else (big, small)


@given(log_ratio=st.floats(-12.0, 0.0), log_scale=st.floats(-6.0, 6.0),
       small_first=st.booleans())
def test_residual_gate_over_ratios_and_scales(log_ratio, log_scale,
                                              small_first):
    m = _mass_pair(log_ratio, log_scale, small_first)
    geom = G.solve_geometry(m)  # raises ConvergenceError past the 1e-12 gate
    res = G.geometry_residuals(geom, sorted(m))
    assert max(abs(v) for v in res.values()) <= 1e-12


@pytest.mark.parametrize("ratio", [1e-31, 1e-100, 1e-300])
def test_residual_gate_at_vanishing_lobes(ratio):
    # The small lobe is finer than the angular resolution of theta0 here:
    # the gate still holds and the perimeter tends to the big lobe's disk.
    for big in (1e-6, 1.0, 1e6):
        geom = G.solve_geometry((ratio * big, big))
        res = G.geometry_residuals(geom, (ratio * big, big))
        assert max(abs(v) for v in res.values()) <= 1e-12
        disk = 2.0 * math.sqrt(math.pi * big)
        assert G.perimeter((big, ratio * big)) == pytest.approx(disk, rel=1e-14)


def test_residual_gate_refuses_nan_residuals():
    # At (1e308, 1e308) the radii are inf and five of the six residuals
    # nan; the gate let them through, and perimeter and e0 returned inf.
    g = G.GammaMatrix(1.0, 1.0, 0.0)
    for call in (G.solve_geometry, G.perimeter, lambda m: G.e0(m, g)):
        with pytest.raises(G.ConvergenceError, match="curvature nan"):
            call((1e308, 1e308))


def _mpmath_perimeter(m1, m2):
    """Double-bubble perimeter at 60 digits, written from the arc equations
    alone: a lobe of half-angle theta and junction half-height h has area
    h^2 (theta - sin cos)/sin^2 and arc length 2 theta h/sin."""
    with mpmath.workdps(60):
        a, b = sorted((mpmath.mpf(m1), mpmath.mpf(m2)))
        third = mpmath.pi / 3

        def area(theta):
            return ((theta - mpmath.sin(theta) * mpmath.cos(theta))
                    / mpmath.sin(theta) ** 2)

        def arc(theta, h):
            return 2 * theta * h / mpmath.sin(theta)

        if a == b:  # flat middle interface of length 2 h
            h = mpmath.sqrt(a / area(2 * third))
            return 2 * arc(2 * third, h) + 2 * h

        def excess(phi):  # phi = pi/3 - theta0; zero at the area ratio a/b
            t = third - phi
            small = area(third + phi) + area(t)
            large = area(mpmath.pi - phi) - area(t)
            return (a * large - b * small) / (a * large + b * small)

        phi = mpmath.findroot(excess, (mpmath.sqrt(a / b) / 100,
                                       third * (1 - mpmath.mpf(10) ** -40)),
                              solver="illinois")
        t = third - phi
        h = mpmath.sqrt(b / (area(2 * third + t) - area(t)))
        return arc(2 * third - t, h) + arc(2 * third + t, h) + arc(t, h)


def test_perimeter_matches_mpmath_reference():
    rng = np.random.default_rng(17)
    ratios = np.concatenate([10.0 ** rng.uniform(-14.0, 0.0, 60),
                             [1e-14, 1e-9, 1e-6, 0.5, 1.0 - 1e-9, 1.0,
                              0.8830324462938409]])
    scales = 10.0 ** rng.uniform(-6.0, 6.0, ratios.size)
    # Here a t that only meets the gap test, without its Newton step,
    # gives a perimeter 5e-14 off.
    scales[-1] = 0.000829059254754306
    m1, m2 = ratios * scales, scales
    want = np.array([float(_mpmath_perimeter(a, b)) for a, b in zip(m1, m2)])
    scalar = np.array([G.perimeter((a, b)) for a, b in zip(m1, m2)])
    assert np.all(np.abs(scalar - want) <= 1e-14 * want)
    assert np.all(np.abs(G._perimeters(m2, m1) - want) <= 1e-14 * want)


def test_newton_stops_within_six_iterations(monkeypatch):
    # The 2-ulp step rule ends the loop where the gap test cannot be met.
    monkeypatch.setattr(G, "_MAX_ITER", 6)
    ratios = 10.0 ** np.random.default_rng(23).uniform(-16.0, 0.0, 300)
    for q in ratios:
        G.solve_geometry((q, 1.0))
    G._perimeters(ratios, 1.0)


def test_start_is_within_5e_14_of_the_middle_angle():
    t = np.linspace(1e-3, G.THETA0_MAX - 1e-6, 20001)
    q = np.array([A / C for A, C, _, _ in map(G._brackets, t)])
    assert np.max(np.abs(G._start(q, np.sqrt) - t)) <= 5e-14


def test_scalar_and_array_starts_are_identical():
    q = 10.0 ** np.random.default_rng(31).uniform(-300.0, 0.0, 10_000)
    scalar = np.array([G._start(float(x), math.sqrt) for x in q])
    assert np.array_equal(G._start(q, np.sqrt), scalar)


def test_two_newton_passes_solve_ratios_down_to_1e_12(monkeypatch):
    monkeypatch.setattr(G, "_MAX_ITER", 2)
    rng = np.random.default_rng(37)
    ratios = np.concatenate([10.0 ** rng.uniform(-12.0, 0.0, 2000),
                             [1e-12, 1e-2, 0.5, 1.0 - 2e-10, 1.0]])
    scales = 10.0 ** rng.uniform(-6.0, 6.0, ratios.size)
    for q, b in zip(ratios, scales):
        G.solve_geometry((q * b, b))
    G._perimeters(ratios * scales, scales)


def test_perimeter_derivatives_evaluate_the_arcs_once_per_pass(monkeypatch):
    # One `_angle_terms` call per Newton pass of the slowest element, and
    # one at the solved angles for h, the radii, the gate and the Hessian.
    rng = np.random.default_rng(41)
    q = np.concatenate([10.0 ** rng.uniform(-12.0, 0.0, 24), [1.0]])
    b = 10.0 ** rng.uniform(-3.0, 3.0, q.size)
    passes = 0
    brackets = G._brackets
    for qi in q[:-1]:
        calls = []
        monkeypatch.setattr(G, "_brackets",
                            lambda t: calls.append(t) or brackets(t))
        G._solve_middle_angle(qi, 1.0, G._RESIDUAL_TOL, G._MAX_ITER)
        passes = max(passes, len(calls))
    monkeypatch.setattr(G, "_brackets", brackets)
    angle_terms = G._angle_terms
    calls = []
    monkeypatch.setattr(G, "_angle_terms",
                        lambda t: calls.append(t) or angle_terms(t))
    G._perimeter_derivatives(q * b, b)
    assert 1 <= passes <= 2
    assert len(calls) <= passes + 1


@pytest.mark.parametrize("band, passes", [((-300.0, -30.0), 2),
                                          ((-30.0, -12.0), 3),
                                          ((-12.0, 0.0), 2)])
def test_middle_angle_passes_by_ratio_band(monkeypatch, band, passes):
    # The `_START` series and, below about 5e-25, the lens start: counted
    # as `_brackets` calls of each scalar solve and `_angle_terms` calls of
    # one array solve over the band's 300 draws.
    rng = np.random.default_rng(47)
    q = 10.0 ** rng.uniform(*band, 300)
    b = 10.0 ** rng.uniform(-6.0, 6.0, 300)
    brackets, angle_terms, calls = G._brackets, G._angle_terms, []
    monkeypatch.setattr(G, "_brackets",
                        lambda t: calls.append(t) or brackets(t))
    worst = 0
    for qi, bi in zip(q, b):
        calls.clear()
        G._solve_middle_angle(qi * bi, bi, G._RESIDUAL_TOL, G._MAX_ITER)
        worst = max(worst, len(calls))
    monkeypatch.setattr(G, "_angle_terms",
                        lambda t: calls.append(t) or angle_terms(t))
    calls.clear()
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isnan(G._middle_angles(q * b, b)).any()
    assert 1 <= len(calls) <= worst <= passes


# Array solver `_perimeters` against the scalar `perimeter`.
_PAIR = st.tuples(st.floats(-300.0, 0.0),  # log10 of the ratio
                  st.floats(-6.0, 6.0),    # log10 of the scale
                  st.booleans())           # small mass first


@given(pairs=st.lists(_PAIR, min_size=1, max_size=20))
def test_array_perimeters_match_scalar(pairs):
    m1, m2 = zip(*(_mass_pair(*p) for p in pairs))
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


def test_array_perimeters_raise_on_unconverged_pair(monkeypatch):
    # Every positive pair converges, so starve the Newton loop of
    # iterations: the whole call raises, naming the first pair that needs
    # the loop, and returns nothing.  Disk and flat pairs need no loop.
    monkeypatch.setattr(G, "_MAX_ITER", 1)
    with pytest.raises(G.ConvergenceError, match=r"\(1e-10, 1\)"):
        G._perimeters([1.0, 0.0, 1e-10, 0.5], [1.0, 2.0, 1.0, 1.0])
    with pytest.raises(G.ConvergenceError, match="after 1 iterations"):
        G.solve_geometry((1e-10, 1.0))
    monkeypatch.undo()
    # A crude start, the series cut to its constant term, and a loose gap
    # test stop the loop early; the 1e-12 residual gate then rejects the
    # geometry, per element as in solve_geometry.
    monkeypatch.setattr(G, "_START", G._START[:1])
    monkeypatch.setattr(G, "_RESIDUAL_TOL", 0.05)
    with pytest.raises(G.ConvergenceError, match="exceed 1e-12"):
        G.solve_geometry((0.3, 1.0))
    with pytest.raises(G.ConvergenceError, match=r"\(0.3, 1\)"):
        G._perimeters([1.0, 1e-10, 0.3], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        G._perimeters([-1.0], [1.0])
    with pytest.raises(ValueError):
        G._perimeters([np.nan], [1.0])


def _mpmath_hessian(m1, m2):
    """Hessian of `_mpmath_perimeter` by 60-digit central second differences
    with relative steps 1e-12 (truncation ~1e-24)."""
    with mpmath.workdps(60):
        a, b = mpmath.mpf(m1), mpmath.mpf(m2)
        da, db = a * mpmath.mpf(10) ** -12, b * mpmath.mpf(10) ** -12
        p = _mpmath_perimeter
        p0 = p(a, b)
        h11 = (p(a + da, b) - 2 * p0 + p(a - da, b)) / da ** 2
        h22 = (p(a, b + db) - 2 * p0 + p(a, b - db)) / db ** 2
        h12 = (p(a + da, b + db) - p(a + da, b - db) - p(a - da, b + db)
               + p(a - da, b - db)) / (4 * da * db)
        return np.array([[h11, h12], [h12, h22]], dtype=float)


def test_perimeter_hessian_matches_mpmath_reference():
    # Three ratios per decade over 1e-8..1, the flat branch and its edges,
    # at random scales and in both mass orders.  The relative error of each
    # entry follows the small-lobe slope, about 1e-15/sqrt(q) at worst.
    rng = np.random.default_rng(29)
    ratios = np.concatenate([10.0 ** (np.repeat(np.arange(-8.0, 0.0), 3)
                                      + rng.uniform(0.0, 1.0, 24)),
                             [1e-8, 1.0 - 1e-9, 1.0, 1.0 + 1e-9]])
    scales = 10.0 ** rng.uniform(-3.0, 3.0, ratios.size)
    for q, b in zip(ratios, scales):
        a = q * b
        want = _mpmath_hessian(a, b)
        tol = 3e-15 / math.sqrt(min(q, 1.0 / q)) * np.abs(want)
        got = G.perimeter_hessian((a, b))
        assert np.all(np.abs(got - want) <= tol), (q, got, want)
        back = G.perimeter_hessian((b, a))
        assert np.all(np.abs(back[::-1, ::-1] - want) <= tol), (q, back, want)
        for H, m in ((got, (a, b)), (back, (b, a))):
            assert H[0, 1] == H[1, 0]
            # Euler's relation for degree-1/2 homogeneity, to rounding
            euler = H @ np.array(m) + 0.5 * np.array(G.perimeter_gradient(m))
            assert np.all(np.abs(euler) <= 1e-15 * np.abs(H) @ np.array(m))


# Small-lobe limit of the perimeter: a lens of two arcs of half-angle pi/3
# adds kappa sqrt(a) to the large lobe's 2 sqrt(pi b).
_KAPPA = ((4.0 * math.pi / 3.0 - math.sqrt(3.0))
          / math.sqrt(2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0))


@pytest.mark.parametrize("log_ratio", np.linspace(-26.0, -20.0, 25))
def test_small_lobe_entries_follow_the_lens_limit(log_ratio):
    # down to the refusal at 1e-26 the small lobe's diagonal entry is
    # within 1% of -kappa/(4 a^(3/2)), and its slope 1/r1 of kappa/(2 sqrt a)
    for b in (1e-3, 1.0, 1e3):
        a = 10.0 ** log_ratio * b
        H = G.perimeter_hessian((a, b))
        assert H[0, 0] < 0.0
        assert H[0, 0] == pytest.approx(-_KAPPA / 4.0 * a ** -1.5, rel=1e-2)
        assert G.perimeter_hessian((b, a))[1, 1] == H[0, 0]
        slope = G.perimeter_gradient((a, b))[0]
        assert slope == pytest.approx(_KAPPA / 2.0 / math.sqrt(a), rel=1e-2)


@pytest.mark.parametrize("q", [10.0 ** -24.7596, 10.0 ** -25.3614, 3e-28])
def test_tiny_lobe_solve_starts_from_the_lens_limit(q):
    # A start held at pi/3 - 1e-12 let Newton overshoot to within a few ulps
    # of pi/3 and stop there: r1 came out 400 and 290 times too small at
    # the first two ratios.
    r1 = 2.0 * math.sqrt(q) / _KAPPA
    r1_got = G.solve_geometry((q, 1.0)).r1
    assert r1_got == pytest.approx(r1, rel=0.05, abs=0.0)
    p, p1, *_ = G._perimeter_derivatives(np.array([q]), np.array([1.0]))
    assert p1[0] == G.perimeter_gradient((q, 1.0))[0]


def test_perimeter_hessian_refuses_an_unresolved_small_lobe():
    for q in (9.9e-27, 1e-40, 6.8e-70):
        for m in ((q, 1.0), (1.0, q)):
            with pytest.raises(G.ConvergenceError,
                               match=f"mass ratio {q:.3g} "):
                G.perimeter_hessian(m)
    # e0_hessian_diag refuses the small lobe's entry alone; the large lobe's
    # tends to the disk's -sqrt(pi)/2 b^(-3/2)
    gamma = G.GammaMatrix(1.0, 1.0, 0.0)
    with pytest.raises(G.ConvergenceError, match="below 1e-26"):
        G.e0_hessian_diag((1e-40, 1.0), gamma, 1)
    big = G.e0_hessian_diag((1e-40, 1.0), gamma, 2) - 1.0 / (2.0 * math.pi)
    assert big == pytest.approx(-math.sqrt(math.pi) / 2.0, rel=1e-12)
    # a threshold against a partner 1e30 times its mass is refused by name,
    # where the wrong-signed entry read as "no bracket"
    with pytest.raises(G.ConvergenceError, match="below 1e-26"):
        G.concavity_threshold(1e46)


def test_e0_hessian_diag_is_exact_sum():
    gamma = G.GammaMatrix(2.0, 0.5, 0.3)
    for m in ((0.3, 1.7), (4.0, 1e-6), (1.0, 1.0)):
        H = G.perimeter_hessian(m)
        assert G.e0_hessian_diag(m, gamma, 1) == 2.0 / (2.0 * math.pi) + H[0, 0]
        assert G.e0_hessian_diag(m, gamma, 2) == 0.5 / (2.0 * math.pi) + H[1, 1]


_LOG_RATIO = st.floats(-12.0, 0.0)
_LOG_SCALE = st.floats(-6.0, 6.0)


@given(pairs=st.lists(st.tuples(_LOG_RATIO, _LOG_SCALE, st.booleans()),
                      min_size=1, max_size=8))
def test_perimeter_derivatives_match_scalar_routines(pairs):
    # One array call, masses in either order and mixed in one batch, gives
    # per element the value, gradient and Hessian of the scalar routines.
    # The flat band (M1 = M2 and 1 +/- 1e-11) rides along in every batch.
    m = [(10.0 ** (lr + ls), 10.0 ** ls) for lr, ls, _ in pairs]
    m = [pair[::-1] if swap else pair for pair, (_, _, swap) in zip(m, pairs)]
    m += [(2.0, 2.0), (1.0 + 1e-11, 1.0), (1.0, 1.0 - 1e-11)]
    m1, m2 = np.array(m).T
    got = np.column_stack(G._perimeter_derivatives(m1, m2))
    for pair, row in zip(m, got):
        H = G.perimeter_hessian(pair)
        want = np.array([G.perimeter(pair), *G.perimeter_gradient(pair),
                         H[0, 0], H[0, 1], H[1, 1]])
        assert np.all(np.abs(row - want) <= 1e-13 * np.abs(want)), (pair, row, want)


def test_concavity_threshold_refuses_a_range_without_sign_change(monkeypatch):
    # Roots sit at 0.73-1.0 times the inflection scale; a range of
    # 10^(+/-0.05) around it misses the root of a heavy partner, which
    # leaves the second derivative nonnegative at both ends.
    assert G.concavity_threshold(1.0, 1, 10.0) < math.pi * 10.0 ** -0.05
    monkeypatch.setattr(G, "_SCAN_DECADES", 0.05)
    G.concavity_threshold(1.0, 1, 1.0)  # root inside the narrow range
    with pytest.raises(G.ConvergenceError, match="no bracket"):
        G.concavity_threshold(1.0, 1, 10.0)
    # A second derivative negative at both ends brackets nothing either.
    monkeypatch.setattr(G, "_perimeter_hessian",
                        lambda m1, m2: (-1.0, 0.0, -1.0))
    with pytest.raises(G.ConvergenceError, match="no concavity sign change"):
        G.concavity_threshold(1.0, 1, 1.0)


_GRID_GAMMA = (0.1, 1.0, 10.0, 100.0)
_GRID_PROBE = (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3)


def _count_hessians(monkeypatch):
    # concavity_threshold forms each second derivative from one
    # _perimeter_hessian call.
    calls = []
    hessian = G._perimeter_hessian

    def counted(*args):
        calls.append(args)
        return hessian(*args)

    monkeypatch.setattr(G, "_perimeter_hessian", counted)
    return calls


@pytest.mark.parametrize("gamma_ii", _GRID_GAMMA)
@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("probe", _GRID_PROBE)
def test_concavity_threshold_matches_scipy_brentq(monkeypatch, gamma_ii, i,
                                                  probe):
    # On the bracket concavity_threshold checks, scipy.optimize.brentq finds
    # the same root, to rounding; the regula falsi in m^(3/2) needs at most
    # 16 second derivatives, bracket checks and post-check included.
    from scipy import optimize

    gamma = G.GammaMatrix(gamma_ii, gamma_ii, 0.0)
    anchor = math.pi * gamma_ii ** (-2.0 / 3.0)

    def hess(mi):
        pair = (mi, probe) if i == 1 else (probe, mi)
        return G.e0_hessian_diag(pair, gamma, i)

    want = optimize.brentq(hess, anchor * 1e-3, anchor * 1e3, xtol=1e-300)
    calls = _count_hessians(monkeypatch)
    got = G.concavity_threshold(gamma_ii, i, probe)
    assert type(got) is float
    assert abs(got - want) <= 1e-14 * want
    assert len(calls) <= 16


def test_concavity_threshold_grid_costs_under_half_of_brentq(
        monkeypatch):
    # scipy.optimize.brentq, run from the same bracket checks, took 1166
    # second derivatives over this grid.
    calls = _count_hessians(monkeypatch)
    for gamma_ii in _GRID_GAMMA:
        for i in (1, 2):
            for probe in _GRID_PROBE:
                G.concavity_threshold(gamma_ii, i, probe)
    assert len(calls) < 1166 / 2


def test_concavity_threshold_refuses_a_bracket_past_the_float_range():
    # below gamma_ii ~ 1e-303 the bracket's upper end overflows as m^(3/2)
    assert G.concavity_threshold(1e-303) > 0.0
    with pytest.raises(G.ConvergenceError, match="float range"):
        G.concavity_threshold(1e-304)


def test_illinois_refuses_to_stop_short(monkeypatch):
    monkeypatch.setattr(G, "_ROOT_MAX_ITER", 3)
    with pytest.raises(G.ConvergenceError, match="did not converge in 3"):
        G._illinois(lambda x: x ** 3 - 2.0, 0.0, -2.0, 4.0, 62.0)


@given(log_gamma=st.floats(-300.0, 300.0), log_probe=st.floats(-12.0, 12.0),
       i=st.sampled_from([1, 2]))
def test_concavity_threshold_answers_or_refuses_at_every_scale(
        log_gamma, log_probe, i):
    # The second derivative times m^(3/2) stays of order one at every
    # scale; where no threshold is found the refusal is a ConvergenceError,
    # never a division by zero, an overflow or a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m_star = G.concavity_threshold(10.0 ** log_gamma, i,
                                           10.0 ** log_probe)
        except G.ConvergenceError:
            return
    assert type(m_star) is float and math.isfinite(m_star)
