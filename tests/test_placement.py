"""Tests for droplet placement energies on the torus."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from triblock import placement
from triblock.geometry import GammaMatrix, solve_geometry
from triblock.partition import (Configuration, check_necessary_conditions,
                                cluster_from_masses)
from triblock.placement import (
    F0,
    FK,
    Layout,
    _pair_terms,
    _weight_matrix,
    disk_self_interaction,
    fk_gradient,
    minimize_FK,
    self_interaction,
)
from triblock.torus_green import R0, green, green_gradient, wrap

GAMMA = GammaMatrix(1.0, 1.0, 0.5)


def random_layout(rng, K, masses, min_sep=1e-3):
    while True:
        pts = rng.uniform(0.0, 1.0, size=(K, 2))
        d = wrap(pts[:, None, :] - pts[None, :, :])
        sep = np.sqrt((d ** 2).sum(-1))
        sep[np.arange(K), np.arange(K)] = 1.0
        if sep.min() > min_sep:
            return Layout(tuple(map(tuple, pts)), tuple(masses))


_MASS = st.floats(0.1, 2.0)
# A cluster holds both species, or only the first, or only the second.
_CLUSTER = st.one_of(st.tuples(_MASS, _MASS),
                     st.tuples(_MASS, st.just(0.0)),
                     st.tuples(st.just(0.0), _MASS))


class TestLayout:
    def test_validation(self):
        with pytest.raises(ValueError):
            Layout((), ())
        with pytest.raises(ValueError):
            Layout(((0.0, 0.0),), ())
        with pytest.raises(ValueError):
            Layout(((0.0, 0.0),), ((-1.0, 2.0),))
        with pytest.raises(ValueError):
            Layout(((0.0, 0.0),), ((0.0, 0.0),))
        with pytest.raises(ValueError):
            Layout(((0.2, 0.3), (0.2, 0.3)), ((1.0, 0.0), (0.0, 1.0)))
        # Distinct in the plane but equal on the torus.
        with pytest.raises(ValueError):
            Layout(((0.0, 0.0), (1.0, 1.0)), ((1.0, 0.0), (0.0, 1.0)))

    def test_coincidence_names_first_pair(self):
        pts = ((0.1, 0.1), (0.5, 0.5), (1.1, -0.9), (0.5, 0.5))
        with pytest.raises(ValueError, match="points 0 and 2 coincide"):
            Layout(pts, ((1.0, 0.0),) * 4)

    def test_json_round_trip(self):
        lay = Layout(((0.0, 0.0), (0.25, 0.75)), ((1.0, 0.5), (0.0, 2.0)))
        data = json.loads(json.dumps(lay.as_dict()))
        back = Layout(*(tuple(map(tuple, data[k])) for k in ("points", "masses")))
        assert back == lay
        assert back.K == 2


class TestFK:
    def test_single_cluster_is_zero(self):
        lay = Layout(((0.3, 0.4),), ((1.0, 2.0),))
        assert FK(lay, GAMMA) == 0.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        lay = random_layout(rng, 4, [(1.0, 0.5), (0.3, 0.7), (2.0, 0.0), (0.0, 1.5)])
        g = np.array([[GAMMA.g11, GAMMA.g12], [GAMMA.g12, GAMMA.g22]])
        pts = np.asarray(lay.points)
        ms = np.asarray(lay.masses)
        total = 0.0
        for k in range(4):
            for ell in range(4):
                if k == ell:
                    continue
                gkl = float(green(pts[k] - pts[ell]))
                for i in range(2):
                    for j in range(2):
                        total += 0.5 * g[i, j] * ms[k, i] * ms[ell, j] * gkl
        assert FK(lay, GAMMA) == pytest.approx(total, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        lay = Layout(((0.0, 0.0), (0.31, 0.17), (0.72, 0.55)),
                     ((1.0, 0.5), (0.3, 0.7), (0.2, 1.1)))
        grad = fk_gradient(lay, GAMMA)
        h = 1e-6
        for k in (1, 2):
            for c in (0, 1):
                pts = [list(p) for p in lay.points]
                pts[k][c] += h
                ep = FK(Layout(tuple(map(tuple, pts)), lay.masses), GAMMA)
                pts[k][c] -= 2 * h
                em = FK(Layout(tuple(map(tuple, pts)), lay.masses), GAMMA)
                assert grad[k, c] == pytest.approx((ep - em) / (2 * h), abs=1e-8)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        masses = [(1.0, 0.5), (0.3, 0.7), (0.9, 0.9)]
        lay = random_layout(rng, 3, masses)
        base = FK(lay, GAMMA)
        for _ in range(5):
            shift = rng.uniform(0.0, 1.0, size=2)
            moved = Layout(tuple(tuple(np.asarray(p) + shift) for p in lay.points),
                           lay.masses)
            assert FK(moved, GAMMA) == pytest.approx(base, abs=1e-12)

    def test_square_symmetry_invariance(self):
        rng = np.random.default_rng(17)
        masses = [(1.0, 0.5), (0.3, 0.7), (0.9, 0.9)]
        lay = random_layout(rng, 3, masses)
        base = FK(lay, GAMMA)
        rot = Layout(tuple((-p[1], p[0]) for p in lay.points), lay.masses)
        ref = Layout(tuple((p[1], p[0]) for p in lay.points), lay.masses)
        assert FK(rot, GAMMA) == pytest.approx(base, abs=1e-12)
        assert FK(ref, GAMMA) == pytest.approx(base, abs=1e-12)

    def test_lower_bound_sanity(self):
        rng = np.random.default_rng(23)
        masses = [(1.0, 0.5), (0.3, 0.7), (0.9, 0.9), (0.2, 0.1)]
        g = np.array([[GAMMA.g11, GAMMA.g12], [GAMMA.g12, GAMMA.g22]])
        for _ in range(10):
            lay = random_layout(rng, 4, masses)
            pts = np.asarray(lay.points)
            ms = np.asarray(lay.masses)
            W = ms @ g @ ms.T
            iu = np.triu_indices(4, 1)
            gvals = green(pts[iu[0]] - pts[iu[1]])
            bound = float(np.sum(W[iu]) * gvals.min())
            assert FK(lay, GAMMA) >= bound - 1e-12


@given(masses=st.lists(_CLUSTER, min_size=2, max_size=6),
       g=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0), st.floats(0.0, 2.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pair_terms_match_direct_loops(masses, g, seed):
    gamma = GammaMatrix(*g)
    K = len(masses)
    lay = random_layout(np.random.default_rng(seed), K, masses, min_sep=0.05)
    P = np.asarray(lay.points)
    W = _weight_matrix(np.asarray(lay.masses), gamma)
    energy, grad = 0.0, np.zeros((K, 2))
    for k in range(K):
        for ell in range(K):
            if k != ell:
                energy += 0.5 * W[k, ell] * green(P[k] - P[ell])
                grad[k] += W[k, ell] * green_gradient(P[k] - P[ell])
    assert abs(FK(lay, gamma) - energy) <= 1e-13
    assert np.abs(fk_gradient(lay, gamma) - grad).max() <= 1e-13
    # Pinned Hessian (center 0 fixed) against central differences of the
    # analytic gradient.
    hess = _pair_terms(P, W, 2)[2][2:, 2:]
    h = 1e-6
    fd = np.zeros_like(hess)
    for col in range(2 * K - 2):
        step = np.zeros(2 * K)
        step[2 + col] = h
        plus = Layout(tuple(map(tuple, (P.ravel() + step).reshape(K, 2))), lay.masses)
        minus = Layout(tuple(map(tuple, (P.ravel() - step).reshape(K, 2))), lay.masses)
        fd[:, col] = (fk_gradient(plus, gamma) - fk_gradient(minus, gamma))[1:].ravel() \
            / (2 * h)
    assert np.abs(hess - fd).max() <= 1e-6


class TestMinimizeFK:
    def test_single_cluster_returns_origin(self):
        lay, info = minimize_FK([(1.0, 1.0)], GAMMA, full_output=True)
        assert lay.points == ((0.0, 0.0),)
        assert info["energy"] == 0.0

    def test_two_equal_clusters_antipodal(self):
        lay, info = minimize_FK([(1.0, 1.0), (1.0, 1.0)], GAMMA,
                                restarts=4, seed=0, full_output=True)
        assert info["grad_norm"] <= 1e-10
        offset = np.mod(np.asarray(lay.points[1]) - np.asarray(lay.points[0]), 1.0)
        # Grid oracle: the pair energy is W12 * green(offset), so the best
        # offset over a 256 x 256 grid should be the center cell.
        n = 256
        ij = np.array([(i, j) for i in range(n) for j in range(n) if (i, j) != (0, 0)])
        vals = green(ij / n)
        best = ij[np.argmin(vals)] / n
        assert best[0] == pytest.approx(0.5, abs=1e-12)
        assert best[1] == pytest.approx(0.5, abs=1e-12)
        assert abs(offset[0] - best[0]) <= 1.0 / n
        assert abs(offset[1] - best[1]) <= 1.0 / n
        W12 = float(np.array([1.0, 1.0]) @ np.array([[1.0, 0.5], [0.5, 1.0]])
                    @ np.array([1.0, 1.0]))
        assert info["energy"] == pytest.approx(W12 * float(green(np.array([0.5, 0.5]))),
                                               abs=1e-10)

    def test_four_equal_clusters_beat_square_lattice(self):
        masses = [(1.0, 1.0)] * 4
        square = Layout(((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)),
                        tuple(masses))
        lay, info = minimize_FK(masses, GAMMA, restarts=8, seed=0, full_output=True)
        assert info["grad_norm"] <= 1e-10
        assert info["energy"] <= FK(square, GAMMA) + 1e-10
        assert np.linalg.norm(fk_gradient(lay, GAMMA)[1:]) <= 1e-10

    def test_deterministic_for_fixed_seed(self):
        a = minimize_FK([(1.0, 0.5), (0.5, 1.0)], GAMMA, restarts=2, seed=3)
        b = minimize_FK([(1.0, 0.5), (0.5, 1.0)], GAMMA, restarts=2, seed=3)
        assert a == b

    def test_failure_raises_with_diagnostics(self):
        with pytest.raises(RuntimeError, match="descent failed"):
            minimize_FK([(1.0, 1.0), (1.0, 1.0)], GAMMA, restarts=1, seed=0,
                        gtol=1e-30)


def disk_mean_log_oracle(mass):
    """Polar-quadrature oracle for the disk log-kernel energy.

    Uses the angular identity int_0^{2pi} log|A - B e^{i phi}| dphi =
    2 pi log max(A, B), then integrates the radial potential numerically.
    """
    a = math.sqrt(mass / math.pi)
    tol = {"epsabs": 0.0, "epsrel": 1e-12}

    def potential(r):
        inner, _ = quad(lambda s: math.log(max(r, s)) * s, 0.0, r, **tol)
        outer, _ = quad(lambda s: math.log(max(r, s)) * s, r, a, **tol)
        return 2.0 * math.pi * (inner + outer)

    # an absolute floor on the m^2 scale: the value crosses 0 at a = e^{1/4}
    total, _ = quad(lambda r: potential(r) * r, 0.0, a, limit=200,
                    epsabs=1e-15 * mass ** 2, epsrel=1e-12)
    return -total  # (1/2pi) * (2pi r weight) already folded in


def rejection_oracle(m, i, j, pairs=400_000, seed=0):
    """Monte Carlo f_ij with its standard error, from points drawn uniformly
    in each lobe by rejection from the bounding square of its outer circle.

    Lobe membership comes from the arc equations alone: every arc passes
    through the junctions (0, +-h) with its center on the x-axis at
    r cos(theta) (outer arc of the smaller lobe) or -r cos(theta) (the
    other two); the smaller lobe is its outer disk on the middle arc's
    center side, the larger lobe its outer disk on the other side.
    """
    g = solve_geometry(m)
    c1, c2 = g.r1 * math.cos(g.theta1), -g.r2 * math.cos(g.theta2)
    rng = np.random.default_rng(seed)

    def behind_middle(x, y):
        if math.isinf(g.r0):
            return x < 0.0
        return (x + g.r0 * math.cos(g.theta0)) ** 2 + y * y < g.r0 ** 2

    def draw(lobe):
        c, r = (c1, g.r1) if lobe == 1 else (c2, g.r2)
        out = np.empty((0, 2))
        while len(out) < pairs:
            x = rng.uniform(c - r, c + r, pairs)
            y = rng.uniform(-r, r, pairs)
            keep = (x - c) ** 2 + y * y < r * r
            keep &= behind_middle(x, y) if lobe == 1 else ~behind_middle(x, y)
            out = np.vstack([out, np.column_stack([x[keep], y[keep]])])
        return out[:pairs]

    lobe = {1: 2, 2: 1} if g.swapped else {1: 1, 2: 2}
    X, Y = draw(lobe[i]), draw(lobe[j])
    samples = -np.log(np.hypot(*(X - Y).T)) * m[i - 1] * m[j - 1] / (2.0 * math.pi)
    return samples.mean(), samples.std(ddof=1) / math.sqrt(pairs)


_RATIO = st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e)
_SCALE = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
_TERMS = ((1, 1), (2, 2), (1, 2))


class TestSelfInteraction:
    def test_disk_matches_polar_oracle(self):
        # the value crosses 0 at radius e^{1/4}, hence the m^2 scale
        for mass in (1e-6, 1e-3, 1.0, math.pi * math.exp(0.5), 1e3, 1e6):
            oracle = disk_mean_log_oracle(mass)
            tol = 1e-12 * mass ** 2
            assert abs(disk_self_interaction(mass) - oracle) <= tol
            for m, i in (((mass, 0.0), 1), ((0.0, mass), 2)):
                assert abs(self_interaction(m, i, i) - oracle) <= tol
                assert abs(self_interaction(m, i, i)
                           - disk_self_interaction(mass)) <= tol

    @given(q=_RATIO, s=_SCALE)
    def test_scaling_relation(self, q, s):
        # f_ij(s m) = s^2 (f_ij(m) - log(s) m_i m_j / (4 pi)) for areas scaled by s
        base = (q, 1.0)
        for i, j in _TERMS:
            mm = base[i - 1] * base[j - 1]
            pred = s * s * (self_interaction(base, i, j)
                            - math.log(s) * mm / (4.0 * math.pi))
            value = self_interaction((s * q, s), i, j)
            # the small lobe's shape carries the geometry's relative error
            # of about 1e-16/sqrt(q): 7.6e-13 here at q = 1e-8
            assert abs(value - pred) <= 1e-11 * s * s * mm * (1.0 + abs(math.log(s)))

    @given(q=_RATIO, s=_SCALE)
    def test_species_symmetry_is_exact(self, q, s):
        m, swapped = (s * q, s), (s, s * q)
        assert self_interaction(m, 1, 2) == self_interaction(m, 2, 1)
        assert self_interaction(m, 1, 2) == self_interaction(swapped, 1, 2)
        assert self_interaction(m, 1, 1) == self_interaction(swapped, 2, 2)
        assert self_interaction(m, 2, 2) == self_interaction(swapped, 1, 1)

    @pytest.mark.parametrize("m", [(1e-8, 1.0), (1e-3, 1.0), (0.5, 1.0), (2.0, 0.7),
                                   (1.0 + 1e-9, 1.0), (1.0, 1.0), (0.0, 3.0)])
    def test_doubled_nodes_agree(self, m, monkeypatch):
        coarse = [self_interaction(m, i, j) for i, j in _TERMS]
        monkeypatch.setattr(placement, "_PANEL_NODES", 2 * placement._PANEL_NODES)
        monkeypatch.setattr(placement, "_GRADING_LEVELS",
                            2 * placement._GRADING_LEVELS)
        fine = [self_interaction(m, i, j) for i, j in _TERMS]
        for (i, j), a, b in zip(_TERMS, coarse, fine):
            assert abs(a - b) <= 1e-11 * m[i - 1] * m[j - 1]

    @pytest.mark.parametrize("m", [(2.0, 0.7), (1.0, 1.0)])
    def test_matches_rejection_sampling(self, m):
        for i, j in _TERMS:
            mean, stderr = rejection_oracle(m, i, j)
            assert abs(self_interaction(m, i, j) - mean) <= 5.0 * stderr

    def test_sampling_keywords_have_no_effect(self):
        lay = Layout(((0.0, 0.0), (0.5, 0.5)), ((0.5, 1.5), (0.0, 1.0)))
        ignored = {"n_points": 2 ** 10, "replicates": 3, "seed": 9}
        for i, j in _TERMS:
            assert self_interaction((0.5, 1.5), i, j, **ignored) == self_interaction(
                (0.5, 1.5), i, j)
        assert F0(lay, GAMMA, **ignored) == F0(lay, GAMMA)

    def test_absent_species_contributes_zero(self):
        assert self_interaction((1.0, 0.0), 1, 2) == 0.0
        assert self_interaction((1.0, 0.0), 2, 2) == 0.0
        assert self_interaction((0.0, 1.5), 1, 1) == 0.0

    def test_huge_masses_scale_or_raise(self):
        # 1e150 squared is still finite: the terms follow the scaling
        # relation from unit masses, and a disk matches the closed form.
        s = 1e150
        for i, j in _TERMS:
            pred = s * s * (self_interaction((1.0, 1.0), i, j)
                            - math.log(s) / (4.0 * math.pi))
            assert self_interaction((s, s), i, j) == pytest.approx(pred, rel=1e-13)
        assert self_interaction((3.0 * s, 0.0), 1, 1) == pytest.approx(
            disk_self_interaction(3.0 * s), rel=1e-13)
        # 1e200 squared overflows: a typed error, not nan
        huge = (1e200, 1e200)
        for i, j in _TERMS:
            with pytest.raises(ValueError, match="not finite"):
                self_interaction(huge, i, j)
        with pytest.raises(ValueError, match="not finite"):
            F0(Layout(((0.0, 0.0),), (huge,)), GAMMA)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            self_interaction((1.0, 1.0), 0, 1)
        with pytest.raises(ValueError):
            self_interaction((1.0, 1.0), 1, 3)
        with pytest.raises(ValueError):
            self_interaction((-1.0, 1.0), 1, 1)
        with pytest.raises(ValueError):
            self_interaction((0.0, 0.0), 1, 1)


class TestF0:
    def test_single_cluster_matches_terms(self):
        lay = Layout(((0.0, 0.0),), ((1.0, 2.0),))
        expected = 0.0
        for i, j, coef in ((1, 1, 0.5 * GAMMA.g11), (2, 2, 0.5 * GAMMA.g22),
                           (1, 2, GAMMA.g12)):
            mi = 1.0 if i == 1 else 2.0
            mj = 1.0 if j == 1 else 2.0
            f = self_interaction((1.0, 2.0), i, j)
            expected += coef * (f + mi * mj * R0)
        assert F0(lay, GAMMA) == pytest.approx(expected, abs=1e-12)

    def test_difference_from_fk_is_layout_independent(self):
        rng = np.random.default_rng(31)
        masses = [(1.0, 0.5), (0.3, 0.7)]
        diffs = []
        for _ in range(50):
            lay = random_layout(rng, 2, masses)
            diffs.append(F0(lay, GAMMA) - FK(lay, GAMMA))
        assert max(diffs) - min(diffs) <= 1e-12

    def test_degenerate_masses_allowed(self):
        lay = Layout(((0.0, 0.0), (0.5, 0.5)), ((1.0, 0.0), (0.0, 1.0)))
        val = F0(lay, GAMMA)
        assert math.isfinite(val)


def masses_report(layout, gamma):
    """The partition necessary conditions on a layout's cluster masses."""
    clusters = tuple(cluster_from_masses(float(m[0]), float(m[1]))
                     for m in layout.masses)
    total = (sum(c.m1 for c in clusters), sum(c.m2 for c in clusters))
    return check_necessary_conditions(Configuration(clusters, total), gamma)


class TestMassReport:
    """Which layout masses could come from an optimal splitting."""

    def test_balanced_doubles_pass(self):
        g = GammaMatrix(1.0, 1.0, 0.0)
        lay = Layout(((0.0, 0.0), (0.5, 0.5)), ((4.0, 4.0), (4.0, 4.0)))
        report = masses_report(lay, g)
        assert report["all_pass"]

    def test_duplicated_small_doubles_flagged(self):
        g = GammaMatrix(1.0, 1.0, 0.0)
        lay = Layout(((0.0, 0.0), (0.5, 0.5)), ((1.0, 1.0), (1.0, 1.0)))
        report = masses_report(lay, g)
        assert not report["double_small_lobes"]
        assert not report["all_pass"]

    def test_unbalanced_single_flagged(self):
        g = GammaMatrix(1.0, 1.0, 0.0)
        lay = Layout(((0.0, 0.0), (0.5, 0.5)), ((0.01, 0.0), (1.0, 1.0)))
        report = masses_report(lay, g)
        assert not report["derivative_balance"]
        assert not report["all_pass"]

    def test_two_tiny_singles_flagged(self):
        g = GammaMatrix(1.0, 1.0, 0.0)
        lay = Layout(((0.0, 0.0), (0.5, 0.5), (0.25, 0.75)),
                     ((0.01, 0.0), (0.01, 0.0), (1.0, 1.0)))
        report = masses_report(lay, g)
        assert not report["single_floor"]
        assert not report["all_pass"]


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about 0.3 s of import time on top of the scipy
    # modules the package needs
    code = "import sys, triblock; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
