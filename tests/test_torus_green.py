"""Torus Green's function: dual evaluation routes, kernel identities, solver."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from triblock import torus_green as TG


def far_points(n, seed, min_r=1e-3):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.5, 0.5, size=(2 * n, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > min_r]
    return pts[:n]


def test_ewald_vs_spectral_thousand_points():
    pts = far_points(1000, seed=5)
    diff = np.abs(TG.green(pts) - TG.green_spectral(pts))
    assert diff.max() < 1e-10


def test_spectral_takes_a_subnormal_tol():
    # the smallest positive float asks for more columns, not a log of zero
    pts = far_points(50, seed=6)
    tiny = np.nextafter(0.0, 1.0)
    assert np.abs(TG.green_spectral(pts, tol=tiny)
                  - TG.green_spectral(pts)).max() <= 1e-15
    assert abs(TG.regular_part_zero_spectral(tiny) - TG.R0) <= 1e-15


def test_brute_double_sum_sanity():
    # Literal truncated lattice sum converges only like 1/K; check coarse
    # agreement so the resummed series is anchored to the raw definition.
    p = (0.21, 0.34)
    K = 80
    ks = np.arange(-K, K + 1)
    KX, KY = np.meshgrid(ks, ks, indexing="ij")
    mask = (KX != 0) | (KY != 0)
    k2 = (KX**2 + KY**2)[mask]
    phase = np.cos(2.0 * math.pi * (KX[mask] * p[0] + KY[mask] * p[1]))
    brute = np.sum(phase / (4.0 * math.pi**2 * k2))
    assert brute == pytest.approx(TG.green(np.array(p)), abs=5e-5)


def test_r0_dual_route():
    assert abs(TG.R0 - TG.regular_part_zero_spectral()) < 1e-10
    assert TG.regular_part((0.0, 0.0)) == TG.R0


def test_regular_part_continuity_and_domain():
    assert abs(TG.regular_part((1e-6, 0.0)) - TG.R0) < 1e-5
    with pytest.raises(ValueError):
        TG.regular_part((0.4, 0.4))  # canonical radius sqrt(0.32) > 1/2
    # wraps before evaluating: p = (1.1, 0.2) is canonical (0.1, 0.2)
    assert TG.regular_part((1.1, 0.2)) == pytest.approx(
        TG.regular_part((0.1, 0.2)), abs=1e-14)


def test_green_singular_inputs():
    with pytest.raises(ValueError):
        TG.green((0.0, 0.0))
    with pytest.raises(ValueError):
        TG.green((1.0, -2.0))  # lattice point after wrap
    with pytest.raises(ValueError):
        TG.green_spectral((0.0, 0.0))
    with pytest.raises(ValueError):
        TG.green_gradient((0.0, 0.0))


@pytest.mark.parametrize("route", [TG.green, TG.green_gradient,
                                   TG.green_spectral, TG.regular_part])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_refused(route, bad):
    # a nan point would come back as a nan value, an infinite one as a
    # RuntimeWarning from wrap
    with pytest.raises(ValueError, match="points must be finite"):
        route([[0.1, 0.2], [0.3, bad]])
    with pytest.raises(ValueError, match="points must be finite"):
        route((bad, 0.1))


def test_gradient_matches_fd():
    pts = far_points(100, seed=9, min_r=5e-2)
    h = 1e-6
    worst = 0.0
    for p in pts:
        g = TG.green_gradient(p)
        fdx = (TG.green(p + [h, 0.0]) - TG.green(p - [h, 0.0])) / (2 * h)
        fdy = (TG.green(p + [0.0, h]) - TG.green(p - [0.0, h])) / (2 * h)
        worst = max(worst, abs(g[0] - fdx), abs(g[1] - fdy))
    assert worst < 1e-8


def test_hessian_matches_spectral_differences():
    # Directional second derivatives u^T H u along the axes and both
    # diagonals determine the symmetric Hessian; the fourth-order central
    # stencil of the independent spectral route keeps its error near 1e-8.
    pts = far_points(100, seed=9, min_r=5e-2)
    _, _, hess = TG._ewald(TG.wrap(pts), 2)
    h = 2e-4
    worst = 0.0
    for u in np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]):
        u = u / np.linalg.norm(u)
        f = {s: TG.green_spectral(pts + s * h * u) for s in (-2, -1, 0, 1, 2)}
        fd = (-f[2] + 16 * f[1] - 30 * f[0] + 16 * f[-1] - f[-2]) / (12 * h * h)
        worst = max(worst, np.abs(np.einsum("a,iab,b->i", u, hess, u) - fd).max())
    assert worst < 1e-6


def test_hessian_symmetric_with_unit_trace():
    # -Delta G = delta_0 - 1, so the Laplacian is 1 away from the source.
    pts = far_points(1000, seed=13, min_r=5e-2)
    _, _, hess = TG._ewald(TG.wrap(pts), 2)
    assert np.abs(hess - np.swapaxes(hess, 1, 2)).max() < 1e-12
    assert np.abs(np.trace(hess, axis1=1, axis2=2) - 1.0).max() < 1e-12


def test_ewald_orders_agree_with_public_routes():
    pts = far_points(200, seed=21)
    q = TG.wrap(pts)
    value, grad, _ = TG._ewald(q, 2)
    assert np.array_equal(value, TG.green(pts))
    assert np.array_equal(value, TG._ewald(q, 1)[0])
    assert np.array_equal(grad, TG.green_gradient(pts))


def _wide_ewald(q):
    """Ewald value, gradient and Hessian with wide truncations: t0 = 1/16,
    images |n|_inf <= 4 and modes |k|_inf <= 6, whose tails stay below
    1e-30 for canonical q.  Mode sums run over the full (N, 168) phase
    array, not over per-axis tables."""
    t0 = 1.0 / 16.0
    axis = np.arange(-4.0, 5.0)
    shifts = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    axis = np.arange(-6.0, 7.0)
    modes = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    modes = modes[np.any(modes != 0.0, axis=1)]
    k2 = np.sum(modes * modes, axis=1)
    coef = np.exp(-4.0 * math.pi**2 * k2 * t0) / (4.0 * math.pi**2 * k2)
    d = q[:, None, :] + shifts
    r2 = np.sum(d * d, axis=2)
    e = np.exp(-r2 / (4.0 * t0))
    phase = 2.0 * math.pi * q @ modes.T
    value = (np.sum(exp1(r2 / (4.0 * t0)), axis=1) / (4.0 * math.pi)
             + np.cos(phase) @ coef - t0)
    grad = (-np.einsum("nia,ni->na", d, e / r2) / (2.0 * math.pi)
            - 2.0 * math.pi * (np.sin(phase) * coef) @ modes)
    radial = e * (1.0 / (2.0 * t0 * r2) + 2.0 / r2**2)
    hess = (np.einsum("ni,ab->nab", -e / r2, np.eye(2))
            + np.einsum("ni,nia,nib->nab", radial, d, d)) / (2.0 * math.pi) \
        - 4.0 * math.pi**2 * np.einsum("nk,ka,kb->nab", np.cos(phase) * coef,
                                       modes, modes)
    return value, grad, hess


def test_ewald_matches_wide_truncation_reference():
    # 10^4 seeded points, the seams of the canonical square, and points
    # within 1e-6 of the source, where G, grad G and the Hessian are large.
    rng = np.random.default_rng(31)
    angles = rng.uniform(0.0, 2.0 * math.pi, 8)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = np.concatenate([
        rng.uniform(-0.5, 0.5, size=(10_000, 2)),
        [[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5], [0.5, 0.0],
         [0.0, 0.5], [-0.5, 0.25]],
        *(r * ring for r in (1e-6, 1e-8, 1e-10))])
    q = TG.wrap(pts)
    ref = _wide_ewald(q)
    for order in (0, 1, 2):
        got = TG._ewald(q, order)
        got = (got,) if order == 0 else got
        for a, b in zip(got, ref):
            a, b = a.reshape(len(q), -1), b.reshape(len(q), -1)
            scale = np.maximum(1.0, np.abs(b).max(axis=1))
            assert (np.abs(a - b).max(axis=1) / scale).max() <= 1e-14
    assert abs(TG.R0 - TG.regular_part_zero_spectral()) <= 1e-15


def _mp_e1(x):
    with mpmath.workdps(40):
        return np.array([float(mpmath.e1(mpmath.mpf(float(v)))) for v in x])


def test_e1_rules_match_mpmath():
    # Each rule on its own range, against 40-digit E1: the Gauss-Laguerre
    # rule on the outer images' x in [4, 72], the Ein rule below 4.
    rng = np.random.default_rng(41)
    outer = np.concatenate([np.linspace(4.0, 72.0, 681), rng.uniform(4.0, 72.0, 300)])
    inner = np.concatenate([np.logspace(-20.0, math.log10(4.0), 401),
                            np.linspace(0.0, 4.0, 401)[1:], rng.uniform(0.0, 4.0, 300)])
    for got, x in ((TG._e1_laguerre(outer, np.exp(-outer)), outer),
                   (TG._e1_ein(inner), inner)):
        ref = _mp_e1(x)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, ref))


def test_image_arguments_stay_in_the_rules_ranges():
    # At canonical q every image but n = 0 has x = |q + n|^2/(4 t0) in
    # [4, 72], so only the n = 0 image needs the Ein rule.
    rng = np.random.default_rng(43)
    q = TG.wrap(np.concatenate([rng.uniform(-0.5, 0.5, (10_000, 2)),
                                [[-0.5, -0.5], [-0.5, 0.0], [0.0, -0.5]]]))
    d = q[:, None, :] + TG._SHIFTS
    x = np.sum(d * d, axis=2) / (4.0 * TG.EWALD_T0)
    outer = np.delete(x, TG._ORIGIN, axis=1)
    assert outer.min() == 4.0 and outer.max() <= 72.0
    assert x[:, TG._ORIGIN].max() <= 8.0


def test_gradient_zero_at_center():
    g = TG.green_gradient((0.5, 0.5))
    assert np.abs(g).max() < 1e-14


def test_square_symmetry_group():
    pts = far_points(50, seed=17)
    base = TG.green(pts)
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            flipped = pts * np.array([sx, sy])
            assert np.abs(TG.green(flipped) - base).max() < 1e-13
            swapped = flipped[:, ::-1]
            assert np.abs(TG.green(swapped) - base).max() < 1e-13


def test_minimum_at_far_corner():
    n = 1024
    x = TG.wrap(np.arange(n) / n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([X, Y], axis=-1).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    vals = np.full(len(pts), np.inf)
    ok = r > 1e-12
    vals[ok] = TG.green_spectral(pts[ok])
    i, j = np.unravel_index(np.argmin(vals.reshape(n, n)), (n, n))
    assert (i, j) == (n // 2, n // 2)
    center = TG.green((0.5, 0.5))
    assert center == pytest.approx(vals.reshape(n, n)[i, j], abs=1e-12)


def _bump(r, rho):
    """Radial C^inf cutoff: 1 on r <= rho/2, 0 on r >= rho."""
    s = (np.asarray(r, dtype=float) - rho / 2) / (rho / 2)
    out = np.zeros_like(s)
    out[s <= 0.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    f = lambda t: np.exp(-1.0 / t)
    out[mid] = f(1.0 - sm) / (f(1.0 - sm) + f(sm))
    return out


def test_zero_mean_by_quadrature():
    # Split int G = int G (1 - chi) + int G chi with chi a radial bump at the
    # singularity.  The first part is smooth and periodic, so the trapezoid
    # sum is spectrally accurate; the patch uses G = -log/2pi + R with
    # R = |p|^2/4 + harmonic and the mean-value property for radial weights:
    # int R chi = I_r2/4 + R0 I_chi exactly.
    n, rho = 512, 1.0 / 8.0
    x = TG.wrap(np.arange(n) / n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([X, Y], axis=-1).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    G = np.zeros(len(pts))
    ok = r > 1e-12
    G[ok] = TG.green_spectral(pts[ok])
    grid_part = np.sum(G * (1.0 - _bump(r, rho))) / n**2
    i_chi = 2 * math.pi * quad(lambda t: _bump(t, rho) * t, 0, rho,
                               epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    i_log = 2 * math.pi * quad(lambda t: _bump(t, rho) * t * math.log(t), 1e-300, rho,
                               epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    i_r2 = 2 * math.pi * quad(lambda t: _bump(t, rho) * t**3, 0, rho,
                              epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    total = grid_part - i_log / (2 * math.pi) + TG.R0 * i_chi + 0.25 * i_r2
    assert abs(total) < 1e-8


def test_poisson_single_mode():
    n = 64
    x = np.arange(n) / n
    rhs = np.cos(2 * math.pi * x)[:, None] * np.ones(n)[None, :]
    psi = TG.periodic_poisson_solve(rhs)
    assert np.abs(psi - rhs / (4 * math.pi**2)).max() < 1e-14


def test_poisson_energy_nonnegative_and_zero_mean():
    rng = np.random.default_rng(23)
    for _ in range(5):
        rhs = rng.normal(size=(48, 48))
        psi = TG.periodic_poisson_solve(rhs)
        assert abs(psi.mean()) < 1e-13
        assert (psi * (rhs - rhs.mean())).mean() >= 0.0


def test_poisson_rectangular_grid():
    n1, n2 = 32, 48
    x = np.arange(n1) / n1
    rhs = np.cos(2 * math.pi * x)[:, None] * np.ones(n2)[None, :]
    psi = TG.periodic_poisson_solve(rhs)
    assert np.abs(psi - rhs / (4 * math.pi**2)).max() < 1e-14


def _sampled_green_grid(n):
    x = TG.wrap(np.arange(n) / n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([X, Y], axis=-1).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    G = np.full(len(pts), np.nan)
    ok = r > 1e-12
    G[ok] = TG.green_spectral(pts[ok])
    return G.reshape(n, n), r.reshape(n, n)


def test_grid_pde_consistency():
    # The spectrally solved discrete-delta problem reproduces green() away
    # from the source at grid accuracy, converging like 1/N^2.
    errs = {}
    for n in (64, 128):
        rhs = np.zeros((n, n))
        rhs[0, 0] = n * n
        psi = TG.periodic_poisson_solve(rhs)
        G, r = _sampled_green_grid(n)
        far = (r > 0.25) & np.isfinite(G)
        errs[n] = np.abs(psi - G)[far].max()
    assert errs[64] < 2e-4
    assert errs[128] < 5e-5
    assert errs[64] / errs[128] > 2.0  # second-order decay


def test_spectral_laplacian_of_sampled_green():
    # -Delta applied to the sampled kernel (source cell mollified with the
    # cell-averaged log) returns -1 away from the source.  Trigonometric
    # interpolation of the log singularity legitimately rings along the two
    # grid lines through the source, so those lines are excluded and the
    # tolerance reflects the off-axis plateau.
    n = 128
    h = 1.0 / n
    s = h / 2
    cell_int = 8 * quad(
        lambda t: (s / math.cos(t))**2 / 2 * (math.log(s / math.cos(t)) - 0.5),
        0, math.pi / 4, epsabs=1e-15, epsrel=1e-13)[0]
    G, r = _sampled_green_grid(n)
    G[0, 0] = TG.R0 - (cell_int / h**2) / (2 * math.pi)
    kx = np.fft.fftfreq(n, d=1.0 / n)
    ky = np.fft.rfftfreq(n, d=1.0 / n)
    k2 = kx[:, None]**2 + ky[None, :]**2
    neglap = np.fft.irfft2(4 * math.pi**2 * k2 * np.fft.rfft2(G), s=G.shape)
    idx = np.arange(n)
    off_axis = (np.minimum(idx, n - idx)[:, None] >= 3) \
        & (np.minimum(idx, n - idx)[None, :] >= 3)
    sel = (r > 0.25) & off_axis
    err = np.abs(neglap + 1.0)[sel]
    assert err.max() < 5e-3
    assert np.median(err) < 1e-10
    # source cell carries the delta weight ~ 1/h^2
    assert neglap[0, 0] == pytest.approx(1.0 / h**2, rel=0.05)


def test_wrap_canonical_range():
    pts = np.array([[0.5, -0.5], [1.25, -0.75], [-0.5, 0.49999]])
    w = TG.wrap(pts)
    assert np.all(w >= -0.5) and np.all(w < 0.5)
    assert np.allclose(TG.wrap([0.5, 0.5]), [-0.5, -0.5])
