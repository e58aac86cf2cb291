"""Green's function of the Laplacian on the unit torus, and friends.

G solves -Delta G = delta_0 - 1 on [0,1)^2 with zero mean.  Two independent
exact evaluations are provided:

* `green` / `green_gradient`: Ewald splitting of the heat-kernel
  representation G = int_0^inf (Theta(p,t) - 1) dt at t0 = 1/64: a sum of
  E1(|p+n|^2/(4 t0)) over the 3x3 nearest images, plus a Gaussian-damped
  Fourier sum over |k|_inf <= 7 built from one complex per-axis table
  e^{2 pi i k p_a}.  At canonical p the first image left out lies at
  distance >= 3/2; the tails stay below 5e-19 in G, 3e-17 in grad G and
  1.3e-15 in the Hessian.  E1 comes from two fixed quadratures in numpy:
  a 24-node Gauss-Laguerre rule for the eight outer images (error 5.4e-17)
  and a 16-node Gauss-Legendre rule for Ein at the n = 0 image below x = 4
  (error 7.3e-16 max(1, E1)).  Both wrap the private `_ewald`, which also
  gives the Hessian for `placement`.

* `green_spectral`: the plain spectral sum sum_{k != 0} e^{2 pi i k.p}
  /(4 pi^2 |k|^2) with the inner index of each column summed in closed form
  (Bernoulli polynomial for the zero column, a geometric/log resummation for
  the rest) and the outer index truncated adaptively; the column terms decay
  like e^{-2 pi j}, so ~8 terms reach 1e-14.  A raw radial truncation of the
  double sum converges only like 1/K; the tests keep it as a coarse check.

`regular_part` is R(p) = G(p) + log|p|/(2 pi) on |p| < 1/2, with the exact
limit at p = 0 available from both routes (`R0` is the Ewald value, computed
at import, never hard-coded; `regular_part_zero_spectral` gives the
independent closed form 1/12 - log(2 pi)/(2 pi) - (1/pi) sum log(1-e^{-2 pi k})).
"""

from __future__ import annotations

import math

import numpy as np

from triblock._args import real

EWALD_T0 = 1.0 / 64.0
_REAL_RANGE = 1       # real-space images n in [-1, 1]^2
_RECIP_RANGE = 7      # reciprocal modes k in [-7, 7]^2 minus the origin
_SINGULAR_TOL = 1e-12

_SHIFTS = np.indices((2 * _REAL_RANGE + 1,) * 2).reshape(2, -1).T - float(_REAL_RANGE)
_ORIGIN = len(_SHIFTS) // 2   # the n = 0 row of _SHIFTS

# E1(x) on the image arguments x = |q + n|^2/(4 t0) by two fixed rules.  At
# canonical q the eight outer images have x in [4, 72] and the n = 0 image x
# <= 8.  For x >= 4, E1(x) = e^{-x} int_0^inf e^{-t}/(x + t) dt by 24-node
# Gauss-Laguerre: absolute error 5.4e-17.  Below 4, E1(x) = Ein(x) - log x
# - euler_gamma with Ein(x) = int_0^1 -expm1(-x s)/s ds by 16-node
# Gauss-Legendre on [0, 1], stored as nodes -s and weights -w/s: error
# 7.3e-16 max(1, E1), the rounding of Ein - log x near x = 4 (at x = 8 it
# would be 1.5e-15, so the n = 0 image keeps the Laguerre value from 4 up).
_LAGUERRE_T, _LAGUERRE_W = np.polynomial.laguerre.laggauss(24)
_s, _w = np.polynomial.legendre.leggauss(16)
_EIN_S = -0.5 * (_s + 1.0)
_EIN_W = 0.5 * _w / _EIN_S

# Mode weights c_k, c_k k_a, c_k k_a k_b on the (k1, k2) table, k1 pairing with
# x, side by side: the value, gradient and Hessian blocks of `_ewald`, which
# applies them to the per-axis table e^{2 pi i k q_a} of phases _MODE_PHASE.
_k = np.arange(-_RECIP_RANGE, _RECIP_RANGE + 1, dtype=float)
_k1, _k2 = np.meshgrid(_k, _k, indexing="ij")
_ksq = _k1 * _k1 + _k2 * _k2
_ksq[_RECIP_RANGE, _RECIP_RANGE] = np.inf   # the k = 0 weight is 0
_RECIP_COEF = np.exp(-4.0 * math.pi**2 * _ksq * EWALD_T0) / (4.0 * math.pi**2 * _ksq)
_MODE_WEIGHTS = np.concatenate([_RECIP_COEF * f for f in (
    1.0, _k1, _k2, _k1 * _k1, _k1 * _k2, _k2 * _k2)], axis=1)
_MODE_PHASE = 2j * math.pi * _k


def wrap(p):
    """Canonical torus representative in [-1/2, 1/2)^2."""
    p = np.asarray(p, dtype=float)
    return p - np.floor(p + 0.5)


def _prepare(p):
    arr = np.asarray(p, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError(f"points must have trailing dimension 2, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    return wrap(arr).reshape(-1, 2), arr.shape, arr.ndim == 1


def _e1_laguerre(x, e):
    """E1(x) for x >= 4, given e = e^{-x}: the Gauss-Laguerre rule."""
    return e * (1.0 / (x[..., None] + _LAGUERRE_T) @ _LAGUERRE_W)


def _e1_ein(x):
    """E1(x) for 0 < x <= 4: Ein(x) - log x - euler_gamma, Ein by Gauss-Legendre."""
    return np.expm1(x[..., None] * _EIN_S) @ _EIN_W - np.log(x) - np.euler_gamma


def _ewald(q, order=0):
    """Ewald sums at canonical points q of shape (N, 2).

    Returns G, or (G, grad G) for order 1, or (G, grad G, Hessian of G) of
    shapes (N,), (N, 2), (N, 2, 2) for order 2.  The lattice differences,
    x = r^2/(4 t0) with e^{-x}, and the complex mode table are built once
    for all orders.  E1 is the Laguerre rule at every image, replaced at
    the n = 0 image by the Ein rule where x < 4; the mode sums take their
    real part for the value and Hessian and their imaginary part for the
    gradient.  Raises ValueError when any point sits on the source lattice.
    """
    d = q[:, None, :] + _SHIFTS[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    if (r2 < _SINGULAR_TOL**2).any():
        raise ValueError("the Green function is singular at the source point "
                         "p = 0 (mod 1)")
    x = r2 / (4.0 * EWALD_T0)
    e = np.exp(-x)
    E1 = _e1_laguerre(x, e)
    x0 = x[:, _ORIGIN]
    E1[:, _ORIGIN] = np.where(x0 < 4.0, _e1_ein(x0), E1[:, _ORIGIN])
    # Mode sums sum_k w_k e^{2 pi i k.q} as a bilinear form in the per-axis
    # table z = e^{2 pi i k q_a}: sum over k1 by the matmul, over k2 by the
    # product with z_y.
    z = np.exp(q[:, :, None] * _MODE_PHASE)
    shape = (len(q), (1, 3, 6)[order], len(_k))
    weights = _MODE_WEIGHTS[:, :shape[1] * shape[2]]
    sums = np.sum((z[:, 0] @ weights).reshape(shape) * z[:, 1, None], axis=2)
    G = E1.sum(axis=1) / (4.0 * math.pi) + sums.real[:, 0] - EWALD_T0
    if order == 0:
        return G
    real = -np.einsum("ijk,ij->ik", d, e / r2) / (2.0 * math.pi)
    grad = real - 2.0 * math.pi * sums.imag[:, 1:3]
    if order == 1:
        return G, grad
    radial = e * (1.0 / (2.0 * EWALD_T0 * r2) + 2.0 / (r2 * r2))
    real = -(np.sum(e / r2, axis=1)[:, None, None] * np.eye(2)
             - np.swapaxes(d, 1, 2) @ (radial[..., None] * d)) / (2.0 * math.pi)
    recip = -4.0 * math.pi**2 * sums.real[:, [3, 4, 4, 5]].reshape(-1, 2, 2)
    return G, grad, real + recip


def green(p):
    """Torus Green's function at p (single point or (..., 2) array).

    Ewald evaluation, absolute accuracy ~1e-14.  Raises ValueError when any
    point sits on the source lattice (|p| mod 1 below 1e-12).
    """
    q, shape, scalar = _prepare(p)
    out = _ewald(q)
    return float(out[0]) if scalar else out.reshape(shape[:-1])


def green_gradient(p):
    """Analytic gradient of `green` (same Ewald split, same accuracy)."""
    q, shape, scalar = _prepare(p)
    out = _ewald(q, 1)[1]
    return out[0] if scalar else out.reshape(shape)


def _stripe_terms(a, x, tol):
    """Log-resummed column sum of the spectral series, minus the Bernoulli part."""
    c = np.cos(2.0 * math.pi * x)
    # log(tol / 10) taken apart, so that a subnormal tol does not round to 0
    n_terms = max(2, int(math.ceil((math.log(10.0) - math.log(tol))
                                   / (2.0 * math.pi))) + 1)
    total = np.zeros_like(a)
    for j in range(n_terms):
        for expo in (j + a, j + 1.0 - a):
            r = np.exp(-2.0 * math.pi * expo)
            total += np.log1p(r * (r - 2.0 * c))
    return -total / (4.0 * math.pi)


def green_spectral(p, tol=1e-14):
    """Spectral-sum evaluation of the Green's function (independent of Ewald).

    Column-resummed form: B2(|y|)/2 plus log products with ratio e^{-2 pi};
    the outer truncation adapts to `tol`, a positive number
    (`triblock._args`).
    """
    tol = real("tol", tol, 0.0)
    q, shape, scalar = _prepare(p)
    x, y = q[:, 0], q[:, 1]
    a = np.abs(y)
    if np.any((a < _SINGULAR_TOL) & (np.abs(x) < _SINGULAR_TOL)):
        raise ValueError("green_spectral() is singular at the source point")
    bernoulli = 0.5 * (a * a - a + 1.0 / 6.0)
    out = bernoulli + _stripe_terms(a, x, tol)
    return float(out[0]) if scalar else out.reshape(shape[:-1])


def _r0_ewald() -> float:
    """R(0) from the Ewald split: the n = 0 term's finite part is
    (log(4 t0) - euler_gamma)/(4 pi)."""
    r2 = np.sum(_SHIFTS * _SHIFTS, axis=1)
    x = r2[r2 > 0.0] / (4.0 * EWALD_T0)
    real = float(np.sum(_e1_laguerre(x, np.exp(-x)))) / (4.0 * math.pi)
    const = (math.log(4.0 * EWALD_T0) - np.euler_gamma) / (4.0 * math.pi)
    return const + real + float(np.sum(_RECIP_COEF)) - EWALD_T0


def regular_part_zero_spectral(tol=1e-16) -> float:
    """R(0) by the spectral route: 1/12 - log(2 pi)/(2 pi)
    - (1/pi) sum_{k>=1} log(1 - e^{-2 pi k}).  `tol` is a positive number
    (`triblock._args`)."""
    tol = real("tol", tol, 0.0)
    n_terms = max(2, int(math.ceil(-math.log(tol) / (2.0 * math.pi))) + 1)
    tail = sum(math.log1p(-math.exp(-2.0 * math.pi * k))
               for k in range(1, n_terms + 1))
    return 1.0 / 12.0 - math.log(2.0 * math.pi) / (2.0 * math.pi) - tail / math.pi


R0 = _r0_ewald()


def regular_part(p):
    """R(p) = G(p) + log|p|/(2 pi), the smooth part of the kernel.

    Defined for canonical |p| < 1/2; p = 0 returns the analytic limit R0.
    Points at or beyond |p| = 1/2 raise ValueError.
    """
    q, shape, scalar = _prepare(p)
    r = np.hypot(q[:, 0], q[:, 1])
    if np.any(r >= 0.5):
        raise ValueError("regular_part() is defined for canonical |p| < 1/2")
    out = np.full_like(r, R0)
    off = r >= _SINGULAR_TOL
    if off.any():
        out[off] = green(q[off]) + np.log(r[off]) / (2.0 * math.pi)
    return float(out[0]) if scalar else out.reshape(shape[:-1])


def periodic_poisson_solve(rhs):
    """Zero-mean solution of -Delta psi = rhs - mean(rhs) on the unit torus.

    `rhs` is an (N1, N2) grid sampled at x_i = i/N1, y_j = j/N2 (axis 0 is x).
    Spectral inversion with integer frequencies; the returned psi has zero
    mean, and <psi, rhs> >= 0 for any rhs.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 2:
        raise ValueError(f"rhs must be a 2-D grid, got shape {rhs.shape}")
    n1, n2 = rhs.shape
    kx = np.fft.fftfreq(n1, d=1.0 / n1)
    ky = np.fft.rfftfreq(n2, d=1.0 / n2)
    k2 = kx[:, None] ** 2 + ky[None, :] ** 2
    rhat = np.fft.rfft2(rhs - rhs.mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        psihat = rhat / (4.0 * math.pi**2 * k2)
    psihat[0, 0] = 0.0
    return np.fft.irfft2(psihat, s=rhs.shape)
