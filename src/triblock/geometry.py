"""Planar double-bubble geometry and the sharp droplet energy.

A droplet carrying masses (m1, m2) is a standard double bubble when both
masses are positive: three circular arcs (two outer lobes and a middle cap)
meeting at two triple junctions at 120-degree angles.  When one mass vanishes
the droplet is a round disk.  The arc system reduces to a single scalar
equation for the middle-arc half-angle theta0 in (0, pi/3); once theta0 is
known every radius follows in closed form, so the solver is a bracketed
one-dimensional root find plus algebra.

Conventions: the canonical geometry orders the lobes so lobe 1 is the smaller
one (theta1 = 2pi/3 - theta0 <= theta2 = 2pi/3 + theta0, r1 <= r2).  Callers
may pass masses in either order; `BubbleGeometry.swapped` records whether the
input order was reversed internally, and the mass-indexed operations
(perimeter_gradient, e0_hessian_diag) translate back to the caller's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI_THIRDS = 2.0 * math.pi / 3.0
THETA0_MAX = math.pi / 3.0

# Relative mass gap below which the middle arc is treated as flat.
SYMMETRY_TOL = 1e-10

_RESIDUAL_TOL = 5e-13
_MAX_ITER = 90

# Odd-series coefficients of theta - sin(theta)cos(theta):
# sum over odd n >= 3 of (-1)^((n+1)/2) 2^(n-1)/n! * theta^n.
_SEG_COEFFS = tuple(
    (-1.0) ** ((n + 1) // 2) * 2.0 ** (n - 1) / math.factorial(n)
    for n in range(3, 17, 2)
)


class ConvergenceError(RuntimeError):
    """Root find or scan failed to meet its residual target."""


@dataclass(frozen=True)
class GammaMatrix:
    """Symmetric interaction coefficients (g11, g22 > 0, g12 >= 0)."""

    g11: float
    g22: float
    g12: float = 0.0
    enforce_definite: bool = False

    def __post_init__(self):
        for name in ("g11", "g22", "g12"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.g11 <= 0.0 or self.g22 <= 0.0:
            raise ValueError("diagonal entries g11, g22 must be positive")
        if self.g12 < 0.0:
            raise ValueError("off-diagonal g12 must be nonnegative")
        if self.enforce_definite and not self.is_positive_definite():
            raise ValueError(
                f"gamma matrix not positive definite: g12^2 = {self.g12 ** 2:g} "
                f">= g11 g22 = {self.g11 * self.g22:g}"
            )

    def is_positive_definite(self) -> bool:
        return self.g12 * self.g12 < self.g11 * self.g22

    def diag(self, i: int) -> float:
        """Diagonal entry for species i in {1, 2}."""
        if i == 1:
            return self.g11
        if i == 2:
            return self.g22
        raise ValueError(f"species index must be 1 or 2, got {i}")

    def quad(self, m1: float, m2: float) -> float:
        """Quadratic form g11 m1^2 + 2 g12 m1 m2 + g22 m2^2."""
        return self.g11 * m1 * m1 + 2.0 * self.g12 * m1 * m2 + self.g22 * m2 * m2

    def row(self, i: int, m1: float, m2: float) -> float:
        """(Gamma m)_i, the species-i linear interaction potential."""
        if i == 1:
            return self.g11 * m1 + self.g12 * m2
        if i == 2:
            return self.g12 * m1 + self.g22 * m2
        raise ValueError(f"species index must be 1 or 2, got {i}")

    def swapped(self) -> "GammaMatrix":
        """Coefficients with the two species exchanged."""
        return GammaMatrix(self.g22, self.g11, self.g12, self.enforce_definite)


@dataclass(frozen=True)
class BubbleGeometry:
    """Solved double-bubble arc data in the canonical (small lobe first) order.

    theta0 is the middle-arc half-angle (0 for the symmetric bubble, where
    r0 = inf and the middle interface is a flat segment of length 2 h);
    theta1/theta2 and r1/r2 belong to the smaller/larger lobe; h is half the
    junction separation.  `swapped` is True when the caller's (m1, m2) had
    m1 > m2 and was reversed to reach this canonical form.
    """

    theta0: float
    theta1: float
    theta2: float
    r0: float
    r1: float
    r2: float
    h: float
    swapped: bool

    def curvatures(self) -> tuple[float, float, float]:
        """(1/r0, 1/r1, 1/r2) with the flat middle arc giving 0."""
        k0 = 0.0 if math.isinf(self.r0) else 1.0 / self.r0
        return k0, 1.0 / self.r1, 1.0 / self.r2

    def as_dict(self) -> dict:
        return {
            "theta0": self.theta0,
            "theta1": self.theta1,
            "theta2": self.theta2,
            "r0": self.r0,
            "r1": self.r1,
            "r2": self.r2,
            "h": self.h,
            "swapped": self.swapped,
        }


def _check_masses(m, *, positive: bool) -> tuple[float, float]:
    try:
        m1, m2 = float(m[0]), float(m[1])
    except (TypeError, IndexError, KeyError) as exc:
        raise ValueError(f"mass pair must be a 2-sequence, got {m!r}") from exc
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise ValueError(f"masses must be finite, got ({m1!r}, {m2!r})")
    lo = 0.0 if positive else -0.0
    if positive:
        if m1 <= 0.0 or m2 <= 0.0:
            raise ValueError(f"masses must be positive, got ({m1:g}, {m2:g})")
    else:
        if m1 < lo or m2 < lo:
            raise ValueError(f"masses must be nonnegative, got ({m1:g}, {m2:g})")
    return m1, m2


def _seg(theta: float) -> float:
    """Segment area factor theta - sin(theta)cos(theta).

    Direct evaluation cancels catastrophically for small theta (the value is
    ~(2/3) theta^3), so below 0.25 a truncated odd series is used instead;
    the crossover keeps the relative error a few ulps on both branches.
    """
    if theta >= 0.25:
        return theta - 0.5 * math.sin(2.0 * theta)
    t2 = theta * theta
    acc = 0.0
    for c in reversed(_SEG_COEFFS):
        acc = acc * t2 + c
    return acc * t2 * theta


def _seg_over_sin2(theta: float) -> float:
    """seg(theta)/sin^2(theta), the per-radius^2 segment area; 0 at theta=0."""
    if theta == 0.0:
        return 0.0
    s = math.sin(theta)
    return _seg(theta) / (s * s)


def _brackets(t: float) -> tuple[float, float]:
    """Mass brackets (A, C) with A/C = m1/m2 at the solved middle angle t.

    A collects the small-lobe and middle segment areas per h^2, C the large
    lobe minus the middle segment; both come from eliminating the radii from
    the area equations via r_i sin(theta_i) = h.
    """
    g0 = _seg_over_sin2(t)
    a_part = _seg_over_sin2(TWO_PI_THIRDS - t) + g0
    c_part = _seg_over_sin2(TWO_PI_THIRDS + t) - g0
    return a_part, c_part


def _brackets_prime(t: float) -> tuple[float, float]:
    """Derivatives (A'(t), C'(t)) of the mass brackets."""

    def d(theta: float) -> float:
        # d/dtheta [seg/sin^2] = 2 - 2 seg(theta) cos(theta)/sin^3(theta)
        if theta == 0.0:
            return 2.0 / 3.0
        s = math.sin(theta)
        return 2.0 - 2.0 * _seg(theta) * math.cos(theta) / (s * s * s)

    g0p = d(t)
    return g0p - d(TWO_PI_THIRDS - t), d(TWO_PI_THIRDS + t) - g0p


def _solve_middle_angle(a: float, b: float, residual_tol: float,
                        max_iter: int) -> float:
    """Root of a*C(t) - b*A(t) = 0 on (0, pi/3) for masses a < b.

    Newton iteration with a maintained bisection bracket; stops when the
    second area equation holds to residual_tol relative to a + b.
    """
    scale = a + b
    q = a / b

    # Asymptotic initial guesses: near-symmetric masses give a middle angle
    # ~ (1 - q)/3.10; a tiny small lobe pushes theta0 toward pi/3 like
    # pi/3 - theta0 ~ 1.385 sqrt(q).
    if q > 0.7:
        t = (1.0 - q) / 3.1008
    else:
        t = THETA0_MAX - 1.3853 * math.sqrt(q)
    t = min(max(t, 1e-18), THETA0_MAX - 1e-12)

    lo, hi = 0.0, THETA0_MAX  # gap(lo) < 0 < gap(hi) by monotonicity
    for _ in range(max_iter):
        num, den = _brackets(t)
        gap = a * den - b * num
        if abs(gap) <= residual_tol * scale * num:
            return t
        if gap > 0.0:
            hi = t
        else:
            lo = t
        nump, denp = _brackets_prime(t)
        slope = a * denp - b * nump
        t_next = t - gap / slope if slope > 0.0 else math.nan
        if not (lo < t_next < hi):
            t_next = 0.5 * (lo + hi)
        if t_next == t:
            # Bracket narrowed to one ulp; accept if the residual is within a
            # float factor of target, otherwise report failure below.
            if abs(gap) <= 64.0 * residual_tol * scale * num:
                return t
            break
        t = t_next
    raise ConvergenceError(
        f"middle-angle solve stalled for masses ({a:g}, {b:g}): "
        f"residual {abs(gap) / (scale * num):.3e} after {max_iter} iterations"
    )


def solve_geometry(m) -> BubbleGeometry:
    """Solve the double-bubble arc system for a positive mass pair.

    Returns the canonical BubbleGeometry (smaller lobe first, `swapped` set
    when the input order was reversed).  Raises ValueError on nonpositive or
    nonfinite masses and ConvergenceError if the residual target cannot be
    met.
    """
    m1, m2 = _check_masses(m, positive=True)
    swapped = m1 > m2
    a, b = (m2, m1) if swapped else (m1, m2)

    if 1.0 - a / b < SYMMETRY_TOL:
        # Flat-interface geometry for the mean mass; inputs inside the
        # symmetry band are indistinguishable at the residual tolerance.
        mbar = 0.5 * (a + b)
        a = b = mbar
        r = math.sqrt(mbar / _seg(TWO_PI_THIRDS))
        geom = BubbleGeometry(
            theta0=0.0, theta1=TWO_PI_THIRDS, theta2=TWO_PI_THIRDS,
            r0=math.inf, r1=r, r2=r, h=r * math.sin(TWO_PI_THIRDS),
            swapped=swapped,
        )
    else:
        t = _solve_middle_angle(a, b, _RESIDUAL_TOL, _MAX_ITER)
        th1 = TWO_PI_THIRDS - t
        th2 = TWO_PI_THIRDS + t
        num, _ = _brackets(t)
        h = math.sqrt(a / num)
        geom = BubbleGeometry(
            theta0=t, theta1=th1, theta2=th2,
            r0=h / math.sin(t), r1=h / math.sin(th1), r2=h / math.sin(th2),
            h=h, swapped=swapped,
        )

    residuals = geometry_residuals(geom, (a, b))
    worst = max(abs(v) for v in residuals.values())
    if worst > 1e-12:
        raise ConvergenceError(
            f"geometry residuals {worst:.3e} exceed 1e-12 for masses "
            f"({m1:g}, {m2:g})"
        )
    return geom


def geometry_residuals(geom: BubbleGeometry, m) -> dict[str, float]:
    """Relative residuals of the arc system at a solved geometry.

    `m` is the canonically ordered pair (smaller first).  Keys: the two area
    equations, the two junction-height matches, the curvature balance, and
    the tangency angle sum.  All are nondimensionalized so 1e-12 is a
    meaningful common tolerance.
    """
    a, b = float(m[0]), float(m[1])
    scale = a + b
    flat = math.isinf(geom.r0)
    seg0 = 0.0 if flat else geom.r0 ** 2 * _seg(geom.theta0)
    area1 = geom.r1 ** 2 * _seg(geom.theta1) + seg0 - a
    area2 = geom.r2 ** 2 * _seg(geom.theta2) - seg0 - b
    h0 = geom.h if flat else geom.r0 * math.sin(geom.theta0)
    junction1 = geom.r1 * math.sin(geom.theta1) - h0
    junction2 = geom.r2 * math.sin(geom.theta2) - h0
    k0 = 0.0 if flat else 1.0 / geom.r0
    curvature = (1.0 / geom.r1 - 1.0 / geom.r2 - k0) * geom.h
    angle_sum = (math.cos(geom.theta1) + math.cos(geom.theta2)
                 + math.cos(geom.theta0))
    return {
        "area1": area1 / scale,
        "area2": area2 / scale,
        "junction1": junction1 / geom.h,
        "junction2": junction2 / geom.h,
        "curvature": curvature,
        "angle_sum": angle_sum,
    }


def perimeter(m) -> float:
    """Total interface length of the minimizing droplet with masses m.

    Both masses zero gives 0; one zero mass gives the disk value
    2 sqrt(pi m); otherwise the double-bubble arc lengths 2 sum(theta_i r_i),
    with the middle term written as 2 h theta0/sin(theta0) so the flat
    symmetric case is exact.
    """
    m1, m2 = _check_masses(m, positive=False)
    if m1 == 0.0 and m2 == 0.0:
        return 0.0
    if m1 == 0.0 or m2 == 0.0:
        return 2.0 * math.sqrt(math.pi * (m1 + m2))
    g = solve_geometry((m1, m2))
    if g.theta0 == 0.0:
        middle = 2.0 * g.h
    else:
        middle = 2.0 * g.h * g.theta0 / math.sin(g.theta0)
    return 2.0 * (g.theta1 * g.r1 + g.theta2 * g.r2) + middle


# ---------------------------------------------------------------------------
# Array solver: the scalar path above, elementwise in numpy, for batch callers.

def _angle_terms(theta):
    """(seg, sin, cos) of an angle array, with `_seg`'s two branches."""
    seg = theta - 0.5 * np.sin(2.0 * theta)
    small = theta < 0.25
    if small.any():
        ts = theta[small]
        t2 = ts * ts
        acc = np.zeros_like(ts)
        for c in reversed(_SEG_COEFFS):
            acc = acc * t2 + c
        seg[small] = acc * t2 * ts
    return seg, np.sin(theta), np.cos(theta)


def _brackets_and_slopes(t):
    """(A, C, A', C') of `_brackets` and `_brackets_prime` on an array."""
    g, d = [], []
    for theta in (t, TWO_PI_THIRDS - t, TWO_PI_THIRDS + t):
        seg, s, c = _angle_terms(theta)
        zero = theta == 0.0
        g.append(np.where(zero, 0.0, seg / (s * s)))
        d.append(np.where(zero, 2.0 / 3.0, 2.0 - 2.0 * seg * c / (s * s * s)))
    return g[1] + g[0], g[2] - g[0], d[0] - d[1], d[2] - d[0]


def _middle_angles(a, b):
    """`_solve_middle_angle` on arrays a < b: the same guesses and steps.

    Each element keeps its own bisection bracket and leaves the active set
    once its residual meets `_RESIDUAL_TOL` or its step stalls.  Returns
    (t, ok); ok is False where the scalar solve would raise.
    """
    scale = a + b
    q = a / b
    t = np.where(q > 0.7, (1.0 - q) / 3.1008,
                 THETA0_MAX - 1.3853 * np.sqrt(q))
    t = np.minimum(np.maximum(t, 1e-18), THETA0_MAX - 1e-12)
    out = np.zeros_like(t)
    ok = np.zeros(t.shape, dtype=bool)
    idx = np.arange(t.size)
    lo = np.zeros_like(t)
    hi = np.full_like(t, THETA0_MAX)
    for _ in range(_MAX_ITER):
        if not idx.size:
            break
        num, den, nump, denp = _brackets_and_slopes(t)
        gap = a * den - b * num
        tol = _RESIDUAL_TOL * scale * num
        conv = np.abs(gap) <= tol
        up = gap > 0.0
        hi = np.where(up, t, hi)
        lo = np.where(up, lo, t)
        slope = a * denp - b * nump
        t_next = np.where(slope > 0.0, t - gap / slope, np.nan)
        inside = (lo < t_next) & (t_next < hi)
        t_next = np.where(inside, t_next, 0.5 * (lo + hi))
        stall = ~conv & (t_next == t)
        conv |= stall & (np.abs(gap) <= 64.0 * _RESIDUAL_TOL * scale * num)
        out[idx[conv]] = t[conv]
        ok[idx[conv]] = True
        keep = ~(conv | stall)
        idx, a, b, scale = idx[keep], a[keep], b[keep], scale[keep]
        t, lo, hi = t_next[keep], lo[keep], hi[keep]
    return out, ok


def _worst_residuals(a, b, t, r0, r1, r2, h):
    """Largest |`geometry_residuals`| per element; t = 0, r0 = inf is flat."""
    th1 = TWO_PI_THIRDS - t
    th2 = TWO_PI_THIRDS + t
    seg0, s0, c0 = _angle_terms(t)
    seg1, s1, c1 = _angle_terms(th1)
    seg2, s2, c2 = _angle_terms(th2)
    flat = np.isinf(r0)
    seg0 = np.where(flat, 0.0, r0 ** 2 * seg0)
    h0 = np.where(flat, h, r0 * s0)
    scale = a + b
    res = (
        (r1 ** 2 * seg1 + seg0 - a) / scale,
        (r2 ** 2 * seg2 - seg0 - b) / scale,
        (r1 * s1 - h0) / h,
        (r2 * s2 - h0) / h,
        (1.0 / r1 - 1.0 / r2 - 1.0 / r0) * h,
        c1 + c2 + c0,
    )
    return np.max(np.abs(res), axis=0)


def _perimeters(m1, m2):
    """`perimeter` on broadcast arrays of nonnegative masses.

    Solves the theta0 equation of `solve_geometry` for all pairs at once:
    the same initial guesses, Newton steps with a bisection bracket per
    element, the same `_RESIDUAL_TOL`, the same flat interface inside
    `SYMMETRY_TOL`, and per element the 1e-12 `geometry_residuals` gate.
    One mass zero gives the disk value, both zero give 0.  Raises ValueError
    on negative or nonfinite masses and ConvergenceError naming the first
    pair (in C order) that fails to converge or fails the gate.

    The fixed numpy overhead makes a size-1 call ~0.7 ms, against ~21 us
    for the scalar `perimeter` (2-core x86-64 Xeon, numpy 2.4), so scalar
    callers such as `ebar` keep `perimeter`.  A 64 x 64 table takes ~6 ms,
    against ~120 ms for 4096 scalar calls.
    """
    m1, m2 = np.broadcast_arrays(np.asarray(m1, dtype=float),
                                 np.asarray(m2, dtype=float))
    shape = m1.shape
    m1, m2 = m1.ravel(), m2.ravel()
    if not (np.isfinite(m1).all() and np.isfinite(m2).all()):
        raise ValueError("masses must be finite")
    if (m1 < 0.0).any() or (m2 < 0.0).any():
        raise ValueError("masses must be nonnegative")
    a, b = np.minimum(m1, m2), np.maximum(m1, m2)
    out = np.zeros(a.shape)
    ok = np.ones(a.shape, dtype=bool)
    disk = (a == 0.0) & (b > 0.0)
    out[disk] = 2.0 * np.sqrt(math.pi * b[disk])

    pair = np.flatnonzero(a > 0.0)
    a, b = a[pair], b[pair]
    flat = 1.0 - a / b < SYMMETRY_TOL
    t = np.zeros_like(a)
    solved = np.ones(a.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        t[~flat], solved[~flat] = _middle_angles(a[~flat], b[~flat])
        # Flat elements: the mean-mass geometry of `solve_geometry`.
        mbar = 0.5 * (a + b)
        a = np.where(flat, mbar, a)
        b = np.where(flat, mbar, b)
        r_flat = np.sqrt(mbar / _seg(TWO_PI_THIRDS))
        th1 = TWO_PI_THIRDS - t
        th2 = TWO_PI_THIRDS + t
        num, _, _, _ = _brackets_and_slopes(t)
        h = np.where(flat, r_flat * math.sin(TWO_PI_THIRDS), np.sqrt(a / num))
        r0 = np.where(flat, np.inf, h / np.sin(t))
        r1 = np.where(flat, r_flat, h / np.sin(th1))
        r2 = np.where(flat, r_flat, h / np.sin(th2))
        middle = np.where(flat, 2.0 * h, 2.0 * h * t / np.sin(t))
        worst = _worst_residuals(a, b, t, r0, r1, r2, h)
    out[pair] = 2.0 * (th1 * r1 + th2 * r2) + middle
    ok[pair] = solved & (worst <= 1e-12)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ConvergenceError(
            f"array geometry solve failed for masses ({m1[i]:g}, {m2[i]:g})")
    return out.reshape(shape)


def perimeter_gradient(m) -> tuple[float, float]:
    """(d p/d m1, d p/d m2) at a positive mass pair: the arc curvatures.

    The derivative in each mass is the reciprocal of that lobe's radius.
    Zero masses are rejected (the disk endpoint has infinite slope).
    """
    m1, m2 = _check_masses(m, positive=True)
    g = solve_geometry((m1, m2))
    g_small, g_big = 1.0 / g.r1, 1.0 / g.r2
    return (g_big, g_small) if g.swapped else (g_small, g_big)


def e0(m, gamma: GammaMatrix) -> float:
    """Droplet energy: perimeter plus the quadratic self-interaction.

    e0(m) = p(m1, m2) + (g11 m1^2 + 2 g12 m1 m2 + g22 m2^2)/(4 pi).
    One mass may be zero (single droplet); both zero is rejected.
    """
    m1, m2 = _check_masses(m, positive=False)
    if m1 == 0.0 and m2 == 0.0:
        raise ValueError("droplet energy undefined for the empty mass pair")
    return perimeter((m1, m2)) + gamma.quad(m1, m2) / (4.0 * math.pi)


def e0_gradient(m, gamma: GammaMatrix) -> tuple[float, float]:
    """(d e0/d m1, d e0/d m2) at a positive mass pair."""
    m1, m2 = _check_masses(m, positive=True)
    p1, p2 = perimeter_gradient((m1, m2))
    two_pi = 2.0 * math.pi
    return (p1 + gamma.row(1, m1, m2) / two_pi,
            p2 + gamma.row(2, m1, m2) / two_pi)


def single_energy(mass: float, gamma_ii: float) -> float:
    """Energy of a lone disk of one species: 2 sqrt(pi m) + g m^2/(4 pi)."""
    if mass < 0.0 or not math.isfinite(mass):
        raise ValueError(f"mass must be nonnegative, got {mass!r}")
    return 2.0 * math.sqrt(math.pi * mass) + gamma_ii * mass * mass / (4.0 * math.pi)


def single_energy_gradient(mass: float, gamma_ii: float) -> float:
    """d/dm of the lone-disk energy: sqrt(pi/m) + g m/(2 pi)."""
    if mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass!r}")
    return math.sqrt(math.pi / mass) + gamma_ii * mass / (2.0 * math.pi)


def single_energy_hessian(mass: float, gamma_ii: float) -> float:
    """Second derivative of the lone-disk energy; negative below the
    inflection mass pi * gamma_ii^(-2/3)."""
    if mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass!r}")
    return gamma_ii / (2.0 * math.pi) - 0.5 * math.sqrt(math.pi) * mass ** -1.5


def e0_hessian_diag(m, gamma: GammaMatrix, i: int, *,
                    rel_step: float = 1e-5) -> float:
    """Pure second derivative d^2 e0/d m_i^2 at a positive mass pair.

    The interaction part is g_ii/(2 pi) exactly; the perimeter part is a
    Richardson-refined central difference of the analytic gradient with
    relative step `rel_step`.  Points too close to the zero-mass boundary for
    the centered stencil are rejected.
    """
    m1, m2 = _check_masses(m, positive=True)
    if i not in (1, 2):
        raise ValueError(f"species index must be 1 or 2, got {i}")
    mi = m1 if i == 1 else m2
    step = rel_step * mi
    if mi - step <= 0.0:
        raise ValueError(
            f"mass {mi:g} too close to zero for the centered stencil"
        )

    def grad_i(x: float) -> float:
        pair = (x, m2) if i == 1 else (m1, x)
        return perimeter_gradient(pair)[i - 1]

    d_full = (grad_i(mi + step) - grad_i(mi - step)) / (2.0 * step)
    d_half = (grad_i(mi + 0.5 * step) - grad_i(mi - 0.5 * step)) / step
    p_second = (4.0 * d_half - d_full) / 3.0
    return gamma.diag(i) / (2.0 * math.pi) + p_second


def concavity_threshold(gamma_ii: float, i: int = 1,
                        probe_other_mass: float = 1.0, *,
                        scan_decades: tuple[float, float] = (-3.0, 3.0),
                        scan_points: int = 61) -> float:
    """Mass where d^2 e0/d m_i^2 changes sign against a fixed partner mass.

    Scans a geometric grid anchored at the single-bubble inflection scale
    pi * gamma_ii^(-2/3), brackets the first negative-to-positive sign change,
    bisects to ~3e-9 relative, and verifies the sign actually flips across
    +/- 1e-4 of the result.  Raises ConvergenceError when no sign change lies
    in the scanned range.
    """
    if gamma_ii <= 0.0 or not math.isfinite(gamma_ii):
        raise ValueError(f"gamma_ii must be positive, got {gamma_ii!r}")
    if probe_other_mass <= 0.0 or not math.isfinite(probe_other_mass):
        raise ValueError(
            f"probe mass must be positive, got {probe_other_mass!r}"
        )
    gamma = GammaMatrix(gamma_ii, gamma_ii, 0.0)

    def hess(mi: float) -> float:
        pair = (mi, probe_other_mass) if i == 1 else (probe_other_mass, mi)
        return e0_hessian_diag(pair, gamma, i)

    anchor = math.pi * gamma_ii ** (-2.0 / 3.0)
    lo_exp, hi_exp = scan_decades
    lo = None
    prev_m = anchor * 10.0 ** lo_exp
    prev_h = hess(prev_m)
    if prev_h >= 0.0:
        raise ConvergenceError(
            f"second derivative already nonnegative at scan start "
            f"{prev_m:g}; no bracket"
        )
    for k in range(1, scan_points):
        mk = anchor * 10.0 ** (lo_exp + (hi_exp - lo_exp) * k / (scan_points - 1))
        hk = hess(mk)
        if hk >= 0.0:
            lo, hi = prev_m, mk
            break
        prev_m, prev_h = mk, hk
    else:
        raise ConvergenceError(
            f"no concavity sign change in [{anchor * 10.0 ** lo_exp:g}, "
            f"{anchor * 10.0 ** hi_exp:g}] for gamma_ii={gamma_ii:g}, "
            f"probe={probe_other_mass:g}"
        )

    while hi - lo > 3e-9 * hi:
        mid = math.sqrt(lo * hi)
        if hess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    m_star = 0.5 * (lo + hi)

    delta = 1e-4 * m_star
    if not (hess(m_star - delta) < 0.0 < hess(m_star + delta)):
        raise ConvergenceError(
            f"sign-change post-check failed at m*={m_star:g} "
            f"(gamma_ii={gamma_ii:g}, probe={probe_other_mass:g})"
        )
    return m_star
