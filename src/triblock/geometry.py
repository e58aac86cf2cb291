"""Planar double-bubble geometry and the sharp droplet energy.

A droplet carrying masses (m1, m2) is a standard double bubble when both
masses are positive: three circular arcs (two outer lobes and a middle cap)
meeting at two triple junctions at 120-degree angles.  When one mass vanishes
the droplet is a round disk.  The arc system reduces to a single scalar
equation for the middle-arc half-angle theta0 in (0, pi/3); once theta0 is
known every radius follows in closed form, so the solver is a bracketed
one-dimensional root find plus algebra, for every positive mass pair.

Small lobes: at mass ratio q, theta2 lies within ~1.385 sqrt(q) of pi, so
one ulp of theta0 moves sin(theta2) by a relative ulp/sqrt(q).  The junction
half-height h therefore comes from the larger lobe's area equation, which
sends that error to the small lobe, whose area residual carries a factor q.
It still limits the small-lobe slope 1/r1 to a relative error of about
1e-16/sqrt(q).  Below q ~ 1e-31 the small lobe is finer than the angular
resolution of theta0: r1 freezes, and the perimeter tends to 2 sqrt(pi b).
`perimeter_hessian` inherits the same slope: against a 60-digit reference
its entries hold to a relative error of at most 6e-12 at ratios in
[1e-8, 1e-7), 1.5e-12 in [1e-7, 1e-6), 5e-13, 2e-13, 7e-14, 2e-14 and 4e-15
in the next five decades, and 1.5e-15 in [0.1, 1], the flat branch
included; about 1e-15/sqrt(q) throughout.  Against the small-lobe limit
-kappa/(4 a^(3/2)) of the small lobe's entry, kappa = (4pi/3 - sqrt 3) /
sqrt(2pi/3 - sqrt(3)/2), the error is 1e-4 at 1e-23, 3e-3 at 1e-26 and
0.4 at 1e-30, so `perimeter_hessian` refuses ratios below 1e-26.

Conventions: the canonical geometry orders the lobes so lobe 1 is the smaller
one (theta1 = 2pi/3 - theta0 <= theta2 = 2pi/3 + theta0, r1 <= r2).  Callers
may pass masses in either order; `BubbleGeometry.swapped` records whether the
input order was reversed internally, and the mass-indexed operations
(perimeter_gradient, perimeter_hessian, e0_hessian_diag) translate back to
the caller's order.

`concavity_threshold` finds its sign change by regula falsi in m^(3/2),
where the second derivative times m^(3/2) is nearly linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from triblock._args import integer, mass_pair, nonempty_pair, real

TWO_PI_THIRDS = 2.0 * math.pi / 3.0
THETA0_MAX = math.pi / 3.0

# Chebyshev coefficients of phi(x), the start theta0 = (1 - sqrt q) phi(x) of
# the middle-angle solve at mass ratio q, x = 2 sqrt(q) - 1.  Fitted by
# `numpy.polynomial.chebyshev.chebfit(x, t / (1 - sqrt q), 18)` on 400
# Chebyshev nodes of t in [1e-3, pi/3), q = A(t)/C(t) from `_brackets`: within
# 1.8e-14 of t there (3.2e-13 relative).
_START = (
    0.8421923326195673, -0.20546423656412785, 0.004930706918093017,
    0.00429365161115387, -0.001037781237530026, 8.420826573886428e-05,
    1.7635174365862704e-05, -7.282805548445741e-06, 1.0810993261600693e-06,
    2.13815316314726e-08, -4.9199181127646447e-08, 1.1696001353296674e-08,
    -9.638687626142166e-10, -2.4637090693740227e-10, 1.0715502635437564e-10,
    -1.795386634330357e-11, 1.0625127315233028e-13, 7.696309486822619e-13,
    -2.2363391445256697e-13,
)

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

    def __post_init__(self):
        for name, closed in (("g11", False), ("g22", False), ("g12", True)):
            object.__setattr__(self, name,
                               real(name, getattr(self, name), 0.0, closed=closed))

    def is_positive_definite(self) -> bool:
        return self.g12 * self.g12 < self.g11 * self.g22

    def quad(self, m1: float, m2: float) -> float:
        """Quadratic form g11 m1^2 + 2 g12 m1 m2 + g22 m2^2."""
        return self.g11 * m1 * m1 + 2.0 * self.g12 * m1 * m2 + self.g22 * m2 * m2

    def swapped(self) -> "GammaMatrix":
        """Coefficients with the two species exchanged."""
        return GammaMatrix(self.g22, self.g11, self.g12)


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


def _segment_terms(theta: float) -> tuple[float, float]:
    """seg(theta)/sin^2(theta), the segment area per h^2 (0 at theta = 0),
    and its derivative 2 - 2 seg(theta) cos(theta)/sin^3(theta)."""
    if theta == 0.0:
        return 0.0, 2.0 / 3.0
    s = math.sin(theta)
    seg = _seg(theta)
    return seg / (s * s), 2.0 - 2.0 * seg * math.cos(theta) / (s * s * s)


def _brackets(t: float) -> tuple[float, float, float, float]:
    """Mass brackets (A, C) with A/C = m1/m2 at the solved middle angle t,
    and their derivatives (A'(t), C'(t)).

    A collects the small-lobe and middle segment areas per h^2, C the large
    lobe minus the middle segment; both come from eliminating the radii from
    the area equations via r_i sin(theta_i) = h.
    """
    g0, d0 = _segment_terms(t)
    g1, d1 = _segment_terms(TWO_PI_THIRDS - t)
    g2, d2 = _segment_terms(TWO_PI_THIRDS + t)
    return g1 + g0, g2 - g0, d0 - d1, d2 - d0


def _start(q, sqrt):
    """The `_START` series at mass ratios q, summed by Clenshaw's recurrence
    with `sqrt` math.sqrt or np.sqrt: the same operations on a float or
    elementwise on an array, so the two solves start bit for bit alike.
    Callers replace a start past _LENS_START with `_lens_start`."""
    s = sqrt(q)
    x = 2.0 * s - 1.0
    x2 = 2.0 * x
    b1, b2 = _START[-1], 0.0  # the first step from b1 = b2 = 0, exactly
    for c in reversed(_START[1:-1]):
        b1, b2 = x2 * b1 - b2 + c, b1
    return (1.0 - s) * (x * b1 - b2 + _START[0])


def _lens_start(q, sqrt):
    """Start at mass ratios q below about 5e-25, where the series passes
    _LENS_START: the small-lobe limit pi/3 - sqrt(pi q / A(pi/3)), from
    a C(t) = b A(t) with C ~ pi/(pi/3 - t)^2.  A start farther from pi/3
    than sqrt(3) times the root's distance lets Newton overshoot to within
    a few ulps of pi/3, where its 2-ulp step rule stops it on a small lobe
    hundreds of times too small."""
    return THETA0_MAX - sqrt(_LENS_AREA * q)


# Where the `_START` series hands over to `_lens_start`, and pi / A(pi/3)
# for the latter: the lens of two arcs of half-angle pi/3.
_LENS_START = THETA0_MAX - 1e-12
_LENS_AREA = math.pi / _brackets(THETA0_MAX)[0]


def _solve_middle_angle(a: float, b: float, residual_tol: float,
                        max_iter: int) -> float:
    """Root of a*C(t) - b*A(t) = 0 on (0, pi/3) for masses a < b.

    Newton iteration with a maintained bisection bracket, from the `_START`
    series or, below a/b ~ 5e-25, `_lens_start`: one pass for ratios
    a/b >= 1e-2, at most two down to 1e-12, three in [1e-30, 1e-12) and
    two below (the most over 300 seeded ratios per band).
    Once the second area equation holds to residual_tol relative to a + b,
    or the Newton step is at most 2 ulps of t, it returns the Newton step;
    a one-ulp bracket returns t.  These only stop the loop: the
    `geometry_residuals` gate of `solve_geometry` decides.
    """
    scale = a + b
    t = _start(a / b, math.sqrt)
    if t > _LENS_START:
        t = _lens_start(a / b, math.sqrt)
    lo, hi = 0.0, THETA0_MAX  # gap(lo) < 0 < gap(hi) by monotonicity
    for _ in range(max_iter):
        num, den, nump, denp = _brackets(t)
        gap = a * den - b * num
        slope = a * denp - b * nump
        t_next = t - gap / slope if slope > 0.0 else math.nan
        if (abs(gap) <= residual_tol * scale * num
                or abs(t_next - t) <= 2.0 * math.ulp(t)):
            return t if math.isnan(t_next) else t_next
        if gap > 0.0:
            hi = t
        else:
            lo = t
        if not (lo < t_next < hi):
            t_next = 0.5 * (lo + hi)
        if t_next == t:  # the bracket is one ulp wide
            return t
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
    m1, m2 = mass_pair("m", m, True)
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
        _, den, _, _ = _brackets(t)
        h = math.sqrt(b / den)
        geom = BubbleGeometry(
            theta0=t, theta1=th1, theta2=th2,
            r0=h / math.sin(t), r1=h / math.sin(th1), r2=h / math.sin(th2),
            h=h, swapped=swapped,
        )

    residuals = geometry_residuals(geom, (a, b))
    bad = [f"{k} {r:.3e}" for k, r in residuals.items() if not abs(r) <= 1e-12]
    if bad:  # `not <=` refuses a nan residual too
        raise ConvergenceError(
            f"geometry residuals exceed 1e-12 for masses ({m1:g}, {m2:g}): "
            + ", ".join(bad))
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
    m1, m2 = mass_pair("m", m)
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

def _angle_terms(t):
    """Arc terms at the three angles theta = (t, 2pi/3 - t, 2pi/3 + t) of a
    middle-angle array t, each as a (3, n) array: theta, seg, sin, cos and
    the `_segment_terms` pair (g, d), row 0's nan where t = 0.  Only t goes
    below pi/3, so `_seg`'s series applies to row 0 alone."""
    theta = np.array((t, TWO_PI_THIRDS - t, TWO_PI_THIRDS + t))
    seg = theta - 0.5 * np.sin(2.0 * theta)
    small = t < 0.25
    if np.count_nonzero(small):
        ts = t[small]
        t2 = ts * ts
        acc = _SEG_COEFFS[-1]
        for c in reversed(_SEG_COEFFS[:-1]):
            acc = acc * t2 + c
        seg[0, small] = acc * t2 * ts
    s, c = np.sin(theta), np.cos(theta)
    s2 = s * s
    return theta, seg, s, c, seg / s2, 2.0 - 2.0 * seg * c / (s2 * s)


def _middle_angles(a, b):
    """`_solve_middle_angle` on arrays a < b: the same start and steps.
    Each element keeps its own bisection bracket and leaves the active set
    by the same stopping rules, so a batch pays for the passes of its slow
    elements on those alone.  Returns t, nan where the scalar solve would
    raise."""
    q = a / b
    t = _start(q, np.sqrt)
    t = np.where(t > _LENS_START, _lens_start(q, np.sqrt), t)
    tol = _RESIDUAL_TOL * (a + b)
    out = np.full(t.shape, np.nan)
    idx = np.arange(t.size)
    lo, hi = 0.0, THETA0_MAX  # every element's first bracket
    for _ in range(_MAX_ITER):
        if not idx.size:
            break
        *_, g, d = _angle_terms(t)
        num = g[1] + g[0]
        gap = a * (g[2] - g[0]) - b * num
        slope = a * (d[2] - d[0]) - b * (d[0] - d[1])
        t_next = np.where(slope > 0.0, t - gap / slope, np.nan)
        stop = ((np.abs(gap) <= tol * num)
                | (np.abs(t_next - t) <= 2.0 * np.spacing(t)))
        out[idx[stop]] = np.where(np.isnan(t_next), t, t_next)[stop]
        if np.count_nonzero(stop) == idx.size:
            break
        up = gap > 0.0
        hi = np.where(up, t, hi)
        lo = np.where(up, lo, t)
        inside = (lo < t_next) & (t_next < hi)
        t_next = np.where(inside, t_next, 0.5 * (lo + hi))
        ulp = ~stop & (t_next == t)  # the bracket is one ulp wide
        out[idx[ulp]] = t[ulp]
        keep = ~(stop | ulp)
        idx, a, b, tol = idx[keep], a[keep], b[keep], tol[keep]
        t, lo, hi = t_next[keep], lo[keep], hi[keep]
    return out


def _solve_pairs(m1, m2):
    """`solve_geometry` on 1-D arrays of positive mass pairs, gated.

    The same start, Newton steps with a bisection bracket per element,
    stopping rules, h from the larger lobe, flat interface inside
    `SYMMETRY_TOL` and per-element 1e-12 `geometry_residuals` gate, from one
    `_angle_terms` call at the solved t, under a local errstate (the flat
    elements divide by sin(0)).  Returns (p, a, b, h, r, s, c, g, d): the
    perimeter, the caller's masses in canonical order (not the flat mean),
    h, the radii (r0, r1, r2), and the sin, cos and `_segment_terms` rows
    at the solved t (g0 = 0 and d0 = 2/3 where flat).  Raises
    ConvergenceError naming the first pair that fails to converge or fails
    the gate.
    """
    a, b = np.minimum(m1, m2), np.maximum(m1, m2)
    flat = 1.0 - a / b < SYMMETRY_TOL
    t = np.zeros(a.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        t[~flat] = _middle_angles(a[~flat], b[~flat])
        theta, seg, s, c, g, d = _angle_terms(t)
        h = np.sqrt(b / (g[2] - g[0]))
        r = h / s
        area = r * r * seg
        h0 = r[0] * s[0]
        middle = 2.0 * h * t / s[0]
        mass = np.array((a, b))
        i = np.flatnonzero(flat)
        if i.size:
            # the mean-mass geometry of `solve_geometry`, at theta0 = 0
            mass[:, i] = mbar = 0.5 * (a[i] + b[i])
            r_flat = np.sqrt(mbar / _seg(TWO_PI_THIRDS))
            h[i] = h0[i] = r_flat * math.sin(TWO_PI_THIRDS)
            g[0, i], d[0, i] = 0.0, 2.0 / 3.0
            r[0, i], r[1:, i] = np.inf, r_flat
            area[:, i] = r_flat * r_flat * seg[:, i]
            middle[i] = 2.0 * h[i]
        k = 1.0 / r
        worst = np.abs(np.concatenate((
            (np.array((area[1] + area[0], area[2] - area[0])) - mass) / (a + b),
            (r[1:] * s[1:] - h0) / h,
            ((k[1] - k[2] - k[0]) * h, c[1] + c[2] + c[0])))).max(axis=0)
    ok = worst <= 1e-12  # False where t is nan
    if np.count_nonzero(ok) < ok.size:
        i = int(np.argmin(ok))
        raise ConvergenceError(
            f"array geometry solve failed for masses ({m1[i]:g}, {m2[i]:g})")
    arcs = theta[1:] * r[1:]
    p = 2.0 * (arcs[0] + arcs[1]) + middle
    return p, a, b, h, r, s, c, g, d


def _perimeters(m1, m2):
    """`perimeter` on broadcast arrays of nonnegative masses.

    Pairs of two positive masses go through `_solve_pairs`; one mass zero
    gives the disk value, both zero give 0.  Raises ValueError on negative
    or nonfinite masses and ConvergenceError naming the first pair (in C
    order) that fails to converge or fails the gate.

    The fixed numpy overhead makes a size-1 call ~0.12 ms, against ~8 us
    for the scalar `perimeter` (2-core x86-64 Xeon, numpy 2.4), so only
    batch callers use it: a 64 x 64 table takes ~1.5 ms, against ~37 ms for
    4096 scalar calls.
    """
    m1, m2 = np.broadcast_arrays(np.asarray(m1, dtype=float),
                                 np.asarray(m2, dtype=float))
    shape = m1.shape
    m1, m2 = m1.ravel(), m2.ravel()
    if not (np.isfinite(m1).all() and np.isfinite(m2).all()):
        raise ValueError("masses must be finite")
    if (m1 < 0.0).any() or (m2 < 0.0).any():
        raise ValueError("masses must be nonnegative")
    out = np.zeros(m1.shape)
    disk = (np.minimum(m1, m2) == 0.0) & (m1 + m2 > 0.0)
    out[disk] = 2.0 * np.sqrt(math.pi * (m1[disk] + m2[disk]))
    pair = np.flatnonzero((m1 > 0.0) & (m2 > 0.0))
    out[pair] = _solve_pairs(m1[pair], m2[pair])[0]
    return out.reshape(shape)


def _perimeter_derivatives(m1, m2):
    """p, its gradient and its Hessian on 1-D arrays of positive mass pairs.

    One `_solve_pairs` call; the gradient is `perimeter_gradient` and the
    Hessian `perimeter_hessian`, elementwise, from the arc terms that the
    residual gate used.  Returns the rows (p, p1, p2, h11, h12, h22) of one
    (6, n) array, all in the caller's order.

    It has no small-lobe refusal, unlike `perimeter_hessian`: it is only
    the Jacobian of `ebar`'s Newton iteration, where an inexact small-lobe
    entry slows convergence but does not move the KKT point, and
    `partition._scale` widens that species' tolerance to the accuracy of
    its slope (tested down to a share of 1e-27).
    """
    p, a, b, h, r, s, c, g, d = _solve_pairs(m1, m2)
    dtheta = (g[2] - g[0]) / (d[0] - d[1] - a / b * (d[2] - d[0]))
    h12 = ((2.0 * s[2] - 2.0 * g[0] * c[2] - d[0] * s[2]) * h * dtheta
           / (2.0 * b) / b)
    m = np.array((m1, m2))
    rm = np.where(m1 > m2, r[:0:-1], r[1:])  # the lobe radii in caller order
    hm = (-0.5 / rm - h12 * m[::-1]) / m
    return np.array((p, *(1.0 / rm), hm[0], h12, hm[1]))


def perimeter_gradient(m) -> tuple[float, float]:
    """(d p/d m1, d p/d m2) at a positive mass pair: the arc curvatures.

    The derivative in each mass is the reciprocal of that lobe's radius.
    Zero masses are rejected (the disk endpoint has infinite slope).  See
    the module docstring for the accuracy of the small-lobe slope.
    """
    m1, m2 = mass_pair("m", m, True)
    g = solve_geometry((m1, m2))
    g_small, g_big = 1.0 / g.r1, 1.0 / g.r2
    return (g_big, g_small) if g.swapped else (g_small, g_big)


# Mass ratio below which the small lobe's Hessian entries are refused: their
# relative error, about 3e-16/sqrt(q), reaches 0.3% here and 40% at 1e-30.
_HESSIAN_MIN_RATIO = 1e-26


def _refuse_small_lobe(small: float, big: float) -> None:
    """Raise ConvergenceError when small/big is below _HESSIAN_MIN_RATIO."""
    if small < _HESSIAN_MIN_RATIO * big:
        raise ConvergenceError(
            f"mass ratio {small / big:.3g} is below {_HESSIAN_MIN_RATIO:g}, "
            "where the small lobe's Hessian entries are not resolved")


def perimeter_hessian(m) -> np.ndarray:
    """Symmetric 2x2 Hessian of p at a positive mass pair, in caller order.

    One geometry solve gives it.  With a <= b, theta0 depends on q = a/b
    alone, and A/C = q gives d theta0/dq = C/(A' - q C').  Differentiating
    1/r2 = sin(theta2) sqrt(C/b), whose large-lobe segment terms cancel
    exactly, gives the mixed entry H12 = d(1/r2)/da =
    (2 sin th2 - 2 g0 cos th2 - g0' sin th2) h (d theta0/dq)/(2 b^2), g0 and
    g0' the middle-arc `_segment_terms`.  p is homogeneous of degree 1/2,
    so Euler's relation H m = -grad(p)/2 gives the pure entries.  Raises
    ConvergenceError below the mass ratio _HESSIAN_MIN_RATIO = 1e-26.
    """
    m1, m2 = mass_pair("m", m, True)
    _refuse_small_lobe(min(m1, m2), max(m1, m2))
    h11, h12, h22 = _perimeter_hessian(m1, m2)
    return np.array([[h11, h12], [h12, h22]])


def _perimeter_hessian(m1: float, m2: float) -> tuple[float, float, float]:
    """(H11, H12, H22) of `perimeter_hessian` at a checked pair, any ratio."""
    g = solve_geometry((m1, m2))
    a, b = (m2, m1) if g.swapped else (m1, m2)
    g0, d0 = _segment_terms(g.theta0)
    d1 = _segment_terms(g.theta1)[1]
    g2, d2 = _segment_terms(g.theta2)
    s2, c2 = math.sin(g.theta2), math.cos(g.theta2)
    dtheta = (g2 - g0) / (d0 - d1 - a / b * (d2 - d0))
    h12 = (2.0 * s2 - 2.0 * g0 * c2 - d0 * s2) * g.h * dtheta / (2.0 * b) / b
    h11 = (-0.5 / g.r1 - h12 * b) / a
    h22 = (-0.5 / g.r2 - h12 * a) / b
    return (h22, h12, h11) if g.swapped else (h11, h12, h22)


def e0(m, gamma: GammaMatrix) -> float:
    """Droplet energy: perimeter plus the quadratic self-interaction.

    e0(m) = p(m1, m2) + (g11 m1^2 + 2 g12 m1 m2 + g22 m2^2)/(4 pi).
    One mass may be zero (single droplet); both zero is rejected.
    """
    m1, m2 = nonempty_pair("m", m)
    return perimeter((m1, m2)) + gamma.quad(m1, m2) / (4.0 * math.pi)


def e0_gradient(m, gamma: GammaMatrix) -> tuple[float, float]:
    """(d e0/d m1, d e0/d m2) at a positive mass pair."""
    m1, m2 = mass_pair("m", m, True)
    p1, p2 = perimeter_gradient((m1, m2))
    two_pi = 2.0 * math.pi
    return (p1 + (gamma.g11 * m1 + gamma.g12 * m2) / two_pi,
            p2 + (gamma.g12 * m1 + gamma.g22 * m2) / two_pi)


def single_energy(mass: float, gamma_ii: float) -> float:
    """Energy of a lone disk of one species: 2 sqrt(pi m) + g m^2/(4 pi)."""
    mass = real("mass", mass, 0.0, closed=True)
    gamma_ii = real("gamma_ii", gamma_ii, 0.0, closed=True)
    return 2.0 * math.sqrt(math.pi * mass) + gamma_ii * mass * mass / (4.0 * math.pi)


def single_energy_gradient(mass: float, gamma_ii: float) -> float:
    """d/dm of the lone-disk energy: sqrt(pi/m) + g m/(2 pi)."""
    mass = real("mass", mass, 0.0)
    gamma_ii = real("gamma_ii", gamma_ii, 0.0, closed=True)
    return math.sqrt(math.pi / mass) + gamma_ii * mass / (2.0 * math.pi)


def e0_hessian_diag(m, gamma: GammaMatrix, i: int) -> float:
    """Pure second derivative d^2 e0/d m_i^2 at a positive mass pair:
    g_ii/(2 pi) plus the diagonal entry of `perimeter_hessian`.  The
    species index i is an integer, 1 or 2.  Raises ConvergenceError where
    species i is the small lobe below the mass ratio 1e-26; the large
    lobe's entry holds at every ratio."""
    i = integer("i", i, 1)
    if i > 2:
        raise ValueError(f"i must be 1 or 2, got {i}")
    m1, m2 = mass_pair("m", m, True)
    _refuse_small_lobe(*((m1, m2) if i == 1 else (m2, m1)))
    g_ii = gamma.g11 if i == 1 else gamma.g22
    return g_ii / (2.0 * math.pi) + _perimeter_hessian(m1, m2)[2 * i - 2]


# Bracket of the concavity threshold: anchor * 10^-3 .. anchor * 10^3.
_SCAN_DECADES = 3.0
# Stop once the bracket is within four ulps of the root, so the scaling
# m*(Gamma/lam^3, lam^2 probe) = lam^2 m* holds; a scan took up to 250 steps
# where a lobe ratio below 1e-20 leaves the second derivative noise.
_ROOT_RTOL = 2.0 ** -50
_ROOT_MAX_ITER = 300


def _illinois(f, a: float, fa: float, b: float, fb: float) -> float:
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in
    sign, by the Illinois variant of regula falsi (Dowell & Jarratt 1971):
    step to the secant point, and halve the value kept at an end that two
    steps in a row leave in place.  b is the newest end.  Raises
    ConvergenceError after _ROOT_MAX_ITER steps."""
    scale = 1.0  # the first step keeps a for the first time
    for _ in range(_ROOT_MAX_ITER):
        x = b - (b - a) * (fb / (fb - fa))
        if abs(b - a) <= _ROOT_RTOL * abs(x) or (fx := f(x)) == 0.0:
            return x
        if (fx < 0.0) != (fb < 0.0):
            a, fa = b, fb
        else:
            fa *= scale
        b, fb, scale = x, fx, 0.5
    raise ConvergenceError(f"regula falsi did not converge in "
                           f"{_ROOT_MAX_ITER} steps in [{a:g}, {b:g}]")


def concavity_threshold(gamma_ii: float, i: int = 1,
                        probe_other_mass: float = 1.0) -> float:
    """Mass where d^2 e0/d m_i^2 changes sign against a fixed partner mass.

    Checks that the exact second derivative is negative at 1e-3 and
    nonnegative at 1e3 times the single-bubble inflection scale
    pi * gamma_ii^(-2/3), finds the sign change between them to a few ulps,
    and verifies that the sign flips across +/- 1e-4 of the result.  The
    perimeter is homogeneous of degree 1/2, so in x = m_i^(3/2) the product
    x d^2 e0/d m_i^2 is linear for a lone disk, gamma_ii x/(2 pi) -
    sqrt(pi)/2, and nearly linear with a partner: `_illinois` solves it in
    x, from the two end values the bracket checks computed.  Raises
    ValueError for a species index i other than 1 or 2, and ConvergenceError
    when the ends do not bracket a sign change, when x at the upper end
    passes the float range (gamma_ii below about 1e-303), when species i is
    below 1e-26 of its partner, or when the solve or the post-check fails.
    """
    gamma_ii = real("gamma_ii", gamma_ii, 0.0)
    probe_other_mass = real("probe_other_mass", probe_other_mass, 0.0)
    i = integer("i", i, 1)
    if i > 2:
        raise ValueError(f"i must be 1 or 2, got {i}")

    def hess(mi: float) -> float:
        _refuse_small_lobe(mi, probe_other_mass)
        pair = (mi, probe_other_mass) if i == 1 else (probe_other_mass, mi)
        return gamma_ii / (2.0 * math.pi) + _perimeter_hessian(*pair)[2 * i - 2]

    anchor = math.pi * gamma_ii ** (-2.0 / 3.0)
    lo = anchor * 10.0 ** -_SCAN_DECADES
    hi = anchor * 10.0 ** _SCAN_DECADES
    h_lo = hess(lo)
    if h_lo >= 0.0:
        raise ConvergenceError(
            f"second derivative already nonnegative at scan start "
            f"{lo:g}; no bracket"
        )
    h_hi = hess(hi)
    if h_hi < 0.0:
        raise ConvergenceError(
            f"no concavity sign change in [{lo:g}, {hi:g}] for "
            f"gamma_ii={gamma_ii:g}, probe={probe_other_mass:g}"
        )
    x_lo, x_hi = lo * math.sqrt(lo), hi * math.sqrt(hi)
    if math.isinf(x_hi):
        raise ConvergenceError(
            f"bracket end {hi:g} passes the float range as m^(3/2)"
        )
    x_star = _illinois(lambda x: x * hess(x ** (2.0 / 3.0)),
                       x_lo, x_lo * h_lo, x_hi, x_hi * h_hi)
    m_star = x_star ** (2.0 / 3.0)

    delta = 1e-4 * m_star
    if not (hess(m_star - delta) < 0.0 < hess(m_star + delta)):
        raise ConvergenceError(
            f"sign-change post-check failed at m*={m_star:g} "
            f"(gamma_ii={gamma_ii:g}, probe={probe_other_mass:g})"
        )
    return m_star
