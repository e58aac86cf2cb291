"""Planar double-bubble geometry and the sharp droplet energy.

A droplet carrying masses (m1, m2) is a standard double bubble when both
masses are positive: three circular arcs (two outer lobes and a middle cap)
meeting at two triple junctions at 120-degree angles.  When one mass vanishes
the droplet is a round disk.  The arc system reduces to a single scalar
equation for the middle-arc half-angle theta0 in (0, pi/3); once theta0 is
known every radius follows in closed form, so the solver is a bracketed
one-dimensional root find plus algebra, for every positive mass pair.

One arc model, two solves: each formula runs on Python floats with `math`
or elementwise on arrays with numpy.  The scalar `_solve_pair` serves
`solve_geometry`, `perimeter` and its derivatives (bubble tables, cluster
energies, `partition.thresholds`); the array `_solve_pairs` serves
`partition`'s ansatz grids, KKT Jacobians and oracle table.

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
# Chebyshev nodes of t in [1e-3, pi/3), q = A(t)/C(t) from `_gap`: within
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

# Relative mass gap below which the middle arc is treated as flat, and the
# limits of `_segment_terms` (g, d) at its middle angle theta0 = 0.
SYMMETRY_TOL = 1e-10
_FLAT_TERMS = (0.0, 2.0 / 3.0)

_RESIDUAL_TOL = 5e-13
_MAX_ITER = 90
_RESIDUAL_KEYS = ("area1", "area2", "junction1", "junction2", "curvature",
                  "angle_sum")

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


# ---------------------------------------------------------------------------
# The arc model, xp = math or numpy.  Row i of each arc quantity is theta_i's.

def _series(t):
    """`_seg` below 0.25, where it cancels (the value is ~(2/3) t^3), by the
    odd series of `_SEG_COEFFS`: both are a few ulps accurate."""
    t2 = t * t
    acc = _SEG_COEFFS[-1]
    for c in reversed(_SEG_COEFFS[:-1]):
        acc = acc * t2 + c
    return acc * t2 * t


def _seg(theta, xp):
    """Segment area factor theta - sin(theta)cos(theta), theta >= 0.25."""
    return theta - 0.5 * xp.sin(2.0 * theta)


def _segment_terms(seg, s, c):
    """g = seg/sin^2 (segment area per h^2) and its derivative d =
    2 - 2 seg cos/sin^3, from an angle's segment factor, sine and cosine."""
    s2 = s * s
    return seg / s2, 2.0 - 2.0 * seg * c / (s2 * s)


def _angles(t):
    return t, TWO_PI_THIRDS - t, TWO_PI_THIRDS + t


def _gap(a, b, g, d):
    """A = g1 + g0, a C - b A (C = g2 - g0: the area equations without the
    radii) and its slope in theta0, zero at the middle angle of a < b."""
    num = g[1] + g[0]
    return (num, a * (g[2] - g[0]) - b * num,
            a * (d[2] - d[0]) - b * (d[0] - d[1]))


def _radii(b, t, s, g, xp):
    """h = sqrt(b/C) from the larger lobe's area equation, the radii
    h/sin(theta_i) and the middle arc's length 2 h t/sin(t), for t > 0."""
    h = xp.sqrt(b / (g[2] - g[0]))
    return h, (h / s[0], h / s[1], h / s[2]), 2.0 * h * t / s[0]


def _flat(a, b, xp):
    """The mean mass of a pair inside SYMMETRY_TOL and its flat `_radii`."""
    mbar = 0.5 * (a + b)
    r = xp.sqrt(mbar / _seg(TWO_PI_THIRDS, math))
    h = r * math.sin(TWO_PI_THIRDS)
    return (mbar, mbar), h, (math.inf, r, r), 2.0 * h


def _lobes(r, s, seg):
    """r0 sin(theta0), areas r ** 2 seg (libm's pow on a float, not always
    r * r) and curvatures 1/r; a flat middle arc takes h and area 0."""
    area = [r[0] ** 2 * seg[0], r[1] ** 2 * seg[1], r[2] ** 2 * seg[2]]
    return r[0] * s[0], area, (1.0 / r[0], 1.0 / r[1], 1.0 / r[2])


def _residuals(mass, h, h0, r, s, c, area, k):
    """The residuals of _RESIDUAL_KEYS: areas relative to the mass sum,
    junction heights to h, curvature balance times h, tangency angle sum."""
    scale = mass[0] + mass[1]
    return ((area[1] + area[0] - mass[0]) / scale,
            (area[2] - area[0] - mass[1]) / scale,
            (r[1] * s[1] - h0) / h,
            (r[2] * s[2] - h0) / h,
            (k[1] - k[2] - k[0]) * h,
            c[1] + c[2] + c[0])


def _within_gate(res):
    """The 1e-12 residual gate: false at nan."""
    return abs(res) <= 1e-12


def _perimeter_sum(theta, r, middle):
    return 2.0 * (theta[1] * r[1] + theta[2] * r[2]) + middle


def _hessian(a, b, h, r, s, c, g, d):
    """(H11, H12, H22) of p at masses a <= b; see `perimeter_hessian`."""
    dtheta = (g[2] - g[0]) / (d[0] - d[1] - a / b * (d[2] - d[0]))
    h12 = ((2.0 * s[2] - 2.0 * g[0] * c[2] - d[0] * s[2]) * h * dtheta
           / (2.0 * b) / b)
    return (-0.5 / r[1] - h12 * b) / a, h12, (-0.5 / r[2] - h12 * a) / b


def _start(q, xp):
    """The `_START` series at mass ratios q, summed by Clenshaw's recurrence:
    the same operations on a float or elementwise on an array, so the two
    solves start bit for bit alike.  Callers replace a start past
    _LENS_START with `_lens_start`."""
    s = xp.sqrt(q)
    x = 2.0 * s - 1.0
    x2 = 2.0 * x
    b1, b2 = _START[-1], 0.0  # the first step from b1 = b2 = 0, exactly
    for c in reversed(_START[1:-1]):
        b1, b2 = x2 * b1 - b2 + c, b1
    return (1.0 - s) * (x * b1 - b2 + _START[0])


def _lens_start(q, xp):
    """Start at mass ratios q below about 5e-25, where the series passes
    _LENS_START: the small-lobe limit pi/3 - sqrt(pi q / A(pi/3)), from
    a C(t) = b A(t) with C ~ pi/(pi/3 - t)^2.  A start farther from pi/3
    than sqrt(3) times the root's distance lets Newton overshoot to within
    a few ulps of pi/3, where its 2-ulp step rule stops it on a small lobe
    hundreds of times too small."""
    return THETA0_MAX - xp.sqrt(_LENS_AREA * q)


def _arcs(theta):
    """The rows seg, sin and cos at three float angles theta; `_series`
    gives seg below 0.25, which only theta0 reaches on a double bubble."""
    t0, t1, t2 = theta
    return ((_series(t0) if t0 < 0.25 else _seg(t0, math), _seg(t1, math),
             _seg(t2, math)),
            (math.sin(t0), math.sin(t1), math.sin(t2)),
            (math.cos(t0), math.cos(t1), math.cos(t2)))


def _arc_terms(seg, s, c):
    """The rows g and d of `_segment_terms` at the rows of `_arcs`; row 0
    takes `_FLAT_TERMS` where sin(theta0) = 0."""
    g0, d0 = _segment_terms(seg[0], s[0], c[0]) if s[0] else _FLAT_TERMS
    g1, d1 = _segment_terms(seg[1], s[1], c[1])
    g2, d2 = _segment_terms(seg[2], s[2], c[2])
    return (g0, g1, g2), (d0, d1, d2)


# Where the `_START` series hands over to `_lens_start`, and pi / A(pi/3)
# for the latter, A = g1 + g0 as in `_gap`: the lens of two arcs of
# half-angle pi/3.
_LENS_START = THETA0_MAX - 1e-12
_LENS_G = _arc_terms(*_arcs(_angles(THETA0_MAX)))[0]
_LENS_AREA = math.pi / (_LENS_G[1] + _LENS_G[0])


def _solve_middle_angle(a: float, b: float) -> float:
    """Root of a*C(t) - b*A(t) = 0 on (0, pi/3) for masses a < b.

    Newton iteration with a maintained bisection bracket, from the `_START`
    series or, below a/b ~ 5e-25, `_lens_start`: one pass for ratios
    a/b >= 1e-2, at most two down to 1e-12, three in [1e-30, 1e-12) and
    two below (the most over 300 seeded ratios per band).
    Once the second area equation holds to _RESIDUAL_TOL relative to a + b,
    or the Newton step is at most 2 ulps of t, it returns the Newton step;
    a one-ulp bracket returns t.  These only stop the loop: the residual
    gate of `_solve_pair` decides.
    """
    scale = a + b
    t = _start(a / b, math)
    if t > _LENS_START:
        t = _lens_start(a / b, math)
    lo, hi = 0.0, THETA0_MAX  # gap(lo) < 0 < gap(hi) by monotonicity
    for _ in range(_MAX_ITER):
        num, gap, slope = _gap(a, b, *_arc_terms(*_arcs(_angles(t))))
        t_next = t - gap / slope if slope > 0.0 else math.nan
        if (abs(gap) <= _RESIDUAL_TOL * scale * num
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
        f"residual {abs(gap) / (scale * num):.3e} after {_MAX_ITER} iterations"
    )


def _arc_residuals(mass, h, r, seg, s, c):
    """`_residuals` at the arc rows seg, s, c, the middle arc flat if
    r0 = inf."""
    h0, area, k = _lobes(r, s, seg)
    if math.isinf(r[0]):
        h0, area[0] = h, 0.0
    return _residuals(mass, h, h0, r, s, c, area, k)


def _solve_pair(m1: float, m2: float):
    """The gated arc system at one positive pair: p, the masses in canonical
    order (not the flat mean), h and the rows (theta, r, s, c, g, d).
    Raises ConvergenceError naming each residual past the 1e-12 gate."""
    a, b = (m2, m1) if m1 > m2 else (m1, m2)
    flat = 1.0 - a / b < SYMMETRY_TOL
    theta = _angles(0.0 if flat else _solve_middle_angle(a, b))
    seg, s, c = _arcs(theta)
    g, d = _arc_terms(seg, s, c)
    if flat:
        mass, h, r, middle = _flat(a, b, math)
    else:
        mass, (h, r, middle) = (a, b), _radii(b, theta[0], s, g, math)
    res = _arc_residuals(mass, h, r, seg, s, c)
    if not all(map(_within_gate, res)):
        raise ConvergenceError(
            f"geometry residuals exceed 1e-12 for masses ({m1:g}, {m2:g}): "
            + ", ".join(f"{k} {x:.3e}" for k, x in zip(_RESIDUAL_KEYS, res)
                        if not _within_gate(x)))
    return _perimeter_sum(theta, r, middle), a, b, h, theta, r, s, c, g, d


def solve_geometry(m) -> BubbleGeometry:
    """Solve the double-bubble arc system for a positive mass pair.

    Returns the canonical BubbleGeometry (smaller lobe first, `swapped` set
    when the input order was reversed).  Raises ValueError on nonpositive or
    nonfinite masses and ConvergenceError if the residual target cannot be
    met.
    """
    m1, m2 = mass_pair("m", m, True)
    _, _, _, h, theta, r, *_ = _solve_pair(m1, m2)
    return BubbleGeometry(*theta, *r, h, m1 > m2)


def geometry_residuals(geom: BubbleGeometry, m) -> dict[str, float]:
    """Relative residuals of the arc system at a solved geometry.

    `m` is the canonically ordered pair (smaller first).  Keys: the two area
    equations, the two junction-height matches, the curvature balance, and
    the tangency angle sum.  All are nondimensionalized so 1e-12 is a
    meaningful common tolerance.
    """
    t0, t1, t2, r0, r1, r2, h = map(float, (
        geom.theta0, geom.theta1, geom.theta2, geom.r0, geom.r1, geom.r2,
        geom.h))  # on floats, a flat r0 * sin(theta0) is a silent nan
    res = _arc_residuals((float(m[0]), float(m[1])), h, (r0, r1, r2),
                         *_arcs((t0, t1, t2)))
    return dict(zip(_RESIDUAL_KEYS, res))


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
    return _solve_pair(m1, m2)[0]


# ---------------------------------------------------------------------------
# Array solve: many mass pairs at once, each row a 1-D array.

def _angle_terms(t):
    """The rows theta, seg, sin, cos, g and d at an array of middle angles
    t, each a (3, n) array; g0 and d0 are nan where t = 0."""
    theta = np.array(_angles(t))
    seg = _seg(theta, np)
    small = t < 0.25
    if np.count_nonzero(small):
        seg[0, small] = _series(t[small])
    s, c = np.sin(theta), np.cos(theta)
    return theta, seg, s, c, *_segment_terms(seg, s, c)


def _middle_angles(a, b):
    """`_solve_middle_angle` on arrays a < b: the same start, steps and stop
    rules, with a bisection bracket per element, which leaves the active
    set when it stops.  Returns t, nan where the scalar solve would raise."""
    q = a / b
    t = _start(q, np)
    t = np.where(t > _LENS_START, _lens_start(q, np), t)
    tol = _RESIDUAL_TOL * (a + b)
    out = np.full(t.shape, np.nan)
    idx = np.arange(t.size)
    lo, hi = 0.0, THETA0_MAX  # every element's first bracket
    for _ in range(_MAX_ITER):
        if not idx.size:
            break
        num, gap, slope = _gap(a, b, *_angle_terms(t)[4:])
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
    """`_solve_pair` on 1-D arrays of positive mass pairs, each row an
    array.  Flat elements are evaluated at t = 0 and then given `_flat`'s
    terms, under a local errstate: they divide by sin(0), and masses near
    the float range overflow into the gate.  Raises ConvergenceError naming
    the first pair that fails to converge or fails the gate."""
    a, b = np.minimum(m1, m2), np.maximum(m1, m2)
    flat = 1.0 - a / b < SYMMETRY_TOL
    t = np.zeros(a.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t[~flat] = _middle_angles(a[~flat], b[~flat])
        theta, seg, s, c, g, d = _angle_terms(t)
        h, r, middle = _radii(b, t, s, g, np)
        mass, i = np.array((a, b)), np.flatnonzero(flat)
        if i.size:
            mass[:, i], h[i], r_flat, middle[i] = _flat(a[i], b[i], np)
            r[0][i], r[1][i], r[2][i] = r_flat
            g[0, i], d[0, i] = _FLAT_TERMS
        h0, area, k = _lobes(r, s, seg)
        h0[i], area[0][i] = h[i], 0.0
        res = _residuals(mass, h, h0, r, s, c, area, k)
    ok = _within_gate(np.array(res)).all(axis=0)
    if np.count_nonzero(ok) < ok.size:
        i = int(np.argmin(ok))
        raise ConvergenceError(
            f"array geometry solve failed for masses ({m1[i]:g}, {m2[i]:g})")
    return _perimeter_sum(theta, r, middle), a, b, h, theta, r, s, c, g, d


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
    with np.errstate(over="ignore"):  # inf past 1e308/pi, as in `perimeter`
        disk = (np.minimum(m1, m2) == 0.0) & (m1 + m2 > 0.0)
        out[disk] = 2.0 * np.sqrt(math.pi * (m1[disk] + m2[disk]))
    pair = np.flatnonzero((m1 > 0.0) & (m2 > 0.0))
    out[pair] = _solve_pairs(m1[pair], m2[pair])[0]
    return out.reshape(shape)


def _perimeter_derivatives(m1, m2):
    """p, its gradient and its Hessian on 1-D arrays of positive mass pairs.

    `perimeter_gradient` and `perimeter_hessian` elementwise, from the arc
    rows of one `_solve_pairs` call.  Returns the rows (p, p1, p2, h11, h12,
    h22) of one (6, n) array, all in the caller's order.

    It has no small-lobe refusal, unlike `perimeter_hessian`: it is only
    the Jacobian of `ebar`'s Newton iteration, where an inexact small-lobe
    entry slows convergence but does not move the KKT point, and
    `partition._scale` widens that species' tolerance to the accuracy of
    its slope (tested down to a share of 1e-27).
    """
    p, a, b, h, theta, r, s, c, g, d = _solve_pairs(m1, m2)
    h11, h12, h22 = _hessian(a, b, h, r, s, c, g, d)
    lobes = np.array(((1.0 / r[1], h11), (1.0 / r[2], h22)))
    (p1, h_11), (p2, h_22) = np.where(m1 > m2, lobes[::-1], lobes)
    return np.array((p, p1, p2, h_11, h12, h_22))


def perimeter_gradient(m) -> tuple[float, float]:
    """(d p/d m1, d p/d m2) at a positive mass pair: the arc curvatures.

    The derivative in each mass is the reciprocal of that lobe's radius.
    Zero masses are rejected (the disk endpoint has infinite slope).  See
    the module docstring for the accuracy of the small-lobe slope.
    """
    m1, m2 = mass_pair("m", m, True)
    r = _solve_pair(m1, m2)[5]
    g_small, g_big = 1.0 / r[1], 1.0 / r[2]
    return (g_big, g_small) if m1 > m2 else (g_small, g_big)


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
    _, a, b, h, _, r, s, c, g, d = _solve_pair(m1, m2)
    h11, h12, h22 = _hessian(a, b, h, r, s, c, g, d)
    return (h22, h12, h11) if m1 > m2 else (h11, h12, h22)


def _e0_hessian_diag(m1: float, m2: float, gamma_ii: float, i: int) -> float:
    """gamma_ii/(2 pi) + H_ii at a checked pair, refusing a small lobe i."""
    _refuse_small_lobe(*((m1, m2) if i == 1 else (m2, m1)))
    return gamma_ii / (2.0 * math.pi) + _perimeter_hessian(m1, m2)[2 * i - 2]


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
    return _e0_hessian_diag(m1, m2, gamma.g11 if i == 1 else gamma.g22, i)


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
    pi * gamma_ii^(-2/3), narrows the sign change between them to a bracket
    a few ulps wide, and verifies that the sign flips across +/- 1e-4 of the
    result.  The root is only as good as the second derivative's small
    lobe, about 3e-16/sqrt(q) at lobe ratio q = m_i/probe_other_mass: at
    gamma_ii = 0.1, 1 and 10 it moves from the root at q = 1e-12 by at most
    5e-9 down to q = 1e-15, 6e-7 at 1e-19 and 5e-5 at 1e-23.  The perimeter
    is homogeneous of degree 1/2, so in x = m_i^(3/2) the product
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
        pair = (mi, probe_other_mass) if i == 1 else (probe_other_mass, mi)
        return _e0_hessian_diag(*pair, gamma_ii, i)

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
