"""Droplet placement energies on the unit torus.

A layout is a set of droplet centers with per-cluster mass pairs.  The
first-level energy FK couples distinct clusters through the periodic Green
function; the second level adds each cluster's own log-kernel energy over
its optimal shape (a double bubble or a disk) and the Green function's
regular part at zero.  The shape integrals are deterministic Gauss-Legendre
quadratures over the circular arcs that bound each lobe.

FK, its gradient and its Hessian come from one Ewald call over the
K(K-1)/2 pair differences (`_pair_terms`).  `minimize_FK` descends from
several layouts with the first center pinned, each by a trust region on
the 2(K-1) free coordinates that solves its subproblem exactly on the
analytic Hessian (Nocedal & Wright, Numerical Optimization, ch. 4).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from triblock._args import integer, nonempty_pair, real
from triblock.geometry import GammaMatrix, solve_geometry
from triblock.torus_green import R0, _ewald, wrap


@dataclass(frozen=True)
class Layout:
    """Droplet centers on the torus with their cluster mass pairs."""

    points: tuple
    masses: tuple

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("a layout needs at least one point")
        if len(self.points) != len(self.masses):
            raise ValueError("points and masses must pair up")
        for p in self.points:
            if np.ndim(p) != 1 or len(p) != 2:
                raise ValueError(f"points must be pairs of numbers, got {p!r}")
        object.__setattr__(self, "points", tuple(
            (real("points", x), real("points", y)) for x, y in self.points))
        object.__setattr__(self, "masses", _cluster_masses(self.masses))
        pts = np.asarray(self.points, dtype=float)
        same = np.all(wrap(pts[:, None] - pts[None]) == 0.0, axis=-1)
        k, ell = np.nonzero(np.triu(same, 1))
        if len(k):
            raise ValueError(f"points {k[0]} and {ell[0]} coincide on the torus")

    @property
    def K(self) -> int:
        return len(self.points)

    def as_dict(self) -> dict:
        return {"points": [list(p) for p in self.points],
                "masses": [list(m) for m in self.masses]}


def _cluster_masses(masses) -> tuple:
    """Each pair through `nonempty_pair`."""
    return tuple(nonempty_pair("masses", m) for m in masses)


def _layout_arrays(layout: Layout):
    P = np.asarray(layout.points, dtype=float)
    M = np.asarray(layout.masses, dtype=float)
    return P, M


def _weight_matrix(M: np.ndarray, gamma: GammaMatrix) -> np.ndarray:
    """Pair weights M Gamma M^T.  Raises ValueError when an entry is not
    finite (masses past about 1e154)."""
    G = np.array([[gamma.g11, gamma.g12], [gamma.g12, gamma.g22]])
    with np.errstate(over="ignore", invalid="ignore"):
        W = M @ G @ M.T
    if not np.isfinite(W).all():
        raise ValueError("cluster weights m_k Gamma m_l are not finite; "
                         "masses too large")
    return W


@functools.cache
def _pairs(K: int):
    """Pairs k < l as triu indices."""
    return np.triu_indices(K, 1)


def _pair_terms(P: np.ndarray, W: np.ndarray, order: int = 0):
    """FK of centers P (K, 2) under weights W, with derivatives.

    One Ewald call over the K(K-1)/2 pair differences y^k - y^l, k < l.
    Returns the energy, plus the gradient (K, 2) for order >= 1, plus the
    Hessian (2K, 2K) for order 2, with rows and columns ordered as
    P.ravel().  Both are scattered over the pairs: pair (k, l) adds
    w grad G to center k and takes it from l, and puts -w hess G on the
    blocks (k, l) and (l, k); each diagonal block is minus the sum of the
    others in its row.  Raises ValueError when two centers coincide.
    """
    K = len(P)
    iu = _pairs(K)
    w = W[iu]
    terms = _ewald(wrap(P[iu[0]] - P[iu[1]]), order)
    if order == 0:
        return float(np.sum(w * terms))
    G, grad, *hess = terms
    D = np.zeros((K, K, 2))
    D[iu] = w[:, None] * grad
    out = (float(np.sum(w * G)), D.sum(axis=1) - D.sum(axis=0))
    if order == 1:
        return out
    H = np.zeros((K, 2, K, 2))
    H[iu[0], :, iu[1]] = H[iu[1], :, iu[0]] = -w[:, None, None] * hess[0]
    diag = np.arange(K)
    H[diag, :, diag] = -H.sum(axis=2)
    return out + (H.reshape(2 * K, 2 * K),)


def FK(layout: Layout, gamma: GammaMatrix) -> float:
    """Pairwise Green-function interaction energy of the layout.

    Sums (gamma_ij/2) m_i^k m_j^l G(y^k - y^l) over ordered pairs of
    distinct clusters and species.  A single cluster has no pairs and
    costs zero; coincident points raise through the Green function.
    Raises ValueError when the weights overflow (masses past about 1e154).
    """
    P, M = _layout_arrays(layout)
    return _pair_terms(P, _weight_matrix(M, gamma))


def fk_gradient(layout: Layout, gamma: GammaMatrix) -> np.ndarray:
    """Derivative of FK with respect to every center, shape (K, 2).
    Raises ValueError where `FK` does."""
    P, M = _layout_arrays(layout)
    return _pair_terms(P, _weight_matrix(M, gamma), 1)[1]


def _tr_step(lam: np.ndarray, V: np.ndarray, g: np.ndarray, radius: float):
    """Exact minimizer p of g.p + p.H p / 2 over |p| <= radius, where
    H = V diag(lam) V^T, lam ascending (Moré & Sorensen, SIAM J. Sci. Stat.
    Comput. 4, 1983; Nocedal & Wright §4.3).

    Returns (p, mu) with (H + mu I) p = -g, mu >= 0, H + mu I positive
    semidefinite and mu (radius - |p|) = 0.  mu solves 1/|p(mu)| =
    1/radius by Newton steps inside a bisection bracket, except where the
    Newton step fits (mu = 0) and in the hard case, where -g lacks the
    lowest eigenvector: there mu = -lam_0, and that vector completes p.
    """
    a = V.T @ -g
    shift = max(0.0, -lam[0])
    # mu - shift: 0 for a positive definite H, else the rounding of lam_0
    s = 0.0 if lam[0] > 0.0 else np.finfo(float).eps * float(np.abs(lam).max())
    d = lam + shift
    p = a / (d + s)
    if np.linalg.norm(p) <= radius:
        if lam[0] <= 0.0:  # the hard case
            p[0] = math.copysign(math.sqrt(max(
                0.0, radius * radius - float(p[1:] @ p[1:]))), a[0])
        return V @ p, shift + s
    lo, hi = s, float(np.linalg.norm(a)) / radius  # |p(hi)| <= radius
    for _ in range(60):
        norm = float(np.linalg.norm(p))
        if abs(norm - radius) <= 1e-14 * radius:
            break
        lo, hi = (s, hi) if norm > radius else (lo, s)
        s += (norm / radius - 1.0) * norm * norm / float(p @ (p / (d + s)))
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        p = a / (d + s)
    return V @ p, shift + s


# Trust-region radius of `_descend` at the start of a restart, and its
# largest value, in the Euclidean norm of the free coordinates.
_RADIUS_START = 0.1
_RADIUS_MAX = 0.5


def _descend(z0: np.ndarray, W: np.ndarray, gtol: float):
    """Trust-region descent (Nocedal & Wright, alg. 4.1) on z, the
    flattened centers 1..K-1, with center 0 pinned at the origin.

    Each trial costs one `_pair_terms` call at order 2, and an accepted
    trial hands on its energy, gradient and Hessian, so no point is
    evaluated twice; each iterate costs one `eigh` for `_tr_step`, whose
    steps follow negative curvature, so a saddle is no stopping point.  A
    trial is accepted when rho, its actual over its predicted decrease, is
    positive.  The radius shrinks to a quarter of the step when rho < 1/4
    or the trial is singular, and doubles up to _RADIUS_MAX when rho > 3/4
    on the boundary.  Below the rounding floor 1e-13 (1 + |E|) of the
    predicted decrease rho is noise: a trial counts as rho = 1/2 if it
    lowers the gradient norm, else as 0.  The loop stops at gtol or at a
    radius below 1e-15.  Returns (z, energy, grad_norm, evals), evals
    counting the calls; grad_norm exceeds gtol on failure.
    """
    P = np.zeros((len(z0) // 2 + 1, 2))  # row 0 stays the pinned origin

    def terms(z):
        P[1:] = z.reshape(-1, 2)
        energy, grad, H = _pair_terms(P, W, 2)
        return energy, grad[1:].ravel(), H[2:, 2:]

    z = wrap(z0.reshape(-1, 2)).ravel()
    energy, grad, H = terms(z)
    gnorm = float(np.linalg.norm(grad))
    lam, V = np.linalg.eigh(H)
    radius, evals = _RADIUS_START, 1
    while gnorm > gtol and radius >= 1e-15:
        evals += 1
        p, _ = _tr_step(lam, V, grad, radius)
        step = float(np.linalg.norm(p))
        predicted = -float(grad @ p + 0.5 * (p @ H @ p))
        trial = wrap((z + p).reshape(-1, 2)).ravel()
        try:
            e_t, g_t, H_t = terms(trial)
        except ValueError:
            radius = 0.25 * step
            continue
        if predicted > 1e-13 * (1.0 + abs(energy)):
            rho = (energy - e_t) / predicted
        else:
            rho = 0.5 if np.linalg.norm(g_t) < gnorm else 0.0
        if rho < 0.25:
            radius = 0.25 * step
        elif rho > 0.75 and step >= 0.99 * radius:
            radius = min(2.0 * radius, _RADIUS_MAX)
        if rho > 0.0:
            z, energy, grad, H = trial, e_t, g_t, H_t
            gnorm = float(np.linalg.norm(grad))
            lam, V = np.linalg.eigh(H)
    return z, energy, gnorm, evals


# Step of the R2 low-discrepancy sequence (Roberts' generalized golden
# ratio): (1/g, 1/g^2) with g^3 = g + 1.  Its points k * step mod 1 spread
# over the torus and, unlike points on a line of slope 0, 1 or infinity,
# lie on no mirror line of it, so a gradient descent from them does not
# stay on one.
_R2_STEP = np.array([0.7548776662466927, 0.5698402909980532])


def minimize_FK(masses, gamma: GammaMatrix, restarts: int = 8, seed: int = 0,
                gtol: float = 1e-10, full_output: bool = False):
    """Best layout over multi-start descent with the first center pinned.

    Pinning the first point at the origin removes the two flat translation
    directions, so convergence is judged on the remaining gradient alone.
    Restart 0 starts the other K - 1 centers at the R2 points k * _R2_STEP
    mod 1, restart r > 0 draws them uniformly by `default_rng(seed + 13 r)`;
    a center within 1e-3 of another is redrawn.  Each restart runs
    `_descend` on the weights divided by the power of two that puts the
    largest pair weight in [1, 2), an exact rescaling of FK, which is
    homogeneous of degree 2 in the masses.  So gtol, like the rounding
    floor below, is measured at unit weight scale: the result's and each
    restart's grad_norm is that of FK over the same factor, while their
    energies are FK's own.  What the descent promises:

    - it returns the lowest-energy restart among those that end at a
      gradient norm of at most gtol;
    - each restart descends from its start: a step accepted on its ratio
      of actual to predicted decrease lowers the energy.  Only where the
      predicted decrease is below the rounding floor 1e-13 (1 + |E|) is a
      step accepted on a falling gradient norm, and such a step may raise
      the energy by about that floor: on 180 seeded instances (K = 2..8)
      87 of 7630 accepted steps did, by at most 1.8e-15;
    - it does not promise a global minimum: at K = 8 different restarts
      end in different local minima, and more restarts can find a lower
      one.

    With full_output, each row of "restarts" holds the restart's energy,
    gradient norm and its count of `_pair_terms` calls, each with the
    Hessian ("hessian_evals").
    `restarts` is a positive integer, `seed` a non-negative one and `gtol`
    a positive number (`triblock._args`).  Raises RuntimeError with
    diagnostics when no restart reaches gtol, and ValueError when the
    weights overflow (masses past about 1e154).
    """
    restarts = integer("restarts", restarts, 1)
    seed = integer("seed", seed)
    gtol = real("gtol", gtol, 0.0)
    masses = _cluster_masses(masses)
    K = len(masses)
    if K < 1:
        raise ValueError("need at least one cluster")
    if K == 1:
        layout = Layout(((0.0, 0.0),), masses)
        return (layout, {"energy": 0.0, "grad_norm": 0.0,
                         "restarts": []}) if full_output else layout
    W = _weight_matrix(np.asarray(masses), gamma)
    top = float(W[_pairs(K)].max())  # the weights are nonnegative
    scale = math.ldexp(0.5, math.frexp(top)[1]) if top > 0.0 else 1.0
    W /= scale
    best = None
    rows = []
    for r in range(restarts):
        rng = np.random.default_rng(seed + 13 * r)
        if r == 0:
            zfree = np.mod(np.arange(1, K)[:, None] * _R2_STEP, 1.0)
        else:
            zfree = rng.uniform(0.0, 1.0, size=(K - 1, 2))
        for _ in range(100):
            pts = np.vstack([np.zeros(2), zfree])
            d = wrap(pts[:, None, :] - pts[None, :, :])
            sep = np.sqrt((d ** 2).sum(-1))
            sep[np.arange(K), np.arange(K)] = 1.0
            bad = np.unique(np.where(sep < 1e-3)[0])
            bad = bad[bad > 0]
            if len(bad) == 0:
                break
            zfree[bad - 1] = rng.uniform(0.0, 1.0, size=(len(bad), 2))
        z, energy, gnorm, evals = _descend(zfree.ravel(), W, gtol)
        energy *= scale
        rows.append({"restart": r, "energy": energy, "grad_norm": gnorm,
                     "hessian_evals": evals})
        if gnorm <= gtol and (best is None or energy < best[1]):
            best = (z, energy, gnorm)
    if best is None:
        worst = min(rows, key=lambda row: row["grad_norm"])
        raise RuntimeError(
            "descent failed: best gradient norm "
            f"{worst['grad_norm']:.3e} over {restarts} restarts (gtol {gtol:g})")
    P = np.vstack([np.zeros(2), wrap(best[0].reshape(K - 1, 2))])
    layout = Layout(tuple(map(tuple, P)), masses)
    if full_output:
        return layout, {"energy": best[1], "grad_norm": best[2],
                        "restarts": rows}
    return layout


# ---------------------------------------------------------------------------
# Cluster self-interaction integrals.  With Phi(r) = r^2 (log r - 1)/4, so
# that Laplace Phi = log r, two uses of the divergence theorem give
#     int_A int_B log|x-y| = -oint_dA oint_dB (n_x . n_y) Phi(|x-y|) ds ds.
# A lobe is bounded by its outer arc and the middle arc (a segment when
# r0 = inf), which the two lobes share with opposite normals.  Every arc gets
# _PANEL_NODES Gauss-Legendre nodes per panel on panels that halve toward its
# ends, _GRADING_LEVELS times.  Terms hold to ~1e-13 m_i m_j at mass ratios
# q >= 1e-8; below that, f_12 carries a rounding error of ~1e-16/sqrt(q)
# relative, as the small lobe's arc integrals against the large one cancel.
_PANEL_NODES = 12
_GRADING_LEVELS = 10
# The geometry gives the small lobe's radius to a relative 1e-16/sqrt(q)
# only (see `triblock.geometry`): 3e-6 at this ratio, where the small
# species' f_ii/m_i^2 still follows its -log(q)/4pi trend to about 4e-6.
# The error reaches 5e-4 at q = 1e-24 and 11% at 1e-28 (4.67 against a
# trend of 5.26), and the terms mean nothing once the radius freezes near
# q = 1e-31, so smaller ratios raise instead of returning a wrong term.
_MIN_RATIO = 1e-21


@functools.cache
def _graded_rule(nodes: int, levels: int):
    """Gauss-Legendre rule on [0, 1], its panels halving toward both ends."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = np.concatenate([[0.0], 0.5 * 2.0 ** -np.arange(levels, -1.0, -1.0)])
    edges = np.concatenate([half, 1.0 - half[-2::-1]])
    lo, hi = edges[:-1, None], edges[1:, None]
    return ((lo + hi + (hi - lo) * x) / 2).ravel(), ((hi - lo) * w / 2).ravel()


def _self_pair(length: float, theta: float) -> float:
    """(1/2pi) times the boundary integral of an arc of half-angle theta
    against itself.  The integrand depends on the arc-length difference u
    alone, so it is 2 int_0^L (L - u) f(u) du, with chord 2r sin(u/2r) and
    n.n = cos(u/r)."""
    t, w = _graded_rule(_PANEL_NODES, _GRADING_LEVELS)
    c2 = (length * (np.sin(theta * t) / theta if theta else t)) ** 2
    f = np.cos(2.0 * theta * t) * c2 * (np.log(c2) - 2.0)
    return length ** 2 / (8.0 * math.pi) * float(np.sum(w * (1.0 - t) * f))


def _arc(h: float, theta: float, r: float, side: float):
    """Nodes, radial unit normals and weights of the arc through the
    junctions (0, +-h) with half-angle theta and radius r (a segment when
    r = inf), bulging toward side * x > 0; plus its `_self_pair`."""
    t, w = _graded_rule(_PANEL_NODES, _GRADING_LEVELS)
    p = theta * (2.0 * t - 1.0)
    if math.isinf(r):
        length = 2.0 * h
        X = np.column_stack([np.zeros_like(t), h * (2.0 * t - 1.0)])
    else:
        length = 2.0 * theta * r
        # x = side * r (cos p - cos theta), written without cancellation
        X = np.column_stack([side * 2.0 * r * np.sin((theta + p) / 2)
                             * np.sin((theta - p) / 2), r * np.sin(p)])
    N = np.column_stack([side * np.cos(p), np.sin(p)])
    return X, N, length * w, _self_pair(length, theta)


def _cross_pair(a, b, work) -> float:
    """(1/2pi) times the boundary integral of two arcs meeting at their ends.

    `work` is a (2, n, n) scratch array for the node pairs, overwritten.
    The cross pairs of a double bubble share one, so a term allocates no
    n x n temporaries and its cost does not depend on the allocator state
    that earlier work left behind.
    """
    (Xa, Na, Wa, _), (Xb, Nb, Wb, _) = a, b
    d2, kern = work
    np.subtract.outer(Xa[:, 0], Xb[:, 0], out=d2)
    d2 *= d2
    np.subtract.outer(Xa[:, 1], Xb[:, 1], out=kern)
    kern *= kern
    d2 += kern
    np.matmul(Na, Nb.T, out=kern)
    kern *= d2
    np.log(d2, out=d2)
    d2 -= 2.0
    kern *= d2
    return float(Wa @ kern @ Wb) / (16.0 * math.pi)


def _self_terms(m1: float, m2: float) -> tuple:
    """(f_11, f_22, f_12) in caller order; an absent species gives 0.

    The quadrature runs at unit total mass: scaling the masses by s scales
    lengths by sqrt(s), so f_ij(s u) = s^2 (f_ij(u) - log(s) u_i u_j / 4pi).
    Raises ValueError when a term is not finite (totals past about 1e154)
    and, from `_unit_self_terms`, below the mass ratio _MIN_RATIO.
    """
    s = m1 + m2
    u = (m1 / s, m2 / s)
    shift = math.log(s) / (4.0 * math.pi)
    terms = tuple(s * s * (f - shift * (u[i] * u[j])) for f, (i, j) in
                  zip(_unit_self_terms(*u), ((0, 0), (1, 1), (0, 1))))
    if not all(math.isfinite(f) for f in terms):
        raise ValueError(f"self-interaction of masses {(m1, m2)!r} is not finite")
    return terms


def _unit_self_terms(m1: float, m2: float) -> tuple:
    """`_self_terms` by direct quadrature at the given masses.

    Raises ValueError for a double bubble whose mass ratio is below
    _MIN_RATIO, where the small lobe's geometry is too coarse.
    """
    if m1 == 0.0 or m2 == 0.0:
        disk = _self_pair(2.0 * math.sqrt(math.pi * (m1 + m2)), math.pi)
        return (disk, 0.0, 0.0) if m2 == 0.0 else (0.0, disk, 0.0)
    if min(m1, m2) < _MIN_RATIO * max(m1, m2):
        raise ValueError(f"self-interaction of masses {(m1, m2)!r}: mass ratio "
                         f"below {_MIN_RATIO:g}, where the small lobe's radius "
                         "is not resolved")
    g = solve_geometry((m1, m2))
    small = _arc(g.h, g.theta1, g.r1, -1.0)
    big = _arc(g.h, g.theta2, g.r2, 1.0)
    mid = _arc(g.h, g.theta0, g.r0, 1.0)  # normals out of the small lobe
    work = np.empty((2, len(mid[0]), len(mid[0])))
    sm, bm = _cross_pair(small, mid, work), _cross_pair(big, mid, work)
    f_small = small[3] + 2.0 * sm + mid[3]
    f_big = big[3] - 2.0 * bm + mid[3]
    f_mixed = _cross_pair(small, big, work) - sm + bm - mid[3]
    return (f_big, f_small, f_mixed) if g.swapped else (f_small, f_big, f_mixed)


def self_interaction(m, i: int, j: int, *, n_points=None, replicates=None,
                     seed=None) -> float:
    """Log-kernel energy (1/2pi) int_{lobe_i x lobe_j} log 1/|x-y|.

    The lobes are the optimal shape for the mass pair: a double bubble when
    both species are present, a disk otherwise; an absent species
    contributes zero.  The value comes from a deterministic boundary
    quadrature.  `n_points`, `replicates` and `seed` are accepted for
    callers of the former sampled estimate and have no effect.  Raises
    ValueError for bad indices or masses, when the term is not finite
    (totals past about 1e154), and for a double bubble whose mass ratio is
    below 1e-21 (`_MIN_RATIO`), where the small lobe is not resolved.
    """
    m1, m2 = nonempty_pair("m", m)
    if integer("i", i, 1) > 2 or integer("j", j, 1) > 2:
        raise ValueError(f"species indices must be 1 or 2, got {(i, j)!r}")
    return _self_terms(m1, m2)[2 if i != j else i - 1]


def F0(layout: Layout, gamma: GammaMatrix, *, n_points=None, replicates=None,
       seed=None) -> float:
    """Second-level energy: FK plus every cluster's self terms.

    Adds sum_ij (gamma_ij/2)(f_k(i,j) + m_i^k m_j^k R0) over clusters k;
    the self terms do not depend on the centers, so F0 - FK is constant in
    the points for fixed masses.  `n_points`, `replicates` and `seed` are
    accepted for callers of the former sampled estimate and have no effect.
    Raises ValueError when a cluster's self terms are not finite (totals
    past about 1e154) or its mass ratio is below 1e-21 (`_MIN_RATIO`).
    """
    total = 0.0
    for m in layout.masses:
        m1, m2 = (float(m[0]), float(m[1]))
        f11, f22, f12 = _self_terms(m1, m2)
        total += (0.5 * gamma.g11 * (f11 + m1 * m1 * R0)
                  + 0.5 * gamma.g22 * (f22 + m2 * m2 * R0)
                  + gamma.g12 * (f12 + m1 * m2 * R0))
    return FK(layout, gamma) + total


def disk_self_interaction(mass: float) -> float:
    """Closed-form log-kernel energy of a disk of the given area; 0 for
    the empty disk, the limit of the closed form."""
    mass = real("mass", mass, 0.0, closed=True)
    if mass == 0.0:
        return 0.0
    a = math.sqrt(mass / math.pi)
    return 0.5 * math.pi * a ** 4 * (0.25 - math.log(a))
