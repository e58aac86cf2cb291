"""Droplet placement energies on the unit torus.

A layout is a set of droplet centers with per-cluster mass pairs.  The
first-level energy FK couples distinct clusters through the periodic Green
function; the second level adds each cluster's own log-kernel energy over
its optimal shape (a double bubble or a disk) and the Green function's
regular part at zero.  The shape integrals are deterministic Gauss-Legendre
quadratures over the circular arcs that bound each lobe.

FK, its gradient and the Hessian of the Newton phase in `minimize_FK` come
from one Ewald call over the K(K-1)/2 pair differences (`_pair_terms`).
`minimize_FK` descends from several layouts with the first center
pinned: a dense BFGS (Nocedal & Wright, Numerical Optimization, ch. 6) on
the 2(K-1) free coordinates toward a basin, then Newton steps on the
analytic Hessian where it is positive definite.
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
    """Pairs k < l as triu indices, and their incidence rows (+1 at k, -1 at l)."""
    iu = np.triu_indices(K, 1)
    return iu, np.eye(K)[iu[0]] - np.eye(K)[iu[1]]


def _pair_terms(P: np.ndarray, W: np.ndarray, order: int = 0):
    """FK of centers P (K, 2) under weights W, with derivatives.

    One Ewald call over the K(K-1)/2 pair differences y^k - y^l, k < l.
    Returns the energy, plus the gradient (K, 2) for order >= 1, plus the
    Hessian (2K, 2K) for order 2, with rows and columns ordered as
    P.ravel().  Raises ValueError when two centers coincide.
    """
    K = len(P)
    iu, B = _pairs(K)
    w = W[iu]
    terms = _ewald(wrap(P[iu[0]] - P[iu[1]]), order)
    if order == 0:
        return float(np.sum(w * terms))
    G, grad, *hess = terms
    out = (float(np.sum(w * G)), B.T @ (w[:, None] * grad))
    if order == 1:
        return out
    H = np.einsum("pk,pl,p,pab->kalb", B, B, w, hess[0])
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


# Evaluation counters of a descent: the calls of `_pair_terms` at orders 1
# and 2.
_EVAL_KEYS = ("gradient_evals", "hessian_evals")


def _bfgs_update(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inverse-Hessian BFGS update (Nocedal & Wright eq. 6.17) for the step
    s and gradient change y.  H is returned unchanged when s.y <= 0, so it
    stays symmetric positive definite."""
    sy = float(s @ y)
    if not sy > 0.0:
        return H
    Hy = H @ y
    v = ((sy + float(y @ Hy)) / (2.0 * sy * sy)) * s - Hy / sy
    sv = s[:, None] * v
    return H + (sv + sv.T)


def _descend(z0: np.ndarray, W: np.ndarray, gtol: float, max_rounds: int = 3):
    """BFGS toward the basin plus Newton polish on the free centers.

    z holds the flattened centers 1..K-1; center 0 is pinned at the
    origin.  Each round runs two phases.  The BFGS phase steps along
    -H grad, backtracks from the unit step, capped at 0.25 in max-norm,
    until the energy falls by the Armijo margin, and hands off at a
    gradient norm of 1e-3; its first step takes H = 1e-2 I, and its pair
    (s, y) scales the identity by s.y/y.y before the first update.  The
    Newton phase steps on the analytic Hessian while that is positive
    definite, accepting a step that lowers the gradient norm.  When the
    polish stalls above gtol, the next round's BFGS phase runs on down to
    gtol.  Every trial point costs one
    `_pair_terms` call at order 1, and an accepted trial's energy and
    gradient become the next step's, so no point is evaluated twice.
    Returns (z, energy, grad_norm, evals); grad_norm may exceed gtol on
    failure, and evals counts the calls by order under the keys of
    _EVAL_KEYS.
    """
    evals = dict.fromkeys(_EVAL_KEYS, 0)
    P = np.zeros((len(z0) // 2 + 1, 2))  # row 0 stays the pinned origin

    def terms(z, order):
        evals[_EVAL_KEYS[order - 1]] += 1
        P[1:] = z.reshape(-1, 2)
        energy, grad, *hess = _pair_terms(P, W, order)
        return (energy, grad[1:].ravel(), *(h[2:, 2:] for h in hess))

    z = wrap(z0.reshape(-1, 2)).ravel()
    energy, grad = terms(z, 1)
    gnorm = float(np.linalg.norm(grad))
    H = None  # 1e-2 I for the first step, whose pair then scales I
    handoff = 1e-3
    for _ in range(max_rounds):
        # BFGS phase: quasi-Newton progress toward the basin.
        for _ in range(400):
            if gnorm <= handoff:
                break
            p = -(1e-2 * grad if H is None else H @ grad)
            p *= min(1.0, 0.25 / float(np.abs(p).max()))
            slope = 1e-4 * float(grad @ p)
            alpha = 1.0
            for _ in range(40):
                trial = wrap((z + alpha * p).reshape(-1, 2)).ravel()
                try:
                    e_t, g_t = terms(trial, 1)
                except ValueError:
                    e_t = math.inf
                # strict, so that a step lost in the energy's rounding fails
                if e_t < energy + alpha * slope:
                    break
                alpha *= 0.5
            else:
                break
            s, y = alpha * p, g_t - grad
            if H is None:  # Nocedal & Wright eq. 6.20
                sy = float(s @ y)
                H = (sy / float(y @ y) if sy > 0.0 else 1e-2) * np.eye(len(z))
            H = _bfgs_update(H, s, y)
            z, energy, grad = trial, e_t, g_t
            gnorm = float(np.linalg.norm(grad))
        # Newton phase on the analytic Hessian, where it is positive definite.
        for _ in range(40):
            if gnorm <= gtol:
                return z, energy, gnorm, evals
            lam, V = np.linalg.eigh(terms(z, 2)[2])
            if not lam[0] > 0.0:
                break
            delta = V @ ((V.T @ -grad) / lam)
            damp = 1.0
            for _ in range(12):
                trial = wrap((z + damp * delta).reshape(-1, 2)).ravel()
                try:
                    e_t, g_t = terms(trial, 1)
                except ValueError:
                    damp *= 0.5
                    continue
                if np.linalg.norm(g_t) < gnorm:
                    break
                damp *= 0.5
            else:
                break
            z, energy, grad = trial, e_t, g_t
            gnorm = float(np.linalg.norm(grad))
        # The polish stalled: the next BFGS phase goes all the way.
        handoff = gtol
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
    `_descend`.  What the descent promises:

    - it returns the lowest-energy restart among those that end at a
      gradient norm of at most gtol;
    - each restart descends from its start: every BFGS step lowers the
      energy by the Armijo margin.  The Newton polish runs only where the
      Hessian is positive definite and accepts a step that lowers the
      gradient norm, so it may raise the energy slightly: on 180 seeded
      instances (K = 2..8) 57 of its 1617 steps did, by at most 1.1e-6;
    - it does not promise a global minimum: at K = 8 different restarts
      end in different local minima, and more restarts can find a lower
      one.

    With full_output, each row of "restarts" holds the restart's energy,
    gradient norm and its gradient and Hessian evaluation counts.
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
        rows.append({"restart": r, "energy": energy, "grad_norm": gnorm,
                     **evals})
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
