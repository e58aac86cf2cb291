"""Droplet placement energies on the unit torus.

A layout is a set of droplet centers with per-cluster mass pairs.  The
first-level energy FK couples distinct clusters through the periodic Green
function; the second level adds each cluster's own log-kernel energy over
its optimal shape (a double bubble or a disk) and the Green function's
regular part at zero.  The shape integrals are deterministic Gauss-Legendre
quadratures over the circular arcs that bound each lobe.

FK, its gradient and the Hessian of the Newton phase in `minimize_FK` come
from one Ewald call over the K(K-1)/2 pair differences (`_pair_terms`).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

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
            if len(p) != 2 or not all(math.isfinite(float(c)) for c in p):
                raise ValueError(f"bad torus point {p!r}")
        for m in self.masses:
            m1, m2 = (float(m[0]), float(m[1]))
            if not (math.isfinite(m1) and math.isfinite(m2)):
                raise ValueError(f"bad mass pair {m!r}")
            if m1 < 0.0 or m2 < 0.0 or m1 + m2 <= 0.0:
                raise ValueError(f"mass pair must be nonnegative and nontrivial, got {m!r}")
        pts = np.asarray(self.points, dtype=float)
        same = np.all(wrap(pts[:, None] - pts[None]) == 0.0, axis=-1)
        k, ell = np.nonzero(np.triu(same, 1))
        if len(k):
            raise ValueError(f"points {k[0]} and {ell[0]} coincide on the torus")

    @property
    def K(self) -> int:
        return len(self.points)

    def as_dict(self) -> dict:
        return {"points": [list(map(float, p)) for p in self.points],
                "masses": [list(map(float, m)) for m in self.masses]}


def _layout_arrays(layout: Layout):
    P = np.asarray(layout.points, dtype=float)
    M = np.asarray(layout.masses, dtype=float)
    return P, M


def _weight_matrix(M: np.ndarray, gamma: GammaMatrix) -> np.ndarray:
    G = np.array([[gamma.g11, gamma.g12], [gamma.g12, gamma.g22]])
    return M @ G @ M.T


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
    """
    P, M = _layout_arrays(layout)
    return _pair_terms(P, _weight_matrix(M, gamma))


def fk_gradient(layout: Layout, gamma: GammaMatrix) -> np.ndarray:
    """Derivative of FK with respect to every center, shape (K, 2)."""
    P, M = _layout_arrays(layout)
    return _pair_terms(P, _weight_matrix(M, gamma), 1)[1]


def _descend(z0: np.ndarray, W: np.ndarray, gtol: float, max_rounds: int = 3):
    """Armijo gradient descent plus Newton polish on the free centers.

    z holds the flattened centers 1..K-1; center 0 is pinned at the
    origin.  Returns (z, energy, grad_norm); grad_norm may exceed gtol on
    failure.
    """
    def terms(z, order):
        out = _pair_terms(np.vstack([np.zeros(2), z.reshape(-1, 2)]), W, order)
        if order == 0:
            return out
        energy, grad, *hess = out
        return (energy, grad[1:].ravel(), *(h[2:, 2:] for h in hess))

    z = wrap(z0.reshape(-1, 2)).ravel()
    energy, grad = terms(z, 1)
    gnorm = float(np.linalg.norm(grad))
    step = 1e-2
    for _ in range(max_rounds):
        # Gradient phase: cheap progress toward the basin.
        for _ in range(400):
            if gnorm <= 1e-3:
                break
            alpha = step
            accepted = False
            for _ in range(40):
                trial = wrap((z - alpha * grad).reshape(-1, 2)).ravel()
                try:
                    e_trial = terms(trial, 0)
                except ValueError:
                    e_trial = math.inf
                if e_trial <= energy - 1e-4 * alpha * gnorm * gnorm:
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
            z = trial
            energy, grad = terms(z, 1)
            gnorm = float(np.linalg.norm(grad))
            step = min(alpha * 1.5, 0.25)
        # Newton phase on the analytic Hessian.
        for _ in range(40):
            if gnorm <= gtol:
                return z, energy, gnorm
            try:
                delta = np.linalg.solve(terms(z, 2)[2], -grad)
            except np.linalg.LinAlgError:
                break
            damp = 1.0
            improved = False
            for _ in range(12):
                trial = wrap((z + damp * delta).reshape(-1, 2)).ravel()
                try:
                    e_t, g_t = terms(trial, 1)
                except ValueError:
                    damp *= 0.5
                    continue
                if np.linalg.norm(g_t) < gnorm:
                    z, energy, grad = trial, e_t, g_t
                    gnorm = float(np.linalg.norm(grad))
                    improved = True
                    break
                damp *= 0.5
            if not improved:
                break
        if gnorm <= gtol:
            return z, energy, gnorm
    return z, energy, gnorm


def minimize_FK(masses, gamma: GammaMatrix, restarts: int = 8, seed: int = 0,
                gtol: float = 1e-10, full_output: bool = False):
    """Best layout over multi-start descent with the first center pinned.

    Pinning the first point at the origin removes the two flat translation
    directions, so convergence is judged on the remaining gradient alone.
    Raises RuntimeError with diagnostics when no restart reaches gtol.
    """
    M = np.asarray([(float(m[0]), float(m[1])) for m in masses], dtype=float)
    K = len(M)
    if K < 1:
        raise ValueError("need at least one cluster")
    if K == 1:
        layout = Layout(((0.0, 0.0),), tuple(map(tuple, M)))
        return (layout, {"energy": 0.0, "grad_norm": 0.0,
                         "restarts": []}) if full_output else layout
    W = _weight_matrix(M, gamma)
    best = None
    rows = []
    for r in range(restarts):
        rng = np.random.default_rng(seed + 13 * r)
        if r == 0:
            zfree = np.array([[k / K, k / K] for k in range(1, K)])
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
        z, energy, gnorm = _descend(zfree.ravel(), W, gtol)
        rows.append({"restart": r, "energy": energy, "grad_norm": gnorm})
        if gnorm <= gtol and (best is None or energy < best[1]):
            best = (z, energy, gnorm)
    if best is None:
        worst = min(rows, key=lambda row: row["grad_norm"])
        raise RuntimeError(
            "descent failed: best gradient norm "
            f"{worst['grad_norm']:.3e} over {restarts} restarts (gtol {gtol:g})")
    P = np.vstack([np.zeros(2), wrap(best[0].reshape(K - 1, 2))])
    layout = Layout(tuple(map(tuple, P)), tuple(map(tuple, M)))
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


def _cross_pair(a, b) -> float:
    """(1/2pi) times the boundary integral of two arcs meeting at their ends."""
    (Xa, Na, Wa, _), (Xb, Nb, Wb, _) = a, b
    d2 = sum(np.subtract.outer(Xa[:, k], Xb[:, k]) ** 2 for k in (0, 1))
    return float(Wa @ ((Na @ Nb.T) * d2 * (np.log(d2) - 2.0)) @ Wb) / (16.0 * math.pi)


def _self_terms(m1: float, m2: float) -> tuple:
    """(f_11, f_22, f_12) in caller order; an absent species gives 0.

    The quadrature runs at unit total mass: scaling the masses by s scales
    lengths by sqrt(s), so f_ij(s u) = s^2 (f_ij(u) - log(s) u_i u_j / 4pi).
    Raises ValueError when a term is not finite (totals past about 1e154).
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
    """`_self_terms` by direct quadrature at the given masses."""
    if m1 == 0.0 or m2 == 0.0:
        disk = _self_pair(2.0 * math.sqrt(math.pi * (m1 + m2)), math.pi)
        return (disk, 0.0, 0.0) if m2 == 0.0 else (0.0, disk, 0.0)
    g = solve_geometry((m1, m2))
    small = _arc(g.h, g.theta1, g.r1, -1.0)
    big = _arc(g.h, g.theta2, g.r2, 1.0)
    mid = _arc(g.h, g.theta0, g.r0, 1.0)  # normals out of the small lobe
    sm, bm = _cross_pair(small, mid), _cross_pair(big, mid)
    f_small = small[3] + 2.0 * sm + mid[3]
    f_big = big[3] - 2.0 * bm + mid[3]
    f_mixed = _cross_pair(small, big) - sm + bm - mid[3]
    return (f_big, f_small, f_mixed) if g.swapped else (f_small, f_big, f_mixed)


def self_interaction(m, i: int, j: int, *, n_points=None, replicates=None,
                     seed=None) -> float:
    """Log-kernel energy (1/2pi) int_{lobe_i x lobe_j} log 1/|x-y|.

    The lobes are the optimal shape for the mass pair: a double bubble when
    both species are present, a disk otherwise; an absent species
    contributes zero.  The value comes from a deterministic boundary
    quadrature.  `n_points`, `replicates` and `seed` are accepted for
    callers of the former sampled estimate and have no effect.  Raises
    ValueError for bad indices or masses, and when the term is not finite
    (totals past about 1e154).
    """
    m1, m2 = (float(m[0]), float(m[1]))
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"species indices must be 1 or 2, got {(i, j)!r}")
    if min(m1, m2) < 0.0 or m1 + m2 <= 0.0:
        raise ValueError(f"bad mass pair {m!r}")
    return _self_terms(m1, m2)[2 if i != j else i - 1]


def F0(layout: Layout, gamma: GammaMatrix, *, n_points=None, replicates=None,
       seed=None) -> float:
    """Second-level energy: FK plus every cluster's self terms.

    Adds sum_ij (gamma_ij/2)(f_k(i,j) + m_i^k m_j^k R0) over clusters k;
    the self terms do not depend on the centers, so F0 - FK is constant in
    the points for fixed masses.  `n_points`, `replicates` and `seed` are
    accepted for callers of the former sampled estimate and have no effect.
    Raises ValueError when a cluster's self terms are not finite (totals
    past about 1e154).
    """
    # Self terms first: they raise past the overflow, where FK only warns.
    total = 0.0
    for m in layout.masses:
        m1, m2 = (float(m[0]), float(m[1]))
        f11, f22, f12 = _self_terms(m1, m2)
        total += (0.5 * gamma.g11 * (f11 + m1 * m1 * R0)
                  + 0.5 * gamma.g22 * (f22 + m2 * m2 * R0)
                  + gamma.g12 * (f12 + m1 * m2 * R0))
    return FK(layout, gamma) + total


def disk_self_interaction(mass: float) -> float:
    """Closed-form log-kernel energy of a disk of the given area."""
    a = math.sqrt(mass / math.pi)
    return 0.5 * math.pi * a ** 4 * (0.25 - math.log(a))
