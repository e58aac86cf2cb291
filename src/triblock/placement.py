"""Droplet placement energies on the unit torus.

A layout is a set of droplet centers with per-cluster mass pairs.  The
first-level energy FK couples distinct clusters through the periodic Green
function; the second level adds each cluster's own log-kernel energy over
its optimal shape (a double bubble or a disk) and the Green function's
regular part at zero.  Shape integrals are quasi-Monte Carlo quadratures
over the circular-arc lobes with a rejection-free strip sampler.

FK, its gradient and the Hessian of the Newton phase in `minimize_FK` come
from one Ewald call over the K(K-1)/2 pair differences (`_pair_terms`).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from triblock.geometry import GammaMatrix, solve_geometry
from triblock.partition import Configuration, check_necessary_conditions, cluster_from_masses
from triblock.torus_green import R0, _ewald, wrap

_STRIP_NODES = 16385


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


def layout_from_dict(data: dict) -> Layout:
    """Inverse of Layout.as_dict."""
    points = tuple((float(p[0]), float(p[1])) for p in data["points"])
    masses = tuple((float(m[0]), float(m[1])) for m in data["masses"])
    return Layout(points, masses)


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
# Cluster self-interaction integrals.

class _StripRegion:
    """Sampler for a region symmetric about y = 0, described by vertical
    strips [wlo(x), whi(x)] in |y|.

    Draws are exactly uniform on the region whose boundaries interpolate
    the node widths linearly: the x marginal inverts each cell's trapezoid
    in closed form and y uses the same linear widths, so the only error
    against the true arcs is the O(h^{3/2}) sliver at the strip ends.
    """

    def __init__(self, xs: np.ndarray, whi: np.ndarray, wlo: np.ndarray):
        width = whi - wlo
        if np.any(width < -1e-12):
            raise ValueError("strip widths must be nonnegative")
        width = np.maximum(width, 0.0)
        cells = 0.5 * (width[1:] + width[:-1]) * np.diff(xs)
        cdf = np.concatenate([[0.0], np.cumsum(cells)])
        self.area = 2.0 * float(cdf[-1])
        self.xs = xs
        self.whi = whi
        self.wlo = wlo
        self.width = width
        self.cdf = cdf / cdf[-1]

    def sample(self, u: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self.cdf, u[:, 0], side="right") - 1
        np.clip(k, 0, len(self.xs) - 2, out=k)
        span = self.cdf[k + 1] - self.cdf[k]
        tau = (u[:, 0] - self.cdf[k]) / np.where(span > 0.0, span, 1.0)
        w0 = self.width[k]
        dw = self.width[k + 1] - w0
        # Invert the in-cell trapezoid CDF: w0 s + dw s^2 / 2 = tau (w0 + dw/2).
        disc = np.sqrt(np.maximum(w0 * w0 + dw * (2.0 * w0 + dw) * tau, 0.0))
        small = np.abs(dw) < 1e-14 * (np.abs(w0) + 1.0)
        s = np.where(small, tau, (disc - w0) / np.where(small, 1.0, dw))
        np.clip(s, 0.0, 1.0, out=s)
        x = self.xs[k] + s * (self.xs[k + 1] - self.xs[k])
        hi = self.whi[k] + s * (self.whi[k + 1] - self.whi[k])
        lo = self.wlo[k] + s * (self.wlo[k + 1] - self.wlo[k])
        v = 2.0 * u[:, 1] - 1.0
        sign = np.where(v >= 0.0, 1.0, -1.0)
        y = sign * (lo + np.abs(v) * (hi - lo))
        return np.column_stack([x, y])


def _disk_region(mass: float) -> _StripRegion:
    a = math.sqrt(mass / math.pi)
    xs = np.linspace(-a, a, _STRIP_NODES)
    whi = np.sqrt(np.maximum(a * a - xs * xs, 0.0))
    return _StripRegion(xs, whi, np.zeros_like(xs))


def _double_regions(m1: float, m2: float) -> tuple:
    """Strip samplers for the two lobes of the optimal double bubble, in
    caller order.  The smaller lobe sits left of the junction chord x = 0
    plus the middle-arc bulge; the larger lobe is the right outer segment
    minus that bulge."""
    geom = solve_geometry((m1, m2))
    r0, r1, r2 = geom.r0, geom.r1, geom.r2
    th0, th1, th2 = geom.theta0, geom.theta1, geom.theta2
    x1c = r1 * math.cos(th1)
    x2c = -r2 * math.cos(th2)
    half = (_STRIP_NODES - 1) // 2

    xs_a = np.linspace(r1 * (math.cos(th1) - 1.0), 0.0, _STRIP_NODES)
    whi_a = np.sqrt(np.maximum(r1 * r1 - (xs_a - x1c) ** 2, 0.0))
    if math.isinf(r0):
        small = _StripRegion(xs_a, whi_a, np.zeros_like(xs_a))
        bulge_end = 0.0
    else:
        x0c = -r0 * math.cos(th0)
        bulge_end = r0 * (1.0 - math.cos(th0))
        xs_b = np.linspace(0.0, bulge_end, half + 1)
        whi_b = np.sqrt(np.maximum(r0 * r0 - (xs_b - x0c) ** 2, 0.0))
        xs = np.concatenate([xs_a, xs_b[1:]])
        whi = np.concatenate([whi_a, whi_b[1:]])
        small = _StripRegion(xs, whi, np.zeros_like(xs))

    xs2 = np.linspace(0.0, x2c + r2, 2 * _STRIP_NODES - 1)
    whi2 = np.sqrt(np.maximum(r2 * r2 - (xs2 - x2c) ** 2, 0.0))
    if math.isinf(r0):
        wlo2 = np.zeros_like(xs2)
    else:
        x0c = -r0 * math.cos(th0)
        wlo2 = np.where(
            xs2 <= bulge_end,
            np.sqrt(np.maximum(r0 * r0 - (xs2 - x0c) ** 2, 0.0)), 0.0)
        wlo2 = np.minimum(wlo2, whi2)
    big = _StripRegion(xs2, whi2, wlo2)

    return (big, small) if geom.swapped else (small, big)


def _cluster_regions(m1: float, m2: float) -> tuple:
    """Per-species samplers for the optimal cluster shape (None if the
    species is absent)."""
    if m1 > 0.0 and m2 > 0.0:
        return _double_regions(m1, m2)
    if m1 > 0.0:
        return (_disk_region(m1), None)
    if m2 > 0.0:
        return (None, _disk_region(m2))
    raise ValueError("cluster needs positive mass")


_SELF_CACHE: dict = {}


def self_interaction(m, i: int, j: int, n_points: int = 2 ** 18,
                     replicates: int = 8, seed: int = 0,
                     with_error: bool = False,
                     max_rel_error: float | None = None):
    """Log-kernel energy (1/2pi) int_{lobe_i x lobe_j} log 1/|x-y|.

    The lobes are the optimal shape for the mass pair: a double bubble when
    both species are present, a disk otherwise; an absent species
    contributes zero.  Scrambled-Sobol replicates give the estimate and its
    standard error; with_error returns (value, stderr), and max_rel_error
    (if set) raises once the standard error exceeds that fraction of the
    value.
    """
    m1, m2 = (float(m[0]), float(m[1]))
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"species indices must be 1 or 2, got {(i, j)!r}")
    if min(m1, m2) < 0.0 or m1 + m2 <= 0.0:
        raise ValueError(f"bad mass pair {m!r}")
    i, j = (i, j) if i <= j else (j, i)
    key = (m1, m2, i, j, n_points, replicates, seed)
    if key not in _SELF_CACHE:
        _SELF_CACHE[key] = _self_interaction_qmc(
            m1, m2, i, j, n_points, replicates, seed)
    value, stderr = _SELF_CACHE[key]
    if max_rel_error is not None and stderr > max_rel_error * abs(value):
        raise RuntimeError(
            f"quadrature budget exceeded: stderr {stderr:.3e} above "
            f"{max_rel_error:g} of value {value:.6e}")
    return (value, stderr) if with_error else value


def _self_interaction_qmc(m1, m2, i, j, n_points, replicates, seed):
    regions = _cluster_regions(m1, m2)
    ri = regions[i - 1]
    rj = regions[j - 1]
    if ri is None or rj is None:
        return (0.0, 0.0)
    mass_i = m1 if i == 1 else m2
    mass_j = m1 if j == 1 else m2
    exponent = max(1, math.ceil(math.log2(n_points)))
    vals = np.zeros(replicates)
    for r in range(replicates):
        sob = qmc.Sobol(d=4, scramble=True, seed=seed + 13 * r)
        u = sob.random_base2(exponent)
        X = ri.sample(u[:, 0:2])
        Y = rj.sample(u[:, 2:4])
        d = np.hypot(X[:, 0] - Y[:, 0], X[:, 1] - Y[:, 1])
        np.maximum(d, 1e-300, out=d)
        vals[r] = -float(np.mean(np.log(d)))
    factor = mass_i * mass_j / (2.0 * math.pi)
    value = factor * float(np.mean(vals))
    if replicates > 1:
        stderr = abs(factor) * float(np.std(vals, ddof=1)) / math.sqrt(replicates)
    else:
        stderr = math.inf
    return (value, stderr)


def F0(layout: Layout, gamma: GammaMatrix, n_points: int = 2 ** 18,
       replicates: int = 8, seed: int = 0) -> float:
    """Second-level energy: FK plus every cluster's self terms.

    Adds sum_ij (gamma_ij/2)(f_k(i,j) + m_i^k m_j^k R0) over clusters k;
    the self terms do not depend on the centers, so F0 - FK is constant in
    the points for fixed masses.
    """
    total = FK(layout, gamma)
    for m in layout.masses:
        m1, m2 = (float(m[0]), float(m[1]))
        for i, jj, coef in ((1, 1, 0.5 * gamma.g11), (2, 2, 0.5 * gamma.g22),
                            (1, 2, gamma.g12)):
            mi = m1 if i == 1 else m2
            mj = m1 if jj == 1 else m2
            if mi == 0.0 or mj == 0.0:
                continue
            f = self_interaction((m1, m2), i, jj, n_points=n_points,
                                 replicates=replicates, seed=seed)
            total += coef * (f + mi * mj * R0)
    return total


def disk_self_interaction(mass: float) -> float:
    """Closed-form log-kernel energy of a disk of the given area."""
    a = math.sqrt(mass / math.pi)
    return 0.5 * math.pi * a ** 4 * (0.25 - math.log(a))


def layout_masses_report(layout: Layout, gamma: GammaMatrix) -> dict:
    """Run the partition module's necessary-condition checks on the
    layout's cluster masses (the placement energies accept any masses;
    this flags whether they could come from an optimal splitting)."""
    clusters = tuple(cluster_from_masses(float(m[0]), float(m[1]))
                     for m in layout.masses)
    total = (sum(c.m1 for c in clusters), sum(c.m2 for c in clusters))
    return check_necessary_conditions(Configuration(clusters, total), gamma)
