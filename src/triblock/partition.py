"""Global search for the optimal splitting of two-species mass into droplets.

A total mass pair M = (M1, M2) is distributed over a finite list of
clusters: double bubbles holding both species and single disks holding one.
Each cluster pays its blow-up energy and the best configuration minimizes
the sum.  The search, `ebar`, is deterministic: it ranks cluster-count
cells by the grid minimum of an equal-mass ansatz, and solves the best
cells for their masses with one batched plain Newton iteration on the
first-order (KKT) system, over every cell at once from one structured
start each, with exact second derivatives from one array geometry solve
per evaluation and each species' equations judged at that species' own
accuracy; the answer is the converged row of lowest energy.
Closed-form thresholds bound the structure of minimizers: their mass caps
give the least cluster count a search must reach, and `ebar` refuses
totals whose count exceeds a fixed bound.  A regime classifier reports
which structural guarantees apply at given parameters.

The oracle, `ebar_oracle`, is an independent exhaustive route that shares
no search code: masses on a delta-grid, the energy of every grid cluster
from one array geometry solve, and the optimum over at most max_parts
clusters as a min-plus power of that table by repeated squaring, until a
square returns its input, which every higher power equals.  Each min-plus
product loops over the rows of one factor in Python and takes the minimum
over the other axis for all rows at once; the last only at the answer's entry.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from triblock._args import integer, nonempty_pair, real
from triblock.geometry import (
    GammaMatrix,
    _perimeter_derivatives,
    _perimeters,
    _solve_pairs,
    concavity_threshold,
    e0,
    e0_gradient,
    perimeter,
    single_energy_gradient,
)

KIND_SINGLE_1 = "single_type1"
KIND_SINGLE_2 = "single_type2"
KIND_DOUBLE = "double"
_KINDS = (KIND_DOUBLE, KIND_SINGLE_1, KIND_SINGLE_2)

_log = logging.getLogger(__name__)

_MASS_RTOL = 1e-12
# check_necessary_conditions: relative spread allowed between the species
# derivatives, and relative slack on the mass thresholds.
_BALANCE_RTOL = 1e-6
_SLACK = 1e-9


@dataclass(frozen=True)
class Cluster:
    """One droplet of masses (m1, m2), not both zero.  Its kind follows from
    the masses: a double bubble when both are positive, else a single disk
    of the species whose mass is."""

    m1: float
    m2: float

    def __post_init__(self):
        for name in ("m1", "m2"):
            object.__setattr__(self, name, real(name, getattr(self, name), 0.0,
                                                closed=True))
        if self.m1 == 0.0 and self.m2 == 0.0:
            raise ValueError("m1 and m2 must not both be zero")

    @property
    def kind(self) -> str:
        if self.m1 > 0.0 and self.m2 > 0.0:
            return KIND_DOUBLE
        return KIND_SINGLE_1 if self.m1 > 0.0 else KIND_SINGLE_2

    @property
    def mass(self) -> float:
        return self.m1 + self.m2

    def energy(self, gamma: GammaMatrix) -> float:
        return e0((self.m1, self.m2), gamma)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "m1": self.m1, "m2": self.m2}


@dataclass(frozen=True)
class Configuration:
    """A finite list of clusters whose masses sum to the stated totals."""

    clusters: tuple
    total: tuple

    def __post_init__(self):
        t1, t2 = self.total
        s1 = sum(c.m1 for c in self.clusters)
        s2 = sum(c.m2 for c in self.clusters)
        scale = max(t1 + t2, 1e-300)
        if abs(s1 - t1) > _MASS_RTOL * scale or abs(s2 - t2) > _MASS_RTOL * scale:
            raise ValueError(
                f"cluster masses sum to ({s1}, {s2}), not the stated ({t1}, {t2})")

    def counts(self) -> dict:
        out = {k: 0 for k in _KINDS}
        for c in self.clusters:
            out[c.kind] += 1
        return out

    def energy(self, gamma: GammaMatrix) -> float:
        return sum(c.energy(gamma) for c in self.clusters)

    def as_dict(self) -> dict:
        return {"clusters": [c.as_dict() for c in self.clusters],
                "total": list(self.total)}


def _sorted_clusters(clusters):  # doubles, then type-1 and type-2 singles
    return tuple(sorted(clusters, key=lambda c: (
        _KINDS.index(c.kind), -c.mass, -c.m1, -c.m2)))


def _build_configuration(clusters, total) -> Configuration:
    return Configuration(_sorted_clusters(clusters), (float(total[0]), float(total[1])))


def _swap_configuration(conf: Configuration) -> Configuration:
    return _build_configuration([Cluster(c.m2, c.m1) for c in conf.clusters],
                                (conf.total[1], conf.total[0]))


def _cell_gradient(m1: float, m2: float, gamma: GammaMatrix) -> tuple:
    """Energy derivative per species; nan marks an empty species slot."""
    if m1 > 0.0 and m2 > 0.0:
        return e0_gradient((m1, m2), gamma)
    if m1 > 0.0:
        return (single_energy_gradient(m1, gamma.g11), math.nan)
    if m2 > 0.0:
        return (math.nan, single_energy_gradient(m2, gamma.g22))
    return (math.nan, math.nan)


# ---------------------------------------------------------------------------
# Closed-form structure thresholds.

@dataclass(frozen=True)
class Thresholds:
    """Mass and interaction bounds satisfied by minimizing configurations.

    max_mass[i]: no droplet or lobe of species i+1 exceeds this mass.
    single_floor[i]: when two or more species-(i+1) singles coexist, every
        one of them is at least this heavy.
    concavity[i]: below this mass the droplet energy is strictly concave in
        the species-(i+1) mass, so at most one double bubble may keep a lobe
        under it.
    gamma12_split: above this cross-interaction strength every sufficiently
        heavy double bubble loses to the pair of singles it splits into.
    """

    max_mass: tuple
    single_floor: tuple
    concavity: tuple
    gamma12_split: float

    def swapped(self) -> "Thresholds":
        """The thresholds of `GammaMatrix.swapped`: each pair reversed."""
        return Thresholds(self.max_mass[::-1], self.single_floor[::-1],
                          self.concavity[::-1], self.gamma12_split)


def thresholds(gamma: GammaMatrix) -> Thresholds:
    """Compute the structure thresholds for an interaction matrix.

    The concavity thresholds are located against the heaviest partner a
    minimizer can hold (the other species' mass cap), which makes them
    valid uniformly; `concavity_threshold` gives them at any other partner.
    """
    cap1 = 8.0 * math.pi / gamma.g11 ** (2.0 / 3.0)
    cap2 = 8.0 * math.pi / gamma.g22 ** (2.0 / 3.0)
    floor1 = 4.0 * math.pi ** 3 / (gamma.g11 * cap1) ** 2
    floor2 = 4.0 * math.pi ** 3 / (gamma.g22 * cap2) ** 2
    m1s = concavity_threshold(gamma.g11, 1, probe_other_mass=cap2)
    m2s = concavity_threshold(gamma.g22, 2, probe_other_mass=cap1)
    # one factor at a time, the larger first: m1s * m2s leaves the float
    # range for Gamma outside about 1e+-230, and the order keeps the swap
    # exact
    split = (4.0 * math.pi * math.sqrt(math.pi)
             * (math.sqrt(cap1) + math.sqrt(cap2))
             / max(m1s, m2s) / min(m1s, m2s))
    return Thresholds((cap1, cap2), (floor1, floor2), (m1s, m2s), split)


def coexistence_bounds(gamma: GammaMatrix, k_doubles: int = 1,
                       k_singles: int = 1, m1: float | None = None) -> tuple:
    """Masses forcing coexistence at zero cross-interaction.

    Returns (B1, B2) such that any minimizer with M1 >= B1 and M2 >= B2
    holds at least k_doubles double bubbles and k_singles species-2
    singles.  B2 grows with the species-1 total because every extra
    double the species-1 mass supports can hide species-2 mass, so B2 is
    evaluated at m1 (defaulting to B1, the smallest admissible M1); for
    larger M1 recompute with that value.  `classify_regime` applies the
    same bounds.
    """
    k_doubles = integer("k_doubles", k_doubles)
    k_singles = integer("k_singles", k_singles)
    m1 = None if m1 is None else real("m1", m1, 0.0, closed=True)
    return _coexistence_bounds(thresholds(gamma), k_doubles, k_singles, m1)


def _coexistence_bounds(th, k_doubles, k_singles, m1):
    """(B1, B2) of `coexistence_bounds` from its thresholds: k_doubles cap1
    and (1 + max(m1, B1) / concavity1 + k_singles) cap2, m1 None as B1."""
    cap1, cap2 = th.max_mass
    b1 = k_doubles * cap1
    m1_used = b1 if m1 is None else max(m1, b1)
    return (b1, (1.0 + m1_used / th.concavity[0] + k_singles) * cap2)


# ---------------------------------------------------------------------------
# Equal-mass ansatz energies for ranking cluster-count cells.

# Cells that ebar solves exactly, best-ranked first.
_TOP_CELLS = 24
# Points per axis of the ansatz grid of double lobe pairs.
_ANSATZ_GRID = 48
# ebar refuses totals whose mass caps force more clusters than this.
_MAX_CLUSTERS = 64


def _packing_grid(mass, gamma_ii):
    """(cost, count) arrays: cheapest split of each mass into equal disks of
    one species (gamma_ii broadcast), and the count that attains it (0 at 0).

    The cost of k equal disks, gamma_ii m^2/(4 pi k) + 2 sqrt(pi m k), falls
    and then rises in k, with its real minimum at m/x*, where a disk of mass
    x* costs least per unit mass.  So only k = max(floor(m/x*), 1) and k + 1
    are compared, the smaller count winning a tie.
    """
    mass = np.asarray(mass, dtype=float)
    xstar = (4.0 * math.pi * math.sqrt(math.pi) / gamma_ii) ** (2.0 / 3.0)
    k = np.maximum(np.floor(mass / xstar), 1.0)
    n = np.array((k, k + 1.0))
    x = mass / n
    cost = n * (gamma_ii * x * x / (4.0 * math.pi) + 2.0 * np.sqrt(math.pi * x))
    pos = mass > 0.0
    return (np.where(pos, np.minimum(cost[0], cost[1]), 0.0),
            np.where(pos, k + (cost[1] < cost[0]), 0.0).astype(int))


def _ansatz_for_doubles(kd, M, gamma, th, unit_grids):
    """Best equal-doubles ansatz for a given double count.

    All kd doubles share one lobe pair (x, y); whatever mass is left goes
    into optimally packed equal singles per species.  The minimum over an
    _ANSATZ_GRID x _ANSATZ_GRID grid of (x, y) ranks the cell, and the
    disk counts of the leftover packing there name its singles.  The
    perimeter is homogeneous of degree 1/2, so its grid is sqrt(y_hi) times
    a unit grid that depends only on x_hi/y_hi; `unit_grids` keeps those by
    ratio.  Returns (value, ks1, ks2).
    """
    M1, M2 = M
    n = _ANSATZ_GRID
    x_hi = min(M1 / kd, 1.5 * th.max_mass[0])
    y_hi = min(M2 / kd, 1.5 * th.max_mass[1])
    xs = np.linspace(x_hi / n, x_hi, n)
    ys = np.linspace(y_hi / n, y_hi, n)
    ratio = x_hi / y_hi
    if ratio not in unit_grids:  # all pairs positive: no `_perimeters` checks
        u = np.linspace(1.0 / n, 1.0, n)
        unit_grids[ratio] = _solve_pairs(np.repeat(ratio * u, n),
                                         np.tile(u, n))[0].reshape(n, n)
    quad = gamma.quad(xs[:, None], ys) / (4.0 * math.pi)
    # the leftover of species 1 varies along axis 0 only, of species 2
    # along axis 1 only: pack each once per grid line and broadcast
    rest = np.maximum(np.array(M)[:, None] - kd * np.array((xs, ys)), 0.0)
    (p1, p2), (k1, k2) = _packing_grid(rest,
                                       np.array([[gamma.g11], [gamma.g22]]))
    val = kd * (math.sqrt(y_hi) * unit_grids[ratio] + quad) + p1[:, None] + p2
    i, j = np.unravel_index(np.argmin(val), val.shape)
    ks1 = int(k1[i]) if rest[0, i] > 1e-9 * M1 else 0
    ks2 = int(k2[j]) if rest[1, j] > 1e-9 * M2 else 0
    return (float(val[i, j]), ks1, ks2)


def _cell_feasible(counts, M) -> bool:
    """No count is negative, and a species has clusters exactly when its
    total is positive."""
    kd, ks1, ks2 = counts
    return (min(counts) >= 0 and (M[0] > 0.0) == (kd + ks1 > 0)
            and (M[1] > 0.0) == (kd + ks2 > 0))


def _candidate_cells(M, gamma, th):
    """The _TOP_CELLS cluster-count cells (kd, ks1, ks2) of lowest
    equal-mass ansatz value, best first, the number of cells ranked and the
    number of ansatz unit grids solved.  The seeds are the packing of each
    total into singles at kd = 0 and the ansatz of each double count
    kd = 1 .. 3 + floor(min_s M_s / concavity_s); each seed and its +-1
    neighbours in the single counts (1e-9 dearer per step) are ranked if
    `_cell_feasible`."""
    M1, M2 = M
    unit_grids = {}
    (v1, v2), (k1, k2) = _packing_grid(np.array(M),
                                       np.array([gamma.g11, gamma.g22]))
    seeds = [(float(v1 + v2), 0, int(k1), int(k2))]
    if M1 > 0.0 and M2 > 0.0:
        kd_cap = 3 + int(min(M1 / th.concavity[0], M2 / th.concavity[1]))
        for kd in range(1, kd_cap + 1):
            val, s1, s2 = _ansatz_for_doubles(kd, M, gamma, th, unit_grids)
            seeds.append((val, kd, s1, s2))
    # each seed has its own double count, so no two cells share counts
    cells = sorted((val + 1e-9 * (abs(da) + abs(db)), (kd, s1 + da, s2 + db))
                   for val, kd, s1, s2 in seeds
                   for da in (-1, 0, 1) for db in (-1, 0, 1)
                   if _cell_feasible((kd, s1 + da, s2 + db), M))
    return [c for _, c in cells[:_TOP_CELLS]], len(cells), len(unit_grids)


# ---------------------------------------------------------------------------
# Exact inner solve: one batched KKT Newton over one row per cell.

# A row holds eight slot masses in a fixed layout and one multiplier per
# species.  Per kind, all but one cluster share a group and the last is
# free, as the structure results allow at most one exceptional cluster of
# each sort.  A double group fills a species-1 and a species-2 slot, a
# single group one slot: (shared, free) doubles, then type-1, then type-2
# singles.
_GROUP_SLOTS = ((0, 1), (2, 3), (4, None), (5, None), (None, 6), (None, 7))
_NSLOT = 8
_SLOT_SPECIES = np.array([0, 1, 0, 1, 0, 0, 1, 1])
_BY_SPECIES = _SLOT_SPECIES == np.arange(2)[:, None]  # each species' slots
_FREE_SLOT = np.array([0, 0, 1, 1, 0, 1, 0, 1], dtype=bool)
# Newton iterations before a row that has not converged is left as it is.
_NEWTON_ITERS = 50
# Relative tolerances of `_scale`.  A lobe's slope 1/r is good to
# ~eps/sqrt(q) relative at lobe ratio q: over the ten entries of F,
# sqrt(10) eps/sqrt(q), and a factor 3 keeps a row at its KKT point from
# running on.  _KKT_QTOL/sqrt(q) passes _KKT_RTOL below q = 4.4e-8.
_KKT_RTOL = 1e-11
_KKT_QTOL = 3.0 * math.sqrt(10.0) * np.finfo(float).eps


def _slot_weights(counts):
    """Clusters in each slot's group for counts (kd, ks1, ks2) on axis -1."""
    n = np.repeat(counts, (4, 2, 2), axis=-1)
    free, shared = np.minimum(n, 1), np.maximum(n - 1, 0)
    return np.where(_FREE_SLOT, free, shared).astype(float)


def _cell_starts(w, M):
    """One start row per cell of slot weights w, multipliers 0.  Per
    species the doubles take half the total, all of it when the cell has no
    singles of that species; each group shares its part equally by slot
    weight."""
    R = len(w)
    d = w[:, :4].reshape(R, 2, 2).sum(axis=1)  # doubles of each species
    g = w[:, 4:].reshape(R, 2, 2).sum(axis=2)  # singles of each species
    f = np.where(d == 0.0, 0.0, np.where(g > 0.0, 0.5, 1.0))
    dbl, sgl = M * f / np.maximum(d, 1.0), M * (1.0 - f) / np.maximum(g, 1.0)
    share = np.hstack((dbl, dbl, sgl.repeat(2, axis=1)))
    return np.hstack((np.where(w > 0.0, share, 0.0), np.zeros((R, 2))))


def _frame(act, w):
    """The part of J that the active set and the slot weights fix: -1 in
    an active slot's multiplier column, its group size in the mass rows, and
    an identity row for a multiplier with no active slot."""
    J = np.zeros((len(act), _NSLOT + 2, _NSLOT + 2))
    slot = np.arange(_NSLOT)
    J[:, slot, _NSLOT + _SLOT_SPECIES] = np.where(act, -1.0, 0.0)
    J[:, _NSLOT + _SLOT_SPECIES, slot] = np.where(act, w, 0.0)
    held = (act[:, None] & _BY_SPECIES).any(axis=2)
    J[:, _NSLOT + slot[:2], _NSLOT + slot[:2]] = ~held
    return J


def _kkt(t, act, w, frame, M, gamma, tol):
    """(F, J, double perimeters, scaled residual norm, geometry calls) of
    the KKT system at rows t, J built on their `_frame` and F scaled by
    `_scale` with tol for the norm.

    Per active slot F is the cluster's energy derivative in that species
    minus the species multiplier; per species, the mass sum minus M_s.  J
    is exact: a double with both lobes active puts p's Hessian plus
    Gamma/(2 pi) on its two slots, from one `_perimeter_derivatives` call
    for all such doubles; a lone lobe or a single is a disk.  Inactive
    slots are identity rows with F = 0.  A row with a non-finite entry or a
    nonpositive active slot gets an infinite residual norm.
    """
    R, n = len(t), _NSLOT + 2
    valid = (np.isfinite(t).all(axis=1)
             & np.where(act, t[:, :_NSLOT] > 0.0, True).all(axis=1))
    t, act = np.where(valid[:, None], t, 1.0), act & valid[:, None]
    m, lam = t[:, :_NSLOT].copy(), t[:, _NSLOT:]
    two_pi = 2.0 * math.pi
    gii = np.array([gamma.g11, gamma.g22])[_SLOT_SPECIES]
    # every slot as a disk: the doubles' slots are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.sqrt(math.pi / m) + gii * m / two_pi
        hess = gii / two_pi - 0.5 * math.sqrt(math.pi) * m ** -1.5
    J = frame.copy()  # and views of J[:, i, i], J[:, i, i + 1], J[:, i + 1, i]
    diag, upper, lower = (J.reshape(R, n * n)[:, i::n + 1] for i in (0, 1, n))
    held = diag[:, _NSLOT:] == 0.0
    perim = np.zeros((R, 2))
    r, g = np.nonzero(act[:, 0:4:2] & act[:, 1:4:2])
    if r.size:
        xy = m[:, :4].reshape(R, 2, 2)[r, g].T
        D = _perimeter_derivatives(*xy)
        gam = np.array([[gamma.g11, gamma.g12], [gamma.g12, gamma.g22]])
        grad[:, :4].reshape(R, 2, 2)[r, g] = (
            D[1:3] + (gam[:, :, None] * xy).sum(axis=1) / two_pi).T
        hess[:, :4].reshape(R, 2, 2)[r, g] = (
            D[3::2] + gam.diagonal()[:, None] / two_pi).T
        upper[:, 0:4:2][r, g] = lower[:, 0:4:2][r, g] = (
            D[4] + gamma.g12 / two_pi)
        perim[r, g] = D[0]
    diag[:, :_NSLOT] = np.where(act, hess, 1.0)
    mass = (frame[:, _NSLOT:, :_NSLOT] * m[:, None]).sum(axis=2)
    F = np.hstack((np.where(act, grad - lam[:, _SLOT_SPECIES], 0.0),
                   np.where(held, mass - M, 0.0)))
    norm = np.where(valid, np.linalg.norm(F / _scale(t, act, tol), axis=1),
                    np.inf)
    return F, J, perim, norm, int(r.size > 0)


def _energy(t, act, w, perim, gamma):
    """Each row's energy, a double's from its perimeter in `perim`."""
    m = t[:, :_NSLOT]
    gii = np.array([gamma.g11, gamma.g22])[_SLOT_SPECIES]
    e = np.where(act, w * (2.0 * np.sqrt(math.pi * m)
                           + gii * m * m / (4.0 * math.pi)), 0.0)
    r, g = np.nonzero(act[:, 0:4:2] & act[:, 1:4:2])
    x, y = m[:, :4].reshape(len(m), 2, 2)[r, g].T
    e[r, 2 * g] = w[r, 2 * g] * (perim[r, g]
                                 + gamma.quad(x, y) / (4.0 * math.pi))
    e[r, 2 * g + 1] = 0.0
    return e.sum(axis=1)


def _newton_steps(J, F):
    """-J^-1 F per row; a singular row gets a nan step."""
    try:
        return -np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(F) == 1:
            return np.full(F.shape, np.nan)
        return np.concatenate([_newton_steps(J[i:i + 1], F[i:i + 1])
                               for i in range(len(F))])


def _scale(t, act, tol):
    """Each entry's scale in the KKT residual of rows t: tol for a mass
    equation, tol + rtol_s |lambda_s| for a slot equation of species s, with
    rtol_s = max(_KKT_RTOL, _KKT_QTOL/sqrt(q_s)) and q_s the smallest ratio
    of a double's species-s lobe to its partner lobe, at most 1."""
    dbl = act[:, 0:4:2] & act[:, 1:4:2]
    xy = np.where(dbl, t[:, :4].reshape(len(t), 2, 2).transpose(2, 0, 1), 1.0)
    q = (xy / xy.max(axis=0)).min(axis=2)  # 1 where the lobe is the larger
    rtol = np.maximum(_KKT_RTOL, _KKT_QTOL / np.sqrt(q)).T
    slot = tol + (rtol * np.abs(t[:, _NSLOT:]))[:, _SLOT_SPECIES]
    return np.hstack((slot, np.full((len(t), 2), tol)))


# A tiny lobe overflows its Hessian terms to inf (m ** -1.5 below 3e-206),
# and its row is judged by its residual norm like any other.
@np.errstate(over="ignore")
def _newton(t, w, M, gamma):
    """Plain Newton on the KKT system of every row at once.

    The active slots are those of positive weight, and each multiplier
    starts at the mean derivative of its species' slots.  A live row takes
    its full Newton step while that lowers its scaled residual norm
    (`_kkt`), and converges at a norm of at most 1.  Each row ends under
    one stop, counted in the stats: converged, left_cell (its step put a
    slot at or below zero or out of the floats), no_descent (its step did
    not lower the norm) or iteration_cap.  Returns (t, energy, scaled
    residual norm, which rows converged, stats).
    """
    M = np.asarray(M, dtype=float)
    tol = 1e-13 * max(1.0, M[0] + M[1])
    t, act = t.copy(), w > 0.0
    frame = _frame(act, w)
    F, J, perim, _, calls = _kkt(t, act, w, frame, M, gamma, tol)
    on = act[:, None] & _BY_SPECIES
    t[:, _NSLOT:] = lam = (np.where(on, F[:, None, :_NSLOT], 0.0).sum(axis=2)
                           / np.maximum(on.sum(axis=2), 1))
    F[:, :_NSLOT] -= np.where(on, lam[:, :, None], 0.0).sum(axis=1)
    fnorm = np.linalg.norm(F / _scale(t, act, tol), axis=1)
    live = ~(fnorm <= 1.0)
    iters = left = flat = 0
    while live.any() and iters < _NEWTON_ITERS:
        iters += 1
        rows = np.flatnonzero(live)
        full = t[rows] + _newton_steps(J[rows], F[rows])
        F1, J1, p1, n1, c = _kkt(full, act[rows], w[rows], frame[rows], M,
                                 gamma, tol)
        calls += c
        won = n1 < fnorm[rows]
        k = rows[won]
        t[k], F[k], J[k], perim[k], fnorm[k] = (
            full[won], F1[won], J1[won], p1[won], n1[won])
        live[rows] = won & (n1 > 1.0)
        left += int((~won & ~np.isfinite(n1)).sum())
        flat += int((~won & np.isfinite(n1)).sum())
    converged = fnorm <= 1.0
    stats = {"rows": len(t), "converged": int(converged.sum()),
             "left_cell": left, "no_descent": flat,
             "iteration_cap": int(live.sum()), "iterations": iters,
             "geometry_calls": calls}
    return t, _energy(t, act, w, perim, gamma), fnorm, converged, stats


def _row_clusters(t, w):
    """The clusters of one solved row: n of them for a group of weight n."""
    clusters = []
    for pair in _GROUP_SLOTS:
        x, y = (float(t[s]) if s is not None else 0.0 for s in pair)
        if x > 0.0 or y > 0.0:
            n = int(w[pair[0] if pair[0] is not None else pair[1]])
            clusters += [Cluster(x, y)] * n
    return clusters


def ebar(M, gamma: GammaMatrix):
    """Best found splitting of the total masses into droplet clusters.

    Returns (value, Configuration).  The search is deterministic: it ranks
    cluster-count cells by the grid minimum of an equal-mass ansatz, in
    which the mass left over from the doubles is packed into equal disks
    whose count is one of the two next to mass/x* (x* the disk mass of least
    energy per unit mass), over the cells that give each species with a
    positive total a cluster and no other species one.  It solves the best
    24 cells by Newton's method on the first-order system (equal species
    derivatives, exact mass sums), with exact Hessians from one array
    geometry solve per evaluation, every cell in one batch from one start:
    per species the doubles take half the total, or all of it when the cell
    has no singles of that species.  A row takes full Newton steps while
    they lower its residual norm, each equation scaled by its own
    tolerance: 1e-13 max(1, M1 + M2) for a mass sum, and for a derivative
    of species s that plus 1e-11 of the species multiplier, or
    2.1e-15/sqrt(q) of it when a double's species-s lobe is q < 4.4e-8 of
    its partner.  The answer is the row of lowest energy among those that
    converged (scaled norm at most 1) with a finite energy and species mass
    sums within the Configuration's 1e-12 relative tolerance; only its
    clusters are built, and the value is their energy.  Logs one DEBUG line
    per call to the "triblock.partition" logger: cells ranked, ansatz unit
    grids, rows by stop (converged, left the cell, no descent, iteration
    cap), Newton iterations, array geometry calls, and the chosen cell's
    scaled KKT residual.

    No droplet or lobe of a minimizer is heavier than the mass cap of its
    species (`thresholds`), so species i needs at least ceil(M_i / cap_i)
    clusters.  Raises ValueError when that lower bound exceeds 64 clusters,
    and RuntimeError when no row qualifies.
    """
    return _ebar(nonempty_pair("M", M), gamma, thresholds(gamma))


def _ebar(M, gamma, th):
    """`ebar` of a checked mass pair M with th = thresholds(gamma) given, so
    a caller that holds the thresholds does not solve them again."""
    M1, M2 = M
    if (M2, gamma.g22) < (M1, gamma.g11):
        v, conf = _ebar((M2, M1), gamma.swapped(), th.swapped())
        return v, _swap_configuration(conf)
    needed = (math.ceil(M1 / th.max_mass[0] - 1e-9)
              + math.ceil(M2 / th.max_mass[1] - 1e-9))
    if needed > _MAX_CLUSTERS:
        raise ValueError(
            f"the mass caps need at least {needed} clusters, over the "
            f"search bound of {_MAX_CLUSTERS}")
    cells, ranked, grids = _candidate_cells((M1, M2), gamma, th)
    w = _slot_weights(np.array(cells))
    t, energy, fnorm, ok, stats = _newton(_cell_starts(w, (M1, M2)), w,
                                          (M1, M2), gamma)
    ok &= np.isfinite(energy)
    for s, total in ((0, M1), (1, M2)):
        mass = (w * t[:, :_NSLOT])[:, _SLOT_SPECIES == s].sum(axis=1)
        ok &= np.abs(mass - total) <= _MASS_RTOL * max(M1 + M2, 1e-300)
    if not ok.any():
        raise RuntimeError(f"no feasible configuration found for M={M!r}")
    k = np.flatnonzero(ok)[np.argmin(energy[ok])]
    conf = _build_configuration(_row_clusters(t[k], w[k]), (M1, M2))
    _log.debug("ebar M=(%g, %g): %d cells ranked, %d ansatz unit grids, "
               "%d rows: %d converged, %d left the cell, %d no descent, %d "
               "at the iteration cap; %d Newton iterations, %d geometry "
               "calls, scaled KKT residual %.3e of the chosen cell", M1, M2,
               ranked, grids, stats["rows"], stats["converged"],
               stats["left_cell"], stats["no_descent"],
               stats["iteration_cap"], stats["iterations"],
               stats["geometry_calls"], fnorm[k])
    return conf.energy(gamma), conf


# ---------------------------------------------------------------------------
# Quantized dynamic-programming oracle: numpy-bound from the table to the
# answer, with no call into the search above.

def _quantized_energy_table(n1, n2, delta, gamma):
    i = np.arange(n1 + 1, dtype=float) * delta
    j = np.arange(n2 + 1, dtype=float) * delta
    P = _perimeters(i[:, None], j[None, :])
    quad = (gamma.g11 * i[:, None] ** 2 + 2.0 * gamma.g12 * np.outer(i, j)
            + gamma.g22 * j[None, :] ** 2) / (4.0 * math.pi)
    E = P + quad
    E[0, 0] = 0.0
    return E


# Size cap of the scratch buffer of _min_plus: larger buffers fall out of
# cache, and numpy would page-fault a fresh one on every step.
_MIN_PLUS_BUFFER_BYTES = 1 << 20
# Column blocks per _min_plus row pass: block [s0, s1) needs only the splits
# a2 < s1, so 4 blocks form 0.625 of the S2^2 sums of an unblocked pass.
_MIN_PLUS_BLOCKS = 4


def _min_plus(A, B):
    """(A ⊕ B)[s] = min over splits s = a + b of A[a] + B[b], A and B of
    one shape.

    One pass per row a1 of A: all rows b1 of B at once take
    min over a2 of A[a1, a2] + B[b1, s2 - a2], read from sliding windows of
    B padded with S2 - 1 infs on the left.  The sums are stacked along a2
    in one scratch buffer and reduced elementwise, by column block and by
    chunk of rows b1.  Every entry is the minimum of the same float sums as
    an elementwise loop, so the result is exact; inf marks an empty state.

    A square (A is B) visits only the row pairs b1 >= a1: the mirror pair
    (b1, a1) at split s2 - a2 adds the same two floats in the other order,
    and float addition commutes, so each entry is still the minimum of the
    same set of sums and equals the full pass bit for bit.
    """
    square = A is B
    S1, S2 = A.shape
    C = np.full(A.shape, np.inf)
    pad = np.full((S1, 2 * S2 - 1), np.inf)
    pad[:, S2 - 1:] = B
    # windows[w, b1, s2] = B[b1, s2 - a2] for the split a2 = S2 - 1 - w
    windows = sliding_window_view(pad, S2, axis=1).transpose(2, 0, 1)
    width = -(-S2 // _MIN_PLUS_BLOCKS)
    rows = max(1, _MIN_PLUS_BUFFER_BYTES // (8 * S2 * width))
    buf = np.empty(S2 * rows * width)
    for a1 in range(S1):
        weights = A[a1, ::-1, None, None]
        for r0 in range(a1 if square else 0, S1 - a1, rows):
            r1 = min(r0 + rows, S1 - a1)
            for s0 in range(0, S2, width):
                s1 = min(s0 + width, S2)
                w0 = S2 - s1
                win = windows[w0:, r0:r1, s0:s1]
                sums = buf[:win.size].reshape(win.shape)
                np.add(win, weights[w0:], out=sums)
                blk = C[a1 + r0:a1 + r1, s0:s1]
                np.minimum(blk, np.minimum.reduce(sums, axis=0), out=blk)
    return C


def _corner_min_plus(A, B):
    """(A ⊕ B) at the last state only: min over a of A[a] + B[-1 - a]."""
    return float(np.min(A.ravel() + B[::-1, ::-1].ravel()))


def ebar_oracle(M, gamma: GammaMatrix, delta: float = 1.0 / 64,
                max_parts: int = 12, max_states: int = 40000) -> float:
    """Exhaustive minimum of the splitting energy over the delta-grid.

    Masses are rounded to multiples of delta and the optimum over all
    configurations of at most max_parts grid clusters is computed by
    min-plus dynamic programming: the cluster energy table (one array
    geometry solve for every grid pair) raised to the max_parts-th min-plus
    power by repeated squaring.  Each squaring passes one array as both
    operands, so `_min_plus` forms it over only the row pairs b1 >= a1,
    which gives the same floats as the full product.  A full product of two
    different powers comes at most once for each set bit of max_parts past
    the top two (max_parts = 7, 11, 13, 14, 15, ...); at max_parts = 12 all
    three full products are squares.  Only the answer's entry of the last
    product is formed.  Squaring stops once a square P equals its input:
    each entry of a later power or pending product is then a minimum of
    float sums that include P's entry itself (the part at [0, 0] adds 0)
    and, as P is its own square and rounding is monotone, none smaller.
    Logs the states, full squares and fixed point at DEBUG.  `delta` is a
    positive number and max_parts and max_states positive integers
    (`triblock._args`).  Raises RuntimeError when the state space exceeds
    max_states or M/delta is not finite.
    """
    M1, M2 = nonempty_pair("M", M)
    delta = real("delta", delta, 0.0)
    max_parts = integer("max_parts", max_parts, 1)
    max_states = integer("max_states", max_states, 1)
    q1, q2 = M1 / delta, M2 / delta
    if not (math.isfinite(q1) and math.isfinite(q2)):
        raise RuntimeError(
            f"oracle budget exceeded: M/delta = ({q1}, {q2}) grid steps")
    n1 = round(q1)
    n2 = round(q2)
    if n1 == 0 and n2 == 0:
        raise ValueError("both masses round to zero on this grid")
    states = (n1 + 1) * (n2 + 1)
    if states > max_states:
        raise RuntimeError(
            f"oracle budget exceeded: {states} grid states > {max_states}")
    table = _quantized_energy_table(n1, n2, delta, gamma)
    # Repeated squaring; `result` collects the powers of the set bits.
    result, power, mp, squares, fixed = None, table, max_parts, 0, False
    while mp > 1 and not fixed:
        if mp & 1:
            result = power if result is None else _min_plus(result, power)
        mp >>= 1
        if mp == 1 and result is None:  # max_parts is a power of two
            result = power
            break
        square = _min_plus(power, power)
        squares += 1
        fixed, power = np.array_equal(square, power), square
    value = (float(power[n1, n2]) if fixed or result is None
             else _corner_min_plus(result, power))
    _log.debug("ebar_oracle M=(%g, %g): %d states, %d full squares, fixed "
               "point %s", M1, M2, states, squares,
               f"at {1 << (squares - 1)} parts" if fixed else "not reached")
    return value


def round_config_to_grid(config: Configuration, delta: float):
    """Mass-preserving rounding of every cluster mass to the delta grid.

    Per species the masses are floored to quanta and the leftover quanta go
    to the largest fractional remainders (largest-remainder rule), so the
    totals stay exact multiples.  Returns the rounded cluster list.
    Raises ValueError unless delta is a positive number.
    """
    delta = real("delta", delta, 0.0)
    ms = [[c.m1, c.m2] for c in config.clusters]
    for species, total in ((0, config.total[0]), (1, config.total[1])):
        target = round(total / delta)
        base = [int(math.floor(m[species] / delta + 1e-12)) for m in ms]
        rem = [m[species] / delta - b for m, b in zip(ms, base)]
        deficit = target - sum(base)
        order = sorted(range(len(ms)), key=lambda k: (-rem[k], -ms[k][species], k))
        k = 0
        while deficit > 0 and k < len(order):
            base[order[k]] += 1
            deficit -= 1
            k += 1
        order = sorted(range(len(ms)), key=lambda k: (rem[k], ms[k][species], k))
        k = 0
        while deficit < 0 and k < len(order):
            if base[order[k]] > 0:
                base[order[k]] -= 1
                deficit += 1
            k += 1
        for m, b in zip(ms, base):
            m[species] = b * delta
    out = []
    for m1, m2 in ms:
        if m1 > 0.0 or m2 > 0.0:
            out.append(Cluster(m1, m2))
    return out


def quantization_bound(config: Configuration, gamma: GammaMatrix,
                       delta: float) -> float:
    """Upper bound on the energy increase from rounding this configuration
    to the delta grid: the exact increase of the mass-preserving rounding,
    plus a small evaluation pad."""
    rounded = round_config_to_grid(config, delta)
    e_round = sum(c.energy(gamma) for c in rounded)
    e_cfg = config.energy(gamma)
    return max(e_round - e_cfg, 0.0) + 1e-10 * max(1.0, abs(e_cfg))


# ---------------------------------------------------------------------------
# Necessary conditions and regime classification.

def check_necessary_conditions(config: Configuration, gamma: GammaMatrix) -> dict:
    """Structural first-order conditions every minimizer satisfies.

    Checks mass caps, the floor for repeated singles, the one-small-lobe
    rule for doubles (each threshold with a relative slack of 1e-9), and
    equality of the per-species energy derivatives across all clusters
    holding that species (a relative spread of at most 1e-6).
    """
    th = thresholds(gamma)
    caps_ok = all(c.m1 <= th.max_mass[0] * (1.0 + _SLACK)
                  and c.m2 <= th.max_mass[1] * (1.0 + _SLACK)
                  for c in config.clusters)
    singles = {1: [c.m1 for c in config.clusters if c.kind == KIND_SINGLE_1],
               2: [c.m2 for c in config.clusters if c.kind == KIND_SINGLE_2]}
    floor_ok = all(len(v) < 2 or min(v) >= th.single_floor[i - 1] * (1.0 - _SLACK)
                   for i, v in singles.items())
    doubles = [c for c in config.clusters if c.kind == KIND_DOUBLE]
    small1 = sum(1 for c in doubles if c.m1 < th.concavity[0] * (1.0 - _SLACK))
    small2 = sum(1 for c in doubles if c.m2 < th.concavity[1] * (1.0 - _SLACK))
    flex_ok = small1 <= 1 and small2 <= 1
    spreads = []
    balance_ok = True
    for species in (1, 2):
        cut = 1e-8 * max(config.total[species - 1], 1e-300)
        grads = []
        for c in config.clusters:
            m = c.m1 if species == 1 else c.m2
            if m > cut:
                grads.append(_cell_gradient(c.m1, c.m2, gamma)[species - 1])
        if len(grads) >= 2:
            spread = (max(grads) - min(grads)) / max(abs(np.mean(grads)), 1e-300)
        else:
            spread = 0.0
        spreads.append(spread)
        balance_ok = balance_ok and spread <= _BALANCE_RTOL
    report = {
        "mass_caps": caps_ok,
        "single_floor": floor_ok,
        "double_small_lobes": flex_ok,
        "derivative_balance": balance_ok,
        "balance_spread": tuple(spreads),
    }
    report["all_pass"] = caps_ok and floor_ok and flex_ok and balance_ok
    return report


def classify_regime(M, gamma: GammaMatrix, run_search: bool = True) -> dict:
    """Evaluate which structural guarantees hold at these parameters.

    Reports the thresholds, the hypothesis status of each guarantee (one
    double bubble; no doubles with equal singles; coexistence counts at
    zero cross-interaction), and, with run_search, the structure `ebar`
    finds and whether it is consistent with the guarantee.  The coexistence
    count is the largest k at which the totals reach `coexistence_bounds`
    with k doubles and k singles, in either species order, from one
    `thresholds` solve, which the search reuses.  With run_search, raises
    what `ebar` raises, such as its ValueError for totals past the cluster
    bound.
    """
    M1, M2 = nonempty_pair("M", M)
    th = thresholds(gamma)
    report = {"M": (M1, M2), "thresholds": th}

    one_double = False
    margin = math.nan
    if M1 > 0.0 and M2 > 0.0 and gamma.g12 > 0.0:
        small = (M1 < min(th.concavity[0], math.pi * gamma.g11 ** (-2.0 / 3.0))
                 and M2 < min(th.concavity[1], math.pi * gamma.g22 ** (-2.0 / 3.0)))
        lhs = gamma.g12 / (2.0 * math.pi) * M1 * M2 + perimeter((M1, M2))
        rhs = 2.0 * math.sqrt(math.pi) * (math.sqrt(M1) + math.sqrt(M2))
        margin = rhs - lhs
        one_double = small and lhs < rhs
    report["one_double"] = {"holds": one_double, "split_margin": margin}

    all_singles = (M1 > 4.0 * th.max_mass[0] and M2 > 4.0 * th.max_mass[1]
                   and gamma.g12 > th.gamma12_split)
    report["all_singles"] = {"holds": all_singles,
                             "gamma12_split": th.gamma12_split}

    k_guaranteed = 0
    singles_species = None
    if gamma.g12 == 0.0 and M1 > 0.0 and M2 > 0.0:
        # species 2 singles from (M1, M2), species 1 singles from the swap
        sides = ((2, th, M1, M2), (1, th.swapped(), M2, M1))
        while True:
            k = k_guaranteed + 1
            for species, t, a, b in sides:
                b1, b2 = _coexistence_bounds(t, k, k, a)
                if a >= b1 and b >= b2:
                    singles_species, k_guaranteed = species, k
                    break
            else:
                break
    report["coexistence"] = {
        "holds": k_guaranteed >= 1,
        "guaranteed_doubles": k_guaranteed,
        "guaranteed_singles": k_guaranteed,
        "singles_species": singles_species,
        "bounds_for_one_each": _coexistence_bounds(th, 1, 1, M1),
    }

    report["guarantee"] = ("one_double" if one_double
                           else "no_doubles" if all_singles
                           else "coexistence" if k_guaranteed >= 1 else "none")

    if run_search:
        value, conf = _ebar((M1, M2), gamma, th)
        counts = conf.counts()
        consistent = None
        if report["guarantee"] == "one_double":
            consistent = (counts[KIND_DOUBLE] == 1
                          and len(conf.clusters) == 1)
        elif report["guarantee"] == "no_doubles":
            singles = [[c.mass for c in conf.clusters if c.kind == kind]
                       for kind in (KIND_SINGLE_1, KIND_SINGLE_2)]
            consistent = counts[KIND_DOUBLE] == 0 and all(
                max(ms) - min(ms) <= 1e-6 * max(ms) for ms in singles if ms)
        elif report["guarantee"] == "coexistence":
            kind = KIND_SINGLE_2 if singles_species == 2 else KIND_SINGLE_1
            consistent = (counts[KIND_DOUBLE] >= k_guaranteed
                          and counts[kind] >= k_guaranteed)
        report["search"] = {"energy": value, "counts": counts,
                            "configuration": conf,
                            "consistent": consistent}
    return report
