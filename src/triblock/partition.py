"""Global search for the optimal splitting of two-species mass into droplets.

A total mass pair M = (M1, M2) is distributed over a finite list of
clusters: double bubbles holding both species and single disks holding one.
Each cluster pays its blow-up energy and the best configuration minimizes
the sum.  The search, `ebar`, is deterministic: it ranks cluster-count
cells by the grid minimum of an equal-mass ansatz, and solves the best
cells for their masses with one batched Newton iteration on the
first-order (KKT) system, over every cell at once from one structured
start each, with exact second derivatives from one array geometry solve
per evaluation; the answer is the converged row of lowest energy.
Closed-form thresholds bound the structure of minimizers: their mass caps
give the least cluster count a search must reach, and `ebar` refuses
totals whose count exceeds a fixed bound.  A regime classifier reports
which structural guarantees apply at given parameters.

The oracle, `ebar_oracle`, is an independent exhaustive route that shares
no search code: masses on a delta-grid, the energy of every grid cluster
from one array geometry solve, and the optimum over at most max_parts
clusters as a min-plus power of that table by repeated squaring.  Each
min-plus product loops over the rows of one factor in Python and takes the
minimum over the other axis for all rows at once; the last product is
evaluated at the answer's entry only.
"""

import csv
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from triblock.geometry import (
    GammaMatrix,
    _perimeter_derivatives,
    _perimeters,
    concavity_threshold,
    e0,
    e0_gradient,
    perimeter,
    single_energy,
    single_energy_gradient,
)

KIND_SINGLE_1 = "single_type1"
KIND_SINGLE_2 = "single_type2"
KIND_DOUBLE = "double"
_KINDS = (KIND_DOUBLE, KIND_SINGLE_1, KIND_SINGLE_2)

_log = logging.getLogger(__name__)

_MASS_RTOL = 1e-12
_FLOOR_FRAC = 1e-9


@dataclass(frozen=True)
class Cluster:
    """One droplet: a double bubble, or a single disk of one species."""

    kind: str
    m1: float
    m2: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown cluster kind {self.kind!r}")
        for v in (self.m1, self.m2):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"cluster masses must be finite and >= 0, got {v!r}")
        if self.kind == KIND_DOUBLE and not (self.m1 > 0.0 and self.m2 > 0.0):
            raise ValueError("a double bubble needs two positive lobe masses")
        if self.kind == KIND_SINGLE_1 and not (self.m1 > 0.0 and self.m2 == 0.0):
            raise ValueError("a type-1 single holds species 1 only")
        if self.kind == KIND_SINGLE_2 and not (self.m2 > 0.0 and self.m1 == 0.0):
            raise ValueError("a type-2 single holds species 2 only")

    @property
    def mass(self) -> float:
        return self.m1 + self.m2

    def energy(self, gamma: GammaMatrix) -> float:
        return _cell_energy(self.m1, self.m2, gamma)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "m1": self.m1, "m2": self.m2}


def cluster_from_masses(m1: float, m2: float) -> Cluster:
    """Build a cluster of the kind implied by which masses are positive."""
    if m1 > 0.0 and m2 > 0.0:
        return Cluster(KIND_DOUBLE, m1, m2)
    if m1 > 0.0:
        return Cluster(KIND_SINGLE_1, m1, 0.0)
    if m2 > 0.0:
        return Cluster(KIND_SINGLE_2, 0.0, m2)
    raise ValueError("empty mass pair does not define a cluster")


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


def _sorted_clusters(clusters):
    rank = {KIND_DOUBLE: 0, KIND_SINGLE_1: 1, KIND_SINGLE_2: 2}
    return tuple(sorted(clusters,
                        key=lambda c: (rank[c.kind], -c.mass, -c.m1, -c.m2)))


def _build_configuration(clusters, total) -> Configuration:
    return Configuration(_sorted_clusters(clusters), (float(total[0]), float(total[1])))


def _swap_cluster(c: Cluster) -> Cluster:
    kind = {KIND_SINGLE_1: KIND_SINGLE_2, KIND_SINGLE_2: KIND_SINGLE_1,
            KIND_DOUBLE: KIND_DOUBLE}[c.kind]
    return Cluster(kind, c.m2, c.m1)


def _swap_configuration(conf: Configuration) -> Configuration:
    return _build_configuration([_swap_cluster(c) for c in conf.clusters],
                                (conf.total[1], conf.total[0]))


def _cell_energy(m1: float, m2: float, gamma: GammaMatrix) -> float:
    m1 = max(float(m1), 0.0)
    m2 = max(float(m2), 0.0)
    if m1 == 0.0 and m2 == 0.0:
        return 0.0
    if m2 == 0.0:
        return single_energy(m1, gamma.g11)
    if m1 == 0.0:
        return single_energy(m2, gamma.g22)
    return e0((m1, m2), gamma)


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
    split = (4.0 * math.pi * math.sqrt(math.pi)
             * (math.sqrt(cap1) + math.sqrt(cap2)) / (m1s * m2s))
    return Thresholds((cap1, cap2), (floor1, floor2), (m1s, m2s), split)


def coexistence_bounds(gamma: GammaMatrix, k_doubles: int = 1,
                       k_singles: int = 1, m1: float | None = None) -> tuple:
    """Masses forcing coexistence at zero cross-interaction.

    Returns (B1, B2) such that any minimizer with M1 >= B1 and M2 >= B2
    holds at least k_doubles double bubbles and k_singles species-2
    singles.  B2 grows with the species-1 total because every extra
    double the species-1 mass supports can hide species-2 mass, so B2 is
    evaluated at m1 (defaulting to B1, the smallest admissible M1); for
    larger M1 recompute with that value.
    """
    th = thresholds(gamma)
    cap1, cap2 = th.max_mass
    m1s = th.concavity[0]
    b1 = k_doubles * cap1
    m1_used = b1 if m1 is None else max(float(m1), b1)
    b2 = (1.0 + m1_used / m1s + k_singles) * cap2
    return (b1, b2)


def _coexistence_guaranteed(M1, M2, th, k_doubles, k_singles) -> bool:
    """Joint mass test forcing >= k_doubles doubles and >= k_singles
    species-2 singles when the cross-interaction vanishes."""
    cap1, cap2 = th.max_mass
    m1s = th.concavity[0]
    return (M1 >= k_doubles * cap1
            and M2 >= (1.0 + M1 / m1s + k_singles) * cap2)


# ---------------------------------------------------------------------------
# Equal-mass ansatz energies for ranking cluster-count cells.

# Cells that ebar solves exactly, best-ranked first.
_TOP_CELLS = 24
# Points per axis of the ansatz grid of double lobe pairs.
_ANSATZ_GRID = 48
# ebar refuses totals whose mass caps force more clusters than this.
_MAX_CLUSTERS = 64


def _packing_grid(mass, gamma_ii: float):
    """(cost, count) arrays: cheapest split of each mass into equal disks
    of one species, and the disk count that attains it (0 at mass 0).

    The cost of k equal disks is unimodal in k with its optimum at
    floor(mass/x*) or the count above, so k = 1 .. max(mass)/x* + 3 covers
    it.
    """
    mass = np.asarray(mass, dtype=float)
    cost = np.zeros(mass.shape)
    count = np.zeros(mass.shape, dtype=int)
    pos = mass > 0.0
    if not pos.any():
        return cost, count
    rp = mass[pos]
    xstar = (4.0 * math.pi * math.sqrt(math.pi) / gamma_ii) ** (2.0 / 3.0)
    k = np.arange(1, int(np.max(rp) / xstar) + 4)[:, None]
    x = rp / k
    costs = k * (gamma_ii * x * x / (4.0 * math.pi)
                 + 2.0 * np.sqrt(math.pi * x))
    best = np.argmin(costs, axis=0)
    cost[pos] = costs[best, np.arange(rp.size)]
    count[pos] = best + 1
    return cost, count


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
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    ratio = x_hi / y_hi
    if ratio not in unit_grids:
        u = np.linspace(1.0 / n, 1.0, n)
        unit_grids[ratio] = _perimeters(ratio * u[:, None], u[None, :])
    quad = (gamma.g11 * X * X + 2.0 * gamma.g12 * X * Y
            + gamma.g22 * Y * Y) / (4.0 * math.pi)
    # the leftover of species 1 varies along axis 0 only, of species 2
    # along axis 1 only: pack each once per grid line and broadcast
    r1 = np.maximum(M1 - kd * xs, 0.0)
    r2 = np.maximum(M2 - kd * ys, 0.0)
    p1, k1 = _packing_grid(r1, gamma.g11)
    p2, k2 = _packing_grid(r2, gamma.g22)
    val = kd * (math.sqrt(y_hi) * unit_grids[ratio] + quad) + p1[:, None] + p2
    i, j = np.unravel_index(np.argmin(val), val.shape)
    ks1 = int(k1[i]) if r1[i] > 1e-9 * M1 else 0
    ks2 = int(k2[j]) if r2[j] > 1e-9 * M2 else 0
    return (float(val[i, j]), ks1, ks2)


def _cell_feasible(counts, M) -> bool:
    kd, ks1, ks2 = counts
    if min(counts) < 0 or kd + ks1 + ks2 == 0:
        return False
    if M[0] > 0.0 and kd + ks1 == 0:
        return False
    if M[1] > 0.0 and kd + ks2 == 0:
        return False
    if M[0] == 0.0 and kd + ks1 > 0:
        return False
    if M[1] == 0.0 and kd + ks2 > 0:
        return False
    return True


def _candidate_cells(M, gamma, th):
    """The _TOP_CELLS cluster-count cells (kd, ks1, ks2) of lowest
    equal-mass ansatz value, best first: each seed cell and its +-1
    neighbours in the single counts, the packing seed at kd = 0 and then
    the ansatz seed of each double count."""
    M1, M2 = M
    unit_grids = {}
    v1, k1 = _packing_grid(M1, gamma.g11)
    v2, k2 = _packing_grid(M2, gamma.g22)
    seeds = [(float(v1 + v2), 0, int(k1), int(k2))]
    if M1 > 0.0 and M2 > 0.0:
        kd_cap = 2 + int(min(M1 / th.concavity[0], M2 / th.concavity[1])) + 1
        for kd in range(1, kd_cap + 1):
            val, s1, s2 = _ansatz_for_doubles(kd, M, gamma, th, unit_grids)
            seeds.append((val, kd, s1, s2))
    cells = {}
    for val, kd, s1, s2 in seeds:
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                counts = (kd, s1 + da, s2 + db)
                value = val + 1e-9 * (abs(da) + abs(db))
                if (_cell_feasible(counts, M)
                        and value < cells.get(counts, math.inf)):
                    cells[counts] = value
    return sorted(cells, key=lambda c: (cells[c], c))[:_TOP_CELLS]


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
_DOUBLE_SLOT = np.arange(_NSLOT) < 4
_FREE_SLOT = np.array([0, 0, 1, 1, 0, 1, 0, 1], dtype=bool)
# Newton iterations before a row that has not converged is left as it is.
_NEWTON_ITERS = 50


def _slot_weights(counts):
    """Clusters in each slot's group for cluster counts (kd, ks1, ks2)."""
    n = np.repeat(counts, (4, 2, 2))
    free, shared = np.minimum(n, 1), np.maximum(n - 1, 0)
    return np.where(_FREE_SLOT, free, shared).astype(float)


def _cell_starts(w, M):
    """One start row per cell of slot weights w, multipliers 0.  Per
    species the doubles take half the total, all of it when the cell has no
    singles of that species; each group shares its part equally by slot
    weight."""
    t = np.zeros((len(w), _NSLOT + 2))
    for s in (0, 1):
        mine = (w > 0.0) & (_SLOT_SPECIES == s)
        dbl, sgl = mine & _DOUBLE_SLOT, mine & ~_DOUBLE_SLOT
        d, g = (w * dbl).sum(axis=1), (w * sgl).sum(axis=1)
        f = np.where(d == 0.0, 0.0, np.where(g > 0.0, 0.5, 1.0))
        for slots, part, n in ((dbl, f, d), (sgl, 1.0 - f, g)):
            share = M[s] * part / np.maximum(n, 1.0)
            t[:, :_NSLOT] += np.where(slots, share[:, None], 0.0)
    return t


def _kkt(t, act, w, M, gamma):
    """(F, J, energy, geometry calls) of the KKT system of every row.

    Per active slot F is the cluster's energy derivative in that species
    minus the species multiplier; per species, the mass sum minus M_s.  J
    is exact: a double with both lobes active puts p's Hessian plus
    Gamma/(2 pi) on its two slots, from one `_perimeter_derivatives` call
    for all such doubles; a lone lobe or a single is a disk.  J has -1 in
    the multiplier columns and the group sizes in the mass rows.  Inactive
    slots, and the multiplier of a species with no active slot, are
    identity rows with F = 0.
    """
    R = len(t)
    m, lam = t[:, :_NSLOT], t[:, _NSLOT:]
    two_pi = 2.0 * math.pi
    grad = np.zeros((R, _NSLOT))
    hess = np.ones((R, _NSLOT))
    energy = np.zeros((R, _NSLOT))
    J = np.zeros((R, _NSLOT + 2, _NSLOT + 2))
    double = act[:, 0:4:2] & act[:, 1:4:2]
    calls = int(double.any())
    r, g = np.nonzero(double)
    if calls:
        s1, s2 = 2 * g, 2 * g + 1
        x, y = m[r, s1], m[r, s2]
        p, p1, p2, h11, h12, h22 = _perimeter_derivatives(x, y)
        grad[r, s1] = p1 + (gamma.g11 * x + gamma.g12 * y) / two_pi
        grad[r, s2] = p2 + (gamma.g12 * x + gamma.g22 * y) / two_pi
        hess[r, s1] = h11 + gamma.g11 / two_pi
        hess[r, s2] = h22 + gamma.g22 / two_pi
        J[r, s1, s2] = J[r, s2, s1] = h12 + gamma.g12 / two_pi
        energy[r, s1] = w[r, s1] * (
            p + (gamma.g11 * x * x + 2.0 * gamma.g12 * x * y
                 + gamma.g22 * y * y) / (2.0 * two_pi))
    disk = act.copy()
    disk[:, :4] &= ~np.repeat(double, 2, axis=1)
    r, k = np.nonzero(disk)
    x = m[r, k]
    gii = np.array([gamma.g11, gamma.g22])[_SLOT_SPECIES[k]]
    grad[r, k] = np.sqrt(math.pi / x) + gii * x / two_pi
    hess[r, k] = gii / two_pi - 0.5 * math.sqrt(math.pi) * x ** -1.5
    energy[r, k] = w[r, k] * (2.0 * np.sqrt(math.pi * x)
                              + gii * x * x / (2.0 * two_pi))

    F = np.zeros((R, _NSLOT + 2))
    F[:, :_NSLOT] = np.where(act, grad - lam[:, _SLOT_SPECIES], 0.0)
    slot = np.arange(_NSLOT)
    J[:, slot, slot] = np.where(act, hess, 1.0)
    J[:, slot, _NSLOT + _SLOT_SPECIES] = np.where(act, -1.0, 0.0)
    J[:, _NSLOT + _SLOT_SPECIES, slot] = np.where(act, w, 0.0)
    for s in (0, 1):
        on = act & (_SLOT_SPECIES == s)
        held = on.any(axis=1)
        F[:, _NSLOT + s] = np.where(held, (w * m * on).sum(axis=1) - M[s], 0.0)
        J[:, _NSLOT + s, _NSLOT + s] = ~held
    return F, J, energy.sum(axis=1), calls


def _trial(cand, act, w, M, gamma):
    """`_kkt` at candidate rows; a candidate with a non-finite entry or an
    active slot outside (0, M_s] gets an infinite residual norm."""
    R = len(cand)
    F = np.zeros((R, _NSLOT + 2))
    J = np.zeros((R, _NSLOT + 2, _NSLOT + 2))
    energy = np.full(R, np.inf)
    norm = np.full(R, np.inf)
    m = cand[:, :_NSLOT]
    valid = np.isfinite(cand).all(axis=1) & np.where(
        act, (m > 0.0) & (m <= M[_SLOT_SPECIES]), True).all(axis=1)
    i = np.flatnonzero(valid)
    calls = 0
    if i.size:
        F[i], J[i], energy[i], calls = _kkt(cand[i], act[i], w[i], M, gamma)
        norm[i] = np.linalg.norm(F[i], axis=1)
    return F, J, energy, norm, calls


def _newton_steps(J, F):
    """-J^-1 F per row; a singular row gets a nan step."""
    try:
        return -np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(F.shape, np.nan)
        for i in range(len(F)):
            try:
                out[i] = -np.linalg.solve(J[i], F[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _newton(t, w, M, gamma):
    """Newton on the KKT system of every row at once.

    A slot starts active above 4 _FLOOR_FRAC M_s and each multiplier at
    the mean derivative of its species' active slots.  Every step takes
    F and J at the full Newton step of each live row; rows whose residual
    norm did not fall try the damps 1/2 .. 1/32 together and take the
    largest that lowers it.  A row with no such damp drops the active slots
    that its full step put at or below 4 _FLOOR_FRAC M_s (a double becomes
    a single, a single vanishes) and goes on, or else stops.  A row stops
    once ||F|| <= 1e-13 max(1, M1 + M2).  Returns (t, energy, residual
    norm, which rows converged, stats).
    """
    M = np.asarray(M, dtype=float)
    floor = 4.0 * _FLOOR_FRAC * M[_SLOT_SPECIES]
    t = t.copy()
    act = (w > 0.0) & (t[:, :_NSLOT] > floor)
    t[:, :_NSLOT] = np.where(act, t[:, :_NSLOT], 0.0)
    F, J, energy, calls = _kkt(t, act, w, M, gamma)
    for s in (0, 1):
        on = act & (_SLOT_SPECIES == s)
        lam = (np.where(on, F[:, :_NSLOT], 0.0).sum(axis=1)
               / np.maximum(on.sum(axis=1), 1))
        t[:, _NSLOT + s] = lam
        F[:, :_NSLOT] -= np.where(on, lam[:, None], 0.0)
    fnorm = np.linalg.norm(F, axis=1)
    tol = 1e-13 * max(1.0, M[0] + M[1])
    live = np.ones(len(t), dtype=bool)
    damps = 0.5 ** np.arange(1, 6)
    iters = 0
    for _ in range(_NEWTON_ITERS):
        live &= fnorm > tol
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        iters += 1
        step = _newton_steps(J[rows], F[rows])
        full = t[rows] + step
        F1, J1, e1, n1, c = _trial(full, act[rows], w[rows], M, gamma)
        calls += c
        won = n1 < fnorm[rows]
        k = rows[won]
        t[k], F[k], J[k], energy[k], fnorm[k] = (
            full[won], F1[won], J1[won], e1[won], n1[won])
        back, full, step = rows[~won], full[~won], step[~won]
        if not back.size:
            continue
        cand = (t[back] + damps[:, None, None] * step).reshape(-1, _NSLOT + 2)
        reps = (len(damps), 1)
        F2, J2, e2, n2, c = _trial(cand, np.tile(act[back], reps),
                                   np.tile(w[back], reps), M, gamma)
        calls += c
        better = n2.reshape(len(damps), back.size) < fnorm[back]
        took = better.any(axis=0)
        first = np.argmax(better, axis=0)[took]
        pick = first * back.size + np.flatnonzero(took)
        k = back[took]
        t[k], F[k], J[k], energy[k], fnorm[k] = (
            cand[pick], F2[pick], J2[pick], e2[pick], n2[pick])
        stuck = back[~took]
        drop = act[stuck] & (full[~took, :_NSLOT] <= floor)
        live[stuck] = drop.any(axis=1)
        act[stuck] &= ~drop
        t[stuck, :_NSLOT] = np.where(drop, 0.0, t[stuck, :_NSLOT])
        k = stuck[live[stuck]]
        if k.size:
            F[k], J[k], energy[k], fnorm[k], c = _trial(t[k], act[k], w[k],
                                                        M, gamma)
            calls += c
    converged = fnorm <= tol
    stats = {"rows": len(t), "converged": int(converged.sum()),
             "iterations": iters, "geometry_calls": calls}
    return t, energy, fnorm, converged, stats


def _row_clusters(t, w):
    """The clusters of one solved row: n of them for a group of weight n,
    none for a group whose slots all left the active set."""
    clusters = []
    for pair in _GROUP_SLOTS:
        x, y = (float(t[s]) if s is not None else 0.0 for s in pair)
        if x > 0.0 or y > 0.0:
            n = int(w[pair[0] if pair[0] is not None else pair[1]])
            clusters += [cluster_from_masses(x, y)] * n
    return clusters


def _check_mass_pair(M):
    try:
        m1, m2 = (float(M[0]), float(M[1]))
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"expected a mass pair, got {M!r}") from exc
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise ValueError(f"masses must be finite, got {M!r}")
    if m1 < 0.0 or m2 < 0.0:
        raise ValueError(f"masses must be nonnegative, got {M!r}")
    if m1 == 0.0 and m2 == 0.0:
        raise ValueError("total mass must be positive")
    return (m1, m2)


def ebar(M, gamma: GammaMatrix):
    """Best found splitting of the total masses into droplet clusters.

    Returns (value, Configuration).  The search is deterministic: it ranks
    cluster-count cells by the grid minimum of an equal-mass ansatz, and
    solves the best-ranked cells by Newton's method on the first-order
    system (equal species derivatives, exact mass sums), every cell in one
    batch from one start: per species the doubles take half the total, or
    all of it when the cell has no singles of that species.  The answer is
    the row of lowest energy among those that converged (KKT residual norm
    within 1e-13 max(1, M1 + M2)) with a finite energy and species mass sums
    within the Configuration's 1e-12 relative tolerance; the value is the
    energy of its clusters.
    Logs one DEBUG line per call to the "triblock.partition" logger: rows,
    rows converged, Newton iterations, array geometry calls, and the KKT
    residual of the chosen cell.

    No droplet or lobe of a minimizer is heavier than the mass cap of its
    species (`thresholds`), so species i needs at least ceil(M_i / cap_i)
    clusters.  Raises ValueError when that lower bound exceeds 64 clusters,
    and RuntimeError when no row qualifies.
    """
    M1, M2 = _check_mass_pair(M)
    if (M2, gamma.g22) < (M1, gamma.g11):
        v, conf = ebar((M2, M1), gamma.swapped())
        return v, _swap_configuration(conf)
    th = thresholds(gamma)
    needed = (math.ceil(M1 / th.max_mass[0] - 1e-9)
              + math.ceil(M2 / th.max_mass[1] - 1e-9))
    if needed > _MAX_CLUSTERS:
        raise ValueError(
            f"the mass caps need at least {needed} clusters, over the "
            f"search bound of {_MAX_CLUSTERS}")
    cells = _candidate_cells((M1, M2), gamma, th)
    w = np.array([_slot_weights(counts) for counts in cells])
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
    _log.debug("ebar M=(%g, %g): %d rows, %d converged, %d Newton "
               "iterations, %d geometry calls, KKT residual %.3e of the "
               "chosen cell", M1, M2, stats["rows"], stats["converged"],
               stats["iterations"], stats["geometry_calls"], fnorm[k])
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
    """
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
        for r0 in range(0, S1 - a1, rows):
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
    power by repeated squaring.  Only the answer's entry of the last
    product is formed.  Raises ValueError on a max_parts or max_states
    that is not an integer of at least 1, and RuntimeError when the state
    space exceeds max_states or M/delta is not finite.
    """
    M1, M2 = _check_mass_pair(M)
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive, got {delta!r}")
    for name, v in (("max_parts", max_parts), ("max_states", max_states)):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if v < 1:
            raise ValueError(f"{name} must be at least 1, got {v!r}")
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
    result, power, mp = None, table, int(max_parts)
    while mp > 1:
        if mp & 1:
            result = power if result is None else _min_plus(result, power)
        mp >>= 1
        if mp == 1 and result is None:  # max_parts is a power of two
            return _corner_min_plus(power, power)
        power = _min_plus(power, power)
    if result is None:
        return float(power[n1, n2])
    return _corner_min_plus(result, power)


def round_config_to_grid(config: Configuration, delta: float):
    """Mass-preserving rounding of every cluster mass to the delta grid.

    Per species the masses are floored to quanta and the leftover quanta go
    to the largest fractional remainders (largest-remainder rule), so the
    totals stay exact multiples.  Returns the rounded cluster list.
    """
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
            out.append(cluster_from_masses(m1, m2))
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

def check_necessary_conditions(config: Configuration, gamma: GammaMatrix,
                               th: Thresholds | None = None,
                               balance_rtol: float = 1e-6,
                               slack: float = 1e-9) -> dict:
    """Structural first-order conditions every minimizer satisfies.

    Checks mass caps, the floor for repeated singles, the one-small-lobe
    rule for doubles, and equality of the per-species energy derivatives
    across all clusters holding that species.
    """
    if th is None:
        th = thresholds(gamma)
    caps_ok = all(c.m1 <= th.max_mass[0] * (1.0 + slack)
                  and c.m2 <= th.max_mass[1] * (1.0 + slack)
                  for c in config.clusters)
    singles = {1: [c.m1 for c in config.clusters if c.kind == KIND_SINGLE_1],
               2: [c.m2 for c in config.clusters if c.kind == KIND_SINGLE_2]}
    floor_ok = all(len(v) < 2 or min(v) >= th.single_floor[i - 1] * (1.0 - slack)
                   for i, v in singles.items())
    doubles = [c for c in config.clusters if c.kind == KIND_DOUBLE]
    small1 = sum(1 for c in doubles if c.m1 < th.concavity[0] * (1.0 - slack))
    small2 = sum(1 for c in doubles if c.m2 < th.concavity[1] * (1.0 - slack))
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
        balance_ok = balance_ok and spread <= balance_rtol
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
    finds and whether it is consistent with the guarantee.  With
    run_search, raises what `ebar` raises, such as its ValueError for
    totals past the cluster bound.
    """
    M1, M2 = _check_mass_pair(M)
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
        th_sw = thresholds(gamma.swapped())
        while True:
            k = k_guaranteed + 1
            if _coexistence_guaranteed(M1, M2, th, k, k):
                singles_species = 2
            elif _coexistence_guaranteed(M2, M1, th_sw, k, k):
                singles_species = 1
            else:
                break
            k_guaranteed = k
    report["coexistence"] = {
        "holds": k_guaranteed >= 1,
        "guaranteed_doubles": k_guaranteed,
        "guaranteed_singles": k_guaranteed,
        "singles_species": singles_species,
        "bounds_for_one_each": coexistence_bounds(gamma, 1, 1, m1=M1),
    }

    if one_double:
        report["guarantee"] = "one_double"
    elif all_singles:
        report["guarantee"] = "no_doubles"
    elif k_guaranteed >= 1:
        report["guarantee"] = "coexistence"
    else:
        report["guarantee"] = "none"

    if run_search:
        value, conf = ebar((M1, M2), gamma)
        counts = conf.counts()
        consistent = None
        if report["guarantee"] == "one_double":
            consistent = (counts[KIND_DOUBLE] == 1
                          and len(conf.clusters) == 1)
        elif report["guarantee"] == "no_doubles":
            sizes_ok = True
            for kind, species in ((KIND_SINGLE_1, 1), (KIND_SINGLE_2, 2)):
                ms = [c.m1 if species == 1 else c.m2
                      for c in conf.clusters if c.kind == kind]
                if len(ms) >= 2:
                    sizes_ok = sizes_ok and (max(ms) - min(ms)) <= 1e-6 * max(ms)
            consistent = counts[KIND_DOUBLE] == 0 and sizes_ok
        elif report["guarantee"] == "coexistence":
            kind = KIND_SINGLE_2 if singles_species == 2 else KIND_SINGLE_1
            consistent = (counts[KIND_DOUBLE] >= k_guaranteed
                          and counts[kind] >= k_guaranteed)
        report["search"] = {"energy": value, "counts": counts,
                            "configuration": conf,
                            "consistent": consistent}
    return report


def write_sweep_csv(path, rows, columns=None) -> None:
    """Write a list of flat dicts as CSV with deterministic formatting.

    Floats are rendered with %.17g so identical runs produce identical
    bytes; columns default to the sorted keys of the first row.  An empty
    row list is allowed only with explicit columns (header-only file).
    """
    rows = list(rows)
    if not rows and columns is None:
        raise ValueError("no rows to write")
    if columns is None:
        columns = sorted(rows[0].keys())

    def fmt(v):
        if isinstance(v, float):
            return "%.17g" % v
        return str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row[c]) for c in columns])
