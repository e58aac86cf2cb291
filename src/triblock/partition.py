"""Global search for the optimal splitting of two-species mass into droplets.

A total mass pair M = (M1, M2) is distributed over a finite list of
clusters: double bubbles holding both species and single disks holding one.
Each cluster pays its blow-up energy and the best configuration minimizes
the sum.  The search, `ebar`, is deterministic: it ranks cluster-count
cells by the grid minimum of an equal-mass ansatz, and solves the best
cells for their masses with constrained minimization from fixed structured
starts, polished to a balanced first-order point.  Closed-form thresholds
bound the structure of minimizers: their mass caps give the least cluster
count a search must reach, and `ebar` refuses totals whose count exceeds a
fixed bound.  A regime classifier reports which structural guarantees apply
at given parameters.

The oracle, `ebar_oracle`, is an independent exhaustive route that shares
no search code: masses on a delta-grid, the energy of every grid cluster
from one array geometry solve, and the optimum over at most max_parts
clusters as a min-plus power of that table by repeated squaring.  Each
min-plus product loops over the rows of one factor in Python and takes the
minimum over the other axis for all rows at once; the last product is
evaluated at the answer's entry only.
"""

import csv
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import optimize

from triblock.geometry import (
    GammaMatrix,
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

_MASS_RTOL = 1e-12
_FLOOR_FRAC = 1e-9
_DROP_FRAC = 1e-8


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


def thresholds(gamma: GammaMatrix, probe: float | None = None) -> Thresholds:
    """Compute the structure thresholds for an interaction matrix.

    probe sets the partner mass at which the concavity thresholds are
    located; None uses the heaviest partner a minimizer can hold (the
    other species' mass cap), which makes the thresholds valid uniformly.
    """
    cap1 = 8.0 * math.pi / gamma.g11 ** (2.0 / 3.0)
    cap2 = 8.0 * math.pi / gamma.g22 ** (2.0 / 3.0)
    floor1 = 4.0 * math.pi ** 3 / (gamma.g11 * cap1) ** 2
    floor2 = 4.0 * math.pi ** 3 / (gamma.g22 * cap2) ** 2
    m1s = concavity_threshold(gamma.g11, 1,
                              probe_other_mass=cap2 if probe is None else probe)
    m2s = concavity_threshold(gamma.g22, 2,
                              probe_other_mass=cap1 if probe is None else probe)
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
# Cells with more clusters than this solve one shared group per kind plus
# one free cluster of each kind.
_FULL_DIM_LIMIT = 14
# ebar refuses totals whose mass caps force more clusters than this.
_MAX_CLUSTERS = 64


def _packing_best(mass: float, gamma_ii: float) -> tuple:
    """(value, count): cheapest split of one species into equal disks.

    The cost of k equal disks is unimodal in k, so walk downhill from the
    specific-energy optimum.
    """
    if mass <= 0.0:
        return (0.0, 0)
    xstar = (4.0 * math.pi * math.sqrt(math.pi) / gamma_ii) ** (2.0 / 3.0)
    k = max(1, round(mass / xstar))
    val = k * single_energy(mass / k, gamma_ii)
    while k > 1:
        v = (k - 1) * single_energy(mass / (k - 1), gamma_ii)
        if v >= val:
            break
        k, val = k - 1, v
    while True:
        v = (k + 1) * single_energy(mass / (k + 1), gamma_ii)
        if v >= val:
            break
        k, val = k + 1, v
    return (val, k)


def _packing_grid(mass, gamma_ii: float):
    """Vectorized equal-disk packing cost over an array of masses."""
    mass = np.asarray(mass, dtype=float)
    out = np.zeros(mass.shape)
    pos = mass > 0.0
    if not pos.any():
        return out
    rp = mass[pos]
    xstar = (4.0 * math.pi * math.sqrt(math.pi) / gamma_ii) ** (2.0 / 3.0)
    kmax = int(np.max(rp) / xstar) + 3
    best = np.full(rp.shape, np.inf)
    for k in range(1, kmax + 1):
        x = rp / k
        np.minimum(best, k * (gamma_ii * x * x / (4.0 * math.pi)
                              + 2.0 * np.sqrt(math.pi * x)), out=best)
    out[pos] = best
    return out


def _ansatz_for_doubles(kd, M, gamma, th, unit_grids):
    """Best equal-doubles ansatz for a given double count.

    All kd doubles share one lobe pair (x, y); whatever mass is left goes
    into optimally packed equal singles per species.  The minimum over an
    _ANSATZ_GRID x _ANSATZ_GRID grid of (x, y) ranks the cell and seeds its
    exact solve.  The perimeter is homogeneous of degree 1/2, so its grid is
    sqrt(y_hi) times a unit grid that depends only on x_hi/y_hi;
    `unit_grids` keeps those by ratio.  Returns (value, x, y, ks1, ks2).
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
    r1 = np.maximum(M1 - kd * X, 0.0)
    r2 = np.maximum(M2 - kd * Y, 0.0)
    val = (kd * (math.sqrt(y_hi) * unit_grids[ratio] + quad)
           + _packing_grid(r1, gamma.g11) + _packing_grid(r2, gamma.g22))
    i, j = np.unravel_index(np.argmin(val), val.shape)
    x, y = float(xs[i]), float(ys[j])
    rest1 = max(M1 - kd * x, 0.0)
    rest2 = max(M2 - kd * y, 0.0)
    ks1 = _packing_best(rest1, gamma.g11)[1] if rest1 > 1e-9 * M1 else 0
    ks2 = _packing_best(rest2, gamma.g22)[1] if rest2 > 1e-9 * M2 else 0
    return (float(val[i, j]), x, y, ks1, ks2)


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
    """The _TOP_CELLS cluster-count cells of lowest equal-mass ansatz value.

    Returns a list of (counts, hint) where hint is the ansatz lobe pair for
    seeding the exact solve, or None.
    """
    M1, M2 = M
    cells = {}
    unit_grids = {}

    def offer(counts, value, hint=None):
        counts = tuple(int(c) for c in counts)
        if not _cell_feasible(counts, M):
            return
        old = cells.get(counts)
        if old is None or value < old[0]:
            cells[counts] = (value, hint)

    v1, ks1 = _packing_best(M1, gamma.g11)
    v2, ks2 = _packing_best(M2, gamma.g22)
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            bump = 1e-9 * (abs(da) + abs(db))
            offer((0, ks1 + da if M1 > 0 else 0, ks2 + db if M2 > 0 else 0),
                  v1 + v2 + bump)

    if M1 > 0.0 and M2 > 0.0:
        kd_cap = 2 + int(min(M1 / th.concavity[0], M2 / th.concavity[1])) + 1
        for kd in range(1, kd_cap + 1):
            val, x, y, s1, s2 = _ansatz_for_doubles(kd, M, gamma, th,
                                                    unit_grids)
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    bump = 1e-9 * (abs(da) + abs(db))
                    offer((kd, s1 + da, s2 + db), val + bump, (x, y))

    ranked = sorted(cells.items(), key=lambda kv: (kv[1][0], kv[0]))
    return [(counts, hint) for counts, (_, hint) in ranked[:_TOP_CELLS]]


# ---------------------------------------------------------------------------
# Exact inner solve for one cluster-count cell.

def _groups_for_counts(counts):
    """Cluster groups (count, kind).  Small cells give every cluster its own
    group; large cells use one shared group plus one free cluster per kind,
    matching the structure results that allow at most one exceptional
    cluster of each sort."""
    kd, ks1, ks2 = counts
    if kd + ks1 + ks2 <= _FULL_DIM_LIMIT:
        return ([(1, KIND_DOUBLE)] * kd + [(1, KIND_SINGLE_1)] * ks1
                + [(1, KIND_SINGLE_2)] * ks2)
    groups = []
    for n, kind in ((kd, KIND_DOUBLE), (ks1, KIND_SINGLE_1),
                    (ks2, KIND_SINGLE_2)):
        if n >= 2:
            groups.append((n - 1, kind))
        if n >= 1:
            groups.append((1, kind))
    return groups


def _group_var_indices(groups):
    """Per group, the variable index of each species slot (None if absent)."""
    idx = []
    j = 0
    for _, kind in groups:
        if kind == KIND_DOUBLE:
            idx.append((j, j + 1))
            j += 2
        elif kind == KIND_SINGLE_1:
            idx.append((j, None))
            j += 1
        else:
            idx.append((None, j))
            j += 1
    return idx, j


def _group_masses(z, groups, idx):
    out = []
    for (n, kind), (ix, iy) in zip(groups, idx):
        out.append((n, kind, z[ix] if ix is not None else 0.0,
                    z[iy] if iy is not None else 0.0))
    return out


def _cell_seeds(groups, idx, nvar, M, hint):
    """Starting vectors: equal splits within each kind, the doubles taking
    half, 95% or 5% of each species (all of it when there are no singles),
    plus the ansatz lobe pair for every double when a hint is given."""
    M1, M2 = M
    mult1 = sum(n for (n, kind), (ix, _) in zip(groups, idx) if ix is not None)
    mult2 = sum(n for (n, kind), (_, iy) in zip(groups, idx) if iy is not None)
    seeds = []

    def assemble(frac_doubles):
        """Species mass splits: doubles take the given fraction, equal
        within each kind."""
        z = np.zeros(nvar)
        d_mult1 = sum(n for (n, kind), (ix, _) in zip(groups, idx)
                      if kind == KIND_DOUBLE and ix is not None)
        d_mult2 = sum(n for (n, kind), (_, iy) in zip(groups, idx)
                      if kind == KIND_DOUBLE and iy is not None)
        s_mult1 = mult1 - d_mult1
        s_mult2 = mult2 - d_mult2
        f1 = frac_doubles if s_mult1 > 0 else 1.0
        f2 = frac_doubles if s_mult2 > 0 else 1.0
        if d_mult1 == 0:
            f1 = 0.0
        if d_mult2 == 0:
            f2 = 0.0
        for (n, kind), (ix, iy) in zip(groups, idx):
            if ix is not None:
                pool = M1 * (f1 if kind == KIND_DOUBLE else 1.0 - f1)
                z[ix] = pool / (d_mult1 if kind == KIND_DOUBLE else s_mult1)
            if iy is not None:
                pool = M2 * (f2 if kind == KIND_DOUBLE else 1.0 - f2)
                z[iy] = pool / (d_mult2 if kind == KIND_DOUBLE else s_mult2)
        return z

    has_doubles = any(kind == KIND_DOUBLE for _, kind in groups)
    has_singles = any(kind != KIND_DOUBLE for _, kind in groups)
    if has_doubles and has_singles:
        for frac in (0.5, 0.95, 0.05):
            seeds.append(assemble(frac))
    else:
        seeds.append(assemble(1.0 if has_doubles else 0.0))

    if hint is not None and has_doubles:
        z = assemble(0.5)
        used1 = used2 = 0.0
        for (n, kind), (ix, iy) in zip(groups, idx):
            if kind == KIND_DOUBLE:
                z[ix] = hint[0]
                z[iy] = hint[1]
                used1 += n * hint[0]
                used2 += n * hint[1]
        rest1 = max(M1 - used1, 0.0)
        rest2 = max(M2 - used2, 0.0)
        s_mult1 = sum(n for (n, kind), _ in zip(groups, idx)
                      if kind == KIND_SINGLE_1)
        s_mult2 = sum(n for (n, kind), _ in zip(groups, idx)
                      if kind == KIND_SINGLE_2)
        if (s_mult1 > 0 or rest1 == 0.0) and (s_mult2 > 0 or rest2 == 0.0):
            for (n, kind), (ix, iy) in zip(groups, idx):
                if kind == KIND_SINGLE_1:
                    z[ix] = rest1 / s_mult1
                elif kind == KIND_SINGLE_2:
                    z[iy] = rest2 / s_mult2
            seeds.append(z)

    return seeds


def _solve_cell(counts, M, gamma, hint=None):
    """Best masses for fixed cluster counts.  Returns (value, clusters) or
    None when the cell is infeasible or every start failed."""
    M1, M2 = M
    groups = _groups_for_counts(counts)
    if not groups:
        return None
    idx, nvar = _group_var_indices(groups)
    floor1 = _FLOOR_FRAC * M1
    floor2 = _FLOOR_FRAC * M2
    bounds = []
    c1 = np.zeros(nvar)
    c2 = np.zeros(nvar)
    for (n, kind), (ix, iy) in zip(groups, idx):
        if ix is not None:
            bounds.append((floor1, M1))
            c1[ix] = n
        if iy is not None:
            bounds.append((floor2, M2))
            c2[iy] = n
    cons = []
    if c1.any():
        cons.append({"type": "eq", "fun": lambda z: c1 @ z - M1,
                     "jac": lambda z: c1})
    if c2.any():
        cons.append({"type": "eq", "fun": lambda z: c2 @ z - M2,
                     "jac": lambda z: c2})

    def fun(z):
        tot = 0.0
        for n, kind, x, y in _group_masses(z, groups, idx):
            tot += n * _cell_energy(x, y, gamma)
        return tot

    def jac(z):
        g = np.zeros(nvar)
        for (n, kind), (ix, iy) in zip(groups, idx):
            gx, gy = _cell_gradient(z[ix] if ix is not None else 0.0,
                                    z[iy] if iy is not None else 0.0, gamma)
            if ix is not None:
                g[ix] = n * gx
            if iy is not None:
                g[iy] = n * gy
        return g

    scale = M1 + M2
    best = None
    seeds = _cell_seeds(groups, idx, nvar, M, hint)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    for z0 in seeds:
        z0 = np.clip(z0, lo, hi)
        # A start fails through its result (mass sums off, a non-finite
        # value), never by raising; an exception is a defect and propagates.
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="Values in x were outside bounds")
            res = optimize.minimize(fun, z0, jac=jac, bounds=bounds,
                                    constraints=cons, method="SLSQP",
                                    options={"maxiter": 250, "ftol": 1e-12})
        z = np.clip(res.x, lo, hi)
        if abs(c1 @ z - M1) > 1e-7 * max(scale, 1.0):
            continue
        if abs(c2 @ z - M2) > 1e-7 * max(scale, 1.0):
            continue
        v = fun(z)
        if not math.isfinite(v):
            continue
        if best is None or v < best[0]:
            best = (v, z)
    if best is None:
        return None
    z = _kkt_polish(best[1], groups, idx, M, gamma)
    clusters = []
    for n, kind, x, y in _group_masses(z, groups, idx):
        for _ in range(n):
            clusters.append([x, y])
    return (fun(z), clusters)


def _kkt_polish(z, groups, idx, M, gamma, iters=10):
    """Newton-polish the first-order system: species derivatives equal
    within each species across interior slots, mass sums exact."""
    z = np.array(z, dtype=float)
    scale = max(M[0] + M[1], 1e-300)
    slots = []
    for (n, kind), (ix, iy) in zip(groups, idx):
        for iv, species in ((ix, 0), (iy, 1)):
            if iv is None:
                continue
            # the floor is relative to the slot's own species total
            if z[iv] > 4.0 * _FLOOR_FRAC * M[species]:
                slots.append((iv, species, n))
            else:
                z[iv] = 0.0
    species_present = sorted({s for _, s, _ in slots})
    if not slots:
        return z
    lam_index = {s: len(slots) + k for k, s in enumerate(species_present)}

    def grad_vec(zz):
        g = np.full(len(zz), math.nan)
        for (n, kind), (ix, iy) in zip(groups, idx):
            gx, gy = _cell_gradient(zz[ix] if ix is not None else 0.0,
                                    zz[iy] if iy is not None else 0.0, gamma)
            if ix is not None:
                g[ix] = gx
            if iy is not None:
                g[iy] = gy
        return g

    def residual(t):
        zz = z.copy()
        for k, (iv, _, _) in enumerate(slots):
            zz[iv] = t[k]
        g = grad_vec(zz)
        out = np.zeros(len(slots) + len(species_present))
        for k, (iv, s, _) in enumerate(slots):
            out[k] = g[iv] - t[lam_index[s]]
        for s in species_present:
            acc = 0.0
            for k, (iv, sp, n) in enumerate(slots):
                if sp == s:
                    acc += n * t[k]
            out[lam_index[s]] = acc - M[s]
        return out

    g0 = grad_vec(z)
    t = np.zeros(len(slots) + len(species_present))
    for k, (iv, _, _) in enumerate(slots):
        t[k] = z[iv]
    for s in species_present:
        vals = [g0[iv] for iv, sp, _ in slots if sp == s]
        t[lam_index[s]] = float(np.mean(vals))

    f = residual(t)
    fnorm = np.linalg.norm(f)
    for _ in range(iters):
        if fnorm <= 1e-13 * max(1.0, scale):
            break
        n_t = len(t)
        J = np.zeros((n_t, n_t))
        for k in range(len(slots)):
            h = max(1e-7 * abs(t[k]), 1e-12)
            tp = t.copy()
            tp[k] += h
            tm = t.copy()
            tm[k] = max(tm[k] - h, 1e-300)
            J[:, k] = (residual(tp) - residual(tm)) / (tp[k] - tm[k])
        for s in species_present:
            col = lam_index[s]
            for k, (iv, sp, _) in enumerate(slots):
                if sp == s:
                    J[k, col] = -1.0
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            break
        damp = 1.0
        improved = False
        for _ in range(6):
            tn = t + damp * step
            if np.any(tn[:len(slots)] <= 0.0):
                damp *= 0.5
                continue
            fn = residual(tn)
            if np.linalg.norm(fn) < fnorm:
                t, f, fnorm = tn, fn, np.linalg.norm(fn)
                improved = True
                break
            damp *= 0.5
        if not improved:
            break
    for k, (iv, _, _) in enumerate(slots):
        z[iv] = t[k]
    return z


def _finalize(raw_clusters, M, gamma):
    """Drop dust, reclassify dead lobes, repair sums, and build the
    Configuration.  Returns (value, Configuration) or None."""
    M1, M2 = M
    drop1 = _DROP_FRAC * max(M1, 1e-300)
    drop2 = _DROP_FRAC * max(M2, 1e-300)
    masses = []
    for x, y in raw_clusters:
        x = x if x > drop1 else 0.0
        y = y if y > drop2 else 0.0
        if x > 0.0 or y > 0.0:
            masses.append([x, y])
    if not masses:
        return None
    for species, total in ((0, M1), (1, M2)):
        s = sum(m[species] for m in masses)
        deficit = total - s
        if abs(deficit) > 1e-6 * max(total, 1.0):
            return None
        holders = [m for m in masses if m[species] > 0.0]
        if holders:
            target = max(holders, key=lambda m: m[species])
            target[species] += deficit
            if target[species] <= 0.0:  # the repair would empty a lobe
                return None
        elif abs(deficit) > 0.0:
            return None
    clusters = [cluster_from_masses(m[0], m[1]) for m in masses]
    conf = _build_configuration(clusters, (M1, M2))
    return (conf.energy(gamma), conf)


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
    cluster-count cells by the grid minimum of an equal-mass ansatz, solves
    the best-ranked cells with constrained minimization from fixed
    structured starts, polishes each cell's best point to a balanced
    first-order point, and breaks ties toward fewer clusters and then
    lexicographically larger leading masses.

    No droplet or lobe of a minimizer is heavier than the mass cap of its
    species (`thresholds`), so species i needs at least ceil(M_i / cap_i)
    clusters.  Raises ValueError when that lower bound exceeds 64 clusters,
    and RuntimeError if no cell yields a feasible configuration.
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
    results = []
    for counts, hint in _candidate_cells((M1, M2), gamma, th):
        out = _solve_cell(counts, (M1, M2), gamma, hint)
        if out is None:
            continue
        fin = _finalize(out[1], (M1, M2), gamma)
        if fin is None:
            continue
        results.append(fin)
    if not results:
        raise RuntimeError(f"no feasible configuration found for M={M!r}")
    results.sort(key=lambda vc: vc[0])
    v0 = results[0][0]
    near = [vc for vc in results if vc[0] <= v0 + 1e-10 * max(1.0, abs(v0))]

    def tie_key(vc):
        conf = vc[1]
        masses = tuple((c.kind, -c.mass, -c.m1) for c in conf.clusters)
        return (len(conf.clusters), masses)

    best = min(near, key=tie_key)
    return best


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
