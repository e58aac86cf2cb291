"""Diffuse-interface relaxation and sharp grid energies on the unit torus.

A Field holds the two minority-species densities; relax runs a semi-implicit
Fourier-spectral L2 gradient flow of the ternary functional (gradient +
double-well + nonlocal Green coupling) with per-species mean projection.
The Green force stays in Fourier space and the gradient and Green energies
are Parseval sums, so only the well term is evaluated in real space.
SharpConfig holds thresholded indicator sets, whose rescaled energy combines
a Cauchy-Crofton grid perimeter with the periodic Green interaction, and
extract_components turns them into partition-module configurations.
"""

import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import ndimage

from triblock.geometry import GammaMatrix, solve_geometry
from triblock.partition import Configuration, cluster_from_masses

GUARD_BAND = (-0.1, 1.1)

# Energy per unit interface length carried by the standard double well:
# each interface flips two of the three species, and the optimal profile of
# (1/2)[eps |u'|^2 + W(u)/eps] with W(s) = s^2 (1-s)^2 costs
# int_0^1 s(1-s) ds = 1/6 per species.
INTERFACE_COST = 1.0 / 3.0


def _well(u):
    return u * u * (1.0 - u) ** 2


def _well_prime(u):
    return 2.0 * u * (1.0 - u) * (1.0 - 2.0 * u)


def _well_printed(u):
    return u * u * (1.0 - u * u)


def _well_printed_prime(u):
    return 2.0 * u - 4.0 * u ** 3


@dataclass(frozen=True)
class Field:
    """Two periodic density grids with an interface width."""

    u1: np.ndarray
    u2: np.ndarray
    epsilon: float

    def __post_init__(self):
        u1 = np.asarray(self.u1, dtype=float)
        u2 = np.asarray(self.u2, dtype=float)
        if u1.ndim != 2 or u1.shape[0] != u1.shape[1] or u1.shape != u2.shape:
            raise ValueError(
                f"fields must be matching square grids, got {u1.shape} and {u2.shape}")
        if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
            raise ValueError("field values must be finite")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        lo, hi = GUARD_BAND
        object.__setattr__(self, "u1", np.clip(u1, lo, hi))
        object.__setattr__(self, "u2", np.clip(u2, lo, hi))

    @property
    def N(self) -> int:
        return self.u1.shape[0]

    def means(self) -> tuple:
        return (float(self.u1.mean()), float(self.u2.mean()))

    def max_overlap(self) -> float:
        """Largest pointwise excess of u1 + u2 over 1."""
        return float(np.max(self.u1 + self.u2 - 1.0))


def uniform_field(N: int, epsilon: float, means) -> Field:
    m1, m2 = (float(means[0]), float(means[1]))
    return Field(np.full((N, N), m1), np.full((N, N), m2), epsilon)


def noisy_uniform_field(N: int, epsilon: float, means, amplitude: float = 1e-2,
                        seed: int = 0) -> Field:
    """Uniform state plus exactly-zero-mean seeded noise."""
    rng = np.random.default_rng(seed)
    grids = []
    for m in means:
        noise = rng.uniform(-amplitude, amplitude, size=(N, N))
        noise -= noise.mean()
        grids.append(float(m) + noise)
    return Field(grids[0], grids[1], epsilon)


def _tanh_disk(X, Y, center, radius, epsilon):
    dx = np.mod(X - center[0] + 0.5, 1.0) - 0.5
    dy = np.mod(Y - center[1] + 0.5, 1.0) - 0.5
    r = np.hypot(dx, dy)
    return 0.5 * (1.0 + np.tanh((radius - r) / (2.0 * epsilon)))


def _double_lobe_distances(X, Y, center, masses, eta):
    """Approximate signed distances (droplet units) to the two lobes.

    The standing double bubble for the cluster masses is scaled by eta and
    centered on the junction chord; the smaller lobe sits on the negative-x
    side.  Distances are positive inside and are built from the three
    circular arcs by min/max composition, so they are exact away from the
    junction points.
    """
    geom = solve_geometry(masses)
    x = (np.mod(X - center[0] + 0.5, 1.0) - 0.5) / eta
    y = (np.mod(Y - center[1] + 0.5, 1.0) - 0.5) / eta
    sd1 = geom.r1 - np.hypot(x - geom.r1 * math.cos(geom.theta1), y)
    sd2 = geom.r2 - np.hypot(x + geom.r2 * math.cos(geom.theta2), y)
    if math.isinf(geom.r0):
        sd0 = -x
    else:
        sd0 = geom.r0 - np.hypot(x + geom.r0 * math.cos(geom.theta0), y)
    # smaller lobe = disk1 with the wall arc carved in (the wall disk's
    # bulge cap always lies inside disk1 since r0 > r1); bigger lobe =
    # disk2 outside the wall disk.
    small = np.minimum(sd1, np.maximum(sd0, -x))
    big = np.minimum(sd2, -sd0)
    if geom.swapped:
        return big, small
    return small, big


def droplet_field(N: int, epsilon: float, eta: float, masses, centers) -> Field:
    """Seeded droplets: tanh profiles around exact droplet shapes.

    `masses` are droplet-scale pairs (areas eta^2 m); a single-species
    cluster seeds a disk, a two-species cluster seeds the standing
    double-bubble lobes sharing their middle wall.  Species means are
    rescaled to eta^2 sum(m_i) exactly.
    """
    if len(masses) != len(centers) or len(masses) == 0:
        raise ValueError("need one center per cluster")
    xs = np.arange(N) / N
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u1 = np.zeros((N, N))
    u2 = np.zeros((N, N))
    for (m1, m2), (cx, cy) in zip(masses, centers):
        if m1 < 0.0 or m2 < 0.0 or m1 + m2 <= 0.0:
            raise ValueError(f"bad mass pair ({m1!r}, {m2!r})")
        if m1 > 0.0 and m2 > 0.0:
            sd_1, sd_2 = _double_lobe_distances(X, Y, (cx, cy), (m1, m2), eta)
            u1 += 0.5 * (1.0 + np.tanh(eta * sd_1 / (2.0 * epsilon)))
            u2 += 0.5 * (1.0 + np.tanh(eta * sd_2 / (2.0 * epsilon)))
        elif m1 > 0.0:
            u1 += _tanh_disk(X, Y, (cx, cy), eta * math.sqrt(m1 / math.pi),
                             epsilon)
        else:
            u2 += _tanh_disk(X, Y, (cx, cy), eta * math.sqrt(m2 / math.pi),
                             epsilon)
    total = u1 + u2
    over = total > 1.0
    if np.any(over):
        u1[over] /= total[over]
        u2[over] /= total[over]
    targets = (eta ** 2 * sum(m[0] for m in masses),
               eta ** 2 * sum(m[1] for m in masses))
    for u, target in ((u1, targets[0]), (u2, targets[1])):
        mean = u.mean()
        if mean > 0.0 and target > 0.0:
            u *= target / mean
    return Field(u1, u2, epsilon)


def scaled_gamma(gamma: GammaMatrix, eta: float,
                 match_sharp: bool = True) -> GammaMatrix:
    """Interaction matrix for the diffuse flow at droplet scale eta.

    The droplet scaling is 1/(eta^3 |log eta|); with match_sharp the result
    is further multiplied by INTERFACE_COST so that perimeter and nonlocal
    forces balance in the same ratio as in the sharp rescaled energy.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must be in (0, 1), got {eta!r}")
    factor = 1.0 / (eta ** 3 * abs(math.log(eta)))
    if match_sharp:
        factor *= INTERFACE_COST
    return GammaMatrix(gamma.g11 * factor, gamma.g22 * factor,
                       gamma.g12 * factor)


def _spectral_grid(n: int):
    """|k|^2, (-Delta)^-1 (0 at k = 0) and Parseval weights on the rfft2 half-plane.

    The per-column weights turn a half-plane sum of uhat conj(vhat) into the
    grid mean of u v: column 0 and, for even n, the Nyquist column count once.
    """
    freq = np.fft.rfftfreq(n, d=1.0 / n)
    k2 = (2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n))[:, None] ** 2 \
        + (2.0 * math.pi * freq)[None, :] ** 2
    inv_lap = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0.0)
    weights = np.where((freq == 0) | (2 * freq == n), 1.0, 2.0) / n ** 4
    return k2, inv_lap, weights


def _spectral_energies(u1hat, u2hat, gamma: GammaMatrix, grid):
    """Parseval sums: mean |grad u_i|^2 summed over the three species, and
    sum_ij Gamma_ij <u_i, (-Delta)^-1 u_j>.  Off k = 0, u0hat = -u1hat - u2hat.
    """
    k2, inv_lap, weights = grid
    p11 = u1hat.real ** 2 + u1hat.imag ** 2
    p22 = u2hat.real ** 2 + u2hat.imag ** 2
    p12 = u1hat.real * u2hat.real + u1hat.imag * u2hat.imag
    return (2.0 * float(np.sum(k2 * (p11 + p12 + p22), axis=0) @ weights),
            float(np.sum(inv_lap * (gamma.g11 * p11 + 2.0 * gamma.g12 * p12
                                    + gamma.g22 * p22), axis=0) @ weights))


def diffuse_energy(f: Field, gamma_scaled: GammaMatrix,
                   printed_well: bool = False, parts: bool = False):
    """Gradient + well + nonlocal energy of the field.

    The well is the standard double well by default; printed_well switches
    to the non-coercive variant u^2 (1 - u^2).
    """
    w = _well_printed if printed_well else _well
    u1, u2, eps = f.u1, f.u2, f.epsilon
    grad, nonlocal_term = _spectral_energies(np.fft.rfft2(u1), np.fft.rfft2(u2),
                                             gamma_scaled, _spectral_grid(f.N))
    grad *= 0.5 * eps
    nonlocal_term *= 0.5
    well = 0.5 / eps * float(np.mean(w(1.0 - u1 - u2) + w(u1) + w(u2)))
    total = grad + well + nonlocal_term
    if parts:
        return {"total": total, "gradient": grad, "well": well,
                "nonlocal": nonlocal_term}
    return total


def relax(init: Field, gamma_scaled: GammaMatrix, dt: float | None = None,
          steps: int = 1000, printed_well: bool = False, trace_every: int = 1,
          blow_limit: float = 5.0):
    """Semi-implicit Fourier-spectral descent of the diffuse energy.

    The coupled Laplacian pair is diagonalized in the sum/difference basis
    (eigenvalues 3 and 1) and treated implicitly together with a linear
    stabilization c_s = 2/epsilon; the well derivative and the nonlocal
    force, formed in Fourier space as (Gamma uhat)/|k|^2, are explicit: four
    rfft2 and two irfft2 per step.  Species means are restored exactly.
    Returns (Field, trace) where trace rows are (step, total, gradient,
    well, nonlocal).  Raises RuntimeError when the field norm blows up.
    """
    N = init.N
    eps = init.epsilon
    if dt is None:
        dt = eps * (1.0 / N)
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps!r}")
    wp = _well_printed_prime if printed_well else _well_prime
    c_s = 2.0 / eps
    k2, inv_lap, _ = _spectral_grid(N)
    den_s = 1.0 + dt * (3.0 * eps * k2 + c_s)
    den_d = 1.0 + dt * (eps * k2 + c_s)
    u1 = init.u1.copy()
    u2 = init.u2.copy()
    mean1, mean2 = u1.mean(), u2.mean()
    g11, g12, g22 = gamma_scaled.g11, gamma_scaled.g12, gamma_scaled.g22
    lo, hi = GUARD_BAND

    trace = []

    def record(step):
        e = diffuse_energy(Field(u1, u2, eps), gamma_scaled,
                           printed_well=printed_well, parts=True)
        trace.append((step, e["total"], e["gradient"], e["well"],
                      e["nonlocal"]))

    record(0)
    for step in range(1, steps + 1):
        u1hat = np.fft.rfft2(u1)
        u2hat = np.fft.rfft2(u2)
        wp0 = wp(1.0 - u1 - u2)
        f1_hat = (np.fft.rfft2(wp(u1) - wp0) / (2.0 * eps)
                  + (g11 * u1hat + g12 * u2hat) * inv_lap)
        f2_hat = (np.fft.rfft2(wp(u2) - wp0) / (2.0 * eps)
                  + (g12 * u1hat + g22 * u2hat) * inv_lap)
        s_hat = ((1.0 + dt * c_s) * (u1hat + u2hat) - dt * (f1_hat + f2_hat)) / den_s
        d_hat = ((1.0 + dt * c_s) * (u1hat - u2hat) - dt * (f1_hat - f2_hat)) / den_d
        u1 = np.fft.irfft2(0.5 * (s_hat + d_hat), s=(N, N))
        u2 = np.fft.irfft2(0.5 * (s_hat - d_hat), s=(N, N))
        worst = max(float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))
        if not math.isfinite(worst) or worst > blow_limit:
            raise RuntimeError(
                f"field blow-up at step {step}: max |u| = {worst:.3e} "
                f"(dt = {dt:g}, epsilon = {eps:g})")
        np.clip(u1, lo, hi, out=u1)
        np.clip(u2, lo, hi, out=u2)
        u1 += mean1 - u1.mean()
        u2 += mean2 - u2.mean()
        if step % trace_every == 0 or step == steps:
            record(step)
    return Field(u1, u2, eps), trace


# ---------------------------------------------------------------------------
# Sharp-interface grid energies.

@dataclass(frozen=True)
class SharpConfig:
    """Disjoint per-species indicator grids at droplet scale eta."""

    ind1: np.ndarray
    ind2: np.ndarray
    eta: float
    overlap_fraction: float = 0.0

    def __post_init__(self):
        ind1 = np.asarray(self.ind1, dtype=bool)
        ind2 = np.asarray(self.ind2, dtype=bool)
        if ind1.ndim != 2 or ind1.shape[0] != ind1.shape[1] or ind1.shape != ind2.shape:
            raise ValueError(
                f"indicators must be matching square grids, got {ind1.shape} "
                f"and {ind2.shape}")
        if np.any(ind1 & ind2):
            raise ValueError("species supports overlap")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive, got {self.eta!r}")
        object.__setattr__(self, "ind1", ind1)
        object.__setattr__(self, "ind2", ind2)

    @property
    def N(self) -> int:
        return self.ind1.shape[0]

    def masses(self) -> tuple:
        scale = 1.0 / (self.N ** 2 * self.eta ** 2)
        return (float(self.ind1.sum()) * scale, float(self.ind2.sum()) * scale)


def grid_perimeter(ind: np.ndarray) -> float:
    """Cauchy-Crofton perimeter estimate from 4-direction edge crossings.

    Crossing counts along the two axes (line spacing h) and the two
    diagonals (spacing h/sqrt(2)) discretize the Crofton integral with
    weight pi/8; exact for disks up to O(h), about 5% low for squares.
    """
    a = np.asarray(ind, dtype=bool)
    h = 1.0 / a.shape[0]
    nx = int(np.count_nonzero(a != np.roll(a, 1, axis=0)))
    ny = int(np.count_nonzero(a != np.roll(a, 1, axis=1)))
    nd1 = int(np.count_nonzero(a != np.roll(a, (1, 1), axis=(0, 1))))
    nd2 = int(np.count_nonzero(a != np.roll(a, (1, -1), axis=(0, 1))))
    return math.pi / 8.0 * (h * (nx + ny) + h / math.sqrt(2.0) * (nd1 + nd2))


def sharp_energy(c: SharpConfig, gamma: GammaMatrix) -> float:
    """Rescaled droplet energy of an indicator configuration.

    Perimeters of the two supports and of the background enter with weight
    1/(2 eta); the Green interaction of v_i = indicator/eta^2 enters with
    weight Gamma_ij/(2 |log eta|).
    """
    if not (c.ind1.any() or c.ind2.any()):
        raise ValueError("empty configuration has no droplet energy")
    eta = c.eta
    per = (grid_perimeter(c.ind1) + grid_perimeter(c.ind2)
           + grid_perimeter(~(c.ind1 | c.ind2)))
    _, interaction = _spectral_energies(
        np.fft.rfft2(c.ind1 / eta ** 2), np.fft.rfft2(c.ind2 / eta ** 2),
        gamma, _spectral_grid(c.N))
    return per / (2.0 * eta) + interaction / (2.0 * abs(math.log(eta)))


def threshold(f: Field, level: float = 0.5, *, eta: float) -> SharpConfig:
    """Indicator sets u_i > level, contested cells going to the larger value."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    above1 = f.u1 > level
    above2 = f.u2 > level
    both = above1 & above2
    ind1 = above1 & (~both | (f.u1 >= f.u2))
    ind2 = above2 & ~ind1
    union = int(np.count_nonzero(above1 | above2))
    overlap = int(np.count_nonzero(both)) / union if union else 0.0
    return SharpConfig(ind1, ind2, eta, overlap_fraction=overlap)


def _periodic_labels(mask: np.ndarray):
    """Connected components of a periodic boolean grid (4-connectivity)."""
    labels, n = ndimage.label(mask)
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in zip(labels[0, :], labels[-1, :]):
        if a and b:
            merge(int(a), int(b))
    for a, b in zip(labels[:, 0], labels[:, -1]):
        if a and b:
            merge(int(a), int(b))
    roots = {}
    flat = np.zeros(n + 1, dtype=int)
    for lab in range(1, n + 1):
        r = find(lab)
        if r not in roots:
            roots[r] = len(roots) + 1
        flat[lab] = roots[r]
    return flat[labels], len(roots)


def _circular_mean(coords: np.ndarray, n: int) -> float:
    angles = 2.0 * math.pi * coords / n
    x = math.atan2(float(np.mean(np.sin(angles))),
                   float(np.mean(np.cos(angles)))) / (2.0 * math.pi)
    return x % 1.0


def extract_components(c: SharpConfig):
    """Split the supports into periodic connected clusters.

    Returns (Configuration, centers): per component, species masses are
    cell counts scaled by h^2/eta^2 and the center is the circular mean of
    its cells on the torus.
    """
    union = c.ind1 | c.ind2
    if not union.any():
        return Configuration((), (0.0, 0.0)), []
    labels, count = _periodic_labels(union)
    N = c.N
    cell_mass = 1.0 / (N ** 2 * c.eta ** 2)
    clusters = []
    centers = []
    for comp in range(1, count + 1):
        mask = labels == comp
        m1 = float(np.count_nonzero(mask & c.ind1)) * cell_mass
        m2 = float(np.count_nonzero(mask & c.ind2)) * cell_mass
        ii, jj = np.nonzero(mask)
        centers.append((_circular_mean(ii, N), _circular_mean(jj, N)))
        clusters.append(cluster_from_masses(m1, m2))
    total = (sum(cl.m1 for cl in clusters), sum(cl.m2 for cl in clusters))
    return Configuration(tuple(clusters), total), centers


# ---------------------------------------------------------------------------
# Snapshots and traces.

def write_field_pgm(f: Field, stem: str, metadata: dict | None = None,
                    comment: str | None = None) -> list:
    """16-bit PGM per species plus a JSON sidecar; returns written paths.

    An optional single-line comment is embedded in each PGM header.
    """
    if comment is not None and ("\n" in comment or "\r" in comment):
        raise ValueError("PGM comment must be a single line")
    lo, hi = GUARD_BAND
    span = hi - lo
    note = f"# {comment}\n" if comment is not None else ""
    paths = []
    for name, grid in (("u1", f.u1), ("u2", f.u2)):
        path = f"{stem}_{name}.pgm"
        q = np.round((grid - lo) / span * 65535.0).astype(">u2")
        with open(path, "wb") as fh:
            fh.write(f"P5\n{note}{f.N} {f.N}\n65535\n".encode())
            fh.write(q.tobytes())
        paths.append(path)
    meta = {"n": f.N, "epsilon": f.epsilon, "value_range": [lo, hi]}
    meta.update(metadata or {})
    meta_path = f"{stem}_meta.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(meta_path)
    return paths


def read_field_pgm(stem: str) -> Field:
    """Rebuild a Field from write_field_pgm output (quantized to 16 bits).

    Raises ValueError unless each PGM is binary (P5) with two positive
    integer dimensions, a 16-bit maxval (256..65535) and a payload of
    exactly width * height * 2 bytes.
    """
    with open(f"{stem}_meta.json") as fh:
        meta = json.load(fh)
    lo, hi = meta.get("value_range", GUARD_BAND)
    def header_line(fh):
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        return line

    def positive_ints(fh, count, what, path):
        fields = header_line(fh).split()
        if len(fields) != count or not all(f.isdigit() and int(f) > 0
                                           for f in fields):
            raise ValueError(f"{path}: {what} must be {count} positive "
                             f"integer(s), got {b' '.join(fields)!r}")
        return [int(f) for f in fields]

    grids = []
    for name in ("u1", "u2"):
        path = f"{stem}_{name}.pgm"
        with open(path, "rb") as fh:
            magic = header_line(fh).strip()
            if magic != b"P5":
                raise ValueError(f"not a binary PGM: {magic!r}")
            w, hgt = positive_ints(fh, 2, "dimensions", path)
            (maxval,) = positive_ints(fh, 1, "maxval", path)
            payload = fh.read()
        if not 256 <= maxval <= 65535:
            raise ValueError(f"{path}: maxval must be in 256..65535 for 16-bit "
                             f"samples, got {maxval}")
        if len(payload) != w * hgt * 2:
            raise ValueError(f"{path}: payload is {len(payload)} bytes, expected "
                             f"{w * hgt * 2} for {w} x {hgt} 16-bit samples")
        data = np.frombuffer(payload, dtype=">u2")
        grids.append(data.reshape(hgt, w).astype(float) / maxval * (hi - lo) + lo)
    return Field(grids[0], grids[1], float(meta["epsilon"]))


def write_trace_csv(trace, path: str, comment: str | None = None) -> None:
    """Energy trace rows (step, total, gradient, well, nonlocal) as CSV.

    An optional comment is written as a leading `#` line before the header.
    """
    if not trace:
        raise ValueError("empty trace")
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write("step,total,gradient,well,nonlocal\n")
        for row in trace:
            step, total, grad, well, nl = row
            fh.write(f"{step:d},{total:.17g},{grad:.17g},{well:.17g},{nl:.17g}\n")
