"""Diffuse-interface relaxation and sharp grid energies on the unit torus.

A Field holds the two minority-species densities; relax runs a semi-implicit
Fourier-spectral L2 gradient flow of the ternary functional (gradient +
double-well + nonlocal Green coupling) with per-species mean projection.
The Green force stays in Fourier space and the gradient and Green energies
are Parseval sums, so only the well term is evaluated in real space, there
as the sum and difference forces the spectral update needs: cubics in
u1 + u2 and u1 - u2 built in place.  The species transforms are carried
across steps in one stacked half-plane array.  A step runs its real-space
passes (the well forces with their row rffts, the per-mode update, the row
irffts) in row blocks of _BLOCK_BYTES per grid, 64 rows at n = 512, so
that a block's grids stay in cache; between them come one column fft of
both force transforms and one column ifft of both species.  Every 1-D
transform line is the one numpy's rfft2 and irfftn would run, so the
floats are those of whole-grid transforms.  A trace row costs no FFT, and
a clip back into GUARD_BAND, which keeps each species' mass, one rfft2 per
species clipped.  Every transform writes into buffers allocated once per
relax call (the carried and the force stacks, one block of scratch rows
and one n x n grid for the trace), so a step allocates no array unless it
clips.
SharpConfig holds thresholded indicator sets, whose rescaled energy combines
a Cauchy-Crofton grid perimeter with the periodic Green interaction, and
extract_components turns them into partition-module configurations.  Its
periodic labelling is numpy alone: the runs of each row are joined across
rows and across the wraps by a min-label merge.
"""

import json
import logging
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from triblock._args import integer, mass_pair, nonempty_pair, real
from triblock.geometry import GammaMatrix, solve_geometry
from triblock.partition import Cluster, Configuration

GUARD_BAND = (-0.1, 1.1)

_log = logging.getLogger(__name__)

# Energy per unit interface length carried by the standard double well:
# each interface flips two of the three species, and the optimal profile of
# (1/2)[eps |u'|^2 + W(u)/eps] with W(s) = s^2 (1-s)^2 costs
# int_0^1 s(1-s) ds = 1/6 per species.
INTERFACE_COST = 1.0 / 3.0

# Row-block budget of relax's real-space passes, in bytes per grid.  A
# step makes about 25 elementwise passes over its grids; at n = 512 each
# grid is 2 MB, as large as a common per-core L2 cache, so whole-grid
# passes stream from memory.  256 KB blocks (64 rows at n = 512, one block
# at n <= 128) keep the six to eleven block arrays a stage touches, about
# 1.5 to 2 MB, in cache together.
_BLOCK_BYTES = 1 << 18


def _well(u, out, tmp):
    """u^2 (1 - u)^2 written into `out`; `tmp` is overwritten and may be u."""
    np.multiply(u, u, out=out)
    np.subtract(1.0, u, out=tmp)
    tmp *= tmp
    out *= tmp
    return out


def _well_printed(u, out, tmp):
    """u^2 (1 - u^2) written into `out`; `tmp` is overwritten and may be u."""
    np.multiply(u, u, out=out)
    np.subtract(1.0, out, out=tmp)
    out *= tmp
    return out


def _well_mean(u1, u2, well, grids):
    """Grid mean of W(1 - u1 - u2) + W(u1) + W(u2), formed in the three
    n x n `grids`, which are overwritten."""
    total, a, b = grids
    np.subtract(1.0, u1, out=a)
    a -= u2
    well(a, total, a)
    total += well(u1, a, b)
    total += well(u2, a, b)
    return float(np.mean(total))


def _well_forces(u1, u2, s, d, printed_well):
    """Sum and difference of the species well forces, written over the grids.

    With w_i = W'(u_i) - W'(1 - u1 - u2), returns (w1 + w2, w1 - w2), two of
    the four given grids, all of which are overwritten.  Both are cubics in
    s = u1 + u2 and d = u1 - u2:
      standard well u^2 (1 - u)^2:  w1 - w2 = d r, r = 2 - 6s + 3s^2 + d^2,
                                    w1 + w2 = 3 [s (r + s) - d^2];
      printed well u^2 (1 - u^2):   w1 - w2 = d p, p = 2 - 3s^2 - d^2,
                                    w1 + w2 = 4 + 3s (p + 8s - 8).
    """
    np.add(u1, u2, out=s)
    np.subtract(u1, u2, out=d)
    d2 = np.multiply(d, d, out=u1)
    if printed_well:
        p = np.multiply(s, s, out=u2)
        p *= -3.0
        p += 2.0
        p -= d2
        total = np.multiply(s, 8.0, out=u1)  # d^2 is spent
        total -= 8.0
        total += p
        total *= s
        total *= 3.0
        total += 4.0
        d *= p
        return total, d
    r = np.subtract(s, 2.0, out=u2)
    r *= s
    r *= 3.0
    r += d2
    r += 2.0
    d *= r
    total = r  # r is spent once d holds the difference force
    total += s
    total *= s
    total -= d2
    total *= 3.0
    return total, d


@dataclass(frozen=True)
class Field:
    """Two periodic density grids with an interface width.

    The grids are copied, never clipped.  Raises ValueError unless they
    are matching, non-empty square grids of finite values inside
    GUARD_BAND; epsilon is a positive number (`triblock._args`).
    """

    u1: np.ndarray
    u2: np.ndarray
    epsilon: float

    def __post_init__(self):
        u1 = np.array(self.u1, dtype=float)
        u2 = np.array(self.u2, dtype=float)
        if (u1.ndim != 2 or u1.shape[0] != u1.shape[1] or u1.shape != u2.shape
                or u1.size == 0):
            raise ValueError("fields must be matching non-empty square grids, "
                             f"got {u1.shape} and {u2.shape}")
        if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "epsilon", real("epsilon", self.epsilon, 0.0))
        lo, hi = GUARD_BAND
        for name, u in (("u1", u1), ("u2", u2)):
            if np.any(u < lo) or np.any(u > hi):
                raise ValueError(f"{name} leaves the guard band [{lo}, {hi}]: "
                                 f"min {u.min():.6g}, max {u.max():.6g}")
            object.__setattr__(self, name, u)

    @property
    def N(self) -> int:
        return self.u1.shape[0]

    def means(self) -> tuple:
        return (float(self.u1.mean()), float(self.u2.mean()))

    def max_overlap(self) -> float:
        """Largest pointwise excess of u1 + u2 over 1."""
        return float(np.max(self.u1 + self.u2 - 1.0))


def uniform_field(N: int, epsilon: float, means) -> Field:
    N = integer("N", N, 1)
    m1, m2 = mass_pair("means", means)
    return Field(np.full((N, N), m1), np.full((N, N), m2), epsilon)


def noisy_uniform_field(N: int, epsilon: float, means, amplitude: float = 1e-2,
                        seed: int = 0) -> Field:
    """Uniform state plus exactly-zero-mean seeded noise.

    Raises ValueError (from `Field`) when the noisy grids leave GUARD_BAND.
    """
    N = integer("N", N, 1)
    means = mass_pair("means", means)
    amplitude = real("amplitude", amplitude, 0.0, closed=True)
    rng = np.random.default_rng(integer("seed", seed))
    grids = []
    for m in means:
        noise = rng.uniform(-amplitude, amplitude, size=(N, N))
        noise -= noise.mean()
        grids.append(m + noise)
    return Field(grids[0], grids[1], epsilon)


def _periodic_offsets(xs, center):
    """Periodic offsets of the grid axis xs from the center: x as a column
    and y as a row, so that the n x n distances come by broadcasting."""
    dx = np.mod(xs - center[0] + 0.5, 1.0) - 0.5
    dy = np.mod(xs - center[1] + 0.5, 1.0) - 0.5
    return dx[:, None], dy[None, :]


def _tanh_disk(xs, center, radius, epsilon):
    r = np.hypot(*_periodic_offsets(xs, center))
    return 0.5 * (1.0 + np.tanh((radius - r) / (2.0 * epsilon)))


def _double_lobe_distances(xs, center, masses, eta):
    """Approximate signed distances (droplet units) to the two lobes.

    The standing double bubble for the cluster masses is scaled by eta and
    centered on the junction chord; the smaller lobe sits on the negative-x
    side.  Distances are positive inside and are built from the three
    circular arcs by min/max composition, so they are exact away from the
    junction points.
    """
    geom = solve_geometry(masses)
    dx, dy = _periodic_offsets(xs, center)
    x, y = dx / eta, dy / eta
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
    rescaled to eta^2 sum(m_i) exactly.  Raises ValueError (from `Field`)
    when that rescaling lifts a species out of GUARD_BAND, as it does for a
    droplet that covers most of the torus at a wide interface.
    """
    N = integer("N", N, 1)
    epsilon = real("epsilon", epsilon, 0.0)
    eta = real("eta", eta, 0.0)
    masses = [nonempty_pair("masses", m) for m in masses]
    if len(masses) != len(centers) or len(masses) == 0:
        raise ValueError("need one center per cluster")
    xs = np.arange(N) / N
    u1 = np.zeros((N, N))
    u2 = np.zeros((N, N))
    for (m1, m2), (cx, cy) in zip(masses, centers):
        if m1 > 0.0 and m2 > 0.0:
            sd_1, sd_2 = _double_lobe_distances(xs, (cx, cy), (m1, m2), eta)
            u1 += 0.5 * (1.0 + np.tanh(eta * sd_1 / (2.0 * epsilon)))
            u2 += 0.5 * (1.0 + np.tanh(eta * sd_2 / (2.0 * epsilon)))
        elif m1 > 0.0:
            u1 += _tanh_disk(xs, (cx, cy), eta * math.sqrt(m1 / math.pi),
                             epsilon)
        else:
            u2 += _tanh_disk(xs, (cx, cy), eta * math.sqrt(m2 / math.pi),
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


def scaled_gamma(gamma: GammaMatrix, eta: float) -> GammaMatrix:
    """Interaction matrix for the diffuse flow at droplet scale eta.

    The droplet scaling 1/(eta^3 |log eta|) times INTERFACE_COST, so that
    perimeter and nonlocal forces balance in the same ratio as in the sharp
    rescaled energy.  An eta whose factor is not finite is refused with a
    ValueError naming it.
    """
    eta = real("eta", eta, 0.0, 1.0)
    scale = eta ** 3 * abs(math.log(eta))
    if scale == 0.0 or not math.isfinite(1.0 / scale):
        raise ValueError("eta must give a finite factor 1/(eta^3 |log eta|), "
                         f"got {eta!r}")
    factor = 1.0 / scale * INTERFACE_COST
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


def _spectral_products(hats, halves):
    """The products of the species pair `hats` = (u1hat, u2hat), for the
    Parseval sums below: Re(x conj(y)) for (u1, u1), (u2, u2) and (u1, u2),
    written into the first three of the four real half-planes `halves`.
    Off k = 0, u0hat = -u1hat - u2hat, so these products give every
    species' sum.  Each half-plane is C-contiguous, so the column sums
    below add in the order they would over fresh arrays.
    """
    u1hat, u2hat = hats
    p11, p22, p12, t = halves
    for p, x, y in ((p11, u1hat, u1hat), (p22, u2hat, u2hat),
                    (p12, u1hat, u2hat)):
        np.multiply(x.real, y.real, out=p)
        p += np.multiply(x.imag, y.imag, out=t)


def _gradient_sum(halves, grid):
    """Mean |grad u_i|^2 summed over the three species, from the products
    in `halves` (`_spectral_products`); the fourth half-plane is
    overwritten."""
    k2, _, weights = grid
    p11, p22, p12, t = halves
    np.add(p11, p12, out=t)
    t += p22
    t *= k2
    return 2.0 * float(np.sum(t, axis=0) @ weights)


def _interaction_sum(halves, gamma: GammaMatrix, grid):
    """sum_ij Gamma_ij <u_i, (-Delta)^-1 u_j> from the products in `halves`
    (`_spectral_products`), which are overwritten."""
    _, inv_lap, weights = grid
    p11, p22, p12, t = halves
    np.multiply(p11, gamma.g11, out=t)
    p12 *= 2.0 * gamma.g12
    t += p12
    p22 *= gamma.g22
    t += p22
    t *= inv_lap
    return float(np.sum(t, axis=0) @ weights)


def _energy_parts(u1, u2, hats, eps, gamma: GammaMatrix, grid, well, work):
    """(total, gradient, well, nonlocal) of a field and its rfft2 pair.

    `work` is (three n x n grids, four real half-planes), all overwritten.
    """
    grids, halves = work
    _spectral_products(hats, halves)
    grad = _gradient_sum(halves, grid)
    nonlocal_term = _interaction_sum(halves, gamma, grid)
    grad *= 0.5 * eps
    nonlocal_term *= 0.5
    well_term = 0.5 / eps * _well_mean(u1, u2, well, grids)
    return (grad + well_term + nonlocal_term, grad, well_term, nonlocal_term)


def _rfft2_pair(a, b):
    """rfft2 of two n x n grids into one (2, n, n//2 + 1) array."""
    hats = np.empty((2, a.shape[0], a.shape[1] // 2 + 1), dtype=complex)
    np.fft.rfft2(a, out=hats[0])
    np.fft.rfft2(b, out=hats[1])
    return hats


def diffuse_energy(f: Field, gamma_scaled: GammaMatrix,
                   printed_well: bool = False, parts: bool = False):
    """Gradient + well + nonlocal energy of the field.

    The well is the standard double well by default; printed_well switches
    to the non-coercive variant u^2 (1 - u^2).  Costs two rfft2.
    """
    hats = _rfft2_pair(f.u1, f.u2)
    work = (tuple(np.empty_like(f.u1) for _ in range(3)),
            np.empty((4, *hats.shape[1:])))
    total, grad, well, nonlocal_term = _energy_parts(
        f.u1, f.u2, hats, f.epsilon, gamma_scaled, _spectral_grid(f.N),
        _well_printed if printed_well else _well, work)
    if parts:
        return {"total": total, "gradient": grad, "well": well,
                "nonlocal": nonlocal_term}
    return total


def _mass_exact_clip(v, mean: float):
    """clip(v + lam, *GUARD_BAND) with lam chosen so that its mean is `mean`.

    The mean of the clipped field rises monotonically (piecewise linearly,
    with slope at most 1) in lam, from lo at lam = lo - max(v) to hi at
    lam = hi - min(v).  For lo <= mean <= hi, bisection down to a bracket of
    one ulp of the band width, or of lam where that is wider, keeps the
    mean to rounding.
    """
    lo, hi = GUARD_BAND
    a, b = lo - float(v.max()), hi - float(v.min())
    mid = 0.5 * (a + b)
    out = np.empty_like(v)
    while a < mid < b and b - a > 2.0 ** -52 * (hi - lo):
        np.clip(np.add(v, mid, out=out), lo, hi, out=out)
        if float(out.mean()) < mean:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return np.clip(np.add(v, b, out=out), lo, hi, out=out)


def _log_clip(step, species, bounds):
    lo, hi = GUARD_BAND
    _log.debug("relax step %d: u%d left the guard band by %.3e, clipped at "
               "fixed mass", step, species, max(lo - bounds[0], bounds[1] - hi))


def relax(init: Field, gamma_scaled: GammaMatrix, dt: float | None = None,
          steps: int = 1000, printed_well: bool = False, trace_every: int = 1,
          blow_limit: float = 5.0):
    """Semi-implicit Fourier-spectral descent of the diffuse energy.

    The coupled Laplacian pair is diagonalized in the sum/difference basis
    (eigenvalues 3 and 1) and treated implicitly together with a linear
    stabilization c_s = 2/epsilon; the well derivative and the nonlocal
    force, formed in Fourier space as (Gamma uhat)/|k|^2, are explicit.
    The well forces are evaluated in the same basis, as cubics in
    s = u1 + u2 and d = u1 - u2 (`_well_forces`).
    The transforms u1hat, u2hat are carried from step to step in one
    stacked half-plane array, their k = 0 modes pinned to the species
    means.  A step runs in five stages, the real-space ones in row blocks
    of _BLOCK_BYTES per grid (see there):
      1. per row block, the well forces and their rfft along the rows;
      2. one fft down the columns of both stacked force transforms;
      3. per row block of the half-plane, the per-mode update;
      4. one ifft down the columns of both carried transforms;
      5. per row block, the irfft along the rows into u1 and u2.
    So a step costs two forward and two inverse 2-D transforms, each line
    as numpy's rfft2 and irfftn run it, and a trace row costs no FFT.
    Allocated once per call: the copies of u1 and u2, the carried and the
    force half-plane stacks, one block of two real grids and one of complex
    half-plane rows, the six multipliers and one n x n grid for the trace,
    which forms its products over the dead force stack.  A step allocates
    no array unless it clips.  `init` is not written.
    A species that leaves GUARD_BAND is clipped at fixed mass, to
    clip(u + lam) with lam solved so that its mean is kept; each such clip
    is logged at DEBUG and costs one rfft2 to transform the species afresh.
    A returning call logs one DEBUG line with the steps run, the clips of
    each species and the smallest blow-up margin blow_limit - max|u| over
    its steps.
    Returns (Field, trace) where trace rows are (step, total, gradient,
    well, nonlocal) of the state itself.  The trace is non-increasing only
    while no clip fires: a clip is a projection onto the band, not a
    descent step, and may raise the energy.
    Raises RuntimeError when the field norm blows up.  `dt` and
    `blow_limit` are positive numbers, `steps` a non-negative integer and
    `trace_every` a positive one, checked by the package's argument policy
    (`triblock._args`).
    """
    N = init.N
    eps = init.epsilon
    dt = real("dt", eps * (1.0 / N) if dt is None else dt, 0.0)
    steps = integer("steps", steps)
    trace_every = integer("trace_every", trace_every, 1)
    blow_limit = real("blow_limit", blow_limit, 0.0)
    well = _well_printed if printed_well else _well
    grid = _spectral_grid(N)
    k2, inv_lap, _ = grid
    g11, g12, g22 = gamma_scaled.g11, gamma_scaled.g12, gamma_scaled.g22
    # Per-mode update of half the sum s = u1 + u2 and half the difference
    # d = u1 - u2: s_new = s1 u1hat + s2 u2hat - s3 (well force of s), and
    # alike for d; then u1hat = s_new + d_new and u2hat = s_new - d_new.
    # The force multipliers are kept negated, so the update adds them.
    keep = 1.0 + dt * (2.0 / eps)
    den_s = 2.0 * (keep + dt * 3.0 * eps * k2)
    den_d = 2.0 * (keep + dt * eps * k2)
    s1 = (keep - dt * (g11 + g12) * inv_lap) / den_s
    s2 = (keep - dt * (g12 + g22) * inv_lap) / den_s
    d1 = (keep - dt * (g11 - g12) * inv_lap) / den_d
    d2 = (-keep - dt * (g12 - g22) * inv_lap) / den_d
    s3 = -dt / (2.0 * eps) / den_s
    d3 = -dt / (2.0 * eps) / den_d
    del den_s, den_d
    # A step writes its forces over u1 and u2 and its inverse transforms
    # into them, so the caller's grids are copied once.
    u1, u2 = init.u1.copy(), init.u2.copy()
    mean1, mean2 = float(u1.mean()), float(u2.mean())
    zero1, zero2 = mean1 * N * N, mean2 * N * N
    hats = _rfft2_pair(u1, u2)
    u1hat, u2hat = hats
    lo, hi = GUARD_BAND

    # `forces` takes the two force transforms and then the column stage of
    # the inverse; a block's forces are formed in `scratch`, and the sum
    # update's products in `prod`.  Between steps `forces` is dead, so a
    # trace row forms its products over it: read as reals it holds four
    # real half-planes, or two n x n grids beside the trace's own third.
    height = max(1, _BLOCK_BYTES // (8 * N))
    blocks = [slice(r0, min(r0 + height, N)) for r0 in range(0, N, height)]
    forces = np.empty_like(hats)
    s_hat, d_hat = forces
    scratch = np.empty((2, height, N))
    prod = np.empty((height, N // 2 + 1), dtype=complex)
    reals = forces.view(np.float64).reshape(-1)
    work = ((reals[:N * N].reshape(N, N), reals[N * N:2 * N * N].reshape(N, N),
             np.empty_like(u1)), reals.reshape(4, *u1hat.shape))
    trace = []

    def record(step):
        trace.append((step, *_energy_parts(u1, u2, hats, eps, gamma_scaled,
                                           grid, well, work)))

    def advance():
        """One step's five stages, written into u1, u2 and hats; the block
        views die with the call."""
        for rows in blocks:
            s, d = _well_forces(u1[rows], u2[rows],
                                *scratch[:, :rows.stop - rows.start],
                                printed_well)
            np.fft.rfft(s, axis=1, out=s_hat[rows])
            np.fft.rfft(d, axis=1, out=d_hat[rows])
        np.fft.fft(forces, axis=1, out=forces)
        for rows in blocks:
            a, b, sb, db = u1hat[rows], u2hat[rows], s_hat[rows], d_hat[rows]
            t = prod[:rows.stop - rows.start]
            sb *= s3[rows]
            sb += np.multiply(a, s1[rows], out=t)
            sb += np.multiply(b, s2[rows], out=t)
            db *= d3[rows]
            db += np.multiply(a, d1[rows], out=a)
            db += np.multiply(b, d2[rows], out=b)
            np.add(sb, db, out=a)
            np.subtract(sb, db, out=b)
        u1hat[0, 0] = zero1
        u2hat[0, 0] = zero2
        np.fft.ifft(hats, axis=1, out=forces)
        for rows in blocks:
            np.fft.irfft(s_hat[rows], n=N, axis=1, out=u1[rows])
            np.fft.irfft(d_hat[rows], n=N, axis=1, out=u2[rows])

    clips = [0, 0]
    margin = math.inf
    record(0)
    for step in range(1, steps + 1):
        advance()
        bounds = (float(u1.min()), float(u1.max()),
                  float(u2.min()), float(u2.max()))
        worst = float(np.max(np.abs(bounds)))
        if not math.isfinite(worst) or worst > blow_limit:
            raise RuntimeError(
                f"field blow-up at step {step}: max |u| = {worst:.3e} "
                f"(dt = {dt:g}, epsilon = {eps:g})")
        margin = min(margin, blow_limit - worst)
        if bounds[0] < lo or bounds[1] > hi:
            _log_clip(step, 1, bounds[:2])
            clips[0] += 1
            u1 = _mass_exact_clip(u1, mean1)
            np.fft.rfft2(u1, out=u1hat)
        if bounds[2] < lo or bounds[3] > hi:
            _log_clip(step, 2, bounds[2:])
            clips[1] += 1
            u2 = _mass_exact_clip(u2, mean2)
            np.fft.rfft2(u2, out=u2hat)
        if step % trace_every == 0 or step == steps:
            record(step)
    _log.debug("relax: %d steps, clips u1 %d, u2 %d, smallest blow-up margin "
               "%.3e", steps, *clips, margin)
    # Dropped before the result copies u1 and u2, so the copies fit under
    # a step's peak.
    del hats, u1hat, u2hat, forces, s_hat, d_hat, reals, work
    return Field(u1, u2, eps), trace


# ---------------------------------------------------------------------------
# Sharp-interface grid energies.

@dataclass(frozen=True)
class SharpConfig:
    """Disjoint per-species indicator grids at droplet scale eta.

    eta must be in (0, 1) with a finite cell mass 1/(N^2 eta^2); otherwise
    ValueError names it.
    """

    ind1: np.ndarray
    ind2: np.ndarray
    eta: float
    overlap_fraction: float = 0.0

    def __post_init__(self):
        ind1 = np.asarray(self.ind1, dtype=bool)
        ind2 = np.asarray(self.ind2, dtype=bool)
        if (ind1.ndim != 2 or ind1.shape[0] != ind1.shape[1]
                or ind1.shape != ind2.shape or ind1.size == 0):
            raise ValueError("indicators must be matching non-empty square "
                             f"grids, got {ind1.shape} and {ind2.shape}")
        if np.any(ind1 & ind2):
            raise ValueError("species supports overlap")
        eta = real("eta", self.eta, 0.0, 1.0)
        n2_eta2 = ind1.shape[0] ** 2 * eta ** 2
        if n2_eta2 == 0.0 or not math.isfinite(1.0 / n2_eta2):
            raise ValueError("eta must give a finite cell mass 1/(N^2 eta^2), "
                             f"got {self.eta!r} at N={ind1.shape[0]}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "overlap_fraction",
                           real("overlap_fraction", self.overlap_fraction, 0.0,
                                1.0, closed=True))
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
    A crossing is a pair of neighbouring cells with different values, so a
    label grid gives the total length of the boundaries between its labels.
    """
    a = np.asarray(ind)
    h = 1.0 / a.shape[0]
    nx = int(np.count_nonzero(a != np.roll(a, 1, axis=0)))
    ny = int(np.count_nonzero(a != np.roll(a, 1, axis=1)))
    nd1 = int(np.count_nonzero(a != np.roll(a, (1, 1), axis=(0, 1))))
    nd2 = int(np.count_nonzero(a != np.roll(a, (1, -1), axis=(0, 1))))
    return math.pi / 8.0 * (h * (nx + ny) + h / math.sqrt(2.0) * (nd1 + nd2))


def sharp_energy(c: SharpConfig, gamma: GammaMatrix) -> float:
    """Rescaled droplet energy of an indicator configuration.

    Perimeters of the two supports and of the background enter with weight
    1/(2 eta).  Each interface bounds two of the three phases, so their sum
    is twice the `grid_perimeter` of the label grid ind1 + 2 ind2.  The
    Green interaction of v_i = indicator/eta^2 enters with weight
    Gamma_ij/(2 |log eta|); it is formed from the bare indicators and
    divided by eta^4 after, so it overflows only where the energy itself
    passes the float range, which is refused with a ValueError naming eta.
    """
    if not (c.ind1.any() or c.ind2.any()):
        raise ValueError("empty configuration has no droplet energy")
    eta = c.eta
    per = 2.0 * grid_perimeter(c.ind1 + np.uint8(2) * c.ind2)
    hats = _rfft2_pair(c.ind1, c.ind2)
    halves = np.empty((4, *hats.shape[1:]))
    _spectral_products(hats, halves)
    interaction = _interaction_sum(halves, gamma, _spectral_grid(c.N))
    # eta^2 > 0, as SharpConfig keeps the cell mass finite
    energy = (per / (2.0 * eta)
              + interaction / (2.0 * abs(math.log(eta))) / eta ** 2 / eta ** 2)
    if not math.isfinite(energy):
        raise ValueError(f"eta must give a finite energy, got {eta!r}")
    return energy


def threshold(f: Field, level: float = 0.5, *, eta: float) -> SharpConfig:
    """Three-phase indicator sets: each cell goes to exactly one phase.

    A cell is occupied where max(u1, 0) + max(u2, 0) > level, so a double
    bubble's wall, where u1 and u2 share the mass, stays occupied inside
    its cluster even where it lies on a grid line, and a species' negative
    tail does not erode the other's disk.  An occupied cell goes to the
    larger of u1 and u2, to u1 on a tie.  overlap_fraction is the share of
    occupied cells where both exceed level.
    """
    level = real("level", level, 0.0, 1.0)
    total = np.maximum(f.u1, 0.0)
    np.add(total, f.u2, out=total, where=f.u2 > 0.0)
    occupied = total > level
    ind1 = occupied & (f.u1 >= f.u2)
    cells = int(np.count_nonzero(occupied))
    both = int(np.count_nonzero((f.u1 > level) & (f.u2 > level)))
    return SharpConfig(ind1, occupied ^ ind1, eta,
                       overlap_fraction=both / cells if cells else 0.0)


def _run_starts(grid: np.ndarray) -> np.ndarray:
    """The cells of a boolean grid that begin a run along their row."""
    starts = grid.copy()
    starts[:, 1:] &= ~grid[:, :-1]
    return starts


def _periodic_labels(mask: np.ndarray):
    """Connected components of a periodic boolean grid (4-connectivity).

    Returns (labels, count): 0 on empty cells and 1..count on the
    components, numbered in raster order of their first cell.  The runs of
    occupied cells along each row are numbered in raster order and joined
    to the runs they touch in the next row (row -1 to row 0 across the
    wrap) and across the row wrap (column -1 to column 0).
    """
    runs = np.cumsum(_run_starts(mask), axis=None)
    count = int(runs[-1])
    runs = runs.reshape(mask.shape) * mask
    below = np.roll(runs, -1, axis=0)
    # one edge per stretch of columns occupied in both rows
    first = _run_starts(mask & (below > 0))
    row_wrap = mask[:, -1] & mask[:, 0]
    a = np.concatenate((runs[first], runs[row_wrap, -1]))
    b = np.concatenate((below[first], runs[row_wrap, 0]))
    # Min-label merge: every run points at a smaller or equal run, so each
    # tree's root is its smallest run.  Hook the larger root of each split
    # edge onto the smaller, then jump pointers until all point at roots.
    root = np.arange(count + 1)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ra[split], rb[split]),
                      np.minimum(ra[split], rb[split]))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # number the components by their smallest run: raster order
    is_root = root == np.arange(count + 1)
    is_root[0] = False
    number = np.cumsum(is_root)
    return number[root][runs], int(number[-1])


def extract_components(c: SharpConfig):
    """Split the occupied cells into periodic connected clusters.

    Returns (Configuration, centers): per component, species masses are
    cell counts scaled by h^2/eta^2 and the center is the circular mean of
    its cells on the torus.  One pass over the occupied cells collects
    every component's counts and sums.
    """
    union = c.ind1 | c.ind2
    if not union.any():
        return Configuration((), (0.0, 0.0)), []
    labels, count = _periodic_labels(union)
    N = c.N
    cell_mass = 1.0 / (N ** 2 * c.eta ** 2)
    n1 = np.bincount(labels[c.ind1], minlength=count + 1)
    n2 = np.bincount(labels[c.ind2], minlength=count + 1)
    ii, jj = np.nonzero(union)
    comp = labels[ii, jj]
    angles = 2.0 * math.pi * np.arange(N) / N
    sin, cos = np.sin(angles), np.cos(angles)

    def circular_mean(coords):
        x = np.arctan2(np.bincount(comp, sin[coords], count + 1),
                       np.bincount(comp, cos[coords], count + 1))
        return (x / (2.0 * math.pi) % 1.0)[1:].tolist()

    centers = list(zip(circular_mean(ii), circular_mean(jj)))
    clusters = [Cluster(float(n1[k]) * cell_mass, float(n2[k]) * cell_mass)
                for k in range(1, count + 1)]
    total = (sum(cl.m1 for cl in clusters), sum(cl.m2 for cl in clusters))
    return Configuration(tuple(clusters), total), centers


# ---------------------------------------------------------------------------
# Snapshots and traces.

def _comment_line(comment: str | None) -> str:
    """The line `# comment`, or nothing for None; a line break is refused."""
    if comment is None:
        return ""
    if "\n" in comment or "\r" in comment:
        raise ValueError("comment must be a single line")
    return f"# {comment}\n"


def write_field_pgm(f: Field, stem: str, metadata: dict | None = None,
                    comment: str | None = None) -> list:
    """16-bit PGM per species plus a JSON sidecar; returns written paths.

    An optional single-line comment is embedded in each PGM header.
    """
    note = _comment_line(comment)
    lo, hi = GUARD_BAND
    span = hi - lo
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


def write_trace_csv(trace, path: str, comment: str | None = None) -> None:
    """Energy trace rows (step, total, gradient, well, nonlocal) as CSV.

    An optional single-line comment is written as a leading `#` line
    before the header.
    """
    if not trace:
        raise ValueError("empty trace")
    note = _comment_line(comment)
    with open(path, "w") as fh:
        fh.write(note + "step,total,gradient,well,nonlocal\n")
        for row in trace:
            step, total, grad, well, nl = row
            fh.write(f"{step:d},{total:.17g},{grad:.17g},{well:.17g},{nl:.17g}\n")
