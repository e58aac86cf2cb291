"""The three benchmark workloads, named after the pipelines they reproduce.

Each workload draws its inputs from the workload seed and the pass index,
calls triblock's public functions through a `Recorder`, checks every
result, and appends its operation timings to `samples`.  Each timing is
taken between two runs of the machine-speed reference (see speed.py) and
recorded as (pass index, raw ms, ms at nominal speed).  See README.md for
why each workload exists and which layer it isolates.

An operation is one checked unit of work: one bubble-table call, one
partition instance, one regime-sweep run, one relaxation scenario, one
descent, one F0 evaluation or one Green-table batch.  Any exception it
raises, or any check it fails, counts as a failed operation.  Inputs in a
documented known-defect domain (see README.md) are still run and checked.
Only the documented failure of such an input (a named exception type, or
one named check) is counted under `Tally.known_defects` instead of
`Tally.failed`; any other failure of it counts as failed.
"""

import csv
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

from triblock import cli, geometry, partition, phasefield, placement, torus_green
from triblock.geometry import GammaMatrix


class Tally:
    """Attempted, failed and known-defect operation counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.notes: list[str] = []

    def record(self, label: str, ok: bool, why: str = "",
               known_defect: bool = False) -> bool:
        self.attempted += 1
        if ok:
            return True
        if known_defect:
            self.known_defects += 1
        else:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{label}: {why}")
        return False


def guarded(tally: Tally, label: str, fn, excuse: tuple = ()):
    """Run one operation; on an exception count the failure and return None.

    Only exceptions of the types in `excuse`, the documented failure of a
    known-defect input, are counted as known defects.
    """
    try:
        return fn()
    except Exception as err:  # the benchmark keeps running and reports it
        tally.record(label, False, f"{type(err).__name__}: {err}",
                     isinstance(err, excuse))
        return None


def _rng(seed: int, index: int, part: int) -> np.random.Generator:
    return np.random.default_rng((seed, index, part))


def _monotone(trace, tol=1e-10) -> bool:
    totals = [row[1] for row in trace]
    return all(b <= a + tol for a, b in zip(totals, totals[1:]))


def _mass_drift(before, after) -> float:
    return max(abs(a - b) for a, b in zip(before.means(), after.means()))


class Workload:
    """Base: seed, size and scratch directory shared by the workloads."""

    name = ""
    # the samples behind op1_ms, op2_ms, op3_ms: (key, what one sample is)
    ops: tuple = ()
    # the kind of code (see speed.py) that dominates a pass
    kind = ""

    def __init__(self, seed: int, tiny: bool, work: Path, meter=None):
        """`meter`: the speed.Meter that times operations; the set-up probe,
        which only makes the first calls, passes none."""
        self.seed = seed
        self.work = work
        self.meter = meter

    def first_calls(self) -> None:
        """First call into every layer the workload uses (lazy set-up)."""
        raise NotImplementedError

    def prepare(self, rec, tally: Tally) -> None:
        """Untimed work done once per run before the passes."""

    def run_pass(self, rec, tally: Tally, index: int, samples) -> None:
        raise NotImplementedError

    @staticmethod
    def _sample(samples, key: str, index: int, raw: float, scaled: float,
                per: int = 1) -> None:
        """Record one operation's seconds, divided over `per` units."""
        if samples is not None:
            samples[key].append((index, raw / per * 1e3, scaled / per * 1e3))


# ---------------------------------------------------------------------------
# relax: the criterion-09 droplet scenarios plus a traced small relaxation.

RELAX_SCENARIOS = (
    ("singles", (1.0, 1.0, 1.0), ((4.0, 0.0), (0.0, 4.0)),
     ((0.25, 0.25), (0.75, 0.75))),
    ("double", (1.0, 1.0, 0.0), ((4.0, 4.0),), ((0.5 + 1.0 / 1024, 0.5),)),
    ("coexistence", (1.0, 1.0, 0.1), ((3.0, 6.0), (0.0, 6.0)),
     ((0.3, 0.3), (0.75, 0.75))),
)


class Relax(Workload):
    name = "relax"
    kind = "array"
    ops = (("step_ms.n512", "one n=512 relax step, sparse trace"),
           ("step_ms.n64_traced", "one n=64 relax step, traced every step"),
           ("post_ms", "threshold -> extract -> sharp_energy -> writes"))
    n, eta = 512, 0.04
    n_small, eta_small = 64, 0.1

    def __init__(self, seed, tiny, work, meter=None):
        super().__init__(seed, tiny, work, meter)
        self.steps = 2 if tiny else 12
        self.trace_every = 1 if tiny else 6
        self.steps_small = 20 if tiny else 300
        self.refs = {}

    def first_calls(self):
        n, eps = self.n, 2.0 / self.n
        f = phasefield.droplet_field(n, eps, self.eta, [(4.0, 0.0)], [(0.5, 0.5)])
        g = GammaMatrix(1.0, 1.0, 0.0)
        final, trace = phasefield.relax(f, phasefield.scaled_gamma(g, self.eta),
                                        dt=eps / n, steps=1)
        sharp = phasefield.threshold(final, 0.5, eta=self.eta)
        phasefield.extract_components(sharp)
        phasefield.sharp_energy(sharp, g)
        phasefield.write_field_pgm(final, str(self.work / "setup"))
        phasefield.write_trace_csv(trace, str(self.work / "setup.csv"))
        small = phasefield.noisy_uniform_field(self.n_small, 2.0 / self.n_small,
                                               (0.04, 0.06))
        phasefield.relax(small, phasefield.scaled_gamma(g, self.eta_small), steps=1)

    def prepare(self, rec, tally):
        # the optimal partitions the scenarios are checked against
        for label, gamma, masses, _ in RELAX_SCENARIOS:
            total = (sum(m[0] for m in masses), sum(m[1] for m in masses))
            ref = guarded(tally, f"ebar reference {label}",
                          lambda: partition.ebar(total, GammaMatrix(*gamma)))
            if ref is not None:
                tally.record(f"ebar reference {label}", True)
            self.refs[label] = ref
        # Known defect: with the shared wall of the symmetric double bubble
        # on a grid line, no cell along the wall passes the 0.5 threshold,
        # and extract_components reports two singles.  Only that count
        # mismatch is excused.
        _, gamma, masses, _ = RELAX_SCENARIOS[1]
        self._scenario(rec, tally, None, -1, "relax double, wall on a grid line",
                       "double", GammaMatrix(*gamma), masses, [(0.5, 0.5)],
                       known_defect=True)

    def run_pass(self, rec, tally, index, samples):
        # Whole-cell translations keep criterion 09's sub-cell placement.
        shift = _rng(self.seed, index, 0).integers(0, self.n, size=2) / self.n
        for label, gamma, masses, centers in RELAX_SCENARIOS:
            moved = [((cx + shift[0]) % 1.0, (cy + shift[1]) % 1.0)
                     for cx, cy in centers]
            with rec.span("bench.scenario", item=f"p{index}.{label}"):
                self._scenario(rec, tally, samples, index,
                               f"relax scenario {label} pass {index}", label,
                               GammaMatrix(*gamma), masses, moved)
        noise_seed = int(_rng(self.seed, index, 1).integers(2 ** 31))
        with rec.span("bench.noise_relax", item=f"p{index}.n64"):
            self._noise_relax(rec, tally, samples, index, noise_seed)

    def _scenario(self, rec, tally, samples, index, op, label, gamma, masses,
                  centers, known_defect=False):
        n, eta, eps = self.n, self.eta, 2.0 / self.n
        stem = self.work / f"relax-{label}"

        def post(final, trace):
            sharp = rec.call("phasefield.threshold", phasefield.threshold,
                             final, 0.5, eta=eta)
            conf, _ = rec.call("phasefield.extract_components",
                               phasefield.extract_components, sharp)
            energy = rec.call("phasefield.sharp_energy", phasefield.sharp_energy,
                              sharp, gamma)
            rec.call("phasefield.write_field_pgm", phasefield.write_field_pgm,
                     final, str(stem))
            rec.call("phasefield.write_trace_csv", phasefield.write_trace_csv,
                     trace, str(stem) + "-trace.csv")
            return conf, energy

        def chain():
            field = rec.call("phasefield.droplet_field", phasefield.droplet_field,
                             n, eps, eta, masses, centers)
            gsc = phasefield.scaled_gamma(gamma, eta)
            (final, trace), *t_relax = self.meter.timed(
                "array",
                lambda: rec.call("phasefield.relax.n512", phasefield.relax,
                                 field, gsc, dt=eps / n, steps=self.steps,
                                 trace_every=self.trace_every))
            (conf, energy), *t_post = self.meter.timed(
                "array", lambda: post(final, trace))
            return field, final, trace, conf, energy, t_relax, t_post

        out = guarded(tally, op, chain)
        if out is None:
            return
        field, final, trace, conf, energy, t_relax, t_post = out
        rec.count("phasefield.relax.steps", self.steps)
        rec.count("phasefield.relax.trace_rows", len(trace))
        ref = self.refs.get(label)
        why = []
        counts_wrong = False
        if _mass_drift(field, final) > 1e-12:
            why.append(f"mass drift {_mass_drift(field, final):.3e}")
        if not _monotone(trace):
            why.append("energy trace increases")
        if ref is None:
            why.append("no ebar reference")
        else:
            value, best = ref
            if conf.counts() != best.counts():
                why.append(f"counts {conf.counts()} != optimal {best.counts()}")
                counts_wrong = True
            gap = abs(energy - value) / value
            if gap > 0.15:
                why.append(f"sharp-vs-ebar gap {gap:.3f}")
        excused = known_defect and counts_wrong and len(why) == 1
        ok = tally.record(op, not why, "; ".join(why), excused)
        if ok:
            self._sample(samples, "step_ms.n512", index, *t_relax, per=self.steps)
            self._sample(samples, "post_ms", index, *t_post)

    def _noise_relax(self, rec, tally, samples, index, noise_seed):
        n, eps = self.n_small, 2.0 / self.n_small
        gsc = phasefield.scaled_gamma(GammaMatrix(1.0, 1.0, 0.5), self.eta_small)

        def run():
            field = rec.call("phasefield.noisy_uniform_field",
                             phasefield.noisy_uniform_field, n, eps, (0.04, 0.06),
                             amplitude=0.02, seed=noise_seed)
            (final, trace), *elapsed = self.meter.timed(
                "python",
                lambda: rec.call("phasefield.relax.n64", phasefield.relax,
                                 field, gsc, dt=eps / n, steps=self.steps_small,
                                 trace_every=1))
            return field, final, trace, elapsed

        op = f"relax n64 pass {index}"
        out = guarded(tally, op, run)
        if out is None:
            return
        field, final, trace, elapsed = out
        rec.count("phasefield.relax.steps", self.steps_small)
        rec.count("phasefield.relax.trace_rows", len(trace))
        why = []
        if _mass_drift(field, final) > 1e-12:
            why.append(f"mass drift {_mass_drift(field, final):.3e}")
        if not _monotone(trace):
            why.append("energy trace increases")
        if tally.record(op, not why, "; ".join(why)):
            self._sample(samples, "step_ms.n64_traced", index, *elapsed,
                         per=self.steps_small)


# ---------------------------------------------------------------------------
# sweep: bubble table, ebar against the oracle, and a CLI regime sweep.

# Below this mass ratio solve_geometry, perimeter and e0 are known to raise
# ConvergenceError (in 1.6 million probes between 1.3e-7 and 1e-6 the
# largest failing ratio was 1.8e-7).  Only that exception is excused there.
GEOMETRY_DEFECT_RATIO = 2e-7
ORACLE_DELTA = 1.0 / 64.0
ORACLE_PARTS = 12
# Totals and interaction matrices of the partition instances.  Each pass
# pairs them in rotation and scales Γ by seed-drawn factors within 5%.  The
# oracle's cost is set by the totals alone, and drawn totals would spread
# it 2-fold; ebar's cost varies 2-fold across Γ.
PARTITION_TOTALS = ((0.75, 1.25), (1.0, 1.0), (1.25, 0.75))
PARTITION_GAMMAS = ((1.0, 1.0, 0.0), (4.0, 4.0, 6.0), (8.0, 2.0, 0.5))
# The regime-sweep cell (M1, M2, g12), scaled by seed-drawn factors within
# 5%.  Its cli.run takes 0.5-1.4 s across totals 150-220 and g12 0-8, which
# would spread the pass time more than the passes of a run can average.
REGIME_CELL = (200.0, 170.0, 2.0)
# Partition inputs known to fail at the time the benchmark was written,
# with the exception each is known to raise: the deficit repair empties a
# lobe (ValueError), and the search returns a configuration that breaks the
# mass caps (None: only the necessary-conditions check is excused).
PARTITION_DEFECTS = (((1e-8, 1.0), (1.0, 1.0, 0.0), ValueError),
                     ((300.0, 300.0), (1.0, 1.0, 2.0), None))


def _perimeter_bounds(m1: float, m2: float) -> tuple:
    """The double bubble is longer than the disk of the total area and no
    longer than two separate disks."""
    return (2.0 * math.sqrt(math.pi * (m1 + m2)),
            2.0 * (math.sqrt(math.pi * m1) + math.sqrt(math.pi * m2)))


def _caps_respected(row: dict) -> bool:
    """Every cluster respects the mass caps, so a species needs at least
    total/cap clusters holding it."""
    holders1 = int(row["n_double"]) + int(row["n_single1"])
    holders2 = int(row["n_double"]) + int(row["n_single2"])
    return (holders1 >= float(row["M1"]) / float(row["max_mass1"]) * (1 - 1e-9)
            and holders2 >= float(row["M2"]) / float(row["max_mass2"]) * (1 - 1e-9))


class Sweep(Workload):
    name = "sweep"
    kind = "python"
    ops = (("ebar_ms", "one ebar call"),
           ("oracle_ms", "one ebar_oracle call"),
           ("bubble_ms", "one bubble table: 240 mass pairs, 3 calls each"))
    # bubble tables per pass, each timed on its own: one table takes about
    # 25 ms, too short to time steadily once per pass
    tables = 3

    def __init__(self, seed, tiny, work, meter=None):
        super().__init__(seed, tiny, work, meter)
        self.per_decade = 1 if tiny else 20
        self.tables = 1 if tiny else self.tables
        self.instances = 1 if tiny else 3
        self.regime_restarts = 1 if tiny else 4

    def first_calls(self):
        g = GammaMatrix(1.0, 1.0, 0.0)
        geometry.solve_geometry((0.5, 1.0))
        geometry.perimeter((0.5, 1.0))
        geometry.e0((0.5, 1.0), g)
        value, conf = partition.ebar((0.5, 0.5), g)
        partition.ebar_oracle((0.25, 0.25), g, delta=1.0 / 16, max_parts=4)
        partition.quantization_bound(conf, g, ORACLE_DELTA)
        partition.check_necessary_conditions(conf, g)
        partition.classify_regime((0.5, 0.5), g, run_search=False)
        params = cli.resolve_parameters("regime-sweep", {
            "M1_values": [1.0], "M2_values": [1.0], "g12_values": [0.0],
            "run_search": False}, {})
        cli.run(cli.ExperimentConfig("regime-sweep", params,
                                     str(self.work / "setup-sweep")))

    def prepare(self, rec, tally):
        for M, gamma, raises in PARTITION_DEFECTS:
            g = GammaMatrix(*gamma)
            op = f"ebar known defect {M} {gamma}"
            out = guarded(tally, op, lambda: partition.ebar(M, g),
                          (raises,) if raises else ())
            if out is not None:
                report = partition.check_necessary_conditions(out[1], g)
                tally.record(op, bool(report["all_pass"]), str(report),
                             known_defect=raises is None)

    def run_pass(self, rec, tally, index, samples):
        for t in range(self.tables):
            rng = _rng(self.seed, index, 10 + t)
            with rec.span("bench.bubble_table", item=f"p{index}.bubble{t}"):
                _, *elapsed = self.meter.timed(
                    "python", lambda: self._bubble_table(rec, tally, rng))
            self._sample(samples, "bubble_ms", index, *elapsed)
        rng = _rng(self.seed, index, 1)
        for i, M in enumerate(PARTITION_TOTALS[:self.instances]):
            base = PARTITION_GAMMAS[(i + index) % len(PARTITION_GAMMAS)]
            gamma = GammaMatrix(*(g * rng.uniform(0.95, 1.05) for g in base))
            with rec.span("bench.partition_instance", item=f"p{index}.grid{i}"):
                self._instance(rec, tally, samples, index,
                               f"pass {index} grid {i}", M, gamma)
        rng = _rng(self.seed, index, 2)
        cell = tuple(round(v * rng.uniform(0.95, 1.05), 2) for v in REGIME_CELL)
        with rec.span("bench.regime_sweep", item=f"p{index}.regime"):
            self._regime_sweep(rec, tally, index, cell)

    def _bubble_table(self, rec, tally, rng):
        gamma = GammaMatrix(1.0, 1.0, rng.uniform(0.0, 2.0))
        for decade in range(12):
            for _ in range(self.per_decade):
                ratio = 10.0 ** -(decade + rng.uniform(0.0, 1.0))
                big = 10.0 ** rng.uniform(-1.0, 1.0)
                m = (ratio * big, big) if rng.uniform() < 0.5 else (big, ratio * big)
                known = ratio < GEOMETRY_DEFECT_RATIO
                self._bubble_row(rec, tally, m, gamma, known)

    def _bubble_row(self, rec, tally, m, gamma, known):
        """`known`: the row is in the known-defect domain, where only a
        ConvergenceError is excused; a returned value must pass its check."""
        label = f"bubble {m[0]:.3e},{m[1]:.3e}"
        excuse = (geometry.ConvergenceError,) if known else ()
        geom = guarded(tally, "solve_geometry " + label,
                       lambda: rec.call("geometry.solve_geometry",
                                        geometry.solve_geometry, m), excuse)
        if geom is not None:
            res = geometry.geometry_residuals(geom, sorted(m))
            worst = max(abs(v) for v in res.values())
            tally.record("solve_geometry " + label, worst <= 1e-12,
                         f"residual {worst:.3e}")
        p = guarded(tally, "perimeter " + label,
                    lambda: rec.call("geometry.perimeter", geometry.perimeter, m),
                    excuse)
        if p is not None:
            lo, hi = _perimeter_bounds(*m)
            ok = lo * (1 - 1e-12) < p <= hi * (1 + 1e-12)
            tally.record("perimeter " + label, ok,
                         f"perimeter {p!r} outside [{lo!r}, {hi!r}]")
        e = guarded(tally, "e0 " + label,
                    lambda: rec.call("geometry.e0", geometry.e0, m, gamma), excuse)
        if e is not None:
            ok = math.isfinite(e)
            if p is not None:
                quad = gamma.quad(*m) / (4.0 * math.pi)
                ok = ok and abs(e - p - quad) <= 1e-12 * abs(e)
            tally.record("e0 " + label, ok, f"e0 {e!r} != perimeter + quadratic")

    def _instance(self, rec, tally, samples, index, label, M, gamma):
        def run():
            (value, conf), *t_ebar = self.meter.timed(
                "python",
                lambda: rec.call("partition.ebar", partition.ebar, M, gamma))
            oracle, *t_oracle = self.meter.timed(
                "python",
                lambda: rec.call("partition.ebar_oracle", partition.ebar_oracle,
                                 M, gamma, delta=ORACLE_DELTA,
                                 max_parts=ORACLE_PARTS))
            bound = rec.call("partition.quantization_bound",
                             partition.quantization_bound, conf, gamma, ORACLE_DELTA)
            report = rec.call("partition.check_necessary_conditions",
                              partition.check_necessary_conditions, conf, gamma)
            regime = rec.call("partition.classify_regime", partition.classify_regime,
                              M, gamma, run_search=False)
            return value, conf, oracle, bound, report, regime, t_ebar, t_oracle

        op = f"partition {label} M={M}"
        out = guarded(tally, op, run)
        if out is None:
            return
        value, conf, oracle, bound, report, regime, t_ebar, t_oracle = out
        states = (round(M[0] / ORACLE_DELTA) + 1) * (round(M[1] / ORACLE_DELTA) + 1)
        rec.count("partition.ebar_oracle.states", states)
        why = []
        if not value <= oracle + 1e-9:
            why.append(f"ebar {value!r} above oracle {oracle!r}")
        if not oracle <= value + bound:
            why.append(f"oracle {oracle!r} below ebar - bound {bound!r}")
        if not report["all_pass"]:
            why.append(f"necessary conditions {report}")
        counts = conf.counts()
        if regime["guarantee"] == "one_double" and (
                counts["double"] != 1 or len(conf.clusters) != 1):
            why.append(f"one-double guarantee but counts {counts}")
        if regime["guarantee"] == "no_doubles" and counts["double"] != 0:
            why.append(f"no-doubles guarantee but counts {counts}")
        if tally.record(op, not why, "; ".join(why)):
            self._sample(samples, "ebar_ms", index, *t_ebar)
            self._sample(samples, "oracle_ms", index, *t_oracle)

    def _regime_sweep(self, rec, tally, index, cell):
        m1, m2, g12 = cell
        out_dir = self.work / "regime-sweep"
        params = cli.resolve_parameters("regime-sweep", {
            "M1_values": [m1], "M2_values": [m2], "g12_values": [g12],
            "restarts": self.regime_restarts}, {})
        config = cli.ExperimentConfig("regime-sweep", params, str(out_dir))
        op = f"regime-sweep pass {index} cell {cell}"
        result = guarded(tally, op, lambda: rec.call("cli.run", cli.run, config))
        if result is None:
            return
        manifest = json.loads((out_dir / "manifest.json").read_text())
        size = 0
        why = []
        for name, digest in manifest["artifacts"].items():
            data = (out_dir / name).read_bytes()
            size += len(data)
            if hashlib.sha256(data).hexdigest() != digest:
                why.append(f"digest mismatch for {name}")
        rec.count("cli.run.artifact_bytes", size)
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if result["rows"] != 1 or result["failures"] != 0 or len(rows) != 1:
            why.append(f"rows {result['rows']} failures {result['failures']}")
        else:
            row = rows[0]
            if row["error"]:
                why.append(row["error"])
            elif not math.isfinite(float(row["ebar"])):
                why.append(f"ebar {row['ebar']}")
            elif not _caps_respected(row):
                why.append(f"mass caps broken: {row}")
        tally.record(op, not why, "; ".join(why))


# ---------------------------------------------------------------------------
# place: cluster-centre descents, F0, and a Green-function table.

# Template mass pairs per cluster count.  Each descent scales them by
# seed-drawn factors within MASS_JITTER: wider draws change the descent's
# iteration count several-fold, which a run of this length cannot average.
PLACE_TEMPLATES = {
    2: ((1.2, 0.8), (0.0, 1.5)),
    4: ((1.2, 0.8), (1.0, 0.0), (0.0, 1.5), (0.9, 1.1)),
    8: ((1.2, 0.8), (1.0, 0.0), (0.0, 1.5), (0.9, 1.1),
        (1.1, 0.0), (0.0, 1.2), (0.8, 0.9), (1.3, 0.0)),
}
MASS_JITTER = 0.03
# Descents per pass for each cluster count.
PLACE_DESCENTS = ((2, 2), (4, 3), (8, 2))
DESCENT_RESTARTS = 2
# Reduced quadrature for F0's self terms (the default takes about 6 s per
# call).
F0_QUADRATURE = {"n_points": 2 ** 15, "replicates": 2}
# At this quadrature a disk's self term is within 1.4e-3 of the closed form
# for each of the scrambling seeds 0..1999 (the relative error does not
# depend on the mass).
F0_DISK_TOL = 5e-3
GREEN_POINTS = 1000


class Place(Workload):
    name = "place"
    kind = "python"
    ops = (("descent_ms.k4", "one minimize_FK descent, K=4"),
           ("descent_ms.k8", "one minimize_FK descent, K=8"),
           ("f0_ms", "one F0 on a double-plus-single layout, cold"))

    def __init__(self, seed, tiny, work, meter=None):
        super().__init__(seed, tiny, work, meter)
        self.descents = ((2, 1), (4, 1), (8, 1)) if tiny else PLACE_DESCENTS
        self.points = 50 if tiny else GREEN_POINTS
        # F0's scrambling seed, new on every call: the self-term cache is
        # keyed on it, so every timed F0 is cold even when a traced pass
        # repeats the masses of its untraced partner.
        self.f0_seeds = itertools.count(1)

    def first_calls(self):
        g = GammaMatrix(1.0, 1.0, 0.5)
        layout = placement.minimize_FK(PLACE_TEMPLATES[2], g, restarts=1)
        placement.FK(layout, g)
        placement.fk_gradient(layout, g)
        placement.F0(layout, g, n_points=2 ** 8, replicates=2)
        pts = np.array([[0.1, 0.2], [0.3, -0.1]])
        torus_green.green(pts)
        torus_green.green_gradient(pts)
        torus_green.green_spectral(pts)
        torus_green.regular_part(pts)

    def run_pass(self, rec, tally, index, samples):
        rng = _rng(self.seed, index, 0)
        for K, repeats in self.descents:
            for r in range(repeats):
                masses = [(a * rng.uniform(1 - MASS_JITTER, 1 + MASS_JITTER),
                           b * rng.uniform(1 - MASS_JITTER, 1 + MASS_JITTER))
                          for a, b in PLACE_TEMPLATES[K]]
                gamma = GammaMatrix(1.0, 1.0, 0.5 * rng.uniform(
                    1 - MASS_JITTER, 1 + MASS_JITTER))
                with rec.span("bench.descent", item=f"p{index}.k{K}.{r}"):
                    self._descent(rec, tally, samples, index, K, masses, gamma)
        rng = _rng(self.seed, index, 1)
        with rec.span("bench.f0", item=f"p{index}.f0"):
            self._f0(rec, tally, samples, index, rng)
        with rec.span("bench.green_table", item=f"p{index}.green"):
            self._green_table(rec, tally, index, _rng(self.seed, index, 2))

    def _descent(self, rec, tally, samples, index, K, masses, gamma):
        def run():
            (layout, info), *elapsed = self.meter.timed(
                "python",
                lambda: rec.call("placement.minimize_FK", placement.minimize_FK,
                                 masses, gamma, restarts=DESCENT_RESTARTS,
                                 full_output=True))
            energy = rec.call("placement.FK", placement.FK, layout, gamma)
            return layout, info, energy, elapsed

        op = f"descent K={K} pass {index}"
        out = guarded(tally, op, run)
        if out is None:
            return
        layout, info, energy, elapsed = out
        converged = sum(row["grad_norm"] <= 1e-10 for row in info["restarts"])
        rec.count("placement.minimize_FK.restarts", len(info["restarts"]))
        rec.count("placement.minimize_FK.restarts_converged", converged)
        why = []
        if not info["grad_norm"] <= 1e-10:
            why.append(f"grad_norm {info['grad_norm']:.3e}")
        if not abs(energy - info["energy"]) <= 1e-12 * max(1.0, abs(energy)):
            why.append(f"FK {energy!r} != descent energy {info['energy']!r}")
        if tally.record(op, not why, "; ".join(why)):
            self._sample(samples, f"descent_ms.k{K}", index, *elapsed)

    def _f0(self, rec, tally, samples, index, rng):
        double = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        mass = rng.uniform(0.5, 2.0)
        species = 1 if rng.uniform() < 0.5 else 2
        single = (mass, 0.0) if species == 1 else (0.0, mass)
        gamma = GammaMatrix(1.0, 1.0, rng.uniform(0.0, 2.0))
        layout = placement.Layout(((0.0, 0.0), tuple(rng.uniform(0.2, 0.8, 2))),
                                  (double, single))
        quad = dict(F0_QUADRATURE, seed=next(self.f0_seeds))

        def run():
            f0, *elapsed = self.meter.timed(
                "array",
                lambda: rec.call("placement.F0", placement.F0, layout, gamma,
                                 **quad))
            fk = rec.call("placement.FK", placement.FK, layout, gamma)
            # the double's self terms, cached by F0 (no independent route)
            double_terms = sum(
                coef * (placement.self_interaction(double, i, j, **quad)
                        + double[i - 1] * double[j - 1] * torus_green.R0)
                for i, j, coef in ((1, 1, 0.5 * gamma.g11), (2, 2, 0.5 * gamma.g22),
                                   (1, 2, gamma.g12)))
            return f0, fk, double_terms, elapsed

        op = f"F0 pass {index}"
        out = guarded(tally, op, run)
        if out is None:
            return
        f0, fk, double_terms, elapsed = out
        # the single is a disk: its self term has a closed form
        coef = 0.5 * (gamma.g11 if species == 1 else gamma.g22)
        disk = placement.disk_self_interaction(mass)
        expected = fk + double_terms + coef * (disk + mass * mass * torus_green.R0)
        err = abs(f0 - expected)
        if tally.record(op, err <= F0_DISK_TOL * abs(coef * disk),
                        f"F0 {f0!r} vs FK + self terms with the closed-form "
                        f"disk {expected!r}"):
            self._sample(samples, "f0_ms", index, *elapsed)

    def _green_table(self, rec, tally, index, rng):
        pts = rng.uniform(-0.5, 0.5, size=(self.points, 2))
        r = np.hypot(pts[:, 0], pts[:, 1])
        pts, r = pts[r > 1e-3], r[r > 1e-3]
        inner = r < 0.5

        def run():
            ewald = rec.call("torus_green.green", torus_green.green, pts)
            grad = rec.call("torus_green.green_gradient", torus_green.green_gradient,
                            pts)
            reg = rec.call("torus_green.regular_part", torus_green.regular_part,
                           pts[inner])
            spectral = rec.call("torus_green.green_spectral",
                                torus_green.green_spectral, pts)
            # central differences of the independent spectral route, away
            # from the singularity where the stencil error stays below 1e-7
            far, h = pts[r > 0.05], 1e-5
            fd = np.stack([(torus_green.green_spectral(far + h * e)
                            - torus_green.green_spectral(far - h * e)) / (2 * h)
                           for e in np.eye(2)], axis=1)
            return ewald, grad, reg, spectral, fd

        op = f"green table pass {index}"
        out = guarded(tally, op, run)
        if out is None:
            return
        ewald, grad, reg, spectral, fd = out
        for name, count in (("green", len(pts)), ("green_gradient", len(pts)),
                            ("regular_part", int(inner.sum())),
                            ("green_spectral", len(pts))):
            rec.count(f"torus_green.{name}.points", count)
        why = []
        gap = float(np.max(np.abs(ewald - spectral)))
        if gap > 1e-10:
            why.append(f"green vs green_spectral {gap:.3e}")
        reg_gap = float(np.max(np.abs(
            reg - ewald[inner] - np.log(r[inner]) / (2 * math.pi))))
        if reg_gap > 1e-12:
            why.append(f"regular_part mismatch {reg_gap:.3e}")
        grad_gap = float(np.max(np.abs(grad[r > 0.05] - fd)))
        if grad_gap > 1e-6:
            why.append(f"green_gradient vs spectral difference {grad_gap:.3e}")
        tally.record(op, not why, "; ".join(why))


WORKLOADS = {w.name: w for w in (Relax, Sweep, Place)}
