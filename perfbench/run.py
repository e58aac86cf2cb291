"""triblock benchmark: one workload per run, one JSON result on the last line.

From the repository root:

    python3 perfbench/run.py --workload relax --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs every pass twice, untraced and then traced on the same inputs, and
reports the per-layer metrics from the traced ones, plus the tracing
overhead as the difference between the two.  --tiny shrinks every
workload for the smoke test.  Inputs depend only on --seed.  Timings are
scaled to a nominal machine speed by a reference computation run next to
them (see speed.py); the raw times are printed as comment lines.  Thread pools are pinned to one thread before numpy loads,
and the triblock sources are taken from src/ of this checkout, never from
an installed copy.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

from speed import Meter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 7
MIN_PASSES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "op1_ms": "ms", "op2_ms": "ms", "op3_ms": "ms"}

BUSY = ("phasefield.relax", "phasefield.relax.n512", "phasefield.relax.n64",
        "phasefield.droplet_field", "phasefield.noisy_uniform_field",
        "phasefield.threshold", "phasefield.extract_components",
        "phasefield.sharp_energy", "phasefield.write_field_pgm",
        "phasefield.write_trace_csv", "geometry.solve_geometry",
        "geometry.perimeter", "geometry.e0", "partition.ebar",
        "partition.ebar_oracle", "partition.classify_regime",
        "partition.check_necessary_conditions", "partition.quantization_bound",
        "cli.run", "torus_green.green", "torus_green.green_gradient",
        "torus_green.green_spectral", "torus_green.regular_part",
        "placement.minimize_FK", "placement.F0", "placement.FK")
CALLS = ("geometry.solve_geometry", "geometry.perimeter", "geometry.e0",
         "partition.ebar", "partition.ebar_oracle", "partition.classify_regime",
         "partition.check_necessary_conditions", "partition.quantization_bound",
         "cli.run", "placement.minimize_FK")
FAILED = ("geometry.solve_geometry", "geometry.perimeter", "geometry.e0")
COUNTS = {"phasefield.relax.steps": "count", "phasefield.relax.trace_rows": "count",
          "partition.ebar_oracle.states": "count", "cli.run.artifact_bytes": "B",
          "torus_green.green.points": "count",
          "torus_green.green_gradient.points": "count",
          "torus_green.green_spectral.points": "count",
          "torus_green.regular_part.points": "count",
          "placement.minimize_FK.restarts": "count",
          "placement.minimize_FK.restarts_converged": "count"}
MODULES = ("phasefield", "geometry", "partition", "cli", "torus_green",
           "placement", "bench")


def _per_layer_units() -> dict:
    units = {f"{p}.busy_s": "s" for p in BUSY}
    units.update({f"{p}.calls": "count" for p in CALLS})
    units.update({f"{p}.failed": "count" for p in FAILED})
    units.update(COUNTS)
    units["placement.minimize_FK.converged_ratio"] = "ratio"
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({"bench.passes": "count", "bench.attempted": "count",
                  "bench.failed": "count", "bench.failed_frac": "ratio",
                  "bench.known_defects": "count", "trace.spans": "count",
                  "trace.plain_wall_s": "s", "trace.traced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.overhead_frac": "ratio"})
    return units


PER_LAYER = _per_layer_units()


def _use_checkout_source() -> None:
    """Import triblock from src/ next to this directory, or stop."""
    if not (SRC / "triblock" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no triblock sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import triblock
    if Path(triblock.__file__).resolve().parent != (SRC / "triblock").resolve():
        raise SystemExit(f"benchmark: triblock imported from {triblock.__file__}")


def _setup_times(workload: str, repeats: int, meter) -> tuple:
    """Wall time of fresh interpreters that import triblock and make the
    workload's first calls, raw and at nominal speed.  Each probe prints
    the system-wide monotonic clock when it is done, so the time excludes
    the polling delay of waiting for it with a timeout.  The references
    run in this process before and after each probe, while nothing else
    of the benchmark runs; imports are interpreted code, of kind
    "python"."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = WORK / f"setup-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    raw, scaled = [], []
    for _ in range(repeats):
        before = meter.reference()
        start = clock_gettime(CLOCK_MONOTONIC)
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                                workload, str(work)], env=env, check=True,
                               timeout=150, stdout=subprocess.PIPE, text=True)
        elapsed = float(probe.stdout.split()[-1]) - start
        after = meter.reference()
        raw.append(elapsed)
        scaled.append(meter.scale("python", elapsed, before, after))
    shutil.rmtree(work, ignore_errors=True)
    return raw, scaled


def _quantile(values: list, level: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[level - 1]


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it
    (never below the median)."""
    return max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / n)))) if n else 50


def _environment(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def _run_passes(wl, tally, recorders, seconds: float) -> list:
    """Run pass after pass, each once per recorder on the same inputs,
    until `seconds` have passed and there are MIN_PASSES passes.  Returns
    per recorder: raw pass times and pass times at nominal speed, both
    without the references run inside the pass, and the samples."""
    results = [([], [], defaultdict(list)) for _ in recorders]
    meter = wl.meter
    deadline = perf_counter() + seconds
    index = 0
    while index < MIN_PASSES or perf_counter() < deadline:
        for rec, (raw, scaled, samples) in zip(recorders, results):
            first_ref, spent = len(meter.slowness), meter.spent
            start = perf_counter()
            with rec.span("bench.pass", item=f"p{index}"):
                wl.run_pass(rec, tally, index, samples)
            elapsed = perf_counter() - start - (meter.spent - spent)
            raw.append(elapsed)
            scaled.append(meter.scale_since(wl.kind, elapsed, first_ref))
        index += 1
    return results


def _pass_means(values) -> list:
    """Mean of each pass's scaled samples: one value per pass, so every
    pass weighs the same whatever mix of inputs it drew."""
    by_pass = defaultdict(list)
    for index, _, scaled in values:
        by_pass[index].append(scaled)
    return [statistics.fmean(v) for v in by_pass.values()]


def _end_to_end(wl, setup, times, samples) -> tuple:
    """Every timing is a median over the run, at nominal machine speed."""
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(times),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    notes = {"setup_s": f"fresh interpreter, median of {len(setup)}",
             "wall_s": f"one warm pass, median of {len(times)}",
             "peak_rss_mb": "peak resident set of the measuring process"}
    for slot, (key, desc) in enumerate(wl.ops, start=1):
        means = _pass_means(samples.get(key, []))
        metrics[f"op{slot}_ms"] = statistics.median(means) if means else 0.0
        notes[f"op{slot}_ms"] = f"{key}: {desc}, median of {len(means)} pass means"
    return metrics, notes


def _spread_line(name: str, values: list) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    level = tail_level(len(values))
    return (f"timed {name}: p50 {statistics.median(values):.4f}, "
            f"p{level} {_quantile(values, level):.4f}, n={len(values)}")


def _sample_lines(samples, setup_raw, raw_times) -> list:
    """Every timed operation, raw and at nominal speed, with sample counts."""
    lines = [_spread_line("setup_s raw", setup_raw),
             _spread_line("wall_s raw", raw_times)]
    for key, values in sorted(samples.items()):
        lines.append(_spread_line(f"{key} raw", [v[1] for v in values]))
        lines.append(_spread_line(f"{key} scaled", [v[2] for v in values]))
    return lines


def _per_layer(traced, plain_times, traced_times, tally) -> dict:
    """Per traced pass; the wall times exclude the speed references."""
    from spans import layer_totals, prefix_total
    passes = len(traced_times)
    totals = layer_totals(traced.spans)
    names = totals["names"]
    m = {}
    for p in BUSY:
        m[f"{p}.busy_s"] = prefix_total(names, p, "busy_s") / passes
    for p in CALLS:
        m[f"{p}.calls"] = prefix_total(names, p, "calls") / passes
    for p in FAILED:
        m[f"{p}.failed"] = prefix_total(names, p, "failed") / passes
    for name in COUNTS:
        m[name] = traced.counts.get(name, 0.0) / passes
    restarts = m["placement.minimize_FK.restarts"]
    m["placement.minimize_FK.converged_ratio"] = (
        m["placement.minimize_FK.restarts_converged"] / restarts if restarts else 0.0)
    for mod in MODULES:
        m[f"{mod}.self_s"] = totals["module_self_s"].get(mod, 0.0) / passes
    plain_wall = statistics.median(plain_times)
    traced_wall = statistics.median(traced_times)
    m.update({"bench.passes": passes, "bench.attempted": tally.attempted,
              "bench.failed": tally.failed,
              "bench.failed_frac": tally.failed / max(tally.attempted, 1),
              "bench.known_defects": tally.known_defects,
              "trace.spans": len(traced.spans) / passes,
              "trace.plain_wall_s": plain_wall, "trace.traced_wall_s": traced_wall,
              "trace.overhead_s": traced_wall - plain_wall,
              "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall})
    return m


def _write_spans(spans, path: Path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.as_dict()) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("relax", "sweep", "place"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one set-up; for the smoke test")
    args = parser.parse_args(argv)

    _use_checkout_source()
    from spans import Recorder
    from workloads import WORKLOADS, Tally

    env = _environment(args)
    print("# environment " + json.dumps(env, sort_keys=True))
    meter = Meter()
    if args.trace == 0:
        setup_raw, setup = _setup_times(
            args.workload, 1 if args.tiny else SETUP_REPEATS, meter)

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.tiny, work, meter)
        wl.first_calls()
        tally = Tally()
        wl.prepare(Recorder(False), tally)
        if args.trace == 0:
            [(raw_times, times, samples)] = _run_passes(
                wl, tally, [Recorder(False)], args.seconds)
            metrics, notes = _end_to_end(wl, setup, times, samples)
            extra = _sample_lines(samples, setup_raw, raw_times)
            units = END_TO_END
            extra.append("machine slowness (1 = nominal), median over "
                         f"{len(meter.slowness)} reference runs: " + ", ".join(
                             f"{kind} {statistics.median(s[kind] for s in meter.slowness):.3f}"
                             for kind in ("array", "python")))
        else:
            traced = Recorder(True)
            (plain_times, _, _), (traced_times, _, _) = _run_passes(
                wl, tally, [Recorder(False), traced], args.seconds)
            metrics = _per_layer(traced, plain_times, traced_times, tally)
            notes, extra = {}, []
            units = PER_LAYER
            _write_spans(traced.spans, WORK / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"# {name:<44} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    for line in extra:
        print(f"# {line}")
    print(f"# operations attempted {tally.attempted}, failed {tally.failed}, "
          f"known-defect failures {tally.known_defects}, failed_frac "
          f"{(tally.failed + tally.known_defects) / max(tally.attempted, 1):.4g}")
    for note in tally.notes:
        print(f"# failed: {note}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
