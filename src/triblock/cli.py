"""Command-line pipelines tying the droplet toolkit into experiments.

Each subcommand runs one pipeline and writes its artifacts into an output
directory: a result JSON, any CSV tables or PGM snapshots, and a manifest
listing the SHA-256 of every artifact together with library versions, the
seed, and the Green-function regular-part constant.  Configuration comes
from a JSON file (--config), from flags mirroring the config keys, or
both; flags win.  Every artifact embeds the hash of the resolved
configuration, and a rerun with the same configuration produces
byte-identical artifacts.

Non-finite numbers are serialized as the strings "inf"/"-inf" and nan as
null, keeping every artifact strictly JSON.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import numbers
import sys
from itertools import permutations, product
from pathlib import Path

import numpy as np
import scipy

from triblock import __version__
from triblock import torus_green as TG
from triblock.geometry import (
    ConvergenceError,
    GammaMatrix,
    e0,
    perimeter,
    solve_geometry,
)
from triblock.partition import (
    classify_regime,
    ebar,
    write_sweep_csv,
)
from triblock.phasefield import (
    diffuse_energy,
    droplet_field,
    extract_components,
    noisy_uniform_field,
    relax,
    scaled_gamma,
    sharp_energy,
    threshold,
    write_field_pgm,
    write_trace_csv,
)
from triblock.placement import FK, Layout, minimize_FK, F0
from triblock.torus_green import wrap

_REQUIRED = object()


@dataclasses.dataclass(frozen=True)
class _Param:
    """One schema entry: value kind, default (_REQUIRED if mandatory)."""

    kind: str
    default: object = _REQUIRED
    help: str = ""


_GAMMA_HELP = "interaction coefficients G11 G22 G12"
# Partition-search keys that existing configs still pass
_NO_EFFECT = "accepted; no effect on the search"

_RELAX_SCHEMA = {
    "n": _Param("pos_int", 256, "grid points per side"),
    "eta": _Param("unit", 0.06, "droplet length scale"),
    "epsilon": _Param("opt_pos", None, "interface width (default 2/n)"),
    "dt": _Param("opt_pos", None, "time step (default epsilon/n)"),
    "steps": _Param("nonneg_int", 500, "descent steps"),
    "trace_every": _Param("pos_int", 10, "energy trace stride"),
    "gamma": _Param("gamma", (1.0, 1.0, 0.0), _GAMMA_HELP),
    "init": _Param("init", "droplets", "initial state: droplets or noise"),
    "masses": _Param("opt_mass_pairs", None,
                     "cluster mass pairs, JSON like [[4,0],[0,4]]"),
    "centers": _Param("opt_points", None,
                      "cluster centers, JSON like [[0.25,0.25],[0.75,0.75]]"),
    "means": _Param("opt_pair", None, "species means for noise init"),
    "amplitude": _Param("pos", 1e-2, "noise amplitude"),
    "printed_well": _Param("bool", False, "use the non-coercive well variant"),
    "seed": _Param("nonneg_int", 0, "noise seed"),
}

_SCHEMAS = {
    "bubble": {
        "m1": _Param("pos", help="first lobe mass"),
        "m2": _Param("pos", help="second lobe mass"),
        "gamma": _Param("opt_gamma", None,
                        _GAMMA_HELP + " (adds the droplet energy)"),
    },
    "partition": {
        "M1": _Param("pos", help="total mass of species 1"),
        "M2": _Param("pos", help="total mass of species 2"),
        "gamma": _Param("gamma", (1.0, 1.0, 0.0), _GAMMA_HELP),
        "restarts": _Param("pos_int", 16, _NO_EFFECT),
        "seed": _Param("nonneg_int", 0, _NO_EFFECT),
    },
    "green": {
        "x": _Param("float", help="first coordinate"),
        "y": _Param("float", help="second coordinate"),
    },
    "place": {
        "masses": _Param("mass_pairs",
                         help="cluster mass pairs, JSON like [[1,0],[0,1]]"),
        "gamma": _Param("gamma", (1.0, 1.0, 0.0), _GAMMA_HELP),
        "restarts": _Param("pos_int", 8, "descent restarts"),
        "seed": _Param("nonneg_int", 0, "restart seed"),
        "with_f0": _Param("bool", False, "also evaluate the second-level energy"),
    },
    "relax": dict(_RELAX_SCHEMA),
    "compare": dict(
        _RELAX_SCHEMA,
        level=_Param("unit", 0.5, "threshold level"),
        search_restarts=_Param("pos_int", 16, _NO_EFFECT),
        place_restarts=_Param("pos_int", 8, "placement descent restarts"),
    ),
    "regime-sweep": {
        "M1_values": _Param("pos_list", help="species-1 totals"),
        "M2_values": _Param("pos_list", help="species-2 totals"),
        "g12_values": _Param("nonneg_list", help="cross-interaction values"),
        "g11": _Param("pos", 1.0, "self-interaction of species 1"),
        "g22": _Param("pos", 1.0, "self-interaction of species 2"),
        "restarts": _Param("pos_int", 8, _NO_EFFECT),
        "seed": _Param("nonneg_int", 0, _NO_EFFECT),
        "run_search": _Param("bool", True, "solve each cell, not just bounds"),
    },
}

_SWEEP_COLUMNS = [
    "M1", "M2", "g11", "g22", "g12", "ebar", "n_double", "n_single1",
    "n_single2", "max_mass1", "max_mass2", "gamma12_split", "one_double",
    "all_singles", "coexistence", "guarantee", "error", "config_sha256",
]


# ---------------------------------------------------------------------------
# Parameter validation.

def _finite(name, value) -> float:
    """value as a finite float; booleans and strings are not numbers."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return v


def _json_text(name, value):
    """Decode a list given as JSON text; other values pass unchanged."""
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except json.JSONDecodeError as err:
        raise ValueError(f"{name}: not valid JSON ({err})") from None


def _pair_list(name, value, what):
    value = _json_text(name, value)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of {what} pairs")
    out = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"{name}: each {what} needs two numbers, "
                             f"got {item!r}")
        out.append([_finite(name, item[0]), _finite(name, item[1])])
    return out


def _check(kind, name, value):
    """Validate one parameter and return it as JSON-native data."""
    if kind.startswith("opt_"):
        if value is None:
            return None
        kind = kind[4:]
    if kind == "pos":
        v = _finite(name, value)
        if v <= 0.0:
            raise ValueError(f"{name} must be positive, got {v!r}")
        return v
    if kind == "unit":
        v = _finite(name, value)
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {v!r}")
        return v
    if kind == "float":
        return _finite(name, value)
    if kind in ("pos_int", "nonneg_int"):
        integral = isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())
        if isinstance(value, bool) or not integral:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        v = int(value)
        low = 1 if kind == "pos_int" else 0
        if v < low:
            raise ValueError(f"{name} must be >= {low}, got {v}")
        return v
    if kind == "bool":
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")
        return value
    if kind == "gamma":
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise ValueError(f"{name} needs three numbers (g11, g22, g12)")
        g11, g22, g12 = (_finite(name, v) for v in value)
        GammaMatrix(g11, g22, g12)  # range checks
        return [g11, g22, g12]
    if kind == "pair":
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"{name} needs two numbers")
        return [_finite(name, v) for v in value]
    if kind == "mass_pairs":
        pairs = _pair_list(name, value, "mass")
        if not pairs:
            raise ValueError(f"{name} must not be empty")
        for m1, m2 in pairs:
            if m1 < 0.0 or m2 < 0.0 or m1 + m2 <= 0.0:
                raise ValueError(f"{name}: bad mass pair ({m1!r}, {m2!r})")
        return pairs
    if kind == "points":
        return _pair_list(name, value, "point")
    if kind in ("pos_list", "nonneg_list"):
        value = _json_text(name, value)
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list of numbers")
        low = 0.0
        out = [_finite(name, v) for v in value]
        for v in out:
            if v < low or (kind == "pos_list" and v == 0.0):
                raise ValueError(f"{name}: value {v!r} out of range")
        return out
    if kind == "init":
        if value not in ("droplets", "noise"):
            raise ValueError(f"init must be 'droplets' or 'noise', got {value!r}")
        return value
    raise AssertionError(f"unknown parameter kind {kind!r}")


def _resolve_relax(params: dict) -> dict:
    """Fill the derived defaults and cross-check the relax-style keys."""
    try:
        n = float(params["n"])
    except OverflowError:
        raise ValueError(f"n is too large, got {params['n']}") from None
    if params["epsilon"] is None:
        params["epsilon"] = 2.0 / n
    if params["dt"] is None:
        params["dt"] = params["epsilon"] / n
    if params["init"] == "droplets":
        if params["masses"] is None or params["centers"] is None:
            raise ValueError("droplets init needs masses and centers")
        if len(params["masses"]) != len(params["centers"]):
            raise ValueError("need one center per mass pair")
    else:
        if params["means"] is None:
            raise ValueError("noise init needs means")
        for m in params["means"]:
            if not 0.0 <= m < 1.0:
                raise ValueError(f"means must lie in [0, 1), got {m!r}")
    return params


def resolve_parameters(command: str, file_params: dict, overrides: dict) -> dict:
    """Merge defaults, config-file values, and flag overrides, then validate.

    The returned dict is fully resolved (derived defaults filled in) and
    JSON-native, so its canonical dump identifies the experiment.
    """
    schema = _SCHEMAS[command]
    unknown = sorted(set(file_params) - set(schema))
    if unknown:
        raise ValueError(f"{command}: unknown config keys {unknown}")
    params = {}
    for key, spec in schema.items():
        if overrides.get(key) is not None:
            raw = overrides[key]
        elif key in file_params:
            raw = file_params[key]
        elif spec.default is _REQUIRED:
            raise ValueError(f"{command}: missing required parameter '{key}'")
        else:
            raw = list(spec.default) if isinstance(spec.default, tuple) \
                else spec.default
        params[key] = _check(spec.kind, key, raw)
    if command in ("relax", "compare"):
        params = _resolve_relax(params)
    return params


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A validated pipeline invocation: command, parameters, output dir."""

    command: str
    parameters: dict
    out_dir: str

    def __post_init__(self):
        if self.command not in _SCHEMAS:
            raise ValueError(f"unknown command {self.command!r}")

    def canonical(self) -> str:
        return json.dumps({"command": self.command,
                           "parameters": self.parameters},
                          sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Serialization helpers.

def _jsonable(obj):
    """Recursively convert to JSON-native data (nan -> null, inf -> 'inf')."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def _dump_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Pipelines.  Each runner returns (result dict, extra artifact paths).

def _run_bubble(params, out, cfg_hash):
    m = (params["m1"], params["m2"])
    result = {"masses": list(m),
              "perimeter": perimeter(m),
              "geometry": solve_geometry(m)}
    if params["gamma"] is not None:
        result["e0"] = e0(m, GammaMatrix(*params["gamma"]))
    return result, []


def _run_partition(params, out, cfg_hash):
    gamma = GammaMatrix(*params["gamma"])
    report = classify_regime((params["M1"], params["M2"]), gamma,
                             run_search=True)
    search = report.pop("search")
    result = {
        "M": [params["M1"], params["M2"]],
        "gamma": params["gamma"],
        "ebar": search["energy"],
        "configuration": search["configuration"].as_dict(),
        "counts": search["counts"],
        "consistent": search["consistent"],
        "regime": report,
    }
    return result, []


def _run_green(params, out, cfg_hash):
    p = np.array([params["x"], params["y"]])
    result = {"point": [params["x"], params["y"]],
              "green": float(TG.green(p)),
              "gradient": TG.green_gradient(p),
              "regular_part_zero": TG.R0}
    try:
        result["regular_part"] = TG.regular_part((params["x"], params["y"]))
    except ValueError:
        result["regular_part"] = None  # outside the expansion radius
    return result, []


def _run_place(params, out, cfg_hash):
    gamma = GammaMatrix(*params["gamma"])
    masses = [tuple(m) for m in params["masses"]]
    layout, info = minimize_FK(masses, gamma, restarts=params["restarts"],
                               seed=params["seed"], full_output=True)
    result = {"layout": layout.as_dict(),
              "fk": info["energy"],
              "grad_norm": info["grad_norm"],
              "diagnostics": {"restarts": info["restarts"]}}
    if params["with_f0"]:
        result["f0"] = F0(layout, gamma)
    return result, []


def _relax_pipeline(params, out, cfg_hash):
    """Shared by relax and compare: run the flow, write snapshot and trace."""
    n, eta, eps = params["n"], params["eta"], params["epsilon"]
    gamma = GammaMatrix(*params["gamma"])
    if params["init"] == "droplets":
        field = droplet_field(n, eps, eta,
                              [tuple(m) for m in params["masses"]],
                              [tuple(c) for c in params["centers"]])
    else:
        field = noisy_uniform_field(n, eps, params["means"],
                                    amplitude=params["amplitude"],
                                    seed=params["seed"])
    gsc = scaled_gamma(gamma, eta)
    final, trace = relax(field, gsc, dt=params["dt"], steps=params["steps"],
                         printed_well=params["printed_well"],
                         trace_every=params["trace_every"])
    parts = diffuse_energy(final, gsc, printed_well=params["printed_well"],
                           parts=True)
    stem = str(out / "field")
    meta = {"eta": eta, "gamma": params["gamma"], "step": params["steps"],
            "energy": parts["total"], "dt": params["dt"], "threads": 1,
            "config_sha256": cfg_hash}
    paths = [Path(p) for p in write_field_pgm(
        final, stem, metadata=meta, comment=f"config_sha256={cfg_hash}")]
    trace_path = out / "trace.csv"
    write_trace_csv(trace, str(trace_path),
                    comment=f"config_sha256={cfg_hash}")
    paths.append(trace_path)
    return final, trace, parts, paths


def _run_relax(params, out, cfg_hash):
    final, trace, parts, paths = _relax_pipeline(params, out, cfg_hash)
    result = {"n": params["n"], "eta": params["eta"],
              "epsilon": params["epsilon"], "dt": params["dt"],
              "steps": params["steps"], "energy": parts,
              "means": list(final.means()),
              "trace_rows": len(trace)}
    return result, paths


def _center_mismatch(ext_points, opt_points, masses):
    """Largest matched center distance, minimized over translations induced
    by mass-compatible permutations (the optimum is only defined up to a
    torus translation)."""
    K = len(ext_points)
    if K > 7:
        return None
    ext = np.asarray(ext_points, dtype=float)
    opt = np.asarray(opt_points, dtype=float)
    m = [tuple(p) for p in masses]
    best = None
    for perm in permutations(range(K)):
        if any(m[k] != m[perm[k]] for k in range(K)):
            continue
        shift = wrap(opt[perm[0]] - ext[0])
        d = wrap(ext + shift - opt[list(perm)])
        worst = float(np.max(np.hypot(d[:, 0], d[:, 1])))
        if best is None or worst < best:
            best = worst
    return best


def _run_compare(params, out, cfg_hash):
    final, trace, parts, paths = _relax_pipeline(params, out, cfg_hash)
    gamma = GammaMatrix(*params["gamma"])
    eta = params["eta"]
    sharp = threshold(final, params["level"], eta=eta)
    conf, centers = extract_components(sharp)
    energy_sharp = sharp_energy(sharp, gamma)

    if params["init"] == "droplets":
        M = (sum(m[0] for m in params["masses"]),
             sum(m[1] for m in params["masses"]))
    else:
        M = (params["means"][0] / eta ** 2, params["means"][1] / eta ** 2)
    value, best = ebar(M, gamma)

    structure = {"extracted_counts": conf.counts(),
                 "optimal_counts": best.counts(),
                 "match": conf.counts() == best.counts(),
                 "components": conf.as_dict(),
                 "centers": [list(c) for c in centers],
                 "overlap_fraction": sharp.overlap_fraction}
    energy = {"sharp": energy_sharp, "ebar": value,
              "relative_gap": (energy_sharp - value) / value}

    placement = {"k": len(conf.clusters)}
    if len(conf.clusters) >= 2:
        masses = [(c.m1, c.m2) for c in conf.clusters]
        extracted = Layout(tuple(centers), tuple(masses))
        optimal, info = minimize_FK(masses, gamma,
                                    restarts=params["place_restarts"],
                                    seed=params["seed"], full_output=True)
        fk_ext = FK(extracted, gamma)
        fk_opt = info["energy"]
        placement.update(
            fk_extracted=fk_ext, fk_optimal=fk_opt,
            gap=fk_ext - fk_opt,
            relative_gap=((fk_ext - fk_opt) / abs(fk_opt)
                          if abs(fk_opt) > 1e-12 else None),
            max_center_distance=_center_mismatch(
                centers, optimal.points, masses))

    result = {"M": list(M), "gamma": params["gamma"], "energy": energy,
              "structure": structure, "placement": placement,
              "diffuse_energy": parts}
    return result, paths


def _run_regime_sweep(params, out, cfg_hash):
    rows = []
    failures = 0
    for m1, m2, g12 in product(params["M1_values"], params["M2_values"],
                               params["g12_values"]):
        row = {c: "" for c in _SWEEP_COLUMNS}
        row.update(M1=m1, M2=m2, g11=params["g11"], g22=params["g22"],
                   g12=g12, config_sha256=cfg_hash)
        try:
            gamma = GammaMatrix(params["g11"], params["g22"], g12)
            rep = classify_regime((m1, m2), gamma, run_search=False)
            th = rep["thresholds"]
            row.update(max_mass1=th.max_mass[0], max_mass2=th.max_mass[1],
                       gamma12_split=th.gamma12_split,
                       one_double=rep["one_double"]["holds"],
                       all_singles=rep["all_singles"]["holds"],
                       coexistence=rep["coexistence"]["holds"],
                       guarantee=rep["guarantee"])
            if params["run_search"]:
                value, conf = ebar((m1, m2), gamma)
                counts = conf.counts()
                row.update(ebar=value,
                           n_double=counts["double"],
                           n_single1=counts["single_type1"],
                           n_single2=counts["single_type2"])
        except (ValueError, ConvergenceError, RuntimeError) as err:
            row["error"] = f"{type(err).__name__}: {err}"
            failures += 1
        rows.append(row)
    sweep_path = out / "sweep.csv"
    write_sweep_csv(sweep_path, rows, columns=_SWEEP_COLUMNS)
    result = {"rows": len(rows), "failures": failures,
              "columns": _SWEEP_COLUMNS}
    return result, [sweep_path]


_RUNNERS = {
    "bubble": _run_bubble,
    "partition": _run_partition,
    "green": _run_green,
    "place": _run_place,
    "relax": _run_relax,
    "compare": _run_compare,
    "regime-sweep": _run_regime_sweep,
}


def run(config: ExperimentConfig) -> dict:
    """Execute one pipeline; write result.json and manifest.json.

    Returns the result object (already written to disk).  Raises ValueError
    on bad inputs and RuntimeError/ConvergenceError when a solver fails.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_hash = config.sha256()
    result, extra = _RUNNERS[config.command](config.parameters, out, cfg_hash)
    result = {"command": config.command, "config_sha256": cfg_hash, **result}
    result_path = out / "result.json"
    _dump_json(result, result_path)
    artifacts = {p.name: _sha256_file(Path(p)) for p in [result_path, *extra]}
    manifest = {
        "command": config.command,
        "config_sha256": cfg_hash,
        "parameters": config.parameters,
        "seed": config.parameters.get("seed"),
        "versions": {"python": "%d.%d.%d" % sys.version_info[:3],
                     "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "artifact": __version__},
        "green_regular_part_zero": TG.R0,
        "threads": 1,
        "artifacts": artifacts,
    }
    _dump_json(manifest, out / "manifest.json")
    return result


# ---------------------------------------------------------------------------
# Argument parsing.

def _add_flags(sub, schema):
    for key, spec in schema.items():
        flag = "--" + key.replace("_", "-")
        kind = spec.kind
        if kind == "bool":
            sub.add_argument(flag, dest=key, default=None,
                             action=argparse.BooleanOptionalAction,
                             help=spec.help)
        elif kind in ("gamma", "opt_gamma"):
            sub.add_argument(flag, dest=key, nargs=3, type=float,
                             default=None, metavar=("G11", "G22", "G12"),
                             help=spec.help)
        elif kind in ("pair", "opt_pair"):
            sub.add_argument(flag, dest=key, nargs=2, type=float,
                             default=None, help=spec.help)
        elif kind in ("pos_list", "nonneg_list"):
            sub.add_argument(flag, dest=key, nargs="*", type=float,
                             default=None, help=spec.help)
        elif kind in ("mass_pairs", "opt_mass_pairs", "points", "opt_points"):
            sub.add_argument(flag, dest=key, default=None, metavar="JSON",
                             help=spec.help)
        elif kind in ("pos_int", "nonneg_int"):
            sub.add_argument(flag, dest=key, type=int, default=None,
                             help=spec.help)
        elif kind == "init":
            sub.add_argument(flag, dest=key, choices=("droplets", "noise"),
                             default=None, help=spec.help)
        else:
            sub.add_argument(flag, dest=key, type=float, default=None,
                             help=spec.help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triblock",
        description="Droplet-energy pipelines: geometry, partitions, "
                    "Green values, placement, relaxation, and sweeps.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        sub = subs.add_parser(command, help=f"run the {command} pipeline")
        sub.add_argument("--config", default=None,
                         help="JSON file with parameters (flags override)")
        sub.add_argument("--out", default=None,
                         help="output directory (default: <command>-out)")
        _add_flags(sub, schema)
    return parser


def _load_config_file(path: str, command: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    if "parameters" in data:
        named = data.get("command")
        if named is not None and named != command:
            raise ValueError(
                f"config file is for '{named}', not '{command}'")
        data = data["parameters"]
        if not isinstance(data, dict):
            raise ValueError("config 'parameters' must be a JSON object")
    return data


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        file_params = (_load_config_file(args.config, command)
                       if args.config else {})
        overrides = {k: getattr(args, k) for k in _SCHEMAS[command]}
        params = resolve_parameters(command, file_params, overrides)
        config = ExperimentConfig(command, params,
                                  args.out or f"{command}-out")
        result = run(config)
    except (OSError, ValueError, ConvergenceError, RuntimeError) as err:
        payload = {"command": command,
                   "error": {"type": type(err).__name__,
                             "message": str(err)}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2
    print(json.dumps(_jsonable(result), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
