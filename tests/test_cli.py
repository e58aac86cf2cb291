"""CLI pipelines: flags, config files, artifacts, manifests, determinism."""

import hashlib
import json
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triblock import torus_green as TG
from triblock.cli import _SCHEMAS, ExperimentConfig, main, resolve_parameters
from triblock.cli import _center_mismatch
from triblock.cli import _write_sweep_csv as write_sweep_csv
from triblock.placement import disk_self_interaction
from triblock.torus_green import wrap

SYM_PERIMETER = 2.0 * math.sqrt(2.0) * math.sqrt(
    4.0 * math.pi / 3.0 + math.sqrt(3.0) / 2.0)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_bubble_prints_perimeter_and_geometry(tmp_path, capsys):
    out = tmp_path / "b"
    rc, stdout, _ = run_cli(capsys, "bubble", "--m1", "1", "--m2", "1",
                            "--out", str(out))
    assert rc == 0
    printed = json.loads(stdout)
    assert printed["perimeter"] == pytest.approx(SYM_PERIMETER, rel=1e-12)
    assert printed["geometry"]["r0"] == "inf"
    assert printed["geometry"]["theta1"] == pytest.approx(2.0 * math.pi / 3.0)
    result = read_json(out / "result.json")
    assert result == printed
    manifest = read_json(out / "manifest.json")
    assert manifest["config_sha256"] == result["config_sha256"]
    digest = hashlib.sha256((out / "result.json").read_bytes()).hexdigest()
    assert manifest["artifacts"]["result.json"] == digest
    assert manifest["green_regular_part_zero"] == pytest.approx(TG.R0)
    assert manifest["threads"] == 1


def test_bubble_with_a_vanishing_lobe(tmp_path, capsys):
    rc, stdout, _ = run_cli(capsys, "bubble", "--m1", "1e-12", "--m2", "1",
                            "--out", str(tmp_path / "b"))
    assert rc == 0
    perimeter = json.loads(stdout)["perimeter"]
    disk = 2.0 * math.sqrt(math.pi)
    assert math.isfinite(perimeter) and disk < perimeter < disk + 1e-5


def test_bubble_with_gamma_adds_droplet_energy(tmp_path, capsys):
    rc, stdout, _ = run_cli(capsys, "bubble", "--m1", "2", "--m2", "3",
                            "--gamma", "1", "1", "0.5",
                            "--out", str(tmp_path / "b"))
    assert rc == 0
    assert json.loads(stdout)["e0"] == pytest.approx(11.528733695255022)


def test_partition_small_masses_weak_coupling_one_double(tmp_path, capsys):
    rc, stdout, _ = run_cli(capsys, "partition", "--M1", "1", "--M2", "1",
                            "--gamma", "1", "1", "0.1",
                            "--out", str(tmp_path / "p"))
    assert rc == 0
    result = json.loads(stdout)
    assert result["ebar"] == pytest.approx(6.53419969136083, rel=1e-9)
    assert result["counts"] == {"double": 1, "single_type1": 0,
                                "single_type2": 0}
    assert result["regime"]["guarantee"] == "one_double"
    assert result["consistent"] is True


def test_partition_search_keys_have_no_effect(tmp_path, capsys):
    # restarts and seed are still accepted, but the search is deterministic
    outs = []
    for extra in ((), ("--restarts", "1", "--seed", "9")):
        rc, stdout, _ = run_cli(capsys, "partition", "--M1", "1.3", "--M2",
                                "0.9", "--gamma", "1", "1", "0.1", *extra,
                                "--out", str(tmp_path / f"p{len(outs)}"))
        assert rc == 0
        outs.append(json.loads(stdout))
    assert outs[0]["ebar"] == outs[1]["ebar"]
    assert outs[0]["configuration"] == outs[1]["configuration"]


def test_green_point_values(tmp_path, capsys):
    rc, stdout, _ = run_cli(capsys, "green", "--x", "0.3", "--y", "0.1",
                            "--out", str(tmp_path / "g"))
    assert rc == 0
    result = json.loads(stdout)
    p = np.array([0.3, 0.1])
    assert result["green"] == pytest.approx(float(TG.green(p)), rel=1e-12)
    assert result["gradient"] == pytest.approx(list(TG.green_gradient(p)))
    assert result["regular_part"] == pytest.approx(TG.regular_part((0.3, 0.1)))
    assert result["regular_part_zero"] == pytest.approx(TG.R0)


def test_green_lattice_point_is_error_json(tmp_path, capsys):
    rc, stdout, stderr = run_cli(capsys, "green", "--x", "0", "--y", "0",
                                 "--out", str(tmp_path / "g"))
    assert rc == 2
    assert stdout == ""
    payload = json.loads(stderr)
    assert payload["error"]["type"] == "ValueError"
    assert payload["command"] == "green"


def test_place_two_equal_masses_diagonal(tmp_path, capsys):
    rc, stdout, _ = run_cli(capsys, "place", "--masses", "[[1,0],[0,1]]",
                            "--gamma", "1", "1", "2",
                            "--out", str(tmp_path / "pl"))
    assert rc == 0
    result = json.loads(stdout)
    assert result["grad_norm"] <= 1e-10
    pts = result["layout"]["points"]
    diff = wrap(np.array(pts[1]) - np.array(pts[0]))
    assert np.abs(diff) == pytest.approx([0.5, 0.5], abs=1e-8)
    # one diagnostics row per restart, with the descent's evaluation counts
    written = json.loads((tmp_path / "pl" / "result.json").read_text())
    rows = written["diagnostics"]["restarts"]
    assert [row["restart"] for row in rows] == list(range(8))
    for row in rows:
        assert {"energy", "grad_norm", "hessian_evals"} <= set(row)
        assert row["hessian_evals"] >= 1


def test_place_with_f0_adds_closed_form_disk_terms(tmp_path, capsys):
    rc, stdout, _ = run_cli(capsys, "place", "--masses", "[[1,0],[0,1]]",
                            "--with-f0", "--out", str(tmp_path / "pl"))
    assert rc == 0
    result = json.loads(stdout)
    # default gamma (1, 1, 0): two unit disks, each adding the closed form
    # (1/2) gamma_ii (disk_self_interaction(1) + 1^2 R0)
    disk = 0.5 * (disk_self_interaction(1.0) + TG.R0)
    assert result["f0"] == pytest.approx(result["fk"] + 2.0 * disk, abs=1e-12)


def test_relax_artifacts_and_snapshot_metadata(tmp_path, capsys):
    out = tmp_path / "r"
    rc, stdout, _ = run_cli(
        capsys, "relax", "--n", "64", "--eta", "0.1", "--steps", "5",
        "--trace-every", "2", "--masses", "[[1,0]]",
        "--centers", "[[0.5,0.5]]", "--out", str(out))
    assert rc == 0
    result = json.loads(stdout)
    assert result["trace_rows"] == 4  # steps 0, 2, 4, 5
    assert result["epsilon"] == pytest.approx(2.0 / 64)
    for name in ("result.json", "manifest.json", "trace.csv",
                 "field_u1.pgm", "field_u2.pgm", "field_meta.json"):
        assert (out / name).exists()
    meta = read_json(out / "field_meta.json")
    for key in ("eta", "gamma", "step", "energy", "dt", "threads",
                "config_sha256", "n", "epsilon"):
        assert key in meta
    assert meta["config_sha256"] == result["config_sha256"]
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == f"# config_sha256={result['config_sha256']}"
    assert trace_lines[1] == "step,total,gradient,well,nonlocal"
    assert len(trace_lines) == 6
    pgm = (out / "field_u1.pgm").read_bytes()
    assert pgm.startswith(b"P5\n# config_sha256=")
    manifest = read_json(out / "manifest.json")
    assert set(manifest["artifacts"]) == {
        "result.json", "trace.csv", "field_u1.pgm", "field_u2.pgm",
        "field_meta.json"}


def test_relax_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["relax", "--n", "64", "--eta", "0.1", "--steps", "4",
            "--trace-every", "2", "--init", "noise", "--means", "0.02", "0.03",
            "--seed", "11"]
    rc1, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "a"))
    rc2, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "b"))
    assert rc1 == 0 and rc2 == 0
    for name in ("result.json", "trace.csv", "field_u1.pgm", "field_u2.pgm",
                 "field_meta.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"command": "bubble", "parameters": {"m1": 2.0, "m2": 3.0}}))
    rc, stdout, _ = run_cli(capsys, "bubble", "--config", str(cfg),
                            "--m2", "4", "--out", str(tmp_path / "b"))
    assert rc == 0
    assert json.loads(stdout)["masses"] == [2.0, 4.0]


def test_config_file_validation(tmp_path, capsys):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"m1": 1.0, "m2": 1.0, "mass3": 2.0}))
    rc, _, stderr = run_cli(capsys, "bubble", "--config", str(bad_key),
                            "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "mass3" in json.loads(stderr)["error"]["message"]

    wrong_cmd = tmp_path / "wrong.json"
    wrong_cmd.write_text(json.dumps(
        {"command": "green", "parameters": {"x": 0.1, "y": 0.1}}))
    rc, _, stderr = run_cli(capsys, "bubble", "--config", str(wrong_cmd),
                            "--out", str(tmp_path / "o"))
    assert rc == 2

    rc, _, stderr = run_cli(capsys, "bubble", "--m1", "1",
                            "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "m2" in json.loads(stderr)["error"]["message"]


def test_validation_error_is_machine_readable(tmp_path, capsys):
    rc, stdout, stderr = run_cli(
        capsys, "relax", "--n", "64", "--eta", "1.5", "--steps", "1",
        "--masses", "[[1,0]]", "--centers", "[[0.5,0.5]]",
        "--out", str(tmp_path / "r"))
    assert rc == 2
    assert stdout == ""
    payload = json.loads(stderr)
    assert payload["error"]["type"] == "ValueError"
    assert "eta" in payload["error"]["message"]


def test_compare_refuses_an_eta_without_a_finite_gamma_factor(tmp_path, capsys):
    rc, stdout, stderr = run_cli(
        capsys, "compare", "--n", "16", "--eta", "1e-300", "--steps", "1",
        "--masses", "[[2,0]]", "--centers", "[[0.5,0.5]]",
        "--out", str(tmp_path / "c"))
    assert rc == 2
    assert stdout == ""
    payload = json.loads(stderr)
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"].startswith("eta must")


@pytest.mark.parametrize("text", ['{"n": [1]}', '{"steps": Infinity}',
                                  '{"seed": {}}', '{"n": null}',
                                  pytest.param('{"n": 1' + "0" * 400 + "}",
                                               id="n=1e400")])
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc, stdout, stderr = run_cli(
        capsys, "relax", "--config", str(cfg), "--masses", "[[1,0]]",
        "--centers", "[[0.5,0.5]]", "--out", str(tmp_path / "r"))
    assert rc == 2
    assert stdout == ""
    assert json.loads(stderr)["error"]["type"] == "ValueError"


# One valid config per command; the fuzz below replaces one key at a time.
VALID_CONFIGS = {
    "bubble": {"m1": 1.0, "m2": 2.0},
    "partition": {"M1": 1.0, "M2": 1.0},
    "green": {"x": 0.1, "y": 0.2},
    "place": {"masses": [[1, 0], [0, 1]]},
    "relax": {"masses": [[1, 0]], "centers": [[0.5, 0.5]]},
    "compare": {"masses": [[1, 0]], "centers": [[0.5, 0.5]]},
    "regime-sweep": {"M1_values": [1.0], "M2_values": [1.0],
                     "g12_values": [0.0]},
}

_JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

# Integer literals beyond the float range: valid JSON, but float() of them
# overflows.
HUGE_INTS = st.builds(lambda digits, sign: sign * 10 ** digits,
                      st.integers(309, 500), st.sampled_from([1, -1]))

WRONG_TYPED_JSON = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.lists(_JSON_ANY, max_size=4),
    st.dictionaries(st.text(max_size=4), _JSON_ANY, max_size=3),
    HUGE_INTS)

INTEGER_KEYS = [(command, key) for command in sorted(_SCHEMAS)
                for key, spec in sorted(_SCHEMAS[command].items())
                if spec.kind in ("pos_int", "nonneg_int")]

# Kinds that hold one real number: every wrong-typed value must raise, bar
# None for an optional key.
SCALAR_KINDS = ("pos", "unit", "float", "opt_pos")


def test_valid_configs_resolve():
    assert sorted(VALID_CONFIGS) == sorted(_SCHEMAS)
    for command, params in VALID_CONFIGS.items():
        resolve_parameters(command, params, {})


@settings(max_examples=200)
@given(data=st.data())
def test_resolve_parameters_fuzz_wrong_types(data):
    command = data.draw(st.sampled_from(sorted(_SCHEMAS)), label="command")
    key = data.draw(st.sampled_from(sorted(_SCHEMAS[command])), label="key")
    value = data.draw(WRONG_TYPED_JSON, label="value")
    params = dict(VALID_CONFIGS[command], **{key: value})
    kind = _SCHEMAS[command][key].kind
    if kind in SCALAR_KINDS and not (value is None and kind.startswith("opt_")):
        with pytest.raises(ValueError, match=key):
            resolve_parameters(command, params, {})
        return
    try:
        resolve_parameters(command, params, {})
    except ValueError:
        pass  # any other exception type fails the test


@pytest.mark.parametrize("command,key,value", [
    ("bubble", "m1", True), ("bubble", "m2", "2.5"), ("green", "x", "0.1"),
    ("relax", "amplitude", False), ("relax", "epsilon", "1e-2"),
    ("partition", "gamma", [1.0, "1", 0.0]),
    ("place", "masses", [[1, 0], [True, 1]]), ("compare", "level", "0.5"),
    ("regime-sweep", "M1_values", [1.0, True]), ("relax", "centers", [["0", 1]])])
def test_numbers_given_as_booleans_or_strings_are_refused(command, key, value):
    params = dict(VALID_CONFIGS[command], **{key: value})
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        resolve_parameters(command, params, {})


@pytest.mark.parametrize("key", ["M1_values", "g12_values"])
def test_list_json_text_is_decoded_or_refused_by_key(key):
    params = dict(VALID_CONFIGS["regime-sweep"], **{key: "[1, 2.5]"})
    assert resolve_parameters("regime-sweep", params, {})[key] == [1.0, 2.5]
    params[key] = "abc"
    with pytest.raises(ValueError, match=f"{key}: not valid JSON") as err:
        resolve_parameters("regime-sweep", params, {})
    assert type(err.value) is ValueError


def test_huge_integer_literal_is_a_value_error():
    with pytest.raises(ValueError):
        resolve_parameters("bubble", {"m1": 10 ** 400, "m2": 1.0}, {})
    with pytest.raises(ValueError, match="n is too large"):
        resolve_parameters("relax", dict(VALID_CONFIGS["relax"], n=10 ** 400), {})


@pytest.mark.parametrize("command,key", INTEGER_KEYS)
@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
def test_huge_integer_literal_for_integer_keys(command, key, value):
    params = dict(VALID_CONFIGS[command], **{key: value})
    try:
        resolve_parameters(command, params, {})
    except ValueError:
        pass  # any other exception type fails the test


def test_compare_pipeline_reports_gaps(tmp_path, capsys):
    rc, stdout, _ = run_cli(
        capsys, "compare", "--n", "256", "--eta", "0.06", "--steps", "200",
        "--trace-every", "50", "--gamma", "1", "1", "6",
        "--masses", "[[2,0],[0,2]]",
        "--centers", "[[0.25,0.25],[0.75,0.75]]",
        "--out", str(tmp_path / "c"))
    assert rc == 0
    result = json.loads(stdout)
    assert result["structure"]["match"] is True
    assert result["structure"]["extracted_counts"] == {
        "double": 0, "single_type1": 1, "single_type2": 1}
    assert abs(result["energy"]["relative_gap"]) < 0.15
    # seeded on the optimal diagonal, so the placement gap closes
    assert result["placement"]["gap"] == pytest.approx(0.0, abs=1e-9)
    assert result["placement"]["max_center_distance"] < 1e-6


def permutation_mismatch(ext, opt, masses):
    """Brute-force oracle for `_center_mismatch`: every mass-compatible
    permutation, with the translation that its center 0 induces."""
    ext, opt = np.asarray(ext, dtype=float), np.asarray(opt, dtype=float)
    m = [tuple(p) for p in masses]
    best = math.inf
    for perm in permutations(range(len(m))):
        if any(m[k] != m[perm[k]] for k in range(len(m))):
            continue
        d = wrap(ext + wrap(opt[perm[0]] - ext[0]) - opt[list(perm)])
        best = min(best, float(np.max(np.hypot(d[:, 0], d[:, 1]))))
    return best


def test_center_mismatch_equals_the_permutation_oracle():
    # the compare pipeline's two singles on the diagonal, then seeded
    # layouts with up to three mass classes, some of them a jittered,
    # shuffled and translated copy of the other and some independent
    cases = [([[0.25, 0.25], [0.75, 0.75]], [[0.0, 0.0], [0.5, 0.5]],
              [(2.0, 0.0), (0.0, 2.0)])]
    rng = np.random.default_rng(7)
    for i in range(50):
        K = 2 + i % 6
        kinds = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)][:1 + i % 3]
        masses = [kinds[k] for k in rng.integers(len(kinds), size=K)]
        opt = rng.uniform(size=(K, 2))
        ext = (rng.uniform(size=(K, 2)) if i % 2 else
               opt[rng.permutation(K)] + rng.uniform(size=2)
               + rng.normal(scale=0.02, size=(K, 2)))
        cases.append((ext, opt, masses))
    for ext, opt, masses in cases:
        assert _center_mismatch(ext, opt, masses) == permutation_mismatch(
            ext, opt, masses)


def test_center_mismatch_of_a_shuffled_translated_copy():
    # both layouts carry the masses in one order, so the copy is shuffled
    # within each mass class
    rng = np.random.default_rng(12)
    opt = rng.uniform(size=(12, 2))
    masses = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.4)] * 4
    order = np.arange(12).reshape(4, 3)[rng.permutation(4)].ravel()
    ext = opt[order] + np.array([0.37, -0.81])
    assert _center_mismatch(ext, opt, masses) <= 1e-12


def test_regime_sweep_crosses_the_splitting_threshold(tmp_path, capsys):
    out = tmp_path / "s"
    rc, _, _ = run_cli(capsys, "regime-sweep", "--M1-values", "1",
                       "--M2-values", "1", "--g12-values", "0", "50",
                       "--restarts", "4", "--out", str(out))
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("M1,M2,g11,g22,g12,ebar,n_double")
    assert len(lines) == 3
    low, high = lines[1].split(","), lines[2].split(",")
    cols = lines[0].split(",")
    assert float(low[cols.index("g12")]) == 0.0
    assert int(low[cols.index("n_double")]) >= 1
    assert float(high[cols.index("g12")]) == 50.0
    assert int(high[cols.index("n_double")]) == 0
    cfg_hash = read_json(out / "result.json")["config_sha256"]
    assert low[cols.index("config_sha256")] == cfg_hash


def test_regime_sweep_empty_grid(tmp_path, capsys):
    out = tmp_path / "s"
    rc, stdout, _ = run_cli(capsys, "regime-sweep", "--M1-values",
                            "--M2-values", "1", "--g12-values", "0",
                            "--out", str(out))
    assert rc == 0
    assert json.loads(stdout)["rows"] == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("M1,M2,")


def test_regime_sweep_records_cell_failure_and_continues(tmp_path, capsys):
    out = tmp_path / "s"
    rc, stdout, _ = run_cli(capsys, "regime-sweep", "--M1-values", "1", "1e4",
                            "--M2-values", "1", "--g12-values", "0.1",
                            "--restarts", "4", "--out", str(out))
    assert rc == 0
    result = json.loads(stdout)
    assert result["rows"] == 2 and result["failures"] == 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert "ValueError" in lines[2] and "ValueError" not in lines[1]
    assert "search bound of 64" in lines[2]
    assert lines[1].split(",")[5] != ""  # the good cell still has its energy
    # the failed search keeps the cell's threshold columns
    cols = lines[0].split(",")
    assert lines[2].split(",")[cols.index("max_mass1")] != ""


def test_write_sweep_csv_deterministic(tmp_path):
    rows = [{"m1": 1.0, "m2": 0.5, "energy": 6.534199691360831},
            {"m1": 2.0, "m2": 1.0, "energy": 9.213}]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    cols = ["energy", "m1", "m2"]
    write_sweep_csv(p1, rows, columns=cols)
    write_sweep_csv(p2, rows, columns=cols)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines() == [
        "energy,m1,m2", "6.5341996913608309,1,0.5", "9.2129999999999992,2,1"]
    empty = tmp_path / "empty.csv"
    write_sweep_csv(empty, [], columns=["m1", "m2", "energy"])
    assert empty.read_text() == "m1,m2,energy\n"


def test_resolve_parameters_and_config_hash():
    params = resolve_parameters("relax", {"masses": [[1, 0]],
                                          "centers": [[0.5, 0.5]]},
                                {"n": 64, "eta": 0.1})
    assert params["epsilon"] == pytest.approx(2.0 / 64)
    assert params["dt"] == pytest.approx(params["epsilon"] / 64)
    a = ExperimentConfig("relax", params, "x").sha256()
    b = ExperimentConfig("relax", dict(params), "elsewhere").sha256()
    assert a == b  # the output directory is not part of the identity
    with pytest.raises(ValueError):
        resolve_parameters("relax", {"masses": [[1, 0]]}, {"n": 64})
    with pytest.raises(ValueError):
        resolve_parameters("relax", {}, {"init": "noise", "n": 64})
    with pytest.raises(ValueError):
        ExperimentConfig("warp", {}, "x")
