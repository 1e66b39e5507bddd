import json

import pytest

from nlosradar import (SceneClass, SnrSpec, cli, harness, randomize_scenario,
                       save_scenario, scenario_from_doc)
from nlosradar.cli import _sweep_spec, build_parser, main


@pytest.fixture
def scene_file(tmp_path):
    spec = randomize_scenario(SceneClass.NLOS, 3, snr=SnrSpec(35.0, 55.0))
    path = tmp_path / "scene.json"
    save_scenario(spec, path)
    return path


def test_simulate(tmp_path, scene_file):
    out = tmp_path / "out"
    code = main(["simulate", "--scene", str(scene_file),
                 "--out-dir", str(out), "--export", "csv,bin"])
    assert code == 0
    assert (out / "echo.bin").exists()
    assert (out / "echo.bin.json").exists()
    assert (out / "ra_map.csv").exists()
    assert (out / "ra_map.bin").exists()


def test_pipeline(tmp_path, scene_file, capsys):
    out = tmp_path / "out"
    code = main(["pipeline", "--scene", str(scene_file), "--out-dir", str(out),
                 "--seed", "7", "--export", "csv"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "hypothesis" in captured
    assert (out / "trial.csv").exists()
    header, row = (out / "trial.csv").read_text().strip().split("\n")
    assert header.startswith("hypothesis,")
    assert row.split(",")[0] in ("I0", "I1")


def test_masks(tmp_path, scene_file):
    out = tmp_path / "out"
    code = main(["masks", "--scene", str(scene_file), "--out-dir", str(out)])
    assert code == 0
    assert (out / "masks.pgm").exists()


def test_masks_synthesizes_and_forms_the_detection_map_once(
        tmp_path, scene_file, monkeypatch):
    """One masks run synthesizes its frame once and forms its detection map
    once (Stage I's own maps are formed in surface.py and not counted)."""
    calls = {"synthesize": 0, "compute_ra_map": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, harness):
        for name in calls:
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert main(["masks", "--scene", str(scene_file),
                 "--out-dir", str(tmp_path)]) == 0
    assert calls == {"synthesize": 1, "compute_ra_map": 1}
    assert (tmp_path / "masks.pgm").exists()


def test_sweep_family(tmp_path):
    out = tmp_path / "out"
    code = main(["sweep", "--family", "delta_snr", "--trials", "2",
                 "--seed", "1", "--out-dir", str(out), "--export", "csv,svg"])
    assert code == 0
    csv_path = out / "sweep_delta_snr.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("value,trials,failures,rmse_d")
    assert len(lines) == 5            # header plus four grid points
    svg = (out / "sweep_delta_snr.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_sweep_family_default_trials():
    """Without --trials a family keeps its own trial count."""
    parse = build_parser().parse_args
    sweep = _sweep_spec(parse(["sweep", "--family", "identification"]))
    assert (sweep.name, sweep.trials_per_point, sweep.seed) == \
        ("identification", 200, 0)
    sweep = _sweep_spec(parse(["sweep", "--family", "irregularity",
                               "--trials", "3", "--seed", "4"]))
    assert (sweep.trials_per_point, sweep.seed) == (3, 4)


def test_sweep_spec_file(tmp_path):
    spec = {
        "name": "custom",
        "swept": "delta_snr",
        "grid": [20.0, 30.0],
        "trials_per_point": 2,
        "mode": "fixed",
        "seed": 4,
        "base_scene": {
            "surface": {"x": 2.0, "y": 18.0, "length": 8.0, "theta_deg": 25.0},
            "target": {"phi_ko_deg": 6.3, "r2": 11.9},
            "snr": {"surface_db": 30.0, "target_db": 50.0},
            "scene_class": "nlos",
        },
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = main(["sweep", "--spec", str(path), "--out-dir", str(out)])
    assert code == 0
    assert (out / "sweep_custom.csv").exists()


@pytest.mark.parametrize("change", ["unknown_key", "missing_key"])
def test_malformed_sweep_spec_is_config_error(tmp_path, capsys, change):
    doc = {"name": "custom", "swept": "delta_snr", "grid": [20.0],
           "trials_per_point": 1, "base_scene": {}}
    if change == "unknown_key":
        doc["trials"] = 3
        key = "trials"
    else:
        del doc["name"]
        key = "name"
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--spec", str(path), "--out-dir", str(tmp_path)]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("grid", 5), ("grid", []), ("grid", [20.0, "30"]), ("grid", [True]),
    ("trials_per_point", "2"), ("trials_per_point", 2.0),
    ("trials_per_point", True), ("seed", "4"), ("seed", False),
    ("base_scene", 5), ("base_scene", [])])
def test_wrongly_typed_sweep_spec_is_config_error(tmp_path, capsys, key, value):
    """A spec whose keys are right but whose values have the wrong type is
    a configuration error (exit 2) naming the key, not a traceback."""
    doc = {"name": "custom", "swept": "delta_snr", "grid": [20.0],
           "trials_per_point": 1, "seed": 0, "base_scene": {}}
    doc[key] = value
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--spec", str(path), "--out-dir", str(tmp_path)]) == 2
    assert repr(key) in capsys.readouterr().err


def test_identification_spec_sweeping_another_variable_is_config_error(
        tmp_path, capsys):
    """An identification sweep varies only delta_snr; a spec asking it to
    sweep theta_w would silently run delta_snr values instead."""
    doc = {"name": "custom", "swept": "theta_w", "grid": [5, 45],
           "trials_per_point": 1, "mode": "identification", "base_scene": {}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--spec", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'mode'" in err and "'swept'" in err
    assert not (tmp_path / "sweep_custom.csv").exists()


@pytest.mark.parametrize("section, key, value", [
    ("surface", "x", None), (None, "seed", None), ("target", "r2", [1]),
    ("radar", "element_spacing", "a"), ("radar", "num_tx", None),
    ("surface", "length", "8"), ("surface", "length", True),
    (None, "seed", 1.5), (None, "seed", "3"), ("radar", "num_rx", 16.7),
    ("surface", "x", float("nan")), ("surface", "length", float("nan")),
    ("snr", "target_db", 1e308), ("surface", "length", 1e308),
    ("radar", "carrier_wavelength", 0.0), ("radar", "element_spacing", -1.0),
    ("surface", "x", 1e308), ("surface", "sigma_x", -1e308),
    ("target", "r2", 1e308), ("radar", "element_spacing", 1e308),
    ("radar", "carrier_wavelength", 5e-324), ("radar", "bandwidth_hz", 1e-290),
    ("radar", "bandwidth_hz", 1e-100), ("radar", "bandwidth_hz", 1),
    ("radar", "bandwidth_hz", 1e-3)])
def test_malformed_scene_value_is_config_error_naming_it(
        tmp_path, capsys, section, key, value):
    """Each of these once ran to a traceback, ran on a truncated or
    converted value, or failed naming no key; each now exits 2 before any
    work, naming its key or, where the section's dataclass refuses the
    value, its section.  A bandwidth that puts the whole scene inside the
    first range bin once ran to an I0 decision at 0 m."""
    doc = {"radar": {"num_rx": 16, "num_tx": 1},
           "surface": {"x": 2.0, "y": 18.0, "length": 8.0, "theta_deg": 25.0},
           "target": {"phi_ko_deg": 6.3, "r2": 11.9},
           "snr": {"surface_db": 30.0, "target_db": 50.0}, "scene_class": "nlos"}
    (doc[section] if section else doc)[key] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["pipeline", "--scene", str(path), "--out-dir", str(out),
                 "--export", "csv"]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err or f"'{section}'" in err, err
    assert not out.exists()


def test_missing_scene_is_config_error(tmp_path):
    code = main(["pipeline", "--scene", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize("text", ["{not json", '{"surface": 5}'],
                         ids=["not_json", "section_not_object"])
def test_malformed_scene_is_config_error(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["simulate", "--scene", str(bad)]) == 2


def test_failing_trial_exit_code(tmp_path):
    doc = {"target": {"x": 0.0, "y": 49.0},
           "snr": {"surface_db": 30.0, "target_db": 50.0},
           "scene_class": "los_no_surface"}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert main(["pipeline", "--scene", str(path)]) == 3


@pytest.mark.parametrize("argv", [
    ["simulate", "--export", "cvs"], ["simulate", "--export", "csv,bim"],
    ["pipeline", "--export", "trial"], ["masks", "--export", "png"],
    ["sweep", "--family", "delta_snr", "--trials", "1", "--export", "csv,svgz"],
    ["pipeline", "--export", "svg"], ["simulate", "--export", "pgm"],
    ["masks", "--export", "csv"]])
def test_unknown_export_is_config_error(tmp_path, scene_file, capsys, argv):
    """An ``--export`` name the subcommand does not write exits 2 before
    any work, naming it, and writes nothing."""
    out = tmp_path / "out"
    if argv[0] != "sweep":
        argv = argv + ["--scene", str(scene_file)]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--out-dir", str(out)])
    assert exit_.value.code == 2
    assert repr(argv[argv.index("--export") + 1].split(",")[-1]) \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_workers_below_one_is_config_error(tmp_path, capsys, workers):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--family", "delta_snr", "--trials", "1",
              "--workers", workers, "--out-dir", str(out)])
    assert exit_.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def _exit_code(argv) -> int:
    """``main``'s exit code, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial ran")


_SWEEP = ["sweep", "--family", "delta_snr"]


@pytest.mark.parametrize("argv, name", [
    (["pipeline", "--seed", "-1"], "--seed"),
    (["simulate", "--seed", "x"], "--seed"),
    (["pipeline", "--guard-m", "-1"], "guard_m"),
    (["pipeline", "--guard-m", "nan"], "guard_m"),
    (_SWEEP + ["--max-failures", "nan"], "--max-failures"),
    (_SWEEP + ["--max-failures", "-1"], "--max-failures"),
    (_SWEEP + ["--max-failures", "1.5"], "--max-failures"),
    (_SWEEP + ["--trials", "0"], "--trials"),
    (_SWEEP + ["--seed", "-2"], "--seed")])
def test_bad_option_value_is_config_error_naming_it(
        tmp_path, scene_file, capsys, monkeypatch, argv, name):
    """An option value the pipeline cannot take exits 2 before any trial
    runs, naming the option: a negative seed once failed in numpy naming
    none, a negative or NaN guard band ran to a wrong decision, and a NaN
    or negative failure fraction turned the exit code into noise."""
    monkeypatch.setattr(harness, "run_trial", _no_trial)
    if argv[0] != "sweep":
        argv = argv + ["--scene", str(scene_file)]
    out = tmp_path / "out"
    assert _exit_code(argv + ["--out-dir", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("guard", ["50", "1e6", "1e308"])
def test_guard_band_covering_the_field_of_view_is_config_error(
        tmp_path, capsys, guard):
    """A guard band that leaves Stage II no cell to search exits 2 naming
    guard_m; it once failed naming no option."""
    path = tmp_path / "reference.json"
    save_scenario(scenario_from_doc(harness.reference_scene_doc()), path)
    out = tmp_path / "out"
    assert main(["pipeline", "--scene", str(path), "--guard-m", guard,
                 "--out-dir", str(out)]) == 2
    assert "guard_m" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["a/b", None, "", "a\\b", 3])
def test_sweep_spec_name_not_a_file_name_is_config_error(
        tmp_path, capsys, monkeypatch, name):
    """The CLI writes sweep_<name>.csv, so a name that is not one path
    component is refused before any trial runs (``"a/b"`` once ran its
    trials, then failed to open the CSV; a null wrote sweep_None.csv)."""
    monkeypatch.setattr(harness, "run_trial", _no_trial)
    doc = {"name": name, "swept": "delta_snr", "grid": [20.0],
           "trials_per_point": 1, "base_scene": {}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--spec", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "'name'" in capsys.readouterr().err
