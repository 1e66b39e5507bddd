import json
import math

import numpy as np
import pytest

from nlosradar import (
    GeometryError,
    PointTarget,
    RadarConfig,
    ReflectiveSurface,
    SceneClass,
    ScenarioSpec,
    SnrSpec,
    apparent_position,
    load_scenario,
    occludes,
    randomize_scenario,
    reference_scene_doc,
    run_trial,
    save_scenario,
    scenario_from_doc,
    solve_prp,
    target_from_prp,
    validate_scenario,
)
from nlosradar.scenario import IDENTIFICATION_PRESET, TRAINING_PRESET


def test_target_from_prp_matches_mirror():
    surf = ReflectiveSurface(center_x=2.0, center_y=18.0, length=8.0,
                             orientation_deg=25.0)
    t = target_from_prp(surf, 6.3, 11.9)
    prp = solve_prp(surf, (0.0, 0.0), t.xy)
    assert prp.angle_deg == pytest.approx(6.3, abs=1e-9)
    assert prp.r_prp_target == pytest.approx(11.9, abs=1e-9)


def test_nlos_class_contract_occluded_apparent_position():
    for seed in range(50):
        spec = randomize_scenario(SceneClass.NLOS, seed)
        validate_scenario(spec)
        assert occludes(spec.surface, apparent_position(spec.surface,
                                                        spec.target))
        prp = solve_prp(spec.surface, (0.0, 0.0), spec.target.xy)
        assert prp.on_segment


def test_mp_class_contract_visible_target():
    for seed in range(30):
        spec = randomize_scenario(SceneClass.LOS_SURFACE_MP, seed)
        assert not occludes(spec.surface, spec.target.xy)
        assert solve_prp(spec.surface, (0.0, 0.0), spec.target.xy).on_segment


def test_no_mp_class_places_target_behind_wall():
    for seed in range(30):
        spec = randomize_scenario(SceneClass.LOS_SURFACE_NO_MP, seed)
        assert occludes(spec.surface, spec.target.xy)


def test_los_no_surface_class():
    spec = randomize_scenario(SceneClass.LOS_NO_SURFACE, 3)
    assert spec.surface is None
    assert spec.radar.in_fov(spec.target.xy)


def test_randomize_deterministic():
    a = randomize_scenario(SceneClass.NLOS, 77)
    b = randomize_scenario(SceneClass.NLOS, 77)
    assert a == b
    assert a != randomize_scenario(SceneClass.NLOS, 78)


def test_randomize_respects_bounds():
    thetas, lengths, xs, ys, r2s = [], [], [], [], []
    for seed in range(10_000):
        spec = randomize_scenario(SceneClass.NLOS, seed)
        s = spec.surface
        thetas.append(s.orientation_deg)
        lengths.append(s.length)
        xs.append(s.center_x)
        ys.append(s.center_y)
        r2s.append(solve_prp(s, (0.0, 0.0), spec.target.xy).r_prp_target)
        assert 0.0 <= spec.snr.surface_snr_db <= 70.0
        assert 0.0 <= spec.snr.target_snr_db <= 80.0
    assert 1.0 <= min(thetas) and max(thetas) <= 46.0
    assert 1.0 <= min(lengths) and max(lengths) <= 13.0
    assert 0.0 <= min(xs) and max(xs) <= 6.0
    assert 8.0 <= min(ys) and max(ys) <= 22.0
    assert 6.0 - 1e-9 <= min(r2s) and max(r2s) <= 11.0 + 1e-9
    # rejection sampling must not visibly skew the orientation draw
    assert np.mean(thetas) == pytest.approx(23.5, abs=1.0)


def test_identification_preset_bounds():
    for seed in range(100):
        spec = randomize_scenario(SceneClass.NLOS, seed,
                                  preset="identification")
        assert 12.0 <= spec.surface.center_y <= 22.0
        assert 4.0 <= spec.surface.length <= 12.0
        r2 = solve_prp(spec.surface, (0.0, 0.0), spec.target.xy).r_prp_target
        assert 7.0 - 1e-9 <= r2 <= 18.0 + 1e-9
    assert IDENTIFICATION_PRESET.phi_ko_endpoint_scale == (1.25, 0.75)
    assert TRAINING_PRESET.phi_ko_endpoint_scale == (1.0, 1.0)


def test_snr_override():
    snr = SnrSpec(30.0, 61.0)
    spec = randomize_scenario(SceneClass.NLOS, 5, snr=snr)
    assert spec.snr == snr
    assert spec.snr.delta_snr_db == pytest.approx(31.0)


def test_validate_scenario_rejections(radar):
    surf = ReflectiveSurface(center_x=0.0, center_y=10.0, length=4.0,
                             orientation_deg=0.0)
    with pytest.raises(ValueError):
        validate_scenario(ScenarioSpec(radar=radar, surface=surf,
                                       target=PointTarget(0, 5),
                                       snr=SnrSpec(30, 50),
                                       scene_class=SceneClass.LOS_NO_SURFACE))
    with pytest.raises(ValueError):
        validate_scenario(ScenarioSpec(radar=radar, surface=None,
                                       target=PointTarget(0, 5),
                                       snr=SnrSpec(30, 50),
                                       scene_class=SceneClass.NLOS))
    # visible-target class with an occluded target
    with pytest.raises(GeometryError):
        validate_scenario(ScenarioSpec(radar=radar, surface=surf,
                                       target=PointTarget(0.0, 20.0),
                                       snr=SnrSpec(30, 50),
                                       scene_class=SceneClass.LOS_SURFACE_MP))


def test_scene_file_round_trip(tmp_path):
    spec = randomize_scenario(SceneClass.NLOS, 13)
    path = tmp_path / "scene.json"
    save_scenario(spec, path)
    loaded = load_scenario(path)
    assert loaded.scene_class is SceneClass.NLOS
    assert loaded.seed == spec.seed
    assert loaded.surface.center_x == pytest.approx(spec.surface.center_x)
    assert loaded.surface.backscatter_ratio \
        == pytest.approx(spec.surface.backscatter_ratio)
    assert loaded.target.x == pytest.approx(spec.target.x)
    assert loaded.snr == spec.snr


def test_scene_file_exact_keys(tmp_path):
    spec = randomize_scenario(SceneClass.NLOS, 13)
    path = tmp_path / "scene.json"
    save_scenario(spec, path)
    doc = json.loads(path.read_text())
    assert {"num_rx", "num_samples", "bandwidth_hz"} <= set(doc["radar"])
    assert {"x", "y", "length", "theta_deg", "lambda", "psi",
            "sigma_x"} == set(doc["surface"])
    assert {"x", "y"} == set(doc["target"])
    assert {"surface_db", "target_db"} == set(doc["snr"])
    assert "seed" in doc


def test_polar_target_parameterization():
    doc = {
        "surface": {"x": 2.0, "y": 18.0, "length": 8.0, "theta_deg": 25.0},
        "target": {"phi_ko_deg": 6.3, "r2": 11.9},
        "snr": {"surface_db": 30.0, "target_db": 50.0},
        "scene_class": "nlos",
    }
    spec = scenario_from_doc(doc)
    expect = target_from_prp(spec.surface, 6.3, 11.9)
    assert spec.target.x == pytest.approx(expect.x, abs=1e-12)
    assert spec.target.y == pytest.approx(expect.y, abs=1e-12)


def test_scene_class_inference():
    base = {"surface": {"x": 0.0, "y": 10.0, "length": 4.0, "theta_deg": 0.0},
            "snr": {"surface_db": 30.0, "target_db": 50.0}}
    occluded = dict(base, target={"x": 0.0, "y": 20.0})
    assert scenario_from_doc(occluded).scene_class is SceneClass.NLOS
    visible = dict(base, target={"x": 10.0, "y": 5.0})
    assert scenario_from_doc(visible).scene_class is SceneClass.LOS_SURFACE_MP
    bare = {"target": {"x": 3.0, "y": 10.0},
            "snr": {"surface_db": 30.0, "target_db": 50.0}}
    assert scenario_from_doc(bare).scene_class is SceneClass.LOS_NO_SURFACE


def test_bad_target_keys():
    with pytest.raises(ValueError):
        scenario_from_doc({"target": {"phi_ko_deg": 5.0},
                           "snr": {"surface_db": 30.0, "target_db": 50.0}})


@pytest.mark.parametrize("doc, name", [
    (5, "document"), ([], "document"), ("scene", "document"),
    ({"radar": 5}, "'radar'"), ({"surface": 5}, "'surface'"),
    ({"surface": [0.0, 10.0]}, "'surface'"), ({"target": 5}, "'target'"),
    ({"snr": []}, "'snr'"), ({"snr": None}, "'snr'")])
def test_scene_doc_sections_must_be_objects(doc, name):
    """A document, or a section of one, that is not an object is a
    ValueError naming it, not a TypeError or AttributeError on first use."""
    with pytest.raises(ValueError, match=name):
        scenario_from_doc(doc)


def test_radar_overrides_respected():
    doc = {"radar": {"num_rx": 8, "num_samples": 64, "bandwidth_hz": 200e6},
           "target": {"x": 0.0, "y": 10.0},
           "snr": {"surface_db": 30.0, "target_db": 50.0}}
    spec = scenario_from_doc(doc)
    assert spec.radar.num_rx == 8
    assert spec.radar.range_bin_m == pytest.approx(0.75)


def test_scene_file_with_two_transmitters_rejected():
    doc = {"radar": {"num_tx": 2},
           "target": {"x": 0.0, "y": 10.0},
           "snr": {"surface_db": 30.0, "target_db": 50.0}}
    with pytest.raises(ValueError, match="num_tx"):
        scenario_from_doc(doc)
    doc["radar"]["num_tx"] = 1
    assert scenario_from_doc(doc).radar == RadarConfig()


def test_phi_draw_within_surface_extent():
    for seed in range(60):
        spec = randomize_scenario(SceneClass.NLOS, seed)
        a, b = spec.surface.endpoints()
        phis = sorted([math.degrees(math.atan2(a[0], a[1])),
                       math.degrees(math.atan2(b[0], b[1]))])
        prp = solve_prp(spec.surface, (0.0, 0.0), spec.target.xy)
        assert phis[0] - 1e-6 <= prp.angle_deg <= phis[1] + 1e-6


def test_snr_spec_defaults_and_range():
    """SnrSpec's defaults are the scene file's, and it refuses a level the
    synthesizer cannot honour: beyond +-300 dB 10**(SNR/10) nears float64's
    range (1e308 dB overflowed, 3,080 dB gave NaN maps).  At the bounds a
    trial runs clean, with every warning an error."""
    assert SnrSpec() == SnrSpec(30.0, 50.0)
    for bad in (300.5, -301.0, 3080.0, 1e308, math.inf, -math.inf, math.nan):
        for args in ((bad, 50.0), (30.0, bad)):
            with pytest.raises(ValueError, match="300 dB"):
                SnrSpec(*args)
    for levels in ((-300.0, 300.0), (300.0, -300.0)):
        assert run_trial(scenario_from_doc(reference_scene_doc(*levels))).ok


def test_scene_doc_defaults_are_the_dataclass_defaults():
    spec = scenario_from_doc({"target": {"x": 0.0, "y": 10.0}})
    assert (spec.radar, spec.snr, spec.seed) == (RadarConfig(), SnrSpec(), 0)
    spec = scenario_from_doc({"surface": {"x": 2.0, "y": 18.0, "length": 8.0,
                                          "theta_deg": 25.0},
                              "target": {"x": 8.0, "y": 5.0}})
    assert spec.surface == ReflectiveSurface(2.0, 18.0, 8.0, 25.0)


_SCENE = {"radar": {"num_rx": 16, "num_tx": 1},
          "surface": {"x": 2.0, "y": 18.0, "length": 8.0, "theta_deg": 25.0},
          "target": {"phi_ko_deg": 6.3, "r2": 11.9},
          "snr": {"surface_db": 30.0, "target_db": 50.0},
          "scene_class": "nlos", "seed": 0}


@pytest.mark.parametrize("section, key, value", [
    ("surface", "x", None), (None, "seed", None), ("target", "r2", [1]),
    ("radar", "element_spacing", "a"), ("radar", "num_tx", None),
    ("surface", "length", "8"), ("surface", "length", True),
    (None, "seed", 1.5), (None, "seed", "3"), (None, "seed", -1),
    ("radar", "num_rx", 16.7), ("radar", "num_rx", 16.0),
    ("surface", "x", math.nan), ("surface", "length", math.nan),
    ("surface", "sigma_x", math.inf), ("snr", "target_db", -math.inf),
    pytest.param("surface", "y", 10**400, id="surface-y-int_beyond_float"),
    ("target", "phi_ko_deg", False),
    ("surface", "colour", 1.0), (None, "sede", 1), ("snr", "target_db", 1e308),
    ("radar", "carrier_wavelength", 0.0), ("radar", "element_spacing", -1.0),
    (None, "scene_class", "wall"), (None, "scene_class", [1])])
def test_scene_doc_rejects_a_malformed_value_naming_its_key(section, key, value):
    """Every scene value is a finite number, never a bool, and an integer
    for a count or a seed; unknown keys are refused.  Each failure is a
    ValueError naming the key, or, for a value the section's own dataclass
    refuses, its section."""
    doc = {k: dict(v) if isinstance(v, dict) else v for k, v in _SCENE.items()}
    (doc[section] if section else doc)[key] = value
    with pytest.raises(ValueError, match=f"'{key}'|scene '{section}':"):
        scenario_from_doc(doc)


def test_scene_doc_section_contradicting_its_class_is_rejected():
    """A declared class whose surface or target is missing is refused on
    reading; synthesis would otherwise fail on the missing wall."""
    with pytest.raises(ValueError, match="'surface'"):
        scenario_from_doc({"target": {"x": 0.0, "y": 25.0}, "scene_class": "nlos"})
    with pytest.raises(ValueError, match="'target'"):
        scenario_from_doc({"surface": _SCENE["surface"],
                           "scene_class": "los_with_surface_mp"})


def test_randomize_scenario_lets_a_bad_argument_through():
    """Only a GeometryError is redrawn; a ValueError from an argument no
    draw can fix is raised at once, not after 1000 attempts."""
    with pytest.raises(ValueError, match="irregularity sigma must be non-negative"):
        randomize_scenario(SceneClass.NLOS, 0, sigma_x=-0.1)
