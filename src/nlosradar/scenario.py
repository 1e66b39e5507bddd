"""Scenario records, randomized scene generation and scene-file IO.

A scenario bundles the radar configuration, an optional reflective surface,
an optional point target, the two SNR levels and a seed.  Four scene classes
are supported:

  nlos                    surface present, target reached only via the
                          two-bounce path off the surface
  los_no_surface          bare target, direct path only
  los_with_surface_no_mp  surface present, target (optional) placed in the
                          occluded region but synthesized via the direct
                          path only (a control class, no multipath
                          component; without a target it is a wall-only
                          scene)
  los_with_surface_mp     surface present, visible target; direct path plus
                          the two-bounce ghost return

Randomized scenes follow one of two named parameter presets (see
randomize_scenario).  SECTIONS describes the scene file once.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geometry import (
    GeometryError,
    PointTarget,
    RadarConfig,
    ReflectiveSurface,
    ground_truth_target,
    occludes,
    polar_to_xy,
    range_to_prp,
    solve_prp,
    xy_to_polar,
)


class SceneClass(str, Enum):
    NLOS = "nlos"
    LOS_NO_SURFACE = "los_no_surface"
    LOS_SURFACE_NO_MP = "los_with_surface_no_mp"
    LOS_SURFACE_MP = "los_with_surface_mp"


@dataclass(frozen=True)
class SnrSpec:
    """Post-processing SNR targets in dB (after coherent integration gain),
    each within +-300 dB: beyond that 10**(SNR/10) nears float64's range."""

    surface_snr_db: float = 30.0
    target_snr_db: float = 50.0

    def __post_init__(self):
        if not (abs(self.surface_snr_db) <= 300 and abs(self.target_snr_db) <= 300):
            raise ValueError(f"need SNRs within +-300 dB: {self}")

    @property
    def delta_snr_db(self) -> float:
        """Target-minus-surface per-sample power ratio in dB."""
        return self.target_snr_db - self.surface_snr_db


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete ground-truth description of one simulated scene."""

    radar: RadarConfig
    surface: ReflectiveSurface | None
    target: PointTarget | None
    snr: SnrSpec
    scene_class: SceneClass
    seed: int = 0

    def __post_init__(self):
        walled = self.scene_class is not SceneClass.LOS_NO_SURFACE
        if (self.surface is not None) != walled:
            raise ValueError(f"a {self.scene_class.value} scene "
                             f"{'needs a' if walled else 'has no'} 'surface'")
        if self.target is None and self.scene_class is not SceneClass.LOS_SURFACE_NO_MP:
            raise ValueError(f"a {self.scene_class.value} scene needs a 'target'")
        sections = {name: _document(getattr(self, name), name)
                    for name in _METER_KEYS if getattr(self, name) is not None}
        _check_extents(self.radar, sections)
        _check_first_bin(self.radar, sections)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)


# The scene keys in meters.  None may reach beyond _EXTENT range windows of
# the radar: nothing there returns within the window, and squares of values
# near float64's range overflow in the geometry.
_METER_KEYS = {"surface": ("x", "y", "length", "sigma_x"),
               "target": ("x", "y", "r2")}
_EXTENT = 1000


def _check_extents(radar: RadarConfig, sections: dict) -> None:
    """A ValueError naming the section and key of a value in meters in
    ``sections`` ({section: {document key: value}}) beyond _EXTENT range
    windows of ``radar``."""
    limit = _EXTENT * radar.max_range_m
    for name, values in sections.items():
        for key in _METER_KEYS[name]:
            if key in values and not abs(values[key]) <= limit:
                raise ValueError(
                    f"scene {name!r} {key!r} must lie within +-{limit:g} m, "
                    f"{_EXTENT} times the range window num_samples * c / "
                    f"(2 * bandwidth_hz), not {values[key]!r}")


def _check_first_bin(radar: RadarConfig, sections: dict) -> None:
    """A GeometryError naming ``bandwidth_hz`` when the wall centre or the
    target in ``sections`` (as for _check_extents) lies within one range
    bin of the radar, where its return would share bin 0 with the radar's
    own; rejection sampling redraws such a scene like any invalid one."""
    for name, values in sections.items():
        r = np.hypot(values["x"], values["y"])
        if r < radar.range_bin_m:
            raise GeometryError(
                f"scene {name!r} lies {r:g} m from the radar, inside the "
                f"first range bin of c / (2 * 'bandwidth_hz') = "
                f"{radar.range_bin_m:g} m")


def target_from_prp(surface: ReflectiveSurface, phi_ko_deg: float,
                    r2: float) -> PointTarget:
    """Resolve a (phi_Ko, R2) polar target parameterization to a position.

    The ray at bearing phi_Ko meets the surface support line at range R1;
    the target sits R2 beyond that point along the specular departure
    direction.  Raises GeometryError when the ray does not meet the line
    in front of the radar, or when R2 is not positive.
    """
    r1 = range_to_prp(surface.intercept, surface.orientation_deg, phi_ko_deg)
    xy = ground_truth_target(phi_ko_deg, r1, r2, surface.orientation_deg)
    return PointTarget(x=float(xy[0]), y=float(xy[1]))


def apparent_position(surface: ReflectiveSurface, target: PointTarget) -> np.ndarray:
    """Where the two-bounce return appears on the range-angle map: the cell
    at bearing phi_Ko and range R1 + R2."""
    prp = solve_prp(surface, target.xy)
    return polar_to_xy(prp.r_radar_prp + prp.r_prp_target, prp.angle_deg)


def validate_scenario(spec: ScenarioSpec) -> None:
    """Raise GeometryError when the scene's geometry violates its class
    contract; ScenarioSpec itself refuses a missing or extra section."""
    if spec.target is not None and not spec.radar.in_fov(spec.target.xy):
        raise GeometryError("target outside the radar field of view")

    if spec.scene_class is SceneClass.NLOS:
        prp = solve_prp(spec.surface, spec.target.xy)
        if not prp.on_segment:
            raise GeometryError("no specular point on the finite surface")
        # the two-bounce return must land in the occluded region
        if not occludes(spec.surface, apparent_position(spec.surface, spec.target)):
            raise GeometryError("apparent target position is not occluded")
    if spec.scene_class is SceneClass.LOS_SURFACE_MP:
        if occludes(spec.surface, spec.target.xy):
            raise GeometryError("multipath LOS scene requires a visible target")


@dataclass(frozen=True)
class ScenarioPreset:
    """Uniform distribution bounds for randomized scenes."""

    surface_x: tuple[float, float] = (0.0, 6.0)
    surface_y: tuple[float, float] = (8.0, 22.0)
    theta_deg: tuple[float, float] = (1.0, 46.0)
    length: tuple[float, float] = (1.0, 13.0)
    r2: tuple[float, float] = (6.0, 11.0)
    snr_surface_db: tuple[float, float] = (0.0, 70.0)
    snr_target_db: tuple[float, float] = (0.0, 80.0)
    # (scale at first endpoint, scale at last endpoint) applied to the
    # endpoint bearings when drawing phi_Ko
    phi_ko_endpoint_scale: tuple[float, float] = (1.0, 1.0)
    # LOS target placement
    los_range: tuple[float, float] = (5.0, 40.0)
    los_angle_deg: tuple[float, float] = (-55.0, 55.0)


TRAINING_PRESET = ScenarioPreset()
IDENTIFICATION_PRESET = ScenarioPreset(
    surface_y=(12.0, 22.0),
    length=(4.0, 12.0),
    theta_deg=(1.0, 45.0),
    r2=(7.0, 18.0),
    phi_ko_endpoint_scale=(1.25, 0.75),
)

PRESETS = {"training": TRAINING_PRESET, "identification": IDENTIFICATION_PRESET}

_MAX_ATTEMPTS = 1000


def _draw_surface(rng, preset: ScenarioPreset, theta_deg: float,
                  sigma_x: float) -> ReflectiveSurface:
    return ReflectiveSurface(
        center_x=rng.uniform(*preset.surface_x),
        center_y=rng.uniform(*preset.surface_y),
        length=rng.uniform(*preset.length),
        orientation_deg=theta_deg,
        irregularity_sigma=sigma_x,
    )


def _surface_in_fov(surface: ReflectiveSurface, radar: RadarConfig) -> bool:
    return any(radar.in_fov(p) for p in (*surface.endpoints(), surface.center))


def _draw_phi_ko(rng, surface: ReflectiveSurface, preset: ScenarioPreset) -> float:
    (_, phi_a), (_, phi_b) = map(xy_to_polar, surface.endpoints())
    sa, sb = preset.phi_ko_endpoint_scale
    return rng.uniform(*sorted((sa * phi_a, sb * phi_b)))


def randomize_scenario(scene_class: SceneClass | str, seed: int,
                       preset: ScenarioPreset | str = TRAINING_PRESET,
                       snr: SnrSpec | None = None,
                       sigma_x: float = 0.0) -> ScenarioSpec:
    """Draw one scenario of the requested class from a parameter preset,
    for the default ``RadarConfig``.

    The wall orientation is drawn once from its preset interval and kept;
    the other fields are drawn from their preset distributions, and draws
    violating a class contract (surface outside the field of view, no
    specular point on the segment, out-of-window path length, ...) are
    rejected and redrawn, up to 1000 attempts.  The orientation is thereby
    exactly uniform, while the other geometry fields are uniform only
    conditioned on a valid scene (rejection would otherwise favour the
    orientations that accept more often).  Deterministic for a given seed.
    A fixed ``snr`` overrides the preset SNR draw, which sweep drivers use
    to pin the SNR axis while geometry randomizes.
    """
    scene_class = SceneClass(scene_class)
    if isinstance(preset, str):
        preset = PRESETS[preset]
    radar = RadarConfig()
    rng = np.random.default_rng(seed)
    if scene_class is not SceneClass.LOS_NO_SURFACE:
        theta_deg = rng.uniform(*preset.theta_deg)

    for _ in range(_MAX_ATTEMPTS):
        drawn_snr = snr or SnrSpec(
            surface_snr_db=rng.uniform(*preset.snr_surface_db),
            target_snr_db=rng.uniform(*preset.snr_target_db),
        )
        try:
            surface = prp = None
            if scene_class is not SceneClass.LOS_NO_SURFACE:
                surface = _draw_surface(rng, preset, theta_deg, sigma_x)
                if not _surface_in_fov(surface, radar):
                    continue

            if scene_class in (SceneClass.NLOS, SceneClass.LOS_SURFACE_NO_MP):
                phi = _draw_phi_ko(rng, surface, preset)
                r2 = rng.uniform(*preset.r2)
                target = target_from_prp(surface, phi, r2)
                prp = solve_prp(surface, target.xy)
                if scene_class is SceneClass.LOS_SURFACE_NO_MP:
                    # occluded placement, but the echo will be direct-path only
                    xy = np.add(prp.prp, polar_to_xy(r2, prp.angle_deg))
                    target = PointTarget(x=float(xy[0]), y=float(xy[1]))
                    if not occludes(surface, target.xy):
                        continue
            else:  # a visible target, with a live specular path off a wall
                xy = polar_to_xy(rng.uniform(*preset.los_range),
                                 rng.uniform(*preset.los_angle_deg))
                target = PointTarget(x=float(xy[0]), y=float(xy[1]))
                if surface is not None:
                    if occludes(surface, target.xy) or \
                            surface.signed_offset(target.xy) < 2.5:
                        continue
                    prp = solve_prp(surface, target.xy)
            if prp is not None and not (prp.on_segment and prp.r_radar_prp
                                        + prp.r_prp_target < 0.98 * radar.max_range_m):
                continue

            spec = ScenarioSpec(radar=radar, surface=surface, target=target,
                                snr=drawn_snr, scene_class=scene_class, seed=seed)
            validate_scenario(spec)
            return spec
        except GeometryError:
            continue
    raise GeometryError(
        f"could not draw a valid {scene_class.value} scene in {_MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# scene-file IO


# Each scene section's dataclass and {document key: field}; a key a file
# leaves out takes the dataclass default.  The two extras, radar.num_tx and
# the polar target {phi_ko_deg, r2}, map to None and are read apart.
SECTIONS = {
    "radar": (RadarConfig, {k: k for k in (
        "num_rx", "num_samples", "bandwidth_hz", "carrier_wavelength",
        "element_spacing", "fov_half_angle_deg")} | {"num_tx": None}),
    "surface": (ReflectiveSurface, {
        "x": "center_x", "y": "center_y", "length": "length",
        "theta_deg": "orientation_deg", "lambda": "backscatter_ratio",
        "psi": "beamwidth_exponent", "sigma_x": "irregularity_sigma"}),
    "target": (PointTarget, {"x": "x", "y": "y", "phi_ko_deg": None, "r2": None}),
    "snr": (SnrSpec, {"surface_db": "surface_snr_db", "target_db": "target_snr_db"}),
}
INTEGER_KEYS = ("num_rx", "num_samples", "num_tx", "seed", "trials_per_point")


def read_value(where: str, key: str, value):
    """``value`` of a scene or sweep document's ``key``: an object for a
    section or a base scene, a non-negative int for the INTEGER_KEYS and a
    finite float for any other key, never from a bool; anything else is a
    ValueError naming ``where`` and ``key``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if key in SECTIONS or key == "base_scene":
        if isinstance(value, dict):
            return value
        kind = "an object"
    elif key in INTEGER_KEYS:
        if real and isinstance(value, numbers.Integral) and value >= 0:
            return int(value)
        kind = "a non-negative integer"
    elif real and abs(value) <= sys.float_info.max:
        return float(value)
    else:
        kind = "a finite number"
    raise ValueError(f"{where} {key!r} must be {kind}, not {value!r}")


def check_keys(where: str, doc: dict, cls, keys: dict | None = None,
               partial: bool = False) -> None:
    """A ValueError naming ``where``, each key of ``doc`` not in ``keys``
    ({document key: field of dataclass ``cls``}, by default its field names)
    and, unless ``partial``, each missing key whose field has no default."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    keys = keys or dict(zip(defaults, defaults))
    bad = [f"unknown key {k!r}" for k in doc if k not in keys]
    bad += [f"missing key {k!r}" for k, f in keys.items() if not partial
            and k not in doc and defaults.get(f) is dataclasses.MISSING]
    if bad:
        raise ValueError(f"{where}: " + ", ".join(bad))


def read_section(doc: dict, name: str, partial: bool = False) -> dict:
    """Scene section ``name`` as {document key: value}, empty when absent,
    its keys checked by check_keys and its values by read_value."""
    section = read_value("scene", name, doc.get(name, {}))
    check_keys(f"scene {name!r}", section, *SECTIONS[name], partial)
    return {k: read_value(name, k, v) for k, v in section.items()}


def _document(part, name: str) -> dict:
    """Section ``name``'s dataclass ``part`` as {document key: value}."""
    return {k: getattr(part, f) for k, f in SECTIONS[name][1].items() if f}


def build_section(doc: dict, name: str):
    """Scene section ``name`` as its dataclass; a ValueError from the
    dataclass's own checks names the section."""
    cls, keys = SECTIONS[name]
    values = read_section(doc, name)
    try:
        return cls(**{keys[k]: v for k, v in values.items() if keys[k]})
    except ValueError as exc:
        raise ValueError(f"scene {name!r}: {exc}") from None


def save_scenario(spec: ScenarioSpec, path) -> None:
    """Write a scenario to a JSON scene file."""
    doc: dict = {"scene_class": spec.scene_class.value, "seed": spec.seed}
    for name in SECTIONS:
        if getattr(spec, name) is not None:
            doc[name] = _document(getattr(spec, name), name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_scenario(path) -> ScenarioSpec:
    """Read a JSON scene file; see scenario_from_doc for the schema."""
    with open(path, "r", encoding="utf-8") as f:
        return scenario_from_doc(json.load(f))


def scenario_from_doc(doc: dict) -> ScenarioSpec:
    """Build a scenario from its JSON-style document (see SECTIONS).

    Targets may be given in Cartesian form, target{x, y}, or anchored to the
    surface as target{phi_ko_deg, r2}.  When no scene_class key is present
    the class is inferred from the scene content.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a scene document must be an object, not {doc!r}")
    check_keys("scene", doc, ScenarioSpec, partial=True)
    if read_section(doc, "radar").get("num_tx") not in (None, 1):
        # the synthesizer has no transmitter dimension, so a file asking for
        # more transmitters would get a frame that misses its SNRs
        raise ValueError("only radar.num_tx = 1 is supported")
    radar = build_section(doc, "radar")
    # before the polar target and the class inference below compute with them
    _check_extents(radar, {name: read_section(doc, name, partial=True)
                          for name in _METER_KEYS})
    surface = build_section(doc, "surface") if "surface" in doc else None
    target, td = None, read_section(doc, "target", partial=True)
    if "x" in td and "y" in td:
        target = build_section(doc, "target")
    elif "phi_ko_deg" in td and "r2" in td:
        if surface is None:
            raise ValueError("a polar 'target' needs a 'surface'")
        try:
            target = target_from_prp(surface, td["phi_ko_deg"], td["r2"])
        except GeometryError as exc:
            raise GeometryError(f"'target' off the 'surface': {exc}") from None
    elif "target" in doc:
        raise ValueError("scene 'target' needs {x, y} or {phi_ko_deg, r2}")

    classes = [c.value for c in SceneClass]
    if "scene_class" in doc:
        if doc["scene_class"] not in classes:
            raise ValueError(f"scene 'scene_class' must be one of {classes}")
        scene_class = SceneClass(doc["scene_class"])
    elif surface is None:
        scene_class = SceneClass.LOS_NO_SURFACE
    elif target is not None and occludes(surface, target.xy):
        scene_class = SceneClass.NLOS
    else:
        scene_class = SceneClass.LOS_SURFACE_MP

    seed = {"seed": read_value("scene", "seed", doc["seed"])} \
        if "seed" in doc else {}
    return ScenarioSpec(radar=radar, surface=surface,
                        target=target, snr=build_section(doc, "snr"),
                        scene_class=scene_class, **seed)
