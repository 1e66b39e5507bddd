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

Randomized scenes follow one of two named parameter presets; distribution
bounds are enforced by construction and checked by rejection sampling.
The wall orientation is drawn once per scene and held through the
rejection loop, so it is exactly uniform on its preset interval; the other
fields are redrawn until the scene is valid, so they follow their preset
distributions conditioned on validity (a steep wall, say, admits fewer
target bearings than a shallow one).
"""

from __future__ import annotations

import json
import math
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
    """Post-processing SNR targets in dB (after coherent integration gain)."""

    surface_snr_db: float
    target_snr_db: float

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

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)


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
    prp = solve_prp(surface, (0.0, 0.0), target.xy)
    return polar_to_xy(prp.r_radar_prp + prp.r_prp_target, prp.angle_deg)


def validate_scenario(spec: ScenarioSpec) -> None:
    """Raise GeometryError/ValueError when class contracts are violated."""
    if spec.scene_class is SceneClass.LOS_NO_SURFACE:
        if spec.surface is not None:
            raise ValueError("los_no_surface scene carries a surface")
        if spec.target is None:
            raise ValueError("los_no_surface scene needs a target")
    elif spec.surface is None:
        raise ValueError(f"{spec.scene_class.value} scene needs a surface")
    if spec.target is None and spec.scene_class in (SceneClass.NLOS,
                                                    SceneClass.LOS_SURFACE_MP):
        raise ValueError("scene needs a target")
    if spec.target is not None and not spec.radar.in_fov(spec.target.xy):
        raise GeometryError("target outside the radar field of view")

    if spec.scene_class is SceneClass.NLOS:
        prp = solve_prp(spec.surface, (0.0, 0.0), spec.target.xy)
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
    a, b = surface.endpoints()
    for p in (a, b, surface.center):
        if radar.in_fov(p):
            return True
    return False


def _draw_phi_ko(rng, surface: ReflectiveSurface, preset: ScenarioPreset) -> float:
    a, b = surface.endpoints()
    _, phi_a = xy_to_polar(a)
    _, phi_b = xy_to_polar(b)
    sa, sb = preset.phi_ko_endpoint_scale
    lo, hi = sorted((sa * phi_a, sb * phi_b))
    return rng.uniform(lo, hi)


def randomize_scenario(scene_class: SceneClass | str, seed: int,
                       preset: ScenarioPreset | str = TRAINING_PRESET,
                       radar: RadarConfig | None = None,
                       snr: SnrSpec | None = None,
                       sigma_x: float = 0.0) -> ScenarioSpec:
    """Draw one scenario of the requested class from a parameter preset.

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
    radar = radar or RadarConfig()
    rng = np.random.default_rng(seed)
    if scene_class is not SceneClass.LOS_NO_SURFACE:
        theta_deg = rng.uniform(*preset.theta_deg)

    for _ in range(_MAX_ATTEMPTS):
        drawn_snr = snr or SnrSpec(
            surface_snr_db=rng.uniform(*preset.snr_surface_db),
            target_snr_db=rng.uniform(*preset.snr_target_db),
        )
        try:
            if scene_class is SceneClass.LOS_NO_SURFACE:
                r = rng.uniform(*preset.los_range)
                ang = rng.uniform(*preset.los_angle_deg)
                xy = polar_to_xy(r, ang)
                target = PointTarget(x=float(xy[0]), y=float(xy[1]))
                spec = ScenarioSpec(radar=radar, surface=None, target=target,
                                    snr=drawn_snr, scene_class=scene_class,
                                    seed=seed)
                validate_scenario(spec)
                return spec

            surface = _draw_surface(rng, preset, theta_deg, sigma_x)
            if not _surface_in_fov(surface, radar):
                continue

            if scene_class in (SceneClass.NLOS, SceneClass.LOS_SURFACE_NO_MP):
                phi = _draw_phi_ko(rng, surface, preset)
                r2 = rng.uniform(*preset.r2)
                target = target_from_prp(surface, phi, r2)
                prp = solve_prp(surface, (0.0, 0.0), target.xy)
                if not prp.on_segment:
                    continue
                if prp.r_radar_prp + prp.r_prp_target >= 0.98 * radar.max_range_m:
                    continue
                if scene_class is SceneClass.LOS_SURFACE_NO_MP:
                    # occluded placement, but the echo will be direct-path only
                    target = PointTarget(
                        x=float(prp.prp[0] + r2 * math.sin(math.radians(prp.angle_deg))),
                        y=float(prp.prp[1] + r2 * math.cos(math.radians(prp.angle_deg))))
                    if not occludes(surface, target.xy):
                        continue
            else:  # LOS_SURFACE_MP: visible target with a live specular path
                r = rng.uniform(*preset.los_range)
                ang = rng.uniform(*preset.los_angle_deg)
                xy = polar_to_xy(r, ang)
                target = PointTarget(x=float(xy[0]), y=float(xy[1]))
                if occludes(surface, target.xy):
                    continue
                if abs(surface.signed_offset(target.xy)) < 2.5 or \
                        surface.signed_offset(target.xy) < 0:
                    continue
                prp = solve_prp(surface, (0.0, 0.0), target.xy)
                if not prp.on_segment:
                    continue
                if prp.r_radar_prp + prp.r_prp_target >= 0.98 * radar.max_range_m:
                    continue

            spec = ScenarioSpec(radar=radar, surface=surface, target=target,
                                snr=drawn_snr, scene_class=scene_class, seed=seed)
            validate_scenario(spec)
            return spec
        except (GeometryError, ValueError):
            continue
    raise GeometryError(
        f"could not draw a valid {scene_class.value} scene in {_MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# scene-file IO


def save_scenario(spec: ScenarioSpec, path) -> None:
    """Write a scenario to a JSON scene file."""
    doc: dict = {
        "radar": {
            "num_rx": spec.radar.num_rx,
            "num_samples": spec.radar.num_samples,
            "bandwidth_hz": spec.radar.bandwidth_hz,
            "carrier_wavelength": spec.radar.carrier_wavelength,
            "element_spacing": spec.radar.element_spacing,
            "fov_half_angle_deg": spec.radar.fov_half_angle_deg,
        },
        "snr": {
            "surface_db": spec.snr.surface_snr_db,
            "target_db": spec.snr.target_snr_db,
        },
        "scene_class": spec.scene_class.value,
        "seed": spec.seed,
    }
    if spec.surface is not None:
        s = spec.surface
        doc["surface"] = {
            "x": s.center_x, "y": s.center_y, "length": s.length,
            "theta_deg": s.orientation_deg, "lambda": s.backscatter_ratio,
            "psi": s.beamwidth_exponent, "sigma_x": s.irregularity_sigma,
        }
    if spec.target is not None:
        doc["target"] = {"x": spec.target.x, "y": spec.target.y}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_scenario(path) -> ScenarioSpec:
    """Read a JSON scene file; see scenario_from_doc for the schema."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return scenario_from_doc(doc)


def scenario_from_doc(doc: dict) -> ScenarioSpec:
    """Build a scenario from its JSON-style document.

    Targets may be given in Cartesian form, target{x, y}, or anchored to the
    surface as target{phi_ko_deg, r2}.  When no scene_class key is present
    the class is inferred from the scene content.
    """
    rd = doc.get("radar", {})
    if int(rd.get("num_tx", 1)) != 1:
        # the synthesizer has no transmitter dimension, so a file asking for
        # more transmitters would get a frame that misses its SNRs
        raise ValueError("only radar.num_tx = 1 is supported")
    radar = RadarConfig(
        num_rx=int(rd.get("num_rx", 16)),
        num_samples=int(rd.get("num_samples", 128)),
        bandwidth_hz=float(rd.get("bandwidth_hz", 400e6)),
        carrier_wavelength=float(rd.get("carrier_wavelength",
                                        RadarConfig().carrier_wavelength)),
        element_spacing=rd.get("element_spacing"),
        fov_half_angle_deg=float(rd.get("fov_half_angle_deg", 60.0)),
    )

    surface = None
    if "surface" in doc:
        sd = doc["surface"]
        surface = ReflectiveSurface(
            center_x=float(sd["x"]), center_y=float(sd["y"]),
            length=float(sd["length"]), orientation_deg=float(sd["theta_deg"]),
            backscatter_ratio=float(sd.get("lambda", 0.846)),
            beamwidth_exponent=float(sd.get("psi", 14.0)),
            irregularity_sigma=float(sd.get("sigma_x", 0.0)),
        )

    target = None
    if "target" in doc:
        td = doc["target"]
        if "x" in td and "y" in td:
            target = PointTarget(x=float(td["x"]), y=float(td["y"]))
        elif "phi_ko_deg" in td and "r2" in td:
            if surface is None:
                raise ValueError("polar target parameterization needs a surface")
            target = target_from_prp(surface, float(td["phi_ko_deg"]),
                                     float(td["r2"]))
        else:
            raise ValueError("target needs {x, y} or {phi_ko_deg, r2}")

    sn = doc.get("snr", {})
    snr = SnrSpec(surface_snr_db=float(sn.get("surface_db", 30.0)),
                  target_snr_db=float(sn.get("target_db", 50.0)))

    if "scene_class" in doc:
        scene_class = SceneClass(doc["scene_class"])
    elif surface is None:
        scene_class = SceneClass.LOS_NO_SURFACE
    elif target is not None and occludes(surface, target.xy):
        scene_class = SceneClass.NLOS
    else:
        scene_class = SceneClass.LOS_SURFACE_MP

    return ScenarioSpec(radar=radar, surface=surface, target=target, snr=snr,
                        scene_class=scene_class, seed=int(doc.get("seed", 0)))
