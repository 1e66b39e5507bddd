import math

import numpy as np
import pytest

from nlosradar import (
    GeometryError,
    OutsideFovError,
    RadarConfig,
    ReflectiveSurface,
    discretize_surface,
    effective_reflectors,
    ground_truth_target,
    mirror_across_surface,
    occludes,
    solve_prp,
)
from nlosradar.geometry import MAX_SURFACE_POINTS


def test_radar_config_derived_quantities(radar):
    assert radar.range_bin_m == pytest.approx(0.375)
    assert radar.max_range_m == pytest.approx(48.0)
    assert radar.element_spacing == pytest.approx(radar.carrier_wavelength / 2)


def test_radar_config_validation():
    with pytest.raises(ValueError):
        RadarConfig(num_rx=1)
    with pytest.raises(ValueError):
        RadarConfig(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        RadarConfig(num_samples=1)
    # a field of view holds boresight and nothing behind the array
    for fov in (-5.0, 0.0, 90.5, 120.0, float("nan")):
        with pytest.raises(ValueError, match="fov_half_angle_deg"):
            RadarConfig(fov_half_angle_deg=fov)
    # the steering phase divides by the wavelength; a negative spacing
    # would mirror the angle axis
    for value in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="carrier_wavelength"):
            RadarConfig(carrier_wavelength=value)
        with pytest.raises(ValueError, match="element_spacing"):
            RadarConfig(element_spacing=value)
    # a bandwidth whose range bin rounds to zero or to infinity
    for bandwidth in (1e308, 1e-300, float("nan")):
        with pytest.raises(ValueError, match="bandwidth_hz"):
            RadarConfig(bandwidth_hz=bandwidth)


def test_radar_config_bounds_the_spacing_to_wavelength_ratio():
    """A spacing of 1e308 once ran with overflowing steering phases."""
    for spacing in (1e308, 1001.0, 9e-4):
        with pytest.raises(ValueError, match="element_spacing"):
            RadarConfig(carrier_wavelength=1.0, element_spacing=spacing)
    with pytest.raises(ValueError, match="carrier_wavelength"):
        RadarConfig(carrier_wavelength=1e-300, element_spacing=1.0)
    for spacing in (1e3, 1e-3):
        RadarConfig(carrier_wavelength=1.0, element_spacing=spacing)


def test_radar_config_rejects_frames_larger_than_cancellation():
    # point-return cancellation zero pads a frame to 256 x 256; a larger
    # frame would pass scene validation and synthesis, then fail every trial
    with pytest.raises(ValueError, match="256"):
        RadarConfig(num_samples=257)
    with pytest.raises(ValueError, match="256"):
        RadarConfig(num_rx=257)


def test_radar_config_rejects_multiple_transmitters():
    # the synthesizer has no TX dimension, so a transmitter count is not
    # something a radar configuration can be given at all
    with pytest.raises(TypeError, match="num_tx"):
        RadarConfig(num_tx=2)


def test_surface_validation():
    with pytest.raises(ValueError):
        ReflectiveSurface(0, 10, length=-1, orientation_deg=10)
    with pytest.raises(ValueError):
        ReflectiveSurface(0, 10, length=4, orientation_deg=95)
    with pytest.raises(ValueError):
        ReflectiveSurface(0, 10, length=4, orientation_deg=10,
                          backscatter_ratio=1.5)


def test_discretize_rejects_a_wall_too_long_to_sample(radar):
    """A wall of more than MAX_SURFACE_POINTS points is refused before its
    points are allocated; only lengths that allocate nothing are tried."""
    step = radar.range_bin_m / 2.0
    for length in ((MAX_SURFACE_POINTS + 1) * step, 1e300, 1e308):
        surf = ReflectiveSurface(0.0, 10.0, length=length, orientation_deg=0.0)
        with pytest.raises(ValueError, match="'length'"):
            discretize_surface(surf, radar)


def test_support_line_intercept(far_surface):
    # b = yc - xc tan(theta) for the far evaluation wall
    assert far_surface.intercept == pytest.approx(21.761184728088505, abs=1e-9)


def test_discretize_horizontal_line(radar):
    surf = ReflectiveSurface(center_x=0.0, center_y=10.0, length=4.0,
                             orientation_deg=0.0)
    pts = discretize_surface(surf, radar)
    assert np.allclose(pts.xy[:, 1], 10.0)
    assert pts.xy[:, 0].min() == pytest.approx(-2.0)
    assert pts.xy[:, 0].max() == pytest.approx(2.0)
    # boresight intersection at range equal to the intercept
    boresight = np.abs(pts.xy[:, 0]) < 1e-9
    assert boresight.any()
    assert pts.ranges[boresight] == pytest.approx(10.0)
    # polar support-line relation R cos(phi) = R sin(phi) tan(theta) + b
    lhs = pts.ranges * np.cos(np.radians(pts.angles_deg))
    rhs = pts.ranges * np.sin(np.radians(pts.angles_deg)) * surf.slope \
        + surf.intercept
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_discretize_spacing_and_bins(radar, eval_surface):
    pts = discretize_surface(eval_surface, radar)
    gaps = np.hypot(*np.diff(pts.xy, axis=0).T)
    assert gaps.max() <= radar.range_bin_m / 2 + 1e-12
    assert np.array_equal(pts.range_bins,
                          np.round(pts.ranges / radar.range_bin_m).astype(int))


def test_discretize_outside_fov(radar):
    surf = ReflectiveSurface(center_x=-40.0, center_y=2.0, length=2.0,
                             orientation_deg=0.0)
    with pytest.raises(OutsideFovError):
        discretize_surface(surf, radar)


def test_discretize_irregularity_bounded_and_seeded(radar, eval_surface):
    rough = ReflectiveSurface(center_x=2.0, center_y=18.0, length=8.0,
                              orientation_deg=25.0, irregularity_sigma=0.3)
    a = discretize_surface(rough, radar, rng_seed=7)
    b = discretize_surface(rough, radar, rng_seed=7)
    c = discretize_surface(rough, radar, rng_seed=8)
    assert np.array_equal(a.xy, b.xy)
    assert not np.array_equal(a.xy, c.xy)
    residual = a.xy[:, 1] - (a.xy[:, 0] * rough.slope + rough.intercept)
    assert np.max(np.abs(residual)) <= 3 * rough.irregularity_sigma + 1e-12
    assert np.max(np.abs(residual)) > 0
    smooth = discretize_surface(eval_surface, radar, rng_seed=7)
    res0 = smooth.xy[:, 1] - (smooth.xy[:, 0] * eval_surface.slope
                              + eval_surface.intercept)
    assert np.max(np.abs(res0)) < 1e-9


def test_effective_reflectors_one_per_cell(radar, eval_surface):
    pts = discretize_surface(eval_surface, radar)
    refl = effective_reflectors(pts, radar)
    assert 0 < len(refl) < len(pts)
    u_bins = np.round(np.sin(np.radians(refl.angles_deg)) * radar.num_rx / 2)
    keys = {(rb, ub) for rb, ub in zip(refl.range_bins, u_bins.astype(int))}
    assert len(keys) == len(refl)


def test_solve_prp_horizontal_example():
    surf = ReflectiveSurface(center_x=0.0, center_y=10.0, length=8.0,
                             orientation_deg=0.0)
    prp = solve_prp(surf, (4.0, 4.0))
    assert prp.prp[0] == pytest.approx(2.5, abs=1e-12)
    assert prp.prp[1] == pytest.approx(10.0, abs=1e-12)
    assert prp.r_radar_prp == pytest.approx(10.307764064044152, abs=1e-9)
    assert prp.r_prp_target == pytest.approx(6.18465843842649, abs=1e-9)
    assert prp.angle_deg == pytest.approx(14.036243467926479, abs=1e-9)
    assert prp.on_segment

    # closed form on the same inputs reproduces the target
    xy = ground_truth_target(prp.angle_deg, prp.r_radar_prp,
                             prp.r_prp_target, 0.0)
    assert xy == pytest.approx([4.0, 4.0], abs=1e-9)


def test_prp_symmetry_boresight():
    surf = ReflectiveSurface(center_x=0.0, center_y=10.0, length=8.0,
                             orientation_deg=0.0)
    prp = solve_prp(surf, (0.0, 4.0))
    assert prp.prp[0] == pytest.approx(0.0, abs=1e-12)
    assert prp.angle_deg == pytest.approx(0.0, abs=1e-12)


def _snell_residual(surface, prp, target):
    n = surface.normal_toward_radar
    d_in = np.array(prp.prp) / np.linalg.norm(prp.prp)
    d_out = np.asarray(target, dtype=float) - np.array(prp.prp)
    d_out /= np.linalg.norm(d_out)
    return abs(math.acos(np.clip(-d_in @ n, -1, 1))
               - math.acos(np.clip(d_out @ n, -1, 1)))


def test_mirror_identities_random_scenes():
    rng = np.random.default_rng(42)
    for _ in range(200):
        surf = ReflectiveSurface(center_x=rng.uniform(0, 6),
                                 center_y=rng.uniform(8, 22),
                                 length=rng.uniform(1, 13),
                                 orientation_deg=rng.uniform(1, 46))
        target = (rng.uniform(-5, 12), rng.uniform(2, 14))
        if surf.signed_offset(target) <= 0.1:
            continue
        prp = solve_prp(surf, target)
        mirror = mirror_across_surface((0.0, 0.0), surf)
        # path length identity
        assert prp.r_radar_prp + prp.r_prp_target == pytest.approx(
            np.linalg.norm(mirror - np.asarray(target)), abs=1e-9)
        # equal angles about the local normal
        assert _snell_residual(surf, prp, target) < 1e-9
        # closed form inverts the construction
        xy = ground_truth_target(prp.angle_deg, prp.r_radar_prp,
                                 prp.r_prp_target, surf.orientation_deg)
        assert np.max(np.abs(xy - np.asarray(target))) < 1e-9


def test_ground_truth_examples():
    xy = ground_truth_target(6.3, 22.9, 11.9, 25.0)
    assert xy == pytest.approx([12.413169777337679, 16.159057193292423],
                               abs=1e-9)
    xy0 = ground_truth_target(0.0, 12.0, 5.0, 0.0)
    assert xy0 == pytest.approx([0.0, 7.0], abs=1e-12)
    with pytest.raises(GeometryError):
        ground_truth_target(10.0, -1.0, 5.0, 20.0)


def test_solve_prp_rejects_target_behind_line():
    surf = ReflectiveSurface(center_x=0.0, center_y=10.0, length=8.0,
                             orientation_deg=0.0)
    with pytest.raises(GeometryError):
        solve_prp(surf, (0.0, 12.0))
    with pytest.raises(GeometryError):
        solve_prp(surf, (0.0, 10.0))


def test_occludes():
    surf = ReflectiveSurface(center_x=0.0, center_y=10.0, length=4.0,
                             orientation_deg=0.0)
    assert occludes(surf, (0.0, 20.0))
    assert not occludes(surf, (10.0, 5.0))
    assert not occludes(surf, (0.0, 5.0))          # in front of the wall
    assert not occludes(surf, (8.0, 20.0))         # past the segment end
