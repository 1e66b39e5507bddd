import math

import numpy as np
import pytest

from nlosradar import (
    Hypothesis,
    MAP_SIZE,
    PointTarget,
    RangeAngleMap,
    ReflectiveSurface,
    SceneClass,
    ScenarioSpec,
    SnrSpec,
    SurfaceEstimate,
    build_masks,
    compute_ra_map,
    decide,
    polar_to_xy,
    synthesize,
    target_from_prp,
    write_masks_pgm,
)


def _flat_map(radar):
    return RangeAngleMap(np.zeros((MAP_SIZE, MAP_SIZE)), radar)


def _estimate(surface):
    return SurfaceEstimate.from_truth(surface)


@pytest.fixture
def strip_surface():
    return ReflectiveSurface(center_x=0.0, center_y=10.0, length=4.0,
                             orientation_deg=0.0)


from conftest import brute_force_label, rayleigh_field  # noqa: E402 - shared test oracle
from nlosradar.classify import _interval  # noqa: E402


def test_masks_disjoint_and_guard_excluded(radar, strip_surface):
    m = _flat_map(radar)
    masks = build_masks(_estimate(strip_surface), m, guard_m=1.0)
    assert not np.any(masks.los & masks.nlos)
    # a cell on the surface itself is in neither mask
    i = m.nearest_range_bin(10.0)
    j = m.nearest_angle_bin(0.0)
    assert not masks.los[i, j] and not masks.nlos[i, j]
    # out-of-FOV columns are excluded from both masks
    outside = np.abs(m.angle_axis_deg) > radar.fov_half_angle_deg
    assert not masks.los[:, outside].any()
    assert not masks.nlos[:, outside].any()


def test_masks_example_cells(radar, strip_surface):
    m = _flat_map(radar)
    masks = build_masks(_estimate(strip_surface), m, guard_m=1.0)

    def label(x, y):
        r = np.hypot(x, y)
        a = np.degrees(np.arctan2(x, y))
        i, j = m.nearest_range_bin(r), m.nearest_angle_bin(a)
        if masks.nlos[i, j]:
            return "nlos"
        return "los" if masks.los[i, j] else "guard"

    assert label(0.0, 20.0) == "nlos"       # straight behind the strip
    assert label(8.0, 5.0) == "los"         # off to the side, inside the FOV
    assert label(0.0, 5.0) == "los"         # radar side of the strip


def test_masks_require_detection(radar):
    with pytest.raises(ValueError):
        build_masks(SurfaceEstimate.not_detected(), _flat_map(radar))


def test_masks_match_brute_force(radar):
    rng = np.random.default_rng(11)
    m = _flat_map(radar)
    checked = 0
    for _ in range(120):
        surf = ReflectiveSurface(center_x=rng.uniform(0, 6),
                                 center_y=rng.uniform(8, 22),
                                 length=rng.uniform(2, 13),
                                 orientation_deg=rng.uniform(1, 46))
        masks = build_masks(_estimate(surf), m, guard_m=1.0)
        i = int(rng.integers(5, MAP_SIZE))
        j = int(rng.integers(0, MAP_SIZE))
        if not np.isfinite(m.angle_axis_deg[j]) \
                or abs(m.angle_axis_deg[j]) > radar.fov_half_angle_deg:
            continue
        cell = polar_to_xy(m.range_axis_m[i], m.angle_axis_deg[j])
        expected = brute_force_label(surf, cell, 1.0)
        got = "nlos" if masks.nlos[i, j] else ("los" if masks.los[i, j]
                                               else "guard")
        assert got == expected, (surf, cell)
        checked += 1
    assert checked > 80


def _reference_masks(estimate, ra_map, guard_m):
    """(los, nlos): the ray test evaluated for every cell of the map at once."""
    r = ra_map.range_axis_m[:, None]
    ang = np.radians(ra_map.angle_axis_deg[None, :])
    with np.errstate(invalid="ignore"):
        x = r * np.sin(ang)
        y = r * np.cos(ang)
    in_fov = ra_map.fov_mask() & (r > 0)
    theta = math.radians(estimate.orientation_deg)
    slope = math.tan(theta)
    ux, uy = math.cos(theta), math.sin(theta)
    c_along = estimate.center_x * ux + estimate.center_y * uy
    half = estimate.length / 2.0 + 2.5 * guard_m
    g = y - x * slope - estimate.intercept
    s = x * ux + y * uy - c_along
    in_band = (np.abs(g) <= guard_m) & (np.abs(s) <= half)
    lo1, hi1 = _interval(y - x * slope, -estimate.intercept, guard_m)
    lo2, hi2 = _interval(x * ux + y * uy, -c_along, half)
    lo = np.maximum(np.maximum(lo1, lo2), 0.0)
    hi = np.minimum(np.minimum(hi1, hi2), 1.0)
    crosses = lo <= hi
    return in_fov & ~crosses & ~in_band, in_fov & crosses & ~in_band


def _random_walls(seed, count):
    rng = np.random.default_rng(seed)
    walls = [ReflectiveSurface(center_x=0.0, center_y=10.0, length=4.0,
                               orientation_deg=0.0)]
    while len(walls) < count:
        walls.append(ReflectiveSurface(center_x=rng.uniform(-6, 6),
                                       center_y=rng.uniform(6, 30),
                                       length=rng.uniform(1, 13),
                                       orientation_deg=rng.uniform(0, 75)))
    return walls


def test_masks_identical_to_full_ray_test(radar):
    m = _flat_map(radar)
    for k, surf in enumerate(_random_walls(41, 30)):
        guard_m = (0.5, 1.0, 2.0)[k % 3]
        masks = build_masks(_estimate(surf), m, guard_m=guard_m)
        los, nlos = _reference_masks(_estimate(surf), m, guard_m)
        assert np.array_equal(masks.union, los | nlos), surf
        assert np.array_equal(masks.nlos, nlos), surf
        assert np.array_equal(masks.los, los), surf


def test_on_demand_region_matches_masks(radar):
    m = _flat_map(radar)
    for surf in _random_walls(42, 6):
        masks = build_masks(_estimate(surf), m, guard_m=1.0)
        assert np.array_equal(masks.los | masks.nlos, masks.union)
        assert not np.any(masks.los & masks.nlos)
        # every cell where the label flips between neighbours, and a lattice
        # (one call per cell: all ~2e5 union cells would take seconds)
        probe = np.zeros_like(masks.nlos)
        probe[1:] |= masks.nlos[1:] != masks.nlos[:-1]
        probe[:, 1:] |= masks.nlos[:, 1:] != masks.nlos[:, :-1]
        probe[::7, ::7] = True
        cells = np.argwhere(probe & masks.union)
        assert len(cells) > 1000
        for i, j in cells:
            expected = Hypothesis.NLOS if masks.nlos[i, j] else Hypothesis.LOS
            assert masks.region(i, j) is expected, (surf, i, j)
    with pytest.raises(ValueError):
        masks.region(0, 0)              # range zero is never in the union


def test_decide_region_matches_masks(radar):
    for k, surf in enumerate(_random_walls(43, 12)):
        m = RangeAngleMap(rayleigh_field((MAP_SIZE, MAP_SIZE), seed=k), radar)
        est = _estimate(surf)
        dec = decide(est, m, guard_m=1.0)
        masks = build_masks(est, m, guard_m=1.0)
        i, j = dec.peak_range_bin, dec.peak_angle_bin
        assert masks.union[i, j]
        assert dec.hypothesis is (Hypothesis.NLOS if masks.nlos[i, j]
                                  else Hypothesis.LOS)
        assert dec.peak_magnitude == float(m.magnitude[masks.union].max())


def test_decide_nlos_impulse(radar, strip_surface):
    values = np.zeros((MAP_SIZE, MAP_SIZE))
    m0 = _flat_map(radar)
    i, j = m0.nearest_range_bin(20.0), m0.nearest_angle_bin(0.0)
    values[i, j] = 9.0
    m = RangeAngleMap(values, radar)
    dec = decide(_estimate(strip_surface), m, guard_m=1.0)
    assert dec.hypothesis is Hypothesis.NLOS
    assert dec.peak_range_m == pytest.approx(m.range_axis_m[i])
    assert dec.peak_magnitude == pytest.approx(9.0)


def test_decide_never_returns_guard_cell(radar, strip_surface):
    values = np.zeros((MAP_SIZE, MAP_SIZE))
    m0 = _flat_map(radar)
    # strongest cell sits on the surface strip, a weaker one is visible
    values[m0.nearest_range_bin(10.0), m0.nearest_angle_bin(0.0)] = 100.0
    vis_i, vis_j = m0.nearest_range_bin(6.0), m0.nearest_angle_bin(30.0)
    values[vis_i, vis_j] = 1.0
    m = RangeAngleMap(values, radar)
    dec = decide(_estimate(strip_surface), m, guard_m=1.0)
    assert dec.peak_magnitude == pytest.approx(1.0)
    assert dec.hypothesis is Hypothesis.LOS


def test_decide_empty_union(radar, strip_surface):
    m = _flat_map(radar)
    with pytest.raises(ValueError, match="guard_m"):
        decide(_estimate(strip_surface), m, guard_m=1e6)


def test_decide_no_surface_is_los(radar):
    spec = ScenarioSpec(radar=radar, surface=None,
                        target=PointTarget(*polar_to_xy(12.0, 10.0)),
                        snr=SnrSpec(30.0, 45.0),
                        scene_class=SceneClass.LOS_NO_SURFACE, seed=1)
    echo = synthesize(spec)
    m = compute_ra_map(echo.samples, radar)
    dec = decide(SurfaceEstimate.not_detected(), m)
    assert dec.hypothesis is Hypothesis.LOS
    assert dec.peak_range_m == pytest.approx(12.0, abs=2 * radar.range_bin_m)
    assert dec.peak_angle_deg == pytest.approx(10.0, abs=2.0)


def test_decide_nlos_scene(radar, far_surface):
    target = target_from_prp(far_surface, 6.3, 11.9)
    spec = ScenarioSpec(radar=radar, surface=far_surface, target=target,
                        snr=SnrSpec(30.0, 60.0),
                        scene_class=SceneClass.NLOS, seed=5)
    echo = synthesize(spec, include_noise=False)
    m = compute_ra_map(echo.samples, radar)
    dec = decide(_estimate(far_surface), m, guard_m=1.0)
    assert dec.hypothesis is Hypothesis.NLOS
    assert dec.peak_range_m == pytest.approx(34.98, abs=1.0)


def test_decide_visible_target_with_surface(radar, eval_surface):
    target = PointTarget(*polar_to_xy(10.0, 35.0))
    spec = ScenarioSpec(radar=radar, surface=eval_surface, target=target,
                        snr=SnrSpec(30.0, 60.0),
                        scene_class=SceneClass.LOS_SURFACE_NO_MP, seed=2)
    echo = synthesize(spec, include_noise=False)
    dec = decide(_estimate(eval_surface), compute_ra_map(echo.samples, radar))
    assert dec.hypothesis is Hypothesis.LOS


def test_decision_scale_invariance(radar, far_surface):
    target = target_from_prp(far_surface, 6.3, 11.9)
    spec = ScenarioSpec(radar=radar, surface=far_surface, target=target,
                        snr=SnrSpec(30.0, 55.0),
                        scene_class=SceneClass.NLOS, seed=9)
    echo = synthesize(spec)
    est = _estimate(far_surface)
    d1 = decide(est, compute_ra_map(echo.samples, radar))
    d2 = decide(est, compute_ra_map(echo.samples * 4.0, radar))
    assert (d1.peak_range_bin, d1.peak_angle_bin) \
        == (d2.peak_range_bin, d2.peak_angle_bin)
    assert d1.hypothesis == d2.hypothesis


def test_pgm_export(tmp_path, radar, strip_surface):
    masks = build_masks(_estimate(strip_surface), _flat_map(radar), guard_m=1.0)
    path = tmp_path / "masks.pgm"
    write_masks_pgm(masks, path)
    blob = path.read_bytes()
    header = b"P5\n512 512\n255\n"
    assert blob.startswith(header)
    img = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(512, 512)
    assert set(np.unique(img)) <= {0, 128, 255}
    assert (img == 128).any() and (img == 255).any()
