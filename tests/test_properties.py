"""Property tests: the two-bounce geometry round trip and the LOS/NLOS masks
against an independent oracle, on walls and targets drawn by hypothesis.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""

import functools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlosradar import (
    MAP_SIZE,
    RadarConfig,
    RangeAngleMap,
    ReflectiveSurface,
    SurfaceEstimate,
    build_masks,
    ground_truth_target,
    polar_to_xy,
    range_to_prp,
    solve_prp,
)

from conftest import brute_force_label

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


def _walls(center_x=(0.0, 6.0), center_y=(8.0, 22.0), length=(1.0, 13.0),
           orientation=(1.0, 46.0)):
    return st.builds(ReflectiveSurface,
                     center_x=st.floats(*center_x),
                     center_y=st.floats(*center_y),
                     length=st.floats(*length),
                     orientation_deg=st.floats(*orientation))


@PROPERTY
@given(surf=_walls(), x=st.floats(-5.0, 12.0), y=st.floats(2.0, 14.0))
def test_solve_prp_then_ground_truth_recovers_target(surf, x, y):
    assume(surf.signed_offset((x, y)) > 0.1)
    prp = solve_prp(surf, (0.0, 0.0), (x, y))
    xy = ground_truth_target(prp.angle_deg, prp.r_radar_prp,
                             prp.r_prp_target, surf.orientation_deg)
    assert np.max(np.abs(xy - (x, y))) < 1e-9


@PROPERTY
@given(surf=_walls(), phi=st.floats(-30.0, 40.0), r2=st.floats(0.5, 20.0))
def test_ground_truth_then_solve_prp_recovers_path(surf, phi, r2):
    p = math.radians(phi)
    # keep away from grazing incidence, where the inversion is ill-conditioned
    assume(math.cos(p) - surf.slope * math.sin(p) > 0.1)
    r1 = range_to_prp(surf.intercept, surf.orientation_deg, phi)
    target = ground_truth_target(phi, r1, r2, surf.orientation_deg)
    prp = solve_prp(surf, (0.0, 0.0), target)
    assert abs(prp.angle_deg - phi) < 1e-7
    assert abs(prp.r_radar_prp - r1) < 1e-7
    assert abs(prp.r_prp_target - r2) < 1e-7


@functools.cache
def _flat_map() -> RangeAngleMap:
    return RangeAngleMap(np.zeros((MAP_SIZE, MAP_SIZE), dtype=complex),
                         RadarConfig())


@PROPERTY
@given(surf=_walls(center_x=(-6.0, 6.0), center_y=(6.0, 30.0),
                   orientation=(0.0, 75.0)),
       guard_m=st.sampled_from((0.5, 1.0, 2.0)),
       cells=st.lists(st.tuples(st.integers(1, MAP_SIZE - 1),
                                st.integers(0, MAP_SIZE - 1)),
                      min_size=1, max_size=4))
def test_region_matches_brute_force(surf, guard_m, cells):
    m = _flat_map()
    masks = build_masks(SurfaceEstimate.from_truth(surf), m, guard_m=guard_m)
    for i, j in cells:
        if not m.fov_mask()[i, j]:
            continue
        cell = polar_to_xy(m.range_axis_m[i], m.angle_axis_deg[j])
        expected = brute_force_label(surf, cell, guard_m)
        assert masks.union[i, j] == (expected != "guard"), (surf, cell)
        if expected != "guard":
            assert masks.region(i, j).name.lower() == expected, (surf, cell)
