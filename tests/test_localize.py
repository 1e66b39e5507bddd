import numpy as np
import pytest

from nlosradar import (
    GeometryError,
    Hypothesis,
    ReflectiveSurface,
    SurfaceEstimate,
    ground_truth_target,
    localize,
    polar_to_xy,
    range_to_prp,
    solve_prp,
)
from nlosradar.classify import HypothesisDecision


def _decision(hyp, angle_deg, range_m):
    return HypothesisDecision(hypothesis=hyp, peak_angle_deg=angle_deg,
                              peak_range_m=range_m, peak_magnitude=1.0,
                              peak_range_bin=0, peak_angle_bin=0)


def test_range_to_prp_boresight():
    assert range_to_prp(10.0, 0.0, 0.0) == pytest.approx(10.0, abs=1e-12)


def test_range_to_prp_matches_mirror_fixture():
    # horizontal surface y=10, target (4,4): specular bearing 14.036 deg
    r1 = range_to_prp(10.0, 0.0, 14.036243467926479)
    assert r1 == pytest.approx(10.307764064044152, abs=1e-9)


def test_range_to_prp_far_wall_value():
    r1 = range_to_prp(21.761184728088505, 25.0, 6.3)
    assert r1 == pytest.approx(23.081663479496395, abs=1e-9)


def test_range_to_prp_divergent_bearing():
    with pytest.raises(GeometryError):
        range_to_prp(10.0, 45.0, 80.0)


def test_localize_los_polar_conversion():
    res = localize(_decision(Hypothesis.LOS, 0.0, 10.0))
    assert (res.x, res.y) == pytest.approx((0.0, 10.0), abs=1e-12)
    assert res.hypothesis is Hypothesis.LOS
    assert res.r_radar_prp is None


def test_localize_two_bounce_chain():
    est = SurfaceEstimate(detected=True,
                          center_x=3.3, center_y=23.3, length=8.8,
                          orientation_deg=25.0,
                          intercept=21.761184728088505)
    res = localize(_decision(Hypothesis.NLOS, 6.3, 34.8), est)
    assert res.feasible
    assert res.r_radar_prp == pytest.approx(23.081663479496395, abs=1e-9)
    assert res.r_prp_target == pytest.approx(11.718336520503602, abs=1e-9)
    assert (res.x, res.y) == pytest.approx(
        (12.281968813503022, 16.440418568213364), abs=1e-9)
    assert res.r_radar_prp + res.r_prp_target == pytest.approx(34.8, abs=1e-9)


def test_localize_exact_inverse_on_random_scenes():
    rng = np.random.default_rng(31)
    for _ in range(100):
        surf = ReflectiveSurface(center_x=rng.uniform(0, 6),
                                 center_y=rng.uniform(8, 22),
                                 length=rng.uniform(1, 13),
                                 orientation_deg=rng.uniform(1, 46))
        target = ground_truth_target(rng.uniform(-10, 25),
                                     rng.uniform(10, 25),
                                     rng.uniform(6, 11),
                                     surf.orientation_deg)
        if surf.signed_offset(target) <= 0.1:
            continue
        prp = solve_prp(surf, target)
        est = SurfaceEstimate.from_truth(surf)
        dec = _decision(Hypothesis.NLOS, prp.angle_deg,
                        prp.r_radar_prp + prp.r_prp_target)
        res = localize(dec, est)
        assert res.feasible
        assert np.hypot(res.x - target[0], res.y - target[1]) < 1e-9


def test_localize_infeasible_peak_closer_than_surface():
    est = SurfaceEstimate(detected=True,
                          center_x=0.0, center_y=10.0, length=8.0,
                          orientation_deg=0.0, intercept=10.0)
    res = localize(_decision(Hypothesis.NLOS, 0.0, 8.0), est)
    assert not res.feasible
    assert res.hypothesis is Hypothesis.NLOS
    assert (res.x, res.y) == pytest.approx((0.0, 8.0), abs=1e-12)


def test_localize_divergent_bearing_degrades():
    est = SurfaceEstimate(detected=True,
                          center_x=0.0, center_y=10.0, length=8.0,
                          orientation_deg=45.0, intercept=10.0)
    res = localize(_decision(Hypothesis.NLOS, 80.0, 30.0), est)
    assert not res.feasible


def test_localize_support_line_behind_radar_degrades():
    # the line y = x tan(10 deg) - 3 meets the 5 degree bearing 3.06 m
    # behind the radar, so no specular point lies ahead of it
    est = SurfaceEstimate(detected=True,
                          center_x=0.0, center_y=-3.0, length=8.0,
                          orientation_deg=10.0, intercept=-3.0)
    with pytest.raises(GeometryError):
        range_to_prp(est.intercept, est.orientation_deg, 5.0)
    res = localize(_decision(Hypothesis.NLOS, 5.0, 20.0), est)
    assert not res.feasible
    assert res.hypothesis is Hypothesis.NLOS
    assert (res.x, res.y) == pytest.approx(tuple(polar_to_xy(20.0, 5.0)),
                                           abs=1e-12)


def test_localize_requires_detected_estimate():
    with pytest.raises(ValueError):
        localize(_decision(Hypothesis.NLOS, 5.0, 30.0),
                 SurfaceEstimate.not_detected())
    with pytest.raises(ValueError):
        localize(_decision(Hypothesis.NLOS, 5.0, 30.0), None)


def test_localize_continuity_small_perturbations():
    est = SurfaceEstimate(detected=True,
                          center_x=3.3, center_y=23.3, length=8.8,
                          orientation_deg=25.0,
                          intercept=21.761184728088505)
    base = localize(_decision(Hypothesis.NLOS, 6.3, 34.8), est)
    for dphi, dr in ((1e-6, 0.0), (0.0, 1e-6), (-1e-6, -1e-6)):
        res = localize(_decision(Hypothesis.NLOS, 6.3 + dphi, 34.8 + dr), est)
        assert np.hypot(res.x - base.x, res.y - base.y) < 1e-3


def test_result_csv_row():
    row = localize(_decision(Hypothesis.LOS, 0.0, 10.0)).to_csv_row()
    fields = row.split(",")
    assert fields[0] == "I0"
    assert len(fields) == 7
