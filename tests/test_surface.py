import numpy as np
import pytest

from nlosradar import (
    FitError,
    NoConsensusError,
    RansacConfig,
    ReflectiveSurface,
    SceneClass,
    ScenarioSpec,
    SnrSpec,
    SurfaceEstimate,
    compute_ra_map,
    estimate_surface,
    fit_ls,
    fit_ransac,
)
from nlosradar.harness import PipelineOptions, run_trial


def _line_points(slope, icept, xs):
    xs = np.asarray(xs, dtype=float)
    return np.column_stack([xs, slope * xs + icept])


def test_fit_ls_exact_line():
    pts = _line_points(0.5, 10.0, np.linspace(-3, 6, 25))
    slope, icept = fit_ls(pts)
    assert slope == pytest.approx(0.5, abs=1e-9)
    assert icept == pytest.approx(10.0, abs=1e-9)


def test_fit_ls_two_points():
    slope, icept = fit_ls(np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert icept == pytest.approx(1.0, abs=1e-12)


def test_fit_ls_degenerate():
    with pytest.raises(FitError):
        fit_ls(np.array([[1.0, 0.0], [1.0, 5.0], [1.0, 9.0]]))
    with pytest.raises(FitError):
        fit_ls(np.array([[1.0, 2.0]]))


def test_fit_ls_noise_monte_carlo():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        xs = np.linspace(-5, 5, 20)
        pts = _line_points(0.5, 10.0, xs)
        pts[:, 1] += rng.normal(0.0, 0.1, size=20)
        slope, _ = fit_ls(pts)
        hits += abs(slope - 0.5) <= 0.05
    assert hits >= 95


def _planted_fixture(seed, n_out=5):
    """20 exactly collinear points plus outliers at a guaranteed 5..15 m
    perpendicular standoff from the line."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(-4, 5, 20)
    inliers = _line_points(0.45, 17.0, xs)
    direction = np.array([1.0, 0.45]) / np.hypot(1.0, 0.45)
    normal = np.array([-0.45, 1.0]) / np.hypot(1.0, 0.45)
    anchor = np.array([0.0, 17.0])
    t = rng.uniform(-7.0, 8.0, n_out)
    offset = rng.uniform(5.0, 15.0, n_out) * rng.choice([-1.0, 1.0], n_out)
    outliers = anchor + t[:, None] * direction + offset[:, None] * normal
    return np.vstack([inliers, outliers])


def test_fit_ransac_recovers_planted_inliers():
    pts = _planted_fixture(seed=1)
    slope, icept, mask = fit_ransac(pts, RansacConfig(seed=1))
    assert mask[:20].all()
    assert not mask[20:].any()
    assert slope == pytest.approx(0.45, abs=1e-9)
    assert icept == pytest.approx(17.0, abs=1e-9)


def test_fit_ransac_outlier_free_matches_ls():
    pts = _line_points(0.3, 12.0, np.linspace(-4, 4, 15))
    slope_r, icept_r, mask = fit_ransac(pts, RansacConfig(seed=0))
    slope_l, icept_l = fit_ls(pts)
    assert mask.all()
    assert slope_r == pytest.approx(slope_l, abs=1e-9)
    assert icept_r == pytest.approx(icept_l, abs=1e-9)


def test_fit_ransac_deterministic():
    pts = _planted_fixture(seed=3)
    _, _, m1 = fit_ransac(pts, RansacConfig(seed=9))
    _, _, m2 = fit_ransac(pts, RansacConfig(seed=9))
    assert np.array_equal(m1, m2)


def test_fit_ransac_inlier_set_invariant_to_far_outliers():
    pts = _planted_fixture(seed=5)
    _, _, mask_a = fit_ransac(pts, RansacConfig(seed=5))
    rng = np.random.default_rng(55)
    far = np.column_stack([rng.uniform(-6, 6, 5), rng.uniform(50, 80, 5)])
    _, _, mask_b = fit_ransac(np.vstack([pts, far]), RansacConfig(seed=5))
    assert np.array_equal(mask_a, mask_b[:len(pts)])
    assert not mask_b[len(pts):].any()


def test_fit_ransac_no_consensus():
    with pytest.raises(NoConsensusError):
        fit_ransac(np.array([[0.0, 1.0], [1.0, 2.0]]), RansacConfig())
    rng = np.random.default_rng(2)
    scatter = np.column_stack([rng.uniform(-20, 20, 12),
                               rng.uniform(0, 40, 12)])
    with pytest.raises(NoConsensusError):
        fit_ransac(scatter, RansacConfig(seed=0, inlier_threshold=0.05))


def test_ransac_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)


def _wall_scene(radar, snr_w, seed, surface, snr_t=0.0):
    return ScenarioSpec(radar=radar, surface=surface, target=None,
                        snr=SnrSpec(snr_w, snr_t),
                        scene_class=SceneClass.LOS_SURFACE_NO_MP, seed=seed)


def test_estimate_surface_noise_only_not_detected(radar):
    rng = np.random.default_rng(17)
    noise = rng.standard_normal((16, 128)) + 1j * rng.standard_normal((16, 128))
    est = estimate_surface(compute_ra_map(noise, radar), k=20)
    assert not est.detected
    assert est.to_csv_row().startswith("False")


def test_estimate_surface_on_synthesized_wall(radar, eval_surface):
    ths, cents, lens = [], [], []
    opts = PipelineOptions()
    for seed in range(100):
        spec = _wall_scene(radar, 40.0, seed, eval_surface)
        rec = run_trial(spec, opts)
        assert rec.ok
        if rec.estimate.detected:
            ths.append(abs(rec.estimate.orientation_deg - 25.0))
            cents.append(np.hypot(rec.estimate.center_x - 2.0,
                                  rec.estimate.center_y - 18.0))
            lens.append(rec.estimate.length)
    assert len(ths) >= 80
    assert np.median(ths) <= 3.0
    assert np.median(cents) <= 0.5
    # estimated extent never exceeds the candidate cloud diameter by headroom
    assert max(lens) < 20.0


def test_estimate_surface_snr_trend(radar, eval_surface):
    def theta_rmse(snr_w):
        errs = []
        for seed in range(40):
            rec = run_trial(_wall_scene(radar, snr_w, seed, eval_surface),
                            PipelineOptions())
            if rec.estimate is not None and rec.estimate.detected:
                errs.append(rec.estimate.orientation_deg - 25.0)
            else:
                errs.append(45.0)      # count a miss as a large error
        return float(np.sqrt(np.mean(np.square(errs))))

    assert theta_rmse(40.0) < theta_rmse(10.0)


def test_longer_wall_estimates_no_worse(radar):
    """Surface-parameter error is non-increasing in wall length at 30 dB."""
    def center_rmse(length):
        errs = []
        for seed in range(30):
            surf = ReflectiveSurface(center_x=2.0, center_y=18.0,
                                     length=length, orientation_deg=25.0)
            rec = run_trial(_wall_scene(radar, 30.0, seed, surf),
                            PipelineOptions())
            if rec.estimate is not None and rec.estimate.detected:
                errs.append(np.hypot(rec.estimate.center_x - 2.0,
                                     rec.estimate.center_y - 18.0))
            else:
                errs.append(length)    # count a miss as a full-length error
        return float(np.sqrt(np.mean(np.square(errs))))

    rmse = [center_rmse(d) for d in (2.0, 4.0, 8.0)]
    assert rmse[2] <= rmse[1] * 1.25 and rmse[1] <= rmse[0] * 1.25
    assert rmse[2] <= rmse[0]


def test_estimate_intercept_invariant(radar, eval_surface):
    rec = run_trial(_wall_scene(radar, 35.0, 4, eval_surface), PipelineOptions())
    est = rec.estimate
    assert est.detected
    slope = np.tan(np.radians(est.orientation_deg))
    assert est.intercept == pytest.approx(est.center_y - est.center_x * slope,
                                          abs=1e-9)


def test_csv_row_shape(eval_surface):
    est = SurfaceEstimate.from_truth(eval_surface)
    row = est.to_csv_row()
    assert row.split(",")[0] == "True"
    assert len(row.split(",")) == 6
