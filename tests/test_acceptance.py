"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured values (run with -s to see them inline).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from nlosradar import (
    MAP_SIZE,
    Hypothesis,
    RadarConfig,
    ReflectiveSurface,
    SceneClass,
    SnrSpec,
    SurfaceEstimate,
    amplitude_for_snr,
    build_masks,
    calibrate_noise,
    compute_ra_map,
    decide,
    fit_ls,
    fit_ransac,
    ground_truth_target,
    localize,
    mirror_across_surface,
    polar_to_xy,
    randomize_scenario,
    range_to_prp,
    solve_prp,
    synthesize_direct_echo,
    synthesize_surface_echo,
    synthesize_target_echo,
)
from nlosradar.echo import ScatterDraw, _noise
from nlosradar.geometry import discretize_surface, effective_reflectors
from nlosradar.harness import (
    PipelineOptions,
    rows_to_csv,
    run_sweep,
    sweep_delta_snr,
    sweep_identification,
    sweep_irregularity,
)
from nlosradar.ramap import RangeAngleMap


def _report(num, name, ok, detail):
    print(f"\ncriterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _random_nlos_geometry(rng):
    while True:
        surf = ReflectiveSurface(center_x=rng.uniform(0, 6),
                                 center_y=rng.uniform(8, 22),
                                 length=rng.uniform(1, 13),
                                 orientation_deg=rng.uniform(1, 46))
        target = ground_truth_target(rng.uniform(-20, 30),
                                     rng.uniform(9, 26),
                                     rng.uniform(6, 11),
                                     surf.orientation_deg)
        if surf.signed_offset(target) > 0.1:
            return surf, target


def test_criterion_1_geometry_oracle():
    """Closed form versus mirror construction, 1e4 scenes, under 5 s."""
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_pos, worst_snell = 0.0, 0.0
    for _ in range(10_000):
        surf, target = _random_nlos_geometry(rng)
        prp = solve_prp(surf, target)
        mirror = mirror_across_surface((0.0, 0.0), surf)
        # mirror-construction identities
        path = np.linalg.norm(mirror - target)
        worst_pos = max(worst_pos, abs(prp.r_radar_prp + prp.r_prp_target
                                       - path))
        # closed form reproduces the target from the mirror solution
        xy = ground_truth_target(prp.angle_deg, prp.r_radar_prp,
                                 prp.r_prp_target, surf.orientation_deg)
        worst_pos = max(worst_pos, float(np.max(np.abs(xy - target))))
        # equal angles about the surface normal
        n = surf.normal_toward_radar
        d_in = np.array(prp.prp) / np.linalg.norm(prp.prp)
        d_out = (target - np.array(prp.prp))
        d_out /= np.linalg.norm(d_out)
        snell = abs(math.acos(np.clip(-d_in @ n, -1, 1))
                    - math.acos(np.clip(d_out @ n, -1, 1)))
        worst_snell = max(worst_snell, snell)
    elapsed = time.perf_counter() - t0
    ok = worst_pos < 1e-9 and worst_snell < 1e-9 and elapsed < 5.0
    assert _report(1, "geometry oracle", ok,
                   f"max position residual {worst_pos:.2e} m, "
                   f"max angle residual {worst_snell:.2e} rad, "
                   f"{elapsed:.2f} s")


def test_criterion_2_range_contract():
    """Noise-free two-bounce returns peak at apparent range R1+R2 within one
    coarse range bin, and at the specular bearing within one coarse angle
    bin, over 100 random scenes (unit coefficients isolate the geometry)."""
    radar = RadarConfig()
    range_fails, angle_fails = [], []
    worst_r, worst_u = 0.0, 0.0
    for i in range(100):
        spec = randomize_scenario(SceneClass.NLOS, 20_000 + i)
        pts = discretize_surface(spec.surface, radar, rng_seed=spec.seed)
        refl = effective_reflectors(pts, radar)
        echo = synthesize_target_echo(refl, radar, spec.surface,
                                      spec.target.xy,
                                      ScatterDraw.unit(len(refl)))
        m = compute_ra_map(echo, radar)
        bi, bj = np.unravel_index(int(np.argmax(m.magnitude)),
                                  m.magnitude.shape)
        prp = solve_prp(spec.surface, spec.target.xy)
        dr = abs(m.range_axis_m[bi] - (prp.r_radar_prp + prp.r_prp_target))
        du = abs(math.sin(math.radians(m.angle_axis_deg[bj]))
                 - math.sin(math.radians(prp.angle_deg)))
        worst_r, worst_u = max(worst_r, dr), max(worst_u, du)
        if dr > radar.range_bin_m:
            range_fails.append(i)
        if du > 2.0 / radar.num_rx:
            angle_fails.append(i)
    ok = not range_fails and not angle_fails
    assert _report(2, "range contract", ok,
                   f"range misses {len(range_fails)}/100 (worst {worst_r:.3f} m"
                   f" vs {radar.range_bin_m} m), angle misses "
                   f"{len(angle_fails)}/100 (worst {worst_u:.4f} vs "
                   f"{2.0 / radar.num_rx:.4f} in direction cosine)")


def _mapped_cell_bound(surface, prp, radar):
    """Cartesian footprint of one coarse range-angle cell at the peak,
    propagated through the two-bounce localization chain."""
    b, th = surface.intercept, surface.orientation_deg
    phi = prp.angle_deg
    rbar = prp.r_radar_prp + prp.r_prp_target

    def loc(phi_deg, r):
        r1 = range_to_prp(b, th, phi_deg)
        r2 = r - r1
        p = math.radians(phi_deg)
        q = math.radians(2 * th + phi_deg)
        return np.array([r1 * math.sin(p) + r2 * math.sin(q),
                         r1 * math.cos(p) - r2 * math.cos(q)])

    base = loc(phi, rbar)
    dphi = math.degrees((2.0 / radar.num_rx)
                        / math.cos(math.radians(phi)))
    dr = radar.range_bin_m
    worst = 0.0
    for sp in (-1.0, 0.0, 1.0):
        for sr in (-1.0, 0.0, 1.0):
            try:
                corner = loc(phi + sp * dphi, rbar + sr * dr)
            except Exception:
                continue
            worst = max(worst, float(np.linalg.norm(corner - base)))
    return worst + 0.05


def test_criterion_3_closed_loop_localization():
    """Noiseless pipeline with the true surface parameters recovers the
    target within one coarse cell's Cartesian footprint (mapped through the
    localization geometry), over 100 random scenes.  The echo is built from
    unit scattering coefficients, so the check is free of fading: a deep
    Rayleigh fade of the target would let the wall's own return win the
    masked argmax, which says nothing about the geometry."""
    radar = RadarConfig()
    fails, worst_ratio = [], 0.0
    for i in range(100):
        spec = randomize_scenario(SceneClass.NLOS, 30_000 + i,
                                  snr=SnrSpec(30.0, 70.0))
        pts = discretize_surface(spec.surface, radar, rng_seed=spec.seed)
        refl = effective_reflectors(pts, radar)
        draw = ScatterDraw.unit(len(refl))
        target_amp = amplitude_for_snr(spec.snr.target_snr_db, radar,
                                       calibrate_noise(spec.snr, radar))
        echo = (synthesize_surface_echo(refl, radar, spec.surface, draw)
                + synthesize_target_echo(refl, radar, spec.surface,
                                         spec.target.xy, draw,
                                         amplitude=target_amp))
        m = compute_ra_map(echo, radar)
        est = SurfaceEstimate.from_truth(spec.surface)
        dec = decide(est, m, guard_m=1.0)
        res = localize(dec, est)
        err = math.hypot(res.x - spec.target.x, res.y - spec.target.y)
        prp = solve_prp(spec.surface, spec.target.xy)
        bound = _mapped_cell_bound(spec.surface, prp, radar)
        worst_ratio = max(worst_ratio, err / bound)
        if err > bound or dec.hypothesis is not Hypothesis.NLOS:
            fails.append((i, err, bound))
    ok = not fails
    assert _report(3, "closed-loop localization", ok,
                   f"{len(fails)}/100 beyond the mapped cell footprint "
                   f"(worst error/bound ratio {worst_ratio:.2f})")


def test_criterion_4_ls_ransac_correctness():
    """LS is exact on collinear input; the consensus fit recovers the
    planted 20-inlier set exactly against 5 outliers across 50 seeds."""
    xs = np.linspace(-4.0, 5.0, 20)
    line = np.column_stack([xs, 0.45 * xs + 17.0])
    slope, icept = fit_ls(line)
    ls_ok = abs(slope - 0.45) < 1e-9 and abs(icept - 17.0) < 1e-9

    direction = np.array([1.0, 0.45]) / math.hypot(1.0, 0.45)
    normal = np.array([-0.45, 1.0]) / math.hypot(1.0, 0.45)
    anchor = np.array([0.0, 17.0])
    ransac_fails = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        t = rng.uniform(-7.0, 8.0, 5)
        offset = rng.uniform(5.0, 15.0, 5) * rng.choice([-1.0, 1.0], 5)
        out = anchor + t[:, None] * direction + offset[:, None] * normal
        pts = np.vstack([line, out])
        _, _, mask = fit_ransac(pts, min_inliers=5, seed=seed)
        if not (mask[:20].all() and not mask[20:].any()):
            ransac_fails += 1
    ok = ls_ok and ransac_fails == 0
    assert _report(4, "LS/RANSAC correctness", ok,
                   f"LS residual < 1e-9: {ls_ok}, planted-set misses "
                   f"{ransac_fails}/50 seeds")


def test_criterion_5_mask_oracle():
    """Mask labels equal an independent dense-sampling segment-intersection
    oracle on 1000 random (surface, cell) pairs."""
    from conftest import brute_force_label

    radar = RadarConfig()
    flat = RangeAngleMap(np.zeros((MAP_SIZE, MAP_SIZE)), radar)
    rng = np.random.default_rng(5)
    mismatches, checked = 0, 0
    masks_cache = {}
    while checked < 1000:
        surf = ReflectiveSurface(center_x=rng.uniform(0, 6),
                                 center_y=rng.uniform(8, 22),
                                 length=rng.uniform(2, 13),
                                 orientation_deg=rng.uniform(1, 46))
        key = (surf.center_x, surf.center_y, surf.length,
               surf.orientation_deg)
        masks = masks_cache.setdefault(
            key, build_masks(SurfaceEstimate.from_truth(surf), flat,
                             guard_m=1.0))
        for _ in range(10):
            i = int(rng.integers(5, MAP_SIZE))
            j = int(rng.integers(0, MAP_SIZE))
            ang = flat.angle_axis_deg[j]
            if not np.isfinite(ang) or abs(ang) > radar.fov_half_angle_deg:
                continue
            cell = polar_to_xy(flat.range_axis_m[i], ang)
            expected = brute_force_label(surf, cell, 1.0)
            got = "nlos" if masks.nlos[i, j] else (
                "los" if masks.los[i, j] else "guard")
            mismatches += got != expected
            checked += 1
            if checked >= 1000:
                break
    ok = mismatches == 0
    assert _report(5, "mask oracle", ok,
                   f"{mismatches}/{checked} label mismatches")


def _one_inversion_within_se(values, ses, decreasing):
    """Monotone trend check allowing one adjacent inversion within the
    combined standard error of the two points."""
    bad = 0
    for a, b, sa, sb in zip(values, values[1:], ses, ses[1:]):
        step = b - a if decreasing else a - b
        if step > 1e-12:               # moves the wrong way
            if step > math.hypot(sa, sb):
                return False
            bad += 1
    return bad <= 1


def test_criterion_6_delta_snr_trend():
    """Localization RMSE is non-increasing in differential SNR over
    {10, 20, 30, 40} dB at a 30 dB surface level, 200 trials per point,
    single-threaded under 10 minutes."""
    t0 = time.perf_counter()
    sweep = sweep_delta_snr(grid=(10.0, 20.0, 30.0, 40.0),
                            trials_per_point=200, seed=100)
    rows, _ = run_sweep(sweep, PipelineOptions(), workers=1)
    elapsed = time.perf_counter() - t0
    rmse = [r["rmse_d"] for r in rows]
    ses = [r["se_rmse_d"] for r in rows]
    failures = [r["failures"] for r in rows]
    trend_ok = _one_inversion_within_se(rmse, ses, decreasing=True)
    ok = trend_ok and elapsed < 600.0 and not any(failures)
    assert _report(6, "RMSE trend over differential SNR", ok,
                   "RMSE_d = [" + ", ".join(f"{v:.2f}" for v in rmse)
                   + "] m, SE = [" + ", ".join(f"{s:.2f}" for s in ses)
                   + f"], failures = {failures}, {elapsed:.0f} s")


def test_criterion_7_identification_trend():
    """Pr(I1|I1) non-decreasing over the same grid and Pr(I1|I0) at most
    0.1 for differential SNR of 30 dB and above, 200 trials per point."""
    sweep = sweep_identification(grid=(10.0, 20.0, 30.0, 40.0),
                                 trials_per_point=200, seed=200)
    rows, _ = run_sweep(sweep, PipelineOptions(), workers=1)
    p11 = [r["pr_i1_i1"] for r in rows]
    p10 = [r["pr_i1_i0"] for r in rows]
    n = sweep.trials_per_point
    ses = [math.sqrt(max(p * (1 - p), 1e-9) / n) for p in p11]
    trend_ok = _one_inversion_within_se(p11, ses, decreasing=False)
    fa_ok = all(p <= 0.1 for p, v in zip(p10, (10, 20, 30, 40)) if v >= 30)
    failures = [r["failures"] for r in rows]
    ok = trend_ok and fa_ok and not any(failures)
    assert _report(7, "identification trend", ok,
                   "Pr(I1|I1) = [" + ", ".join(f"{v:.3f}" for v in p11)
                   + "], Pr(I1|I0) = ["
                   + ", ".join(f"{v:.3f}" for v in p10)
                   + f"], failures = {failures}")


def test_criterion_8_surface_mismatch_bound():
    """Roughness sweep {0, 0.1, 0.2, 0.3} m on the fixed far-target scene
    keeps the localization RMSE below 3.48 m (a tenth of the two-bounce
    path) at every point, 200 trials per point."""
    sweep = sweep_irregularity(grid=(0.0, 0.1, 0.2, 0.3),
                               trials_per_point=200, seed=300)
    rows, _ = run_sweep(sweep, PipelineOptions(), workers=1)
    rmse = [r["rmse_d"] for r in rows]
    failures = [r["failures"] for r in rows]
    bound = 3.48
    ok = all(v < bound for v in rmse) and not any(failures)
    assert _report(8, "surface-mismatch bound", ok,
                   "RMSE_d = [" + ", ".join(f"{v:.2f}" for v in rmse)
                   + f"] m, bound {bound} m, failures = {failures}")


def test_criterion_9_determinism():
    """A fixed master seed yields byte-identical sweep CSV across repeated
    runs and across worker counts."""
    sweep = sweep_delta_snr(grid=(20.0, 40.0), trials_per_point=5, seed=900)
    csv_a = rows_to_csv(run_sweep(sweep, PipelineOptions(), workers=1)[0])
    csv_b = rows_to_csv(run_sweep(sweep, PipelineOptions(), workers=1)[0])
    csv_c = rows_to_csv(run_sweep(sweep, PipelineOptions(), workers=4)[0])
    ok = csv_a == csv_b == csv_c
    assert _report(9, "determinism", ok,
                   f"repeat identical: {csv_a == csv_b}, "
                   f"worker-count identical: {csv_a == csv_c}")


def test_criterion_10_processing_gain():
    """Measured post-transform SNR of a calibrated single scatterer matches
    the configured level within 0.5 dB, averaged over 1000 noise draws."""
    radar = RadarConfig()
    target_snr_db = 30.0
    amp = amplitude_for_snr(target_snr_db, radar, noise_variance=1.0)
    sig = synthesize_direct_echo((0.0, 15.0), radar, amplitude=amp)
    peak_bin = (160, 256)
    rng = np.random.default_rng(10)
    peak_power, noise_power, n_noise_cells = 0.0, 0.0, 0
    mask = np.ones((MAP_SIZE, MAP_SIZE), dtype=bool)
    mask[peak_bin[0] - 40:peak_bin[0] + 41, :] = False
    mask[:, peak_bin[1] - 40:peak_bin[1] + 41] = False
    for _ in range(1000):
        noise = _noise(radar, 1.0, rng)
        m = compute_ra_map(sig + noise, radar)
        peak_power += float(m.magnitude[peak_bin]**2)
        noise_power += float(np.mean(m.magnitude[mask]**2))
    measured = 10 * math.log10(peak_power / noise_power)
    ok = abs(measured - target_snr_db) <= 0.5
    assert _report(10, "processing-gain calibration", ok,
                   f"measured {measured:.3f} dB vs configured "
                   f"{target_snr_db:.1f} dB")
