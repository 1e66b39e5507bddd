"""Checks of the program's outputs, computed apart from the program.

Every completed trial is checked against the geometry and the signal
processing it claims to have done:

- an NLOS position, mirrored across the estimated wall line, lands on the
  decided peak's polar point; a LOS position (or an infeasible NLOS
  fallback) is that polar point;
- the decided cell's map value equals a direct 2-D DFT sum of the trial's
  echo, re-synthesized from its seed;
- the decided region agrees with a segment walk on the estimated wall, no
  in-view cell stronger than the winner lies outside the guard band, and
  an undetected trial has no stronger in-view cell at all;
- a detected estimate has an intercept consistent with its centre and
  orientation, a length of at least ``min_length`` and 3 or more inliers.

Each function returns a list of problems; empty means the trial passed.
"""

from __future__ import annotations

import math

import numpy as np

MAP = 512
POSITION_TOL_M = 1e-6
MIN_INLIERS = 3
WALK_SAMPLES = 4000


def polar_point(range_m: float, angle_deg: float) -> np.ndarray:
    a = math.radians(angle_deg)
    return np.array([range_m * math.sin(a), range_m * math.cos(a)])


def mirror(p, theta_deg: float, intercept: float) -> np.ndarray:
    """Reflect ``p`` across the line y = tan(theta) x + intercept."""
    t = math.radians(theta_deg)
    n = np.array([-math.sin(t), math.cos(t)])          # unit normal
    d = float(n @ np.asarray(p, dtype=float)) - intercept * math.cos(t)
    return np.asarray(p, dtype=float) - 2.0 * d * n


def band_distance(est, guard_m: float, pts: np.ndarray) -> np.ndarray:
    """Signed distance-like function of the guard band around the estimated
    segment: <= 0 inside.  The band is |intercept offset| <= guard_m and
    |along-segment offset| <= length / 2 + 2.5 guard_m; pts is (..., 2)."""
    t = math.radians(est.orientation_deg)
    ux, uy = math.cos(t), math.sin(t)
    x, y = pts[..., 0], pts[..., 1]
    g = y - x * math.tan(t) - est.intercept
    s = x * ux + y * uy - (est.center_x * ux + est.center_y * uy)
    half = est.length / 2.0 + 2.5 * guard_m
    return np.maximum(np.abs(g) - guard_m, np.abs(s) - half)


def walk_label(est, guard_m: float, p, samples: int = WALK_SAMPLES,
               eps: float = 1e-9) -> str | None:
    """'guard', 'nlos' or 'los' for the cell at ``p`` by walking the
    radar-to-cell segment; None when the walk cannot tell (the segment
    grazes the band within the walk's step).

    The band distance is convex along the segment, and changes by at most
    ``lip * dt`` between samples, so a sampled minimum above that margin
    proves the segment misses the band."""
    p = np.asarray(p, dtype=float)
    d_end = float(band_distance(est, guard_m, p))
    if d_end <= -eps:
        return "guard"
    if d_end < eps:
        return None
    t = np.linspace(0.0, 1.0, samples)
    d_min = float(band_distance(est, guard_m, t[:, None] * p[None, :]).min())
    theta = math.radians(est.orientation_deg)
    lip = max(abs(p[1] - p[0] * math.tan(theta)),
              abs(p[0] * math.cos(theta) + p[1] * math.sin(theta)))
    if d_min <= -eps:
        return "nlos"
    if d_min > lip / (samples - 1) + eps:
        return "los"
    return None


def axes(radar):
    """Range (m) of each map row and bearing (deg) of each column."""
    rng = np.arange(MAP) * (radar.max_range_m / MAP)
    du = radar.element_spacing / radar.carrier_wavelength
    with np.errstate(invalid="ignore"):
        ang = np.degrees(np.arcsin((np.arange(MAP) - MAP // 2) / (MAP * du)))
    return rng, ang


def dft_cell(samples: np.ndarray, row: int, col: int) -> complex:
    """Map value at (range row, angle column) as a direct sum over the
    frame: channel m -> spatial frequency col - 256, fast-time sample n ->
    range row, inverse sense."""
    m = np.arange(samples.shape[0])[:, None]
    n = np.arange(samples.shape[1])[None, :]
    k = col - MAP // 2
    phase = np.exp(-2j * np.pi * k * m / MAP) * np.exp(2j * np.pi * row * n / MAP)
    return complex(np.sum(samples * phase))


def magnitude_map(samples: np.ndarray) -> np.ndarray:
    """|map| over all cells, the same sums as ``dft_cell`` done by FFT."""
    spatial = np.fft.fftshift(np.fft.fft(samples, n=MAP, axis=0), axes=0)
    return np.abs(np.fft.ifft(spatial, n=MAP, axis=1) * MAP).T


def check_geometry(record, min_length: float) -> list[str]:
    """Position and surface-estimate checks; needs only the record."""
    problems = []
    est, dec, loc = record.estimate, record.decision, record.localization
    polar = polar_point(dec.peak_range_m, dec.peak_angle_deg)
    xy = np.array([loc.x, loc.y])
    if dec.hypothesis.value == "I1" and loc.feasible:
        back = mirror(xy, est.orientation_deg, est.intercept)
        if np.hypot(*(back - polar)) > POSITION_TOL_M:
            problems.append(f"mirrored NLOS position {back} is not the peak {polar}")
    elif np.hypot(*(xy - polar)) > POSITION_TOL_M:
        problems.append(f"position {xy} is not the peak's polar point {polar}")
    if est.detected:
        b = est.center_y - math.tan(math.radians(est.orientation_deg)) * est.center_x
        if abs(b - est.intercept) > POSITION_TOL_M:
            problems.append(f"intercept {est.intercept} but centre gives {b}")
        if est.length < min_length:
            problems.append(f"detected length {est.length} < {min_length}")
        if est.inlier_count < MIN_INLIERS:
            problems.append(f"detected with {est.inlier_count} inliers")
    elif dec.hypothesis.value != "I0":
        problems.append("NLOS decision without a detected surface")
    return problems


def check_map(record, samples: np.ndarray, radar, guard_m: float) -> list[str]:
    """Decided-cell and region checks against the re-synthesized frame."""
    problems = []
    est, dec = record.estimate, record.decision
    i, j = dec.peak_range_bin, dec.peak_angle_bin
    rng, ang = axes(radar)
    if abs(rng[i] - dec.peak_range_m) > 1e-9 or abs(ang[j] - dec.peak_angle_deg) > 1e-9:
        problems.append(f"peak ({dec.peak_range_m}, {dec.peak_angle_deg}) "
                        f"is not the centre of cell ({i}, {j})")
    scale = float(np.abs(samples).sum())
    direct = abs(dft_cell(samples, i, j))
    if abs(direct - dec.peak_magnitude) > 1e-9 * scale:
        problems.append(f"cell ({i}, {j}) magnitude {dec.peak_magnitude} "
                        f"but the direct DFT gives {direct}")

    mag = magnitude_map(samples)
    with np.errstate(invalid="ignore"):
        view = np.broadcast_to(np.abs(ang) <= radar.fov_half_angle_deg,
                               mag.shape).copy()
    if est.detected:
        view[0, :] = False                       # range 0 has no bearing
    stronger = view & (mag > direct * (1.0 + 1e-9))
    if not est.detected:
        if stronger.any():
            problems.append(f"{int(stronger.sum())} in-view cells stronger "
                            "than the undetected trial's peak")
        return problems

    label = walk_label(est, guard_m, polar_point(rng[i], ang[j]))
    want = "nlos" if dec.hypothesis.value == "I1" else "los"
    if label is not None and label != want:
        problems.append(f"decided {want} but the walk labels the cell {label}")
    ri, cj = np.nonzero(stronger)
    a = np.radians(ang[cj])
    pts = np.stack([rng[ri] * np.sin(a), rng[ri] * np.cos(a)], axis=-1)
    outside = band_distance(est, guard_m, pts) > 1e-9
    if outside.any():
        problems.append(f"{int(outside.sum())} stronger in-view cells lie "
                        "outside the guard band")
    return problems
