"""Reflective-surface detection and parameter estimation (Stage I).

A random-consensus fit, robust to spurious peaks, places a line through
the strongest map peaks converted to Cartesian points.  The resulting
estimate carries center, length, orientation and intercept of the fitted
finite segment, or a not-detected flag when no sufficiently long consensus
line exists.  ``detect_surface`` is Stage I as the pipeline runs it: the
fit on up to three maps of the frame, tried in turn.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .echo import suppress_point_returns
from .geometry import RadarConfig, polar_to_xy
from .ramap import (
    RangeAngleMap,
    _argmax_cell,
    compute_ra_map,
    extract_peaks,
    refine_peak_quadratic,
)


class FitError(ValueError):
    """Degenerate point configuration (vertical or rank deficient)."""


class NoConsensusError(ValueError):
    """No consensus hypothesis reached the minimum inlier count."""


# Two-point hypotheses drawn per consensus fit.
RANSAC_ITERATIONS = 500

# Perpendicular distance, meters, within which a point supports a line.
INLIER_THRESHOLD_M = 0.4

# Stage I candidates are at most one per range-resolution cell, so a wall of
# the minimum detectable length (1 m against 0.375 m cells at 400 MHz) yields
# about three of them; three is also the least count that over-determines a
# line, since a two-point hypothesis always fits its own pair.
MIN_INLIERS = 3


@dataclass
class SurfaceEstimate:
    """Stage I output.  When ``detected`` is false the geometry fields are None."""

    detected: bool
    center_x: float | None = None
    center_y: float | None = None
    length: float | None = None
    orientation_deg: float | None = None
    intercept: float | None = None
    inlier_count: int = 0

    @classmethod
    def not_detected(cls) -> "SurfaceEstimate":
        return cls(detected=False)

    @classmethod
    def from_truth(cls, surface) -> "SurfaceEstimate":
        """Estimate carrying the ground-truth parameters (oracle Stage I)."""
        return cls(detected=True,
                   center_x=surface.center_x, center_y=surface.center_y,
                   length=surface.length,
                   orientation_deg=surface.orientation_deg,
                   intercept=surface.intercept, inlier_count=0)


def fit_ls(points: np.ndarray) -> tuple[float, float]:
    """Closed-form least-squares line through (x, y) points.

    Solves the normal equations of y = slope*x + intercept.  Raises FitError
    for fewer than two points or an (near-)vertical configuration.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        raise FitError("need at least two points")
    x, y = pts[:, 0], pts[:, 1]
    h = np.column_stack([np.ones_like(x), x])
    gram = h.T @ h
    # rank check: x values must actually spread
    if abs(np.linalg.det(gram)) < 1e-12 * max(1.0, float(np.max(np.abs(x)))**2) * len(x)**2:
        raise FitError("vertical or degenerate point configuration")
    intercept, slope = np.linalg.solve(gram, h.T @ y)
    return float(slope), float(intercept)


def fit_ransac(points: np.ndarray,
               inlier_threshold: float = INLIER_THRESHOLD_M,
               min_inliers: int = MIN_INLIERS,
               seed: int = 0) -> tuple[float, float, np.ndarray]:
    """Random-consensus line fit; returns (slope, intercept, inlier mask).

    ``RANSAC_ITERATIONS`` two-point hypotheses are drawn with a generator
    seeded by ``seed``; the hypothesis with the most points within
    ``inlier_threshold`` meters (perpendicular) wins and is refined with a
    least-squares fit over its inliers.  Deterministic for a given seed.
    Raises NoConsensusError when no hypothesis reaches ``min_inliers``.
    """
    if inlier_threshold <= 0:
        raise ValueError("inlier threshold must be positive")
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < min_inliers:
        raise NoConsensusError("fewer points than the minimum inlier count")

    rng = np.random.default_rng(seed)
    first = rng.integers(0, n, size=RANSAC_ITERATIONS)
    second = rng.integers(0, n - 1, size=RANSAC_ITERATIONS)
    second = np.where(second >= first, second + 1, second)   # distinct pairs

    p1, p2 = pts[first], pts[second]
    dx = p2[:, 0] - p1[:, 0]
    ok = np.abs(dx) > 1e-12
    slope = np.where(ok, (p2[:, 1] - p1[:, 1]) / np.where(ok, dx, 1.0), 0.0)
    icept = p1[:, 1] - slope * p1[:, 0]
    # perpendicular distances, (RANSAC_ITERATIONS, n)
    dist = np.abs(pts[None, :, 1] - slope[:, None] * pts[None, :, 0]
                  - icept[:, None]) / np.sqrt(1.0 + slope[:, None]**2)
    inlier = (dist <= inlier_threshold) & ok[:, None]
    counts = inlier.sum(axis=1)
    best = int(np.argmax(counts))
    if counts[best] < min_inliers:
        raise NoConsensusError("no hypothesis reached the minimum inlier count")

    mask = inlier[best]
    slope_r, icept_r = fit_ls(pts[mask])
    return slope_r, icept_r, mask


def _weighted_ls(pts: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Least squares of y on x with per-point weights."""
    x, y = pts[:, 0], pts[:, 1]
    h = np.column_stack([np.ones_like(x), x])
    gram = h.T @ (weights[:, None] * h)
    if abs(np.linalg.det(gram)) < 1e-12 * max(1.0, float(np.max(np.abs(x)))**2) \
            * max(1.0, float(weights.sum()))**2:
        raise FitError("vertical or degenerate point configuration")
    icept, slope = np.linalg.solve(gram, h.T @ (weights * y))
    return float(slope), float(icept)


def _reestimate(pts: np.ndarray, slope: float, icept: float,
                threshold: float, weights: np.ndarray):
    """Expand the consensus: refit on every point within the perpendicular
    threshold of the current line, for up to two rounds.  The refit is
    weighted by ``weights`` (peak magnitudes), anchoring the line on the
    strong ridge cells rather than on the speckle skirt around them."""
    mask = None
    for _ in range(2):
        d = np.abs(pts[:, 1] - slope * pts[:, 0] - icept) \
            / math.sqrt(1.0 + slope**2)
        new_mask = d <= threshold
        if mask is not None and np.array_equal(new_mask, mask):
            break
        if new_mask.sum() < 2:
            break
        mask = new_mask
        try:
            slope, icept = _weighted_ls(pts[mask], weights[mask])
        except FitError:
            break
    if mask is None:
        mask = np.zeros(pts.shape[0], dtype=bool)
    return slope, icept, mask


def _sidelobe_shadowed(peaks: list) -> np.ndarray:
    """Candidates sitting in a much stronger candidate's range-sidelobe lane.

    A point return throws range sidelobes up and down its own angle column;
    weak candidates close in angle to a far stronger one (10 dB or more
    stronger, within 6 angle and 36 range bins) are those sidelobes, not
    independent reflections.  Genuine neighbor cells of a tilted ridge sit
    at clearly different angle columns and survive.  Returns the mask of
    shadowed (drop-worthy) candidates.
    """
    n = len(peaks)
    shadowed = np.zeros(n, dtype=bool)
    ratio = 10.0 ** 0.5                 # 10 dB in magnitude
    for i in range(n):
        for j in range(n):
            if j == i or peaks[j].magnitude < peaks[i].magnitude * ratio:
                continue
            if abs(peaks[i].angle_bin - peaks[j].angle_bin) <= 6 \
                    and abs(peaks[i].range_bin - peaks[j].range_bin) <= 36:
                shadowed[i] = True
                break
    return shadowed


def _refined_cartesian(ra_map: RangeAngleMap, peaks: list) -> np.ndarray:
    """Candidate positions with quadratic sub-bin interpolation."""
    out = np.zeros((len(peaks), 2))
    for i, p in enumerate(peaks):
        out[i] = polar_to_xy(*refine_peak_quadratic(ra_map, p.range_bin,
                                                    p.angle_bin))
    return out


def _nearest_window(pts: np.ndarray) -> np.ndarray:
    """Restrict candidates to the nearest extended structure.

    The reflective surface is the nearest extended return in the scene: a
    two-bounce blob appears several meters beyond it, so fitting inside a
    10 m range window anchored at the nearest candidate that has at least
    one companion within 3 m (isolated noise spikes do not anchor) covers
    the full ridge depth while excluding multipath structure behind it.
    Returns the in-window mask.
    """
    r = np.hypot(pts[:, 0], pts[:, 1])
    anchor = float(r.min())
    for i in np.argsort(r, kind="stable"):
        d = np.hypot(pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1])
        if np.count_nonzero(d <= 3.0) >= 2:            # itself plus one
            anchor = float(r[i])
            break
    return r <= anchor + 10.0


def _build_estimate(slope: float, icept: float,
                    inliers: np.ndarray, count: int) -> SurfaceEstimate:
    theta = math.degrees(math.atan(slope))
    direction = np.array([math.cos(math.radians(theta)),
                          math.sin(math.radians(theta))])
    proj = inliers @ direction
    extent = float(proj.max() - proj.min())
    # center: midpoint of the extreme inlier projections, placed on the line
    mid = 0.5 * (float(proj.max()) + float(proj.min()))
    anchor = np.array([0.0, icept])
    center = anchor + (mid - float(anchor @ direction)) * direction
    return SurfaceEstimate(detected=True,
                           center_x=float(center[0]), center_y=float(center[1]),
                           length=extent, orientation_deg=theta,
                           intercept=icept, inlier_count=count)


# Peaks Stage I extracts per map, whatever the scene: the 12 range cells of a
# 4.5 m wall at 0.375 m cells plus 16 of headroom, so that a strong point
# return cannot crowd the wall out of the candidate set.  A longer wall still
# gives a consensus on its strongest cells; a much larger count lets sidelobe
# and multipath cells outvote a short wall.
STAGE1_CANDIDATES = 28


def estimate_surface(ra_map: RangeAngleMap, min_length: float = 1.0,
                     max_range_m: float | None = None,
                     inlier_threshold: float = INLIER_THRESHOLD_M,
                     seed: int = 0) -> SurfaceEstimate:
    """Detect the reflective surface on one map and estimate its parameters.

    Extracts the ``STAGE1_CANDIDATES`` strongest peaks of the field of
    view (up to ``max_range_m`` when given; ``extract_peaks``) at least
    12 dB above the median magnitude of that rectangle of the map, at most
    one per range-resolution cell, converts them to Cartesian coordinates
    and fits a consensus line (``fit_ransac`` with ``inlier_threshold`` and
    ``seed``).  The surface counts as detected when the consensus set has
    at least ``MIN_INLIERS`` members spanning at least ``min_length``
    meters.  Absence of a surface is a regular not-detected outcome, never
    an error.
    """
    # the exclusion radius is the map rows a range-resolution cell spans, so
    # each occupied wall cell can contribute its own candidate
    cell_rows = len(ra_map.range_axis_m) // ra_map.radar.num_samples
    peaks = extract_peaks(ra_map, STAGE1_CANDIDATES,
                          exclusion_radius_bins=cell_rows,
                          noise_floor_db=12.0, max_range_m=max_range_m)
    shadowed = _sidelobe_shadowed(peaks)
    peaks = [p for p, s in zip(peaks, shadowed) if not s]
    if len(peaks) < MIN_INLIERS:
        return SurfaceEstimate.not_detected()
    pts = _refined_cartesian(ra_map, peaks)
    mags = np.array([p.magnitude for p in peaks])

    near = _nearest_window(pts)
    if near.sum() < MIN_INLIERS:
        return SurfaceEstimate.not_detected()
    pts, mags = pts[near], mags[near]

    # peel up to three disjoint consensus lines and keep the largest
    # consensus; the earlier peel wins a tie.  Lines are fitted as y on x
    # only: the orientation gate below rejects anything steeper than 47 deg
    best = None
    keep = np.ones(len(pts), dtype=bool)
    for _ in range(3):
        if keep.sum() < MIN_INLIERS:
            break
        try:
            slope, icept, sub = fit_ransac(pts[keep], inlier_threshold,
                                           seed=seed)
        except (FitError, NoConsensusError):
            break
        mask = np.zeros(len(pts), dtype=bool)
        mask[np.flatnonzero(keep)[sub]] = True
        keep &= ~mask
        # plausibility gates: a support line of a real wall ahead of the
        # radar crosses boresight in front of it (positive intercept inside
        # the modeled scene depths, not through the radar) at an orientation
        # inside the modeled class; lines failing these are sidelobe or
        # multipath artifacts
        if abs(icept) / math.sqrt(1.0 + slope**2) < 2.0 \
                or not 2.0 <= icept <= 26.0:
            continue
        if not -5.0 <= math.degrees(math.atan(slope)) <= 47.0:
            continue
        if best is None or mask.sum() > best[2].sum():
            best = (slope, icept, mask)
    if best is None:
        return SurfaceEstimate.not_detected()
    slope, icept, mask = best

    # widen the consensus along the selected line, magnitude weighted
    slope2, icept2, re_mask = _reestimate(pts, slope, icept,
                                          inlier_threshold, mags)
    if re_mask.sum() >= mask.sum():
        slope, icept, mask = slope2, icept2, re_mask
    est = _build_estimate(slope, icept, pts[mask], int(mask.sum()))
    if est.length < min_length:
        return SurfaceEstimate.not_detected()
    return est


def detect_surface(samples: np.ndarray, radar: RadarConfig,
                   detection_map: Callable[[], RangeAngleMap], seed: int = 0,
                   min_length: float = 1.0, helper: Executor | None = None
                   ) -> tuple[SurfaceEstimate, int | None]:
    """Stage I: detect the reflective surface in a frame.

    ``samples`` is the frame and ``radar`` its radar.  ``detection_map``
    returns the frame's untapered detection map; it is called only when
    rung 1's gate is needed, so a caller can form the map while rungs run
    (``run_trial`` forms it on a helper thread).  ``estimate_surface`` runs
    with ``seed`` and ``min_length`` on up to three maps of the frame, each
    formed only when the ones before found nothing, and with half its rows
    on ``helper`` when one is given (``compute_ra_map``).
    Returns the estimate and the index of the rung that detected the wall
    (None when none did).

    0. The Hann-tapered map of the frame with up to 8 dominant point
       returns cancelled: a strong two-bounce blob otherwise floods the
       candidate set with its sidelobe fan.
    1. When the detection map's dominant return lies beyond 8.5 m, the same
       cleaned frame on a fully tapered map, searched only up to 4.5 m
       short of that return, where multipath structure cannot reach.  The
       taper merges adjacent ridge cells, so the consensus threshold
       doubles.
    2. The Hann-tapered map of the raw frame, for wall-dominant scenes
       where the cancellation consumed the ridge.
    """

    def fit(frame, window, **kwargs):
        return estimate_surface(compute_ra_map(frame, radar, window=window,
                                               helper=helper),
                                min_length=min_length, seed=seed, **kwargs)

    cleaned = suppress_point_returns(samples, radar, max_components=8)
    est = fit(cleaned, "hann")
    if est.detected:
        return est, 0

    ra_map = detection_map()
    i, _ = _argmax_cell(ra_map, ra_map.fov_mask())
    gate = float(ra_map.range_axis_m[i]) - 4.5
    if gate > 4.0:
        est = fit(cleaned, "hann2d", max_range_m=gate,
                  inlier_threshold=2.0 * INLIER_THRESHOLD_M)
        if est.detected:
            return est, 1

    est = fit(samples, "hann")
    return est, (2 if est.detected else None)
