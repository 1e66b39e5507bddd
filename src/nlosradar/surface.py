"""Reflective-surface detection and parameter estimation (Stage I).

A random-consensus fit, robust to spurious peaks, places a line through
the strongest map peaks converted to Cartesian points.  The resulting
estimate carries center, length, orientation and intercept of the fitted
finite segment, or a not-detected flag when no sufficiently long consensus
line exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ramap import (
    MAP_SIZE,
    RangeAngleMap,
    extract_peaks,
    refine_peak_quadratic,
)


class FitError(ValueError):
    """Degenerate point configuration (vertical or rank deficient)."""


class NoConsensusError(ValueError):
    """No consensus hypothesis reached the minimum inlier count."""


# Two-point hypotheses drawn per consensus fit.
RANSAC_ITERATIONS = 500


@dataclass(frozen=True)
class RansacConfig:
    """Consensus-fit settings.  ``min_inliers`` is the consensus size
    ``fit_ransac`` demands; Stage I runs with ``STAGE1_RANSAC``."""

    inlier_threshold: float = 0.4       # perpendicular distance, meters
    min_inliers: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.inlier_threshold <= 0:
            raise ValueError("inlier threshold must be positive")


# Stage I candidates are at most one per range-resolution cell, so a wall of
# the minimum detectable length (1 m against 0.375 m cells at 400 MHz) yields
# about three of them; three is also the least count that over-determines a
# line, since a two-point hypothesis always fits its own pair.
STAGE1_RANSAC = RansacConfig(min_inliers=3)


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

    def to_csv_row(self) -> str:
        if not self.detected:
            return f"False,,,,,{self.inlier_count}"
        return (f"True,{self.center_x:.6f},{self.center_y:.6f},"
                f"{self.length:.6f},{self.orientation_deg:.6f},"
                f"{self.inlier_count}")


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
               config: RansacConfig = RansacConfig()) -> tuple[float, float, np.ndarray]:
    """Random-consensus line fit; returns (slope, intercept, inlier mask).

    ``RANSAC_ITERATIONS`` two-point hypotheses are drawn with a seeded
    generator; the hypothesis with the most perpendicular-distance inliers
    wins and is refined with a least-squares fit over its inliers.
    Deterministic for a given seed.
    Raises NoConsensusError when no hypothesis reaches ``min_inliers``.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < config.min_inliers:
        raise NoConsensusError("fewer points than the minimum inlier count")

    rng = np.random.default_rng(config.seed)
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
    inlier = (dist <= config.inlier_threshold) & ok[:, None]
    counts = inlier.sum(axis=1)
    best = int(np.argmax(counts))
    if counts[best] < config.min_inliers:
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
                threshold: float, weights: np.ndarray, rounds: int = 2):
    """Expand the consensus: refit on every point within the perpendicular
    threshold of the current line, a couple of rounds.  The refit is
    weighted by ``weights`` (peak magnitudes), anchoring the line on the
    strong ridge cells rather than on the speckle skirt around them."""
    mask = None
    for _ in range(rounds):
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


def _sidelobe_shadowed(peaks: list, dominance_db: float = 10.0,
                       range_bins: int = 36, angle_bins: int = 6) -> np.ndarray:
    """Candidates sitting in a much stronger candidate's range-sidelobe lane.

    A point return throws range sidelobes up and down its own angle column;
    weak candidates close in angle to a far stronger one are those
    sidelobes, not independent reflections.  Genuine neighbor cells of a
    tilted ridge sit at clearly different angle columns and survive.
    Returns the mask of shadowed (drop-worthy) candidates.
    """
    n = len(peaks)
    shadowed = np.zeros(n, dtype=bool)
    ratio = 10.0 ** (dominance_db / 20.0)
    for i in range(n):
        for j in range(n):
            if j == i or peaks[j].magnitude < peaks[i].magnitude * ratio:
                continue
            if abs(peaks[i].angle_bin - peaks[j].angle_bin) <= angle_bins \
                    and abs(peaks[i].range_bin - peaks[j].range_bin) <= range_bins:
                shadowed[i] = True
                break
    return shadowed


def _refined_cartesian(ra_map: RangeAngleMap, peaks: list) -> np.ndarray:
    """Candidate positions with quadratic sub-bin interpolation."""
    out = np.zeros((len(peaks), 2))
    for i, p in enumerate(peaks):
        r, a = refine_peak_quadratic(ra_map, p.range_bin, p.angle_bin)
        ar = math.radians(a)
        out[i] = (r * math.sin(ar), r * math.cos(ar))
    return out


def _nearest_window(pts: np.ndarray, depth_m: float = 10.0,
                    companion_m: float = 3.0) -> np.ndarray:
    """Restrict candidates to the nearest extended structure.

    The reflective surface is the nearest extended return in the scene: a
    two-bounce blob appears several meters beyond it, so fitting inside a
    range window anchored at the nearest candidate that has at least one
    companion within ``companion_m`` (isolated noise spikes do not anchor)
    covers the full ridge depth while excluding multipath structure behind
    it.  Returns the in-window mask.
    """
    r = np.hypot(pts[:, 0], pts[:, 1])
    anchor = float(r.min())
    for i in np.argsort(r, kind="stable"):
        d = np.hypot(pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1])
        if np.count_nonzero(d <= companion_m) >= 2:    # itself plus one
            anchor = float(r[i])
            break
    return r <= anchor + depth_m


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


_EXTRACTION_HEADROOM = 16   # candidates beyond k, so a strong point return
                            # cannot crowd the wall out of the candidate set


def _stage1_peaks(ra_map: RangeAngleMap, k: int,
                  max_range_m: float | None) -> list:
    """Strongest in-FOV candidates (optionally only below ``max_range_m``)
    at least 12 dB above the median map magnitude, at most one per
    range-resolution cell: the exclusion radius is the MAP_SIZE / N map
    rows a resolution cell spans, so each occupied wall cell can contribute
    its own candidate."""
    valid = ra_map.fov_mask()
    if max_range_m is not None:
        valid = valid & (ra_map.range_axis_m[:, None] <= max_range_m)
    cell_rows = MAP_SIZE // ra_map.radar.num_samples
    return extract_peaks(ra_map, k + _EXTRACTION_HEADROOM,
                         exclusion_radius_bins=cell_rows,
                         noise_floor_db=12.0, valid=valid)


def estimate_surface(ra_map: RangeAngleMap, k: int = 35,
                     config: RansacConfig = STAGE1_RANSAC,
                     min_length: float = 1.0,
                     max_range_m: float | None = None) -> SurfaceEstimate:
    """Stage I: detect the reflective surface and estimate its parameters.

    Extracts the ``k`` strongest in-FOV peaks (optionally only below
    ``max_range_m``), at most one per range-resolution cell, converts them
    to Cartesian coordinates and fits a consensus line.  The surface counts
    as detected when the consensus set has at least ``config.min_inliers``
    members (three by default, see ``STAGE1_RANSAC``) spanning at least
    ``min_length`` meters.  Absence of a surface is a regular not-detected
    outcome, never an error.
    """
    peaks = _stage1_peaks(ra_map, k, max_range_m)
    if len(peaks) < config.min_inliers:
        return SurfaceEstimate.not_detected()
    shadowed = _sidelobe_shadowed(peaks)
    peaks = [p for p, s in zip(peaks, shadowed) if not s]
    if len(peaks) < config.min_inliers:
        return SurfaceEstimate.not_detected()
    pts = _refined_cartesian(ra_map, peaks)
    mags = np.array([p.magnitude for p in peaks])

    near = _nearest_window(pts)
    if near.sum() < config.min_inliers:
        return SurfaceEstimate.not_detected()
    pts, mags = pts[near], mags[near]

    # peel up to three disjoint consensus lines and keep the largest
    # consensus; the earlier peel wins a tie.  Lines are fitted as y on x
    # only: the orientation gate below rejects anything steeper than 47 deg
    best = None
    keep = np.ones(len(pts), dtype=bool)
    for _ in range(3):
        if keep.sum() < config.min_inliers:
            break
        try:
            slope, icept, sub = fit_ransac(pts[keep], config)
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
                                          config.inlier_threshold, mags)
    if re_mask.sum() >= mask.sum():
        slope, icept, mask = slope2, icept2, re_mask
    est = _build_estimate(slope, icept, pts[mask], int(mask.sum()))
    if est.length < min_length:
        return SurfaceEstimate.not_detected()
    return est
