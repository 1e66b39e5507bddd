"""LOS/NLOS propagation-condition identification (Stage II).

Given a detected surface, every in-FOV map cell is labeled by whether the
straight radar-to-cell path crosses the estimated finite segment thickened
by a +/- guard offset of the support-line intercept: crossing cells are
occluded (NLOS region), non-crossing cells are visible (LOS region), and
cells lying inside the guard band itself are excluded from both masks so
the wall's own ridge cannot win the peak search.

The hypothesis decision takes the magnitude argmax over the union of the
two regions; the region containing the winner decides LOS (I0) versus
NLOS (I1).  Without a detected surface the whole field of view is searched
and the decision is I0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .ramap import RangeAngleMap, _argmax_cell
from .surface import SurfaceEstimate


class Hypothesis(str, Enum):
    LOS = "I0"
    NLOS = "I1"


@dataclass(frozen=True)
class _GuardBand:
    """The occluder: the estimated segment thickened by +/- ``guard_m`` in
    support-line intercept and lengthened by ``half`` about its centre.
    Cell coordinates (x, y) are arrays or scalars."""

    slope: float
    intercept: float
    ux: float
    uy: float
    c_along: float
    half: float
    guard_m: float

    def contains(self, x, y):
        """Cells inside the band, in strip (intercept offset) and
        along-segment coordinates."""
        g = y - x * self.slope - self.intercept
        s = x * self.ux + y * self.uy - self.c_along
        return (np.abs(g) <= self.guard_m) & (np.abs(s) <= self.half)

    def crossed_by(self, x, y):
        """Does alpha * (x, y), alpha in [0, 1], enter the band?"""
        lo1, hi1 = _interval(y - x * self.slope, -self.intercept, self.guard_m)
        lo2, hi2 = _interval(x * self.ux + y * self.uy, -self.c_along, self.half)
        lo = np.maximum(np.maximum(lo1, lo2), 0.0)
        hi = np.minimum(np.minimum(hi1, hi2), 1.0)
        return lo <= hi

    def radii(self) -> tuple[float, float]:
        """Bounds on the distance from the radar of any point in the band.

        A point's projection on the segment direction is c_along + s, and
        on the normal ux * (intercept + g), with |s| <= half, |g| <= guard_m.
        """
        along = abs(self.c_along)
        across = self.ux * abs(self.intercept)
        low = math.hypot(max(along - self.half, 0.0),
                         max(across - self.ux * self.guard_m, 0.0))
        return low, math.hypot(along + self.half,
                               across + self.ux * self.guard_m)


class FovMasks:
    """Visible (LOS) and occluded (NLOS) regions of the field of view.

    ``union`` holds the in-FOV cells outside the guard band, the cells the
    decision searches; it is formed when the masks are built.  Which of the
    two regions a cell belongs to takes a ray test that runs on demand:
    ``region(i, j)`` for one cell, and the map-shaped boolean ``los`` and
    ``nlos`` arrays on first access, each cell by the same formulas.
    """

    def __init__(self, union: np.ndarray, ranges: np.ndarray,
                 sin_a: np.ndarray, cos_a: np.ndarray, band: _GuardBand):
        self.union = union
        self._r, self._sin, self._cos, self._band = ranges, sin_a, cos_a, band

    def region(self, i: int, j: int) -> Hypothesis:
        """NLOS when the radar-to-cell ray of union cell (i, j) meets the
        guard band, LOS otherwise."""
        if not self.union[i, j]:
            raise ValueError(f"cell ({i}, {j}) is outside the mask union")
        r = self._r[i]
        crosses = self._band.crossed_by(r * self._sin[j], r * self._cos[j])
        return Hypothesis.NLOS if crosses else Hypothesis.LOS

    @cached_property
    def nlos(self) -> np.ndarray:
        r = self._r[:, None]
        return self.union & self._band.crossed_by(r * self._sin, r * self._cos)

    @cached_property
    def los(self) -> np.ndarray:
        return self.union & ~self.nlos


@dataclass
class HypothesisDecision:
    hypothesis: Hypothesis
    peak_angle_deg: float
    peak_range_m: float
    peak_magnitude: float
    peak_range_bin: int
    peak_angle_bin: int


def _interval(a: np.ndarray, b: float, m: float):
    """Alpha interval where |a*alpha + b| <= m, as (lo, hi) arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(a > 0, (-m - b) / a, np.where(a < 0, (m - b) / a, -np.inf))
        hi = np.where(a > 0, (m - b) / a, np.where(a < 0, (-m - b) / a, np.inf))
    if abs(b) > m:                      # a == 0 cells never enter the band
        lo = np.where(a == 0, np.inf, lo)
        hi = np.where(a == 0, -np.inf, hi)
    return lo, hi


def build_masks(estimate: SurfaceEstimate, ra_map: RangeAngleMap,
                guard_m: float = 1.0) -> FovMasks:
    """Segment the field of view into visible and occluded regions.

    Requires a detected estimate (an undetected surface routes to I0 before
    any mask is needed).  The occluder is the finite estimated segment
    extended into a band of +/- ``guard_m`` in support-line intercept and
    lengthened by 2.5 * ``guard_m`` past each end (the estimated extent is
    biased short, since faded end cells drop out of the consensus, so the
    endpoint allowance exceeds the lateral one); a cell is NLOS when the
    segment from the radar to the cell meets that band, LOS when it does
    not, and neither when the cell itself lies inside the band.  Only the
    band and the union of the two regions are computed here; the LOS/NLOS
    labels are computed on demand (see FovMasks).  Raises ValueError naming
    ``guard_m`` when the band covers every cell of the field of view.
    """
    if not estimate.detected:
        raise ValueError("masks require a detected surface estimate")

    r = ra_map.range_axis_m
    ang = np.radians(ra_map.angle_axis_deg)
    with np.errstate(invalid="ignore"):
        sin_a, cos_a = np.sin(ang), np.cos(ang)

    theta = math.radians(estimate.orientation_deg)
    ux, uy = math.cos(theta), math.sin(theta)
    band = _GuardBand(slope=math.tan(theta), intercept=estimate.intercept,
                      ux=ux, uy=uy,
                      c_along=estimate.center_x * ux + estimate.center_y * uy,
                      half=estimate.length / 2.0 + 2.5 * guard_m,
                      guard_m=guard_m)
    union = ra_map.fov_mask() & (r[:, None] > 0)
    # only rows within reach of the band can hold band cells; a range step
    # of slack keeps rounding in the band test from mattering
    low, high = band.radii()
    step = ra_map.range_step_m
    near = (r >= low - step) & (r <= high + step)
    rows = r[near, None]
    union[near] &= ~band.contains(rows * sin_a, rows * cos_a)
    if not union.any():
        raise ValueError(f"'guard_m' = {guard_m:g} m: the guard band covers "
                         "the whole field of view, leaving no cell to search")
    return FovMasks(union, r, sin_a, cos_a, band)


def decide(estimate: SurfaceEstimate, ra_map: RangeAngleMap,
           guard_m: float = 1.0) -> HypothesisDecision:
    """Hypothesis decision:

        no surface detected  ->  I0, peak = whole-FOV argmax
        surface detected     ->  masked argmax; NLOS-region winner -> I1,
                                 LOS-region winner -> I0
    """
    if not estimate.detected:
        i, j = _argmax_cell(ra_map, ra_map.fov_mask())
        hyp = Hypothesis.LOS
    else:
        masks = build_masks(estimate, ra_map, guard_m)
        i, j = _argmax_cell(ra_map, masks.union)
        hyp = masks.region(i, j)

    return HypothesisDecision(hypothesis=hyp,
                              peak_angle_deg=float(ra_map.angle_axis_deg[j]),
                              peak_range_m=float(ra_map.range_axis_m[i]),
                              peak_magnitude=float(ra_map.magnitude[i, j]),
                              peak_range_bin=i, peak_angle_bin=j)


def write_masks_pgm(masks: FovMasks, path) -> None:
    """Binary PGM: 0 = excluded, 128 = LOS region, 255 = NLOS region.

    Row 0 is range bin 0; columns follow the angle axis.
    """
    img = np.zeros(masks.union.shape, dtype=np.uint8)
    img[masks.los] = 128
    img[masks.nlos] = 255
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % img.shape[::-1])
        f.write(img.tobytes())
