"""Planar scene geometry for around-the-corner radar simulation.

The scene lives in a 2D Cartesian frame with the radar at the origin and
boresight along the +y axis.  Bearings are measured from boresight, positive
toward +x, in degrees.  A single straight reflective surface (a "wall") is
described by its center, length and orientation angle from the x axis; its
support line is  y = x*tan(theta) + b  with intercept  b = yc - xc*tan(theta).

This module provides the ground-truth constructions used both by the echo
synthesizer and as verification oracles: surface discretization into
scatterers, the mirror-image solution of the specular reflection point, and
the closed-form two-bounce target-position map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Propagation speed, rounded so a 400 MHz sweep gives an exact 0.375 m range bin.
SPEED_OF_LIGHT = 3.0e8

# Duration of the radar's one linear FMCW chirp, which sweeps its bandwidth.
CHIRP_DURATION_S = 40e-6

# Most points a wall is sampled into, at half a range bin apart, before the
# field-of-view cut; at the bound discretizing one takes about 19 MB.
MAX_SURFACE_POINTS = 2**18

# Side of the square transform point-return cancellation zero pads a frame
# to, and so the most receivers and fast-time samples a frame may have.
MAX_FRAME_SIZE = 256


class GeometryError(ValueError):
    """Scene geometry violates an operation's preconditions."""


class OutsideFovError(GeometryError):
    """Surface (or target) lies entirely outside the radar field of view."""


def polar_to_xy(range_m: float, angle_deg: float) -> np.ndarray:
    """(R, bearing) -> (x, y) with bearing measured from the +y boresight."""
    a = math.radians(angle_deg)
    return np.array([range_m * math.sin(a), range_m * math.cos(a)])


def xy_to_polar(xy) -> tuple[float, float]:
    """(x, y) -> (R, bearing in degrees)."""
    x, y = float(xy[0]), float(xy[1])
    return math.hypot(x, y), math.degrees(math.atan2(x, y))


@dataclass(frozen=True)
class RadarConfig:
    """Receive-array and waveform configuration of the radar at the origin.

    The array is a uniform linear array of ``num_rx`` elements along x,
    element 0 at the origin.  The one chirp sweeps ``bandwidth_hz`` in
    ``CHIRP_DURATION_S``.  ``element_spacing`` defaults to half the
    carrier wavelength.  There is a single transmitter: the synthesized
    frame has no transmitter dimension.
    """

    num_rx: int = 16
    num_samples: int = 128
    bandwidth_hz: float = 400e6
    carrier_wavelength: float = SPEED_OF_LIGHT / 77e9
    element_spacing: float | None = None
    fov_half_angle_deg: float = 60.0

    def __post_init__(self):
        if self.num_rx < 2 or self.num_samples < 2:
            raise ValueError("need num_rx >= 2, num_samples >= 2")
        if max(self.num_rx, self.num_samples) > MAX_FRAME_SIZE:
            raise ValueError(f"need num_rx, num_samples <= {MAX_FRAME_SIZE}")
        if not (self.bandwidth_hz > 0
                and 0 < self.range_bin_m < self.max_range_m < math.inf):
            raise ValueError("need bandwidth_hz > 0 with a nonzero, finite range bin")
        if not 0.0 < self.fov_half_angle_deg <= 90.0:
            raise ValueError("need 0 < fov_half_angle_deg <= 90")
        if self.element_spacing is None:
            object.__setattr__(self, "element_spacing", self.carrier_wavelength / 2.0)
        if not (self.carrier_wavelength > 0 and self.element_spacing > 0):
            raise ValueError("need carrier_wavelength > 0, element_spacing > 0")
        # the phase per element, 2*pi*d/lambda, and the map's columns per
        # unit of sin(angle), 512*d/lambda, stay finite and nonzero
        if not 1e-3 <= self.element_spacing / self.carrier_wavelength <= 1e3:
            raise ValueError("need element_spacing / carrier_wavelength "
                             "within [1e-3, 1e3]")

    @property
    def range_bin_m(self) -> float:
        """Coarse range resolution c / (2 * BW); strictly positive."""
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def chirp_slope(self) -> float:
        """Chirp slope in Hz/s, ``bandwidth_hz / CHIRP_DURATION_S``."""
        return self.bandwidth_hz / CHIRP_DURATION_S

    @property
    def max_range_m(self) -> float:
        """Unambiguous range N * range_bin."""
        return self.num_samples * self.range_bin_m

    def in_fov(self, xy) -> bool:
        r, ang = xy_to_polar(xy)
        return r > 0 and abs(ang) <= self.fov_half_angle_deg and r < self.max_range_m


@dataclass(frozen=True)
class ReflectiveSurface:
    """Finite straight reflective surface (wall segment).

    ``backscatter_ratio`` is the fraction of incident energy scattered
    forward; 1 - backscatter_ratio returns directly to the radar.
    ``beamwidth_exponent`` sets how sharply the forward lobe is peaked on
    the specular direction.  ``irregularity_sigma`` > 0 roughens the wall
    by jittering the scatterer x coordinates.
    """

    center_x: float
    center_y: float
    length: float
    orientation_deg: float
    backscatter_ratio: float = 0.846
    beamwidth_exponent: float = 14.0
    irregularity_sigma: float = 0.0

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("surface length must be positive")
        if not 0.0 <= self.orientation_deg < 90.0:
            raise ValueError("surface orientation must lie in [0, 90) degrees")
        if not 0.0 <= self.backscatter_ratio <= 1.0:
            raise ValueError("surface backscatter ratio must lie in [0, 1]")
        if self.irregularity_sigma < 0:
            raise ValueError("surface irregularity sigma must be non-negative")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.center_x, self.center_y])

    @property
    def slope(self) -> float:
        return math.tan(math.radians(self.orientation_deg))

    @property
    def intercept(self) -> float:
        """b = yc - xc * tan(theta) of the support line y = x*tan(theta) + b."""
        return self.center_y - self.center_x * self.slope

    @property
    def direction(self) -> np.ndarray:
        a = math.radians(self.orientation_deg)
        return np.array([math.cos(a), math.sin(a)])

    @property
    def normal_toward_radar(self) -> np.ndarray:
        """Unit normal pointing into the half plane containing the origin."""
        a = math.radians(self.orientation_deg)
        n = np.array([math.sin(a), -math.cos(a)])
        return n if float(n @ (-self.center)) > 0 else -n

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        half = 0.5 * self.length * self.direction
        return self.center - half, self.center + half

    def signed_offset(self, xy) -> float:
        """Signed distance from the support line, positive on the radar side."""
        p = np.asarray(xy, dtype=float)
        return float((p - self.center) @ self.normal_toward_radar)


@dataclass(frozen=True)
class PointTarget:
    """Stationary point target."""

    x: float
    y: float

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass
class SurfacePointSet:
    """Discretized surface scatterers, ordered along the segment.

    All arrays share length K.  ``range_bins`` holds the coarse range bin
    index of each point, round(R / range_bin_m).
    """

    xy: np.ndarray            # (K, 2)
    ranges: np.ndarray        # (K,)
    angles_deg: np.ndarray    # (K,)
    range_bins: np.ndarray    # (K,) int

    def __len__(self) -> int:
        return self.xy.shape[0]


@dataclass(frozen=True)
class PrpSolution:
    """Specular reflection point of the radar-target two-bounce path."""

    prp: tuple[float, float]
    angle_deg: float          # bearing of the PRP from the radar
    r_radar_prp: float
    r_prp_target: float
    on_segment: bool


def _annotate(xy: np.ndarray, radar: RadarConfig) -> SurfacePointSet:
    r = np.hypot(xy[:, 0], xy[:, 1])
    ang = np.degrees(np.arctan2(xy[:, 0], xy[:, 1]))
    bins = np.round(r / radar.range_bin_m).astype(int)
    return SurfacePointSet(xy=xy, ranges=r, angles_deg=ang, range_bins=bins)


def discretize_surface(surface: ReflectiveSurface, radar: RadarConfig,
                       rng_seed: int = 0) -> SurfacePointSet:
    """Sample the surface segment into scatterer positions.

    Points are spaced at most half a range bin apart along the segment and
    annotated with range, bearing and coarse range-bin index.  Points
    falling outside the radar field of view (or beyond the unambiguous
    range) are dropped.  With ``irregularity_sigma`` > 0 each point gets a
    seeded Gaussian x jitter, which displaces it off the support line by
    tan(orientation) times the jitter; displacements are clipped at three
    sigma so the wall stays within a bounded band around its nominal line.

    Raises OutsideFovError when no point survives the field-of-view cut, and
    ValueError before any allocation for over MAX_SURFACE_POINTS points.
    """
    step = radar.range_bin_m / 2.0
    if not surface.length / step < MAX_SURFACE_POINTS:
        raise ValueError(f"a surface 'length' of {surface.length} m needs over "
                         f"{MAX_SURFACE_POINTS} points at half the 'radar' range bin")
    n = max(2, int(math.ceil(surface.length / step)) + 1)
    a, b = surface.endpoints()
    t = np.linspace(0.0, 1.0, n)
    xy = a[None, :] + t[:, None] * (b - a)[None, :]

    if surface.irregularity_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        sig = surface.irregularity_sigma
        eta = np.clip(rng.normal(0.0, sig, size=n), -3.0 * sig, 3.0 * sig)
        dy = np.clip(eta * surface.slope, -3.0 * sig, 3.0 * sig)
        xy = xy.copy()
        xy[:, 1] += dy

    pts = _annotate(xy, radar)
    keep = (np.abs(pts.angles_deg) <= radar.fov_half_angle_deg) \
        & (pts.ranges < radar.max_range_m) & (pts.ranges > 0)
    if not np.any(keep):
        raise OutsideFovError("surface entirely outside the radar field of view")
    return SurfacePointSet(xy=pts.xy[keep], ranges=pts.ranges[keep],
                           angles_deg=pts.angles_deg[keep],
                           range_bins=pts.range_bins[keep])


def effective_reflectors(points: SurfacePointSet, radar: RadarConfig) -> SurfacePointSet:
    """Collapse sampled points to one effective reflector per range-angle cell.

    Cells are the coarse processing cells: range bin of width range_bin_m and
    direction-cosine bin of width 2 / num_rx.  Each occupied cell contributes
    the centroid of its member points.
    """
    u = np.sin(np.radians(points.angles_deg))
    u_bins = np.round(u * radar.num_rx / 2.0).astype(int)
    keys = points.range_bins * 10000 + (u_bins + 5000)
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    cells = []
    for i, s in enumerate(starts):
        e = starts[i + 1] if i + 1 < len(starts) else len(order)
        cells.append(points.xy[order[s:e]].mean(axis=0))
    return _annotate(np.array(cells), radar)


def mirror_across_surface(xy, surface: ReflectiveSurface) -> np.ndarray:
    """Reflect a point across the surface support line."""
    p = np.asarray(xy, dtype=float)
    n = surface.normal_toward_radar
    return p - 2.0 * surface.signed_offset(p) * n


def solve_prp(surface: ReflectiveSurface, target) -> PrpSolution:
    """Locate the perfect reflection point by the mirror-image construction.

    The radar at the origin is reflected across the support line; the PRP
    is the intersection of the mirrored-radar -> target segment with the
    line.  At that point the incidence and reflection angles about the
    local normal are equal, and r_radar_prp + r_prp_target equals
    |mirror(origin) - target|.

    Raises GeometryError when the support line passes through the radar,
    when the target is on or behind the line, or when the mirrored segment
    runs parallel to it.
    """
    t = np.asarray(target, dtype=float)
    g_o = surface.signed_offset((0.0, 0.0))
    g_t = surface.signed_offset(t)
    if g_o <= 0:
        raise GeometryError("surface line passes through the radar")
    if g_t <= 0:
        raise GeometryError("target is on or behind the surface line")

    m = -2.0 * g_o * surface.normal_toward_radar
    d = t - m
    dn = float(d @ surface.normal_toward_radar)
    if abs(dn) < 1e-15:
        raise GeometryError("mirrored path is parallel to the surface line")
    s = g_o / dn                       # signed_offset(m) = -g_o
    prp = m + s * d

    along = float((prp - surface.center) @ surface.direction)
    on_segment = abs(along) <= surface.length / 2.0 + 1e-12
    r1 = float(np.linalg.norm(prp))
    r2 = float(np.linalg.norm(t - prp))
    phi = math.degrees(math.atan2(prp[0], prp[1]))
    return PrpSolution(prp=(float(prp[0]), float(prp[1])), angle_deg=phi,
                       r_radar_prp=r1, r_prp_target=r2, on_segment=on_segment)


def range_to_prp(b_hat: float, theta_hat_deg: float, phi_ko_deg: float) -> float:
    """Range R1 from the radar to the specular point along bearing phi_ko,

        R1 = b / (cos(phi) - tan(theta) * sin(phi)),

    on the support line of intercept b and orientation theta.  Raises
    GeometryError when the bearing runs parallel to or diverges from the
    line (non-positive denominator), or when the line meets the bearing
    through or behind the radar (non-positive R1).
    """
    p = math.radians(phi_ko_deg)
    den = math.cos(p) - math.tan(math.radians(theta_hat_deg)) * math.sin(p)
    if den <= 0.0:
        raise GeometryError("bearing does not intersect the surface line")
    r1 = b_hat / den
    if r1 <= 0.0:
        raise GeometryError("surface support line through or behind the radar")
    return r1


def ground_truth_target(phi_ko_deg: float, r1: float, r2: float,
                        theta_w_deg: float) -> np.ndarray:
    """Closed-form target position from the two-bounce path parameters.

        x = R1 sin(phi) + R2 sin(2 theta + phi)
        y = R1 cos(phi) - R2 cos(2 theta + phi)

    Inverse-consistent with solve_prp: feeding the returned point back
    through the mirror construction recovers (phi, R1, R2).
    """
    if r1 <= 0 or r2 <= 0:
        raise GeometryError("path segment ranges must be positive")
    p = math.radians(phi_ko_deg)
    q = math.radians(2.0 * theta_w_deg + phi_ko_deg)
    return np.array([r1 * math.sin(p) + r2 * math.sin(q),
                     r1 * math.cos(p) - r2 * math.cos(q)])


def occludes(surface: ReflectiveSurface, xy) -> bool:
    """True when the straight path radar -> xy crosses the finite segment."""
    p = np.asarray(xy, dtype=float)
    a, b = surface.endpoints()

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    d2 = b - a
    denom = cross(p, d2)
    if abs(denom) < 1e-15:
        return False
    s = cross(a, d2) / denom           # position along radar -> xy
    t = cross(a, p) / denom            # position along segment
    return 0.0 < s < 1.0 and 0.0 <= t <= 1.0
