"""Range-angle map formation and peak extraction.

The receiver frame is zero padded to 512 x 512 and transformed with a 2D
DFT: fast time to range (conjugate-sense DFT so positive beat frequencies
land on an increasing range axis) and receiver channel to direction cosine
(centered with the zero spatial frequency at the middle column).  A point
scatterer at range R and bearing phi peaks at

    row  = (512 / N) * R / range_bin      (fractional, 0 .. 512)
    col  = 256 + 512 * (d / lambda) * sin(phi)

Rows index range, columns index angle.  The angle axis is arcsine spaced.
"""

from __future__ import annotations

import json
import struct
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .echo import RadarEcho, _channel_spectrum, _median, _range_angle
from .geometry import RadarConfig

MAP_SIZE = 512
_BLOCK_ROWS = 64        # angle rows per range-transform block, 512 KB complex


class Peak(NamedTuple):
    range_bin: int
    angle_bin: int
    magnitude: float
    range_m: float
    angle_deg: float


class RangeAngleMap:
    """512 x 512 magnitude map with calibrated physical axes.

    Attributes:
        magnitude:      float matrix, magnitude[range_bin, angle_bin]
        values:         the complex map whose modulus ``magnitude`` is;
                        a map from ``compute_ra_map`` forms it from its
                        frame on first read (only exports read it)
        range_axis_m:   meters at each row, 0 .. N*range_bin (exclusive)
        angle_axis_deg: degrees at each column (NaN outside visible space)
        radar:          the originating radar configuration

    ``RangeAngleMap(values, radar)`` wraps a complex map made by hand.
    """

    def __init__(self, values: np.ndarray, radar: RadarConfig):
        if values.shape != (MAP_SIZE, MAP_SIZE):
            raise ValueError(f"map must be {MAP_SIZE} x {MAP_SIZE}")
        self.values = values
        self._set(np.abs(values), radar)

    @classmethod
    def _of_frame(cls, frame: np.ndarray, magnitude: np.ndarray,
                  radar: RadarConfig) -> "RangeAngleMap":
        """The map of a (windowed, complex) frame, of known magnitude."""
        ra_map = cls.__new__(cls)
        ra_map._frame = frame
        ra_map._set(magnitude, radar)
        return ra_map

    def _set(self, magnitude: np.ndarray, radar: RadarConfig) -> None:
        self.magnitude = magnitude
        self.radar = radar
        self.range_axis_m = np.arange(MAP_SIZE) * (radar.max_range_m / MAP_SIZE)
        du = radar.element_spacing / radar.carrier_wavelength
        u = (np.arange(MAP_SIZE) - MAP_SIZE // 2) / (MAP_SIZE * du)
        with np.errstate(invalid="ignore"):
            self.angle_axis_deg = np.degrees(np.arcsin(u))

    @cached_property
    def values(self) -> np.ndarray:
        """Complex matrix, values[range_bin, angle_bin], formed on first read."""
        return _range_angle(self._frame, MAP_SIZE).T

    def nearest_range_bin(self, range_m: float) -> int:
        step = self.radar.max_range_m / MAP_SIZE
        return int(np.clip(round(range_m / step), 0, MAP_SIZE - 1))

    def nearest_angle_bin(self, angle_deg: float) -> int:
        du = self.radar.element_spacing / self.radar.carrier_wavelength
        col = MAP_SIZE // 2 + MAP_SIZE * du * np.sin(np.radians(angle_deg))
        return int(np.clip(round(col), 0, MAP_SIZE - 1))

    def fov_mask(self) -> np.ndarray:
        """Boolean (512, 512) mask of cells inside the radar field of view."""
        ok = np.isfinite(self.angle_axis_deg) \
            & (np.abs(self.angle_axis_deg) <= self.radar.fov_half_angle_deg)
        return np.broadcast_to(ok[None, :], (MAP_SIZE, MAP_SIZE))


def compute_ra_map(echo: RadarEcho | np.ndarray, radar: RadarConfig,
                   window: str | None = None) -> RangeAngleMap:
    """Zero pad the frame to 512 x 512 and apply the calibrated 2D transform.

    ``window="hann"`` tapers the receiver-channel axis before the transform,
    trading angle-axis resolution for -31 dB angle sidelobes; ``"hann2d"``
    additionally tapers fast time, suppressing the range-sidelobe fan of a
    dominant return at the cost of merging adjacent range cells.  The
    detection map is always formed without a taper; the tapered variants
    exist for peak extraction in the presence of a point return strong
    enough that its sidelobes bury the distributed surface ridge.

    The map is magnitude-only.  The range transform runs over blocks of
    ``_BLOCK_ROWS`` angle rows of the channel spectrum, and each block's
    modulus is written straight into the range-major magnitude, so no
    complex 512 x 512 array is ever held.  The map keeps a copy of the
    windowed frame and forms the complex ``values`` from it on first read.

    The transform is pruned (``echo._channel_spectrum``): of the 512
    zero-padded fast-time columns only the N that hold samples go through
    the channel FFT, because the DFT of an all-zero column is exactly zero.
    Every other operation is one the full 512 x 512 transform performs on
    the same values, and scaling the range axis by 1/512 and back by 512
    (powers of two) is skipped, so the map is bit-identical to the unpruned
    transform.
    """
    samples = echo.samples if isinstance(echo, RadarEcho) else np.asarray(echo)
    m_r, n = samples.shape
    if window in ("hann", "hann2d"):
        # nonzero-endpoint taper: every channel keeps some weight
        samples = samples * np.hanning(m_r + 2)[1:-1][:, None]
        if window == "hann2d":
            samples = samples * np.hanning(n + 2)[1:-1][None, :]
    elif window is not None:
        raise ValueError(f"unknown window {window!r}")
    frame = samples.astype(complex)
    spatial = _channel_spectrum(frame, MAP_SIZE)
    magnitude = np.empty((MAP_SIZE, MAP_SIZE))
    for p in range(0, MAP_SIZE, _BLOCK_ROWS):
        rows = slice(p, p + _BLOCK_ROWS)
        block = np.fft.ifft(spatial[rows], n=MAP_SIZE, axis=1, norm="forward")
        np.abs(block.T, out=magnitude[:, rows])
    return RangeAngleMap._of_frame(frame, magnitude, radar)


def _argmax_cell(ra_map: RangeAngleMap, valid: np.ndarray) -> tuple[int, int]:
    """(range bin, angle bin) of the strongest cell among ``valid`` cells."""
    if not valid.any():
        raise ValueError("no valid cell to search")
    flat = int(np.argmax(np.where(valid, ra_map.magnitude, -1.0)))
    return divmod(flat, MAP_SIZE)


def extract_peaks(ra_map: RangeAngleMap, k: int, exclusion_radius_bins: int = 8,
                  noise_floor_db: float = 12.0,
                  valid: np.ndarray | None = None) -> list[Peak]:
    """Greedy iterative peak extraction.

    Candidates are the 3 x 3-neighborhood local maxima of the magnitude map
    (a smooth main lobe therefore yields exactly one candidate, not a trail
    of shoulder cells).  The strongest candidate is recorded, candidates
    within ``exclusion_radius_bins`` of it are suppressed, and the process
    repeats, stopping after ``k`` peaks or when the residual maximum falls
    below the noise floor gate: median magnitude over the searchable region
    plus ``noise_floor_db``.  ``valid`` optionally restricts the search to a
    boolean cell mask.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > ra_map.magnitude.size:
        raise ValueError("k exceeds the number of map cells")

    mag = ra_map.magnitude
    searchable = mag.flatten() if valid is None else mag[valid]
    if searchable.size == 0:
        return []
    floor = _median(searchable) * 10.0 ** (noise_floor_db / 20.0)

    # a candidate is an interior cell above the floor that is at least as
    # large as each of its 3 x 3 neighbors; only cells above the floor are
    # compared, in row-major order
    above = mag[1:-1, 1:-1] > floor
    if valid is not None:
        above &= valid[1:-1, 1:-1]
    ci, cj = np.nonzero(above)
    ci += 1
    cj += 1
    cmag = mag[ci, cj]
    local = np.ones(ci.size, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                local &= cmag >= mag[ci + di, cj + dj]
    ci, cj, cmag = ci[local], cj[local], cmag[local]
    order = np.argsort(cmag, kind="stable")[::-1]
    ci, cj, cmag = ci[order], cj[order], cmag[order]

    alive = np.ones(ci.size, dtype=bool)
    r2 = exclusion_radius_bins**2
    peaks: list[Peak] = []
    for idx in range(ci.size):
        if len(peaks) == k:
            break
        if not alive[idx]:
            continue
        i, j, m = int(ci[idx]), int(cj[idx]), float(cmag[idx])
        peaks.append(Peak(range_bin=i, angle_bin=j, magnitude=m,
                          range_m=float(ra_map.range_axis_m[i]),
                          angle_deg=float(ra_map.angle_axis_deg[j])))
        alive &= ((ci - i)**2 + (cj - j)**2) > r2
    return peaks


def refine_peak_quadratic(ra_map: RangeAngleMap, range_bin: int,
                          angle_bin: int) -> tuple[float, float]:
    """Sub-bin (range_m, angle_deg) via a 3-point parabola along each axis."""

    def vertex(m_prev, m_mid, m_next):
        denom = m_prev - 2.0 * m_mid + m_next
        if denom >= 0.0:
            return 0.0
        return float(np.clip(0.5 * (m_prev - m_next) / denom, -0.5, 0.5))

    mag = ra_map.magnitude
    i, j = range_bin, angle_bin
    d_i = vertex(mag[max(i - 1, 0), j], mag[i, j],
                 mag[min(i + 1, MAP_SIZE - 1), j]) if 0 < i < MAP_SIZE - 1 else 0.0
    d_j = vertex(mag[i, max(j - 1, 0)], mag[i, j],
                 mag[i, min(j + 1, MAP_SIZE - 1)]) if 0 < j < MAP_SIZE - 1 else 0.0
    step = ra_map.radar.max_range_m / MAP_SIZE
    du = ra_map.radar.element_spacing / ra_map.radar.carrier_wavelength
    u = (j + d_j - MAP_SIZE // 2) / (MAP_SIZE * du)
    return (i + d_i) * step, float(np.degrees(np.arcsin(np.clip(u, -1.0, 1.0))))


# ---------------------------------------------------------------------------
# exports

_MAGIC = b"NLRM"
_HEADER = struct.Struct("<4sHHIIdQ")
_VERSION = 1


def write_magnitude_csv(ra_map: RangeAngleMap, path) -> None:
    """Magnitudes as CSV, one row per range bin."""
    with open(path, "w", encoding="utf-8") as f:
        for row in ra_map.magnitude:
            f.write(",".join(f"{v:.8g}" for v in row))
            f.write("\n")


def write_map_binary(ra_map: RangeAngleMap, path, seed: int = 0) -> None:
    """Complex map dump mirroring the echo binary layout, plus JSON sidecar."""
    header = _HEADER.pack(_MAGIC, _VERSION, 0, MAP_SIZE, MAP_SIZE,
                          ra_map.radar.max_range_m / MAP_SIZE,
                          seed & 0xFFFFFFFFFFFFFFFF)
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(ra_map.values.astype(np.complex64)).tobytes())
    side = {"rows": "range", "cols": "angle", "size": MAP_SIZE,
            "range_step_m": ra_map.radar.max_range_m / MAP_SIZE, "seed": seed}
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump(side, f, indent=2, sort_keys=True)
        f.write("\n")
