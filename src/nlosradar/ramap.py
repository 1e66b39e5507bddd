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

from concurrent.futures import Executor
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .echo import _channel_spectrum, _median, _range_angle, _write_binary
from .geometry import RadarConfig

MAP_SIZE = 512
_BLOCK_ROWS = 64        # angle rows per range-transform block, 512 KB complex
_PEAK_ROWS = 128        # map rows per block of the peak-candidate search
# (row, column) steps to a cell's 3 x 3 neighbors, the angle neighbors first
_NEIGHBORS = ((0, -1), (0, 1), (-1, 0), (1, 0), (-1, -1), (-1, 1), (1, -1), (1, 1))


class Peak(NamedTuple):
    range_bin: int
    angle_bin: int
    magnitude: float
    range_m: float
    angle_deg: float


class RangeAngleMap:
    """512 x 512 magnitude map with calibrated physical axes.

    Attributes:
        magnitude:      real matrix, magnitude[range_bin, angle_bin]
        range_step_m:   meters between adjacent rows
        range_axis_m:   meters at each row, 0 .. N*range_bin (exclusive)
        angle_axis_deg: degrees at each column (NaN outside visible space)
        fov_cols:       slice of the columns inside the field of view
        radar:          the originating radar configuration

    Every size the map's methods and this module's functions use is read
    from ``magnitude``'s shape.
    """

    def __init__(self, magnitude: np.ndarray, radar: RadarConfig):
        if np.iscomplexobj(magnitude) or magnitude.shape != (MAP_SIZE, MAP_SIZE):
            raise ValueError(f"map must be a real {MAP_SIZE} x {MAP_SIZE} array")
        rows, cols = magnitude.shape
        self.magnitude = magnitude
        self.radar = radar
        self.range_step_m = radar.max_range_m / rows
        self.range_axis_m = np.arange(rows) * self.range_step_m
        # columns per unit of direction cosine
        self._cols_per_u = cols * (radar.element_spacing / radar.carrier_wavelength)
        with np.errstate(invalid="ignore"):
            self.angle_axis_deg = np.degrees(np.arcsin(
                self._direction_cosine(np.arange(cols))))

    def _direction_cosine(self, col):
        """sin(angle) at a (fractional) column, or columns."""
        return (col - self.magnitude.shape[1] // 2) / self._cols_per_u

    def nearest_range_bin(self, range_m: float) -> int:
        row = round(range_m / self.range_step_m)
        return int(np.clip(row, 0, len(self.range_axis_m) - 1))

    def nearest_angle_bin(self, angle_deg: float) -> int:
        cols = len(self.angle_axis_deg)
        col = cols // 2 + self._cols_per_u * np.sin(np.radians(angle_deg))
        return int(np.clip(round(col), 0, cols - 1))

    @cached_property
    def fov_cols(self) -> slice:
        """The columns inside the radar field of view, one band because the
        angle axis is monotonic where it is defined."""
        cols = np.flatnonzero(
            np.abs(self.angle_axis_deg) <= self.radar.fov_half_angle_deg)
        return slice(int(cols[0]), int(cols[-1]) + 1)

    def fov_mask(self) -> np.ndarray:
        """Boolean mask, the map's shape, of cells inside the field of view."""
        ok = np.zeros(len(self.angle_axis_deg), dtype=bool)
        ok[self.fov_cols] = True
        return np.broadcast_to(ok, self.magnitude.shape)


def compute_ra_map(samples: np.ndarray, radar: RadarConfig,
                   window: str | None = None,
                   helper: Executor | None = None) -> RangeAngleMap:
    """Zero pad the frame to 512 x 512 and apply the calibrated 2D transform.

    ``window="hann"`` tapers the receiver-channel axis before the transform,
    trading angle-axis resolution for -31 dB angle sidelobes; ``"hann2d"``
    additionally tapers fast time, suppressing the range-sidelobe fan of a
    dominant return at the cost of merging adjacent range cells.  The
    detection map is always formed without a taper; the tapered variants
    exist for peak extraction in the presence of a point return strong
    enough that its sidelobes bury the distributed surface ridge.

    The map is magnitude-only.  The range transform runs over blocks of
    ``_BLOCK_ROWS`` angle rows of the channel spectrum (``_range_rows``),
    and each block's modulus is written straight into the range-major
    magnitude, so no complex 512 x 512 array is ever held.  With a
    ``helper`` executor the upper half of the angle rows is transformed
    there while the calling thread transforms the lower half; if the helper
    has not begun its half by then, the calling thread takes it back.  The
    complex map is formed only where it is written (``write_map_binary``).

    The transform is pruned (``echo._channel_spectrum``): of the 512
    zero-padded fast-time columns only the N that hold samples go through
    the channel FFT, because the DFT of an all-zero column is exactly zero.
    Every other operation is one the full 512 x 512 transform performs on
    the same numbers, and scaling the range axis by 1/512 and back by 512
    (powers of two) is skipped, so the map is bit-identical to the unpruned
    transform, with or without a helper.
    """
    m_r, n = samples.shape
    if window in ("hann", "hann2d"):
        # nonzero-endpoint taper: every channel keeps some weight
        samples = samples * np.hanning(m_r + 2)[1:-1][:, None]
        if window == "hann2d":
            samples = samples * np.hanning(n + 2)[1:-1][None, :]
    elif window is not None:
        raise ValueError(f"unknown window {window!r}")
    spectrum = _channel_spectrum(samples, MAP_SIZE)
    magnitude = np.empty((MAP_SIZE, MAP_SIZE))
    half = MAP_SIZE // 2
    if helper is None:
        _range_rows(spectrum, magnitude, 0, MAP_SIZE)
    else:
        upper = helper.submit(_range_rows, spectrum, magnitude, half, MAP_SIZE)
        _range_rows(spectrum, magnitude, 0, half)
        if upper.cancel():
            _range_rows(spectrum, magnitude, half, MAP_SIZE)
        else:
            upper.result()
    return RangeAngleMap(magnitude, radar)


def _range_rows(spectrum: np.ndarray, magnitude: np.ndarray, lo: int,
                hi: int) -> None:
    """Range transform of centred angle rows ``lo`` to ``hi`` of an (N, 512)
    channel spectrum into columns ``lo`` to ``hi`` of the range-major
    ``magnitude``, ``_BLOCK_ROWS`` rows at a time in place on one block.

    The block is allocated by the thread that runs the rows, so the
    calling thread's heap never holds both halves' blocks at once.
    """
    n, cols = spectrum.shape
    block = np.empty((_BLOCK_ROWS, magnitude.shape[0]), dtype=complex)
    for p in range(lo, hi, _BLOCK_ROWS):
        # centred angle row p is FFT-order column p + 256 (mod 512)
        c = (p + cols // 2) % cols
        block[:, :n] = spectrum[:, c:c + _BLOCK_ROWS].T
        block[:, n:] = 0.0
        np.fft.ifft(block, axis=1, norm="forward", out=block)
        np.abs(block.T, out=magnitude[:, p:p + _BLOCK_ROWS])


def _argmax_cell(ra_map: RangeAngleMap, valid: np.ndarray) -> tuple[int, int]:
    """(range bin, angle bin) of the strongest cell among ``valid`` cells,
    of which there is at least one (``build_masks`` refuses an empty union,
    and the field of view is never empty).

    The cell ``np.argmax`` finds in the magnitude with every other cell set
    to -1: the first in row-major order on a tie, or the first NaN.  It is
    searched ``_BLOCK_ROWS`` rows at a time, so no map-sized copy is made.
    """
    rows, cols = ra_map.magnitude.shape
    best, cell = -1.0, None
    for p in range(0, rows, _BLOCK_ROWS):
        band = slice(p, p + _BLOCK_ROWS)
        block = np.where(valid[band], ra_map.magnitude[band], -1.0)
        flat = int(np.argmax(block))
        if not block.flat[flat] <= best:        # larger, or NaN
            best, cell = block.flat[flat], divmod(p * cols + flat, cols)
            if np.isnan(best):
                break
    return cell


def extract_peaks(ra_map: RangeAngleMap, k: int, exclusion_radius_bins: int = 8,
                  noise_floor_db: float = 12.0,
                  max_range_m: float | None = None) -> list[Peak]:
    """Greedy iterative peak extraction inside the field of view.

    The search covers one rectangle of the map: the field-of-view columns
    (``RangeAngleMap.fov_cols``), and of the rows those up to
    ``max_range_m`` when it is given.  Candidates are the rectangle's
    3 x 3-neighborhood local maxima of the magnitude map (a smooth main
    lobe therefore yields exactly one candidate, not a trail of shoulder
    cells).  The strongest candidate is recorded, candidates within
    ``exclusion_radius_bins`` of it are suppressed, and the process
    repeats, stopping after ``k`` peaks or when the residual maximum falls
    below the noise floor gate: the median magnitude over the rectangle
    plus ``noise_floor_db``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > ra_map.magnitude.size:
        raise ValueError("k exceeds the number of map cells")

    mag = ra_map.magnitude
    n_rows, n_cols = mag.shape
    rows = n_rows if max_range_m is None \
        else int(np.count_nonzero(ra_map.range_axis_m <= max_range_m))
    cols = ra_map.fov_cols
    region = mag[:rows, cols]
    if region.size == 0:
        return []
    floor = _median(region) * 10.0 ** (noise_floor_db / 20.0)

    # a candidate is an interior cell of the rectangle above the floor that
    # is at least as large as each of its 3 x 3 neighbors.  Over blocks of
    # rows, only the cells above the floor are compared, as flat indices
    # into the C-ordered map in row-major order, and each neighbor test
    # keeps only the cells that passed the ones before (the angle neighbors,
    # first, leave a few percent of them)
    flat = mag.reshape(-1)
    offsets = [di * n_cols + dj for di, dj in _NEIGHBORS]
    lo, hi = max(cols.start, 1), min(cols.stop, n_cols - 1)
    width, end = hi - lo, min(rows, n_rows - 1)
    cells, mags = [], []
    for p in range(1, n_rows - 1, _PEAK_ROWS):
        # np.nonzero of a 2-D mask walks it cell by cell, ten times slower
        at = np.flatnonzero(mag[p:min(p + _PEAK_ROWS, end), lo:hi] > floor)
        cell = at + (n_cols - width) * (at // width) + (p * n_cols + lo)
        cmag = flat[cell]
        for offset in offsets:
            keep = cmag >= flat[cell + offset]
            cell, cmag = cell[keep], cmag[keep]
        cells.append(cell)
        mags.append(cmag)
    ci, cj = np.divmod(np.concatenate(cells), n_cols)
    cmag = np.concatenate(mags)
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
    rows, cols = mag.shape
    i, j = range_bin, angle_bin
    d_i = vertex(mag[i - 1, j], mag[i, j], mag[i + 1, j]) if 0 < i < rows - 1 else 0.0
    d_j = vertex(mag[i, j - 1], mag[i, j], mag[i, j + 1]) if 0 < j < cols - 1 else 0.0
    u = np.clip(ra_map._direction_cosine(j + d_j), -1.0, 1.0)
    return (i + d_i) * ra_map.range_step_m, float(np.degrees(np.arcsin(u)))


# ---------------------------------------------------------------------------
# exports


def write_magnitude_csv(ra_map: RangeAngleMap, path) -> None:
    """Magnitudes as CSV, one row per range bin."""
    with open(path, "w", encoding="utf-8") as f:
        for row in ra_map.magnitude:
            f.write(",".join(f"{v:.8g}" for v in row))
            f.write("\n")


def write_map_binary(samples: np.ndarray, radar: RadarConfig, path,
                     seed: int = 0) -> None:
    """Untapered complex map of a frame (``echo._range_angle``), range-major,
    in the echo binary layout (``echo._write_binary``), plus JSON sidecar."""
    step = radar.max_range_m / MAP_SIZE
    side = {"rows": "range", "cols": "angle", "size": MAP_SIZE,
            "range_step_m": step, "seed": seed}
    _write_binary(path, b"NLRM", _range_angle(samples, MAP_SIZE).T, step, seed,
                  side)
