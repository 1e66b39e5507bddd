"""Synthesis of the raw complex receiver-array echo.

The received frame is the superposition of the direct wall return, the
two-bounce target return routed via the wall, and circular complex white
noise.  Echoes are built in the dechirped fast-time domain of a linear FMCW
chirp: a scatterer reached with total propagation delay tau contributes

    exp(j pi a tau^2) * exp(-j 2 pi a tau (T0/N) n),   n = 0..N-1

with chirp slope a, so its beat lands at fast-time frequency a*tau.  Delays
count one way per path segment, R / c; a wall point at range R therefore
returns with delay 2R/c, and the symmetric two-bounce path through the
specular point with delay 2(R1+R2)/c.  With the range axis calibrated as
c*delay/2 the wall peaks at its true range and the target return appears at
apparent range R1 + R2.

Amplitudes are calibrated against the configured post-processing SNRs: with
noise variance sigma_n^2, a per-sample signal amplitude A yields a post-2D-FFT
SNR of 10*log10(A^2/sigma_n^2) + 10*log10(Mr*N).  Free-space loss (1/R per
one-way segment) shapes only the relative weighting across scatterers; the
absolute scale is pinned by the SNR spec at a reference scatterer (the wall
center for the surface echo, the strongest specular pair for the target echo).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import (
    MAX_FRAME_SIZE,
    RadarConfig,
    ReflectiveSurface,
    SurfacePointSet,
    SPEED_OF_LIGHT,
    discretize_surface,
    effective_reflectors,
    solve_prp,
    xy_to_polar,
)
from .scenario import SceneClass, ScenarioSpec, SnrSpec


class OutOfWindowError(ValueError):
    """A scatterer's apparent range exceeds the unambiguous window N*dr."""


@dataclass(frozen=True)
class WaveformConfig:
    """Linear FMCW chirp, s(t) = exp(j pi a t^2)."""

    chirp_duration: float = 40e-6
    chirp_slope: float = 1e13

    @property
    def bandwidth_hz(self) -> float:
        return self.chirp_slope * self.chirp_duration

    @classmethod
    def from_bandwidth(cls, bandwidth_hz: float,
                       chirp_duration: float = 40e-6) -> "WaveformConfig":
        return cls(chirp_duration=chirp_duration,
                   chirp_slope=bandwidth_hz / chirp_duration)


@dataclass
class ScatterDraw:
    """Per-trial random scattering coefficients.

    Wall reflector coefficients and the target coefficient are unit-mean-power
    complex Rayleigh draws (Rayleigh magnitude, uniform phase).
    """

    surface_coeffs: np.ndarray      # (K,) complex
    target_coeff: complex

    @classmethod
    def draw(cls, num_reflectors: int, seed: int) -> "ScatterDraw":
        rng = np.random.default_rng(seed)
        z = (rng.standard_normal(num_reflectors + 1)
             + 1j * rng.standard_normal(num_reflectors + 1)) / math.sqrt(2.0)
        return cls(surface_coeffs=z[:-1], target_coeff=complex(z[-1]))

    @classmethod
    def unit(cls, num_reflectors: int) -> "ScatterDraw":
        """Deterministic draw with unit coefficients, for calibration checks."""
        return cls(surface_coeffs=np.ones(num_reflectors, dtype=complex),
                   target_coeff=1.0 + 0.0j)


@dataclass
class RadarEcho:
    """Raw receiver frame, receivers x fast-time samples.

    When components are retained, ``samples`` equals their element-wise sum.
    """

    samples: np.ndarray                       # (M_r, N) complex
    components: dict[str, np.ndarray] | None = None


def steering_vector(angle_deg: float, num_elements: int, spacing: float,
                    wavelength: float) -> np.ndarray:
    """ULA steering vector; element m carries phase 2*pi*(m*d/lambda)*sin(angle)."""
    u = math.sin(math.radians(angle_deg))
    m = np.arange(num_elements)
    return np.exp(2j * np.pi * (m * spacing / wavelength) * u)


def _steering_matrix(angles_deg: np.ndarray, radar: RadarConfig) -> np.ndarray:
    """(M_r, K) matrix of receive steering vectors."""
    u = np.sin(np.radians(np.asarray(angles_deg, dtype=float)))
    m = np.arange(radar.num_rx)[:, None]
    return np.exp(2j * np.pi * (radar.element_spacing / radar.carrier_wavelength)
                  * m * u[None, :])


def scattering_gain(incidence_angle_deg, scatter_direction_deg, theta_w_deg,
                    lambda_ratio: float, psi: float):
    """Amplitude gain of the forward-scatter lobe, between 0 and lambda_ratio.

    ``incidence_angle_deg`` is the bearing of the illuminating ray from the
    radar; ``scatter_direction_deg`` is the departure angle psi of the
    outgoing ray, which travels along the unit vector (sin psi, -cos psi).
    The lobe is centered on the specular departure direction
    incidence + 2*theta_w:

        gain^2 = lambda^2 * ((1 + cos(delta)) / 2) ** psi

    with delta the deviation from specular, so gain == lambda_ratio exactly
    on the specular direction and decays monotonically away from it.
    """
    if psi < 0:
        raise ValueError("psi must be non-negative")
    delta = np.radians(np.asarray(incidence_angle_deg, dtype=float)
                       + 2.0 * theta_w_deg
                       - np.asarray(scatter_direction_deg, dtype=float))
    base = (1.0 + np.cos(delta)) / 2.0
    g2 = lambda_ratio**2 * base**psi
    out = np.sqrt(g2)
    return float(out) if np.ndim(out) == 0 else out


def _beat(taus: np.ndarray, waveform: WaveformConfig, num_samples: int) -> np.ndarray:
    """Dechirped fast-time samples for delays ``taus``; output (..., N)."""
    a = waveform.chirp_slope
    t = (waveform.chirp_duration / num_samples) * np.arange(num_samples)
    taus = np.asarray(taus, dtype=float)
    rvp = np.exp(1j * np.pi * a * taus**2)
    return rvp[..., None] * np.exp(-2j * np.pi * a * taus[..., None] * t)


def calibrate_noise(snr: SnrSpec, radar: RadarConfig,
                    wall_amplitude: float = 1.0) -> float:
    """Noise variance that realizes the surface post-processing SNR.

    Solves  snr.surface_snr_db = 10*log10(A^2 / sigma_n^2) + 10*log10(Mr*N)
    for sigma_n^2, for a wall reflector of per-sample amplitude A.
    """
    gain = radar.num_rx * radar.num_samples
    return wall_amplitude**2 * gain * 10.0 ** (-snr.surface_snr_db / 10.0)


def amplitude_for_snr(snr_db: float, radar: RadarConfig,
                      noise_variance: float) -> float:
    """Per-sample amplitude whose post-processing SNR equals ``snr_db``."""
    gain = radar.num_rx * radar.num_samples
    return math.sqrt(noise_variance * 10.0 ** (snr_db / 10.0) / gain)


def synthesize_surface_echo(reflectors: SurfacePointSet, radar: RadarConfig,
                            surface: ReflectiveSurface, draw: ScatterDraw,
                            waveform: WaveformConfig,
                            amplitude: float = 1.0) -> np.ndarray:
    """Direct wall return: sum of per-reflector dechirped echoes.

    Reflector k at range R_k, bearing phi_k, contributes its Rayleigh
    coefficient times the backscatter fraction (1 - lambda) and the two-way
    free-space weight 1/R_k^2, on receive steering a_r(phi_k) and delay
    2 R_k / c.  The echo is scaled so the per-sample amplitude of a unit
    coefficient reflector at the wall-center range equals ``amplitude``.
    """
    if len(reflectors) == 0:
        raise ValueError("empty reflector set")
    if len(draw.surface_coeffs) != len(reflectors):
        raise ValueError("draw size does not match reflector count")
    if np.max(reflectors.ranges) >= radar.max_range_m:
        raise OutOfWindowError("wall reflector beyond the unambiguous range")

    back = 1.0 - surface.backscatter_ratio
    if back <= 0.0:
        return np.zeros((radar.num_rx, radar.num_samples), dtype=complex)

    r_ref, _ = xy_to_polar(surface.center)
    loss = (r_ref / reflectors.ranges) ** 2        # relative two-way amplitude
    weights = amplitude * draw.surface_coeffs * loss
    taus = 2.0 * reflectors.ranges / SPEED_OF_LIGHT
    beats = _beat(taus, waveform, radar.num_samples)       # (K, N)
    steer = _steering_matrix(reflectors.angles_deg, radar)  # (M_r, K)
    return steer @ (weights[:, None] * beats)


def synthesize_target_echo(reflectors: SurfacePointSet, radar: RadarConfig,
                           surface: ReflectiveSurface, target_xy,
                           draw: ScatterDraw, waveform: WaveformConfig,
                           amplitude: float = 1.0) -> np.ndarray:
    """Two-bounce target return routed via the wall, summed over all
    (outbound, inbound) reflector pairs.

    The illuminated subsets are the reflectors within four range bins of
    the specular point: the wall cell containing the specular point and its
    immediate neighbors carry the forward-scattered energy (one directive
    element per range cell, cells processed independently), so the return
    aggregates into a compact blob at the specular cell rather than a
    glistening streak spanning the whole wall.  Each leg through reflector
    k carries the forward-scatter lobe gain, the reflector's Rayleigh
    coefficient and the 1/(R_radar_k * R_k_target) free-space weight; the
    pair (k', k~) arrives with the one-way-per-segment delay
    (R_rk' + R_k't + R_tk~ + R_k~r)/c on receive steering a_r(phi_k~).

    Calibration: every pair contributes a matched-filter response at the
    specular cell (steering and beat vectors of (phi_Ko, R1 + R2)); since
    the pair coefficients are independent unit-power draws, the expected
    peak power there is the sum of the squared per-pair responses.  The
    echo is scaled so the root of that expected power corresponds to an
    effective per-sample amplitude of ``amplitude``, then multiplied by the
    target's Rayleigh coefficient, so per-trial fading is preserved around
    the calibrated level.

    When the specular point misses the finite segment the target is not
    illuminated, and a zero matrix is returned; that is a regular outcome,
    so no warning is issued.
    """
    prp = solve_prp(surface, (0.0, 0.0), np.asarray(target_xy, dtype=float))
    if not prp.on_segment:
        return np.zeros((radar.num_rx, radar.num_samples), dtype=complex)
    if prp.r_radar_prp + prp.r_prp_target >= radar.max_range_m:
        raise OutOfWindowError("two-bounce path beyond the unambiguous range")
    if len(draw.surface_coeffs) != len(reflectors):
        raise ValueError("draw size does not match reflector count")

    du = np.abs(np.sin(np.radians(reflectors.angles_deg))
                - math.sin(math.radians(prp.angle_deg)))
    near_specular = (np.abs(reflectors.ranges - prp.r_radar_prp)
                     <= 4.0 * radar.range_bin_m) & (du <= 1.0 / radar.num_rx)
    if not near_specular.any():
        near_specular = np.abs(reflectors.ranges - prp.r_radar_prp).argmin() \
            == np.arange(len(reflectors))
    coeffs = draw.surface_coeffs[near_specular]

    tgt = np.asarray(target_xy, dtype=float)
    r_rk = reflectors.ranges[near_specular]
    angles = reflectors.angles_deg[near_specular]
    d = tgt[None, :] - reflectors.xy[near_specular]
    r_kt = np.hypot(d[:, 0], d[:, 1])
    scatter_dirs = np.degrees(np.arctan2(d[:, 0], -d[:, 1]))
    gains = scattering_gain(angles, scatter_dirs,
                            surface.orientation_deg, surface.backscatter_ratio,
                            surface.beamwidth_exponent)

    leg_det = gains / (r_rk * r_kt)               # deterministic leg weight
    if float(np.max(leg_det)) <= 0.0:
        return np.zeros((radar.num_rx, radar.num_samples), dtype=complex)

    s = r_rk + r_kt
    taus = (s[:, None] + s[None, :]) / SPEED_OF_LIGHT
    beats = _beat(taus, waveform, radar.num_samples)        # (K, K, N)
    steer = _steering_matrix(angles, radar)

    leg = coeffs * leg_det
    pair_w = np.outer(leg, leg)                   # (K', K~) -> (k_out, k_in)
    echo = steer @ np.einsum("ab,abn->bn", pair_w, beats)

    # expected peak power at the specular cell under unit-power draws:
    # sum of squared per-pair matched-filter responses
    a_spec = steering_vector(prp.angle_deg, radar.num_rx,
                             radar.element_spacing, radar.carrier_wavelength)
    b_spec = _beat(np.array(2.0 * (prp.r_radar_prp + prp.r_prp_target)
                            / SPEED_OF_LIGHT), waveform, radar.num_samples)
    angle_resp = np.conj(a_spec) @ steer                     # (K~,)
    range_resp = np.einsum("abn,n->ab", beats, np.conj(b_spec.ravel()))
    pair_resp = np.outer(leg_det, leg_det) * range_resp * angle_resp[None, :]
    agg = math.sqrt(float(np.sum(np.abs(pair_resp) ** 2)))
    agg /= radar.num_rx * radar.num_samples
    if agg <= 0.0:
        return np.zeros((radar.num_rx, radar.num_samples), dtype=complex)
    return draw.target_coeff * (amplitude / agg) * echo


def synthesize_direct_echo(target_xy, radar: RadarConfig,
                           waveform: WaveformConfig, amplitude: float = 1.0,
                           coeff: complex = 1.0 + 0.0j) -> np.ndarray:
    """Single-scatterer direct return at the target's own polar cell."""
    r, ang = xy_to_polar(target_xy)
    if r >= radar.max_range_m:
        raise OutOfWindowError("target beyond the unambiguous range")
    beat = _beat(np.array(2.0 * r / SPEED_OF_LIGHT), waveform, radar.num_samples)
    steer = steering_vector(ang, radar.num_rx, radar.element_spacing,
                            radar.carrier_wavelength)
    return amplitude * coeff * np.outer(steer, beat)


def _noise(radar: RadarConfig, variance: float, rng: np.random.Generator) -> np.ndarray:
    shape = (radar.num_rx, radar.num_samples)
    return math.sqrt(variance / 2.0) * (rng.standard_normal(shape)
                                        + 1j * rng.standard_normal(shape))


def _channel_spectrum(samples: np.ndarray, size: int) -> np.ndarray:
    """Channel DFT of a frame zero padded to ``size`` channels, fast-time major.

    Row n of the C-ordered (N, size) result holds the DFT over the channels
    of fast-time sample n, in FFT order: direction-cosine bin p (zero
    spatial frequency at ``p = size // 2``) is column ``(p + size // 2) %
    size``, and the caller applies that centring shift as it reads.  Only
    the N fast-time columns that hold data are transformed, since a zero
    column transforms to zeros (FFT input pruning), and each is transformed
    in place along its contiguous row of a zero-padded buffer, which gives
    the bits the padded transform along the channel axis gives.
    """
    m_r, n = samples.shape
    if m_r > size or n > size:
        raise ValueError(f"frame larger than the {size} x {size} transform")
    # assigning into a complex128 buffer also widens complex64 frames
    # (read_echo), which would otherwise transform in single precision
    spectrum = np.zeros((n, size), dtype=complex)
    spectrum[:, :m_r] = samples.T
    return np.fft.fft(spectrum, axis=1, out=spectrum)


def _range_angle(samples: np.ndarray, size: int) -> np.ndarray:
    """Centred ``size`` x ``size`` transform of a frame, angle-major.

    Element [p, q] holds direction-cosine bin p (``_channel_spectrum``,
    centred) and range bin q (a conjugate-sense DFT of fast time), both
    over the frame zero padded to ``size``.  The result is bit-identical to
    the full padded transform: the channel FFT is pruned to the columns
    that hold data; the range transform treats each row on its own, in
    place on a zero-padded buffer; and it is left unscaled instead of
    scaled by 1/size and multiplied back, both exact for a power of two.
    """
    spectrum = _channel_spectrum(samples, size)
    n = spectrum.shape[0]
    half = size // 2
    out = np.zeros((size, size), dtype=complex)
    out[:half, :n] = spectrum[:, half:].T
    out[half:, :n] = spectrum[:, :half].T
    return np.fft.ifft(out, axis=1, norm="forward", out=out)


_SELECT_MIN = 1 << 14     # fewer cells than this are copied and partitioned
_SAMPLE_STEP = 5, 7       # the bracketing sample's row and column steps; odd,
                          # so the 4-row range-cell period of a map cannot alias
_BLOCK_CELLS = 1 << 15    # cells per block of the counting pass


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` of a NaN-free array or view, without copying
    it whole.

    A strided sample brackets the middle order statistics (``_bracketed``),
    and only the cells inside the bracket are copied and partitioned.  When
    the bracket misses, and for fewer than ``_SELECT_MIN`` cells, the
    values are copied and partitioned whole.  An odd count takes the middle
    order statistic; an even count the mean of the two middle ones, in the
    array's own precision, as ``np.median`` does.  NaN for an empty array.
    ``values`` is left unchanged.
    """
    if values.ndim != 2:
        values = values.reshape(values.size, 1)
    n = values.size
    if n == 0:
        return float("nan")
    k1, k2 = (n - 1) // 2, n // 2
    if n >= _SELECT_MIN:
        found = _bracketed(values, k1, k2)
        if found is not None:
            return found
    return _middle(values.flatten(), k1, k2)


def _bracketed(values: np.ndarray, k1: int, k2: int) -> float | None:
    """Order statistics ``k1`` and ``k2`` of a 2-D array or view, by
    bracketed selection (Floyd & Rivest, CACM 18(3), 1975).

    Every ``_SAMPLE_STEP`` row and column forms a sample of m cells, and
    its cells 4 * sqrt(m) ranks to each side of the target ranks give the
    bracket.  That is eight standard deviations of the median's rank in a
    random sample; the strided sample of a map's correlated cells spreads
    about 1.5 times wider, and no bracket missed on the benchmark's maps.
    One pass over blocks of rows counts the cells below the bracket and
    gathers those inside it.  None when the bracket does not hold both
    order statistics.
    """
    sample = values[::_SAMPLE_STEP[0], ::_SAMPLE_STEP[1]].flatten()
    m, n = sample.size, values.size
    lo_r = max(0, math.floor(m * k1 / n - 4.0 * math.sqrt(m)))
    hi_r = min(m - 1, math.ceil(m * k2 / n + 4.0 * math.sqrt(m)))
    sample.partition([lo_r, hi_r])
    lo, hi = sample[lo_r], sample[hi_r]
    below, inside = 0, []
    rows = max(1, _BLOCK_CELLS // values.shape[1])
    for r in range(0, len(values), rows):
        block = values[r:r + rows]
        low, keep = block < lo, block <= hi
        below += int(np.count_nonzero(low))
        keep ^= low                 # lo <= cell <= hi, as low implies keep
        inside.append(block[keep])
    inside = np.concatenate(inside)
    if below > k1 or below + inside.size <= k2:
        return None
    return _middle(inside, k1 - below, k2 - below)


def _middle(values: np.ndarray, k1: int, k2: int) -> float:
    """Mean of order statistics ``k1`` and ``k2`` (equal for an odd count)
    of a 1-D array, from one partition in place."""
    values.partition([k1, k2])
    if k1 == k2:
        return float(values[k1])
    return float((values[k1] + values[k2]) / 2)


def suppress_point_returns(samples: np.ndarray, radar: RadarConfig,
                           max_components: int = 6,
                           stop_db: float = 18.0) -> np.ndarray:
    """Successively cancel dominant point returns from a frame.

    Finds the strongest cell of a coarsely padded (256 x 256) transform,
    subtracts the least-squares matched rank-one response (steering vector
    times beat vector) at that cell, and repeats while the residual peak
    stays ``stop_db`` above the median map magnitude, up to
    ``max_components`` times.  Removing a return this way removes its
    entire sidelobe structure, which lets the distributed surface ridge be
    searched behind a much stronger point reflection.  Operates on a copy.

    The transform is formed once per call and kept current: removing
    ``amp * outer(a, b)`` from the frame removes the separable
    ``amp * outer(fftshift(fft(a)), ifft(b, norm="forward"))`` from its
    spectrum, so a step costs an outer-product update, not a transform,
    and the spectrum and its magnitude are updated in place, a block of
    rows at a time.
    The stop test ``peak < median * gate`` is decided by counting: when
    more than half the cells lie below ``peak / gate`` the median does
    too, and the loop goes on without sorting anything.

    The updated spectrum drifts from a fresh transform of the residual by
    rounding, which can move the argmax once the residual is itself
    rounding noise.  The result is kept bit-identical to transforming the
    residual afresh at every step by a guard of ``tol = 1e-9`` times the
    first peak, far above that drift: the updated spectrum decides a step
    only when its best cell leads every other by more than ``2 * tol``
    and the count clears the gate with ``(1 + gate) * tol`` to spare.  Any
    other step transforms the residual afresh and, when the count cannot
    decide, compares the peak with the exact median.
    """
    waveform = WaveformConfig.from_bandwidth(radar.bandwidth_hz)
    m_r, n = samples.shape
    pad = MAX_FRAME_SIZE
    du = radar.element_spacing / radar.carrier_wavelength
    work = samples.astype(complex).copy()
    t_gate = 10.0 ** (stop_db / 20.0)
    spectrum = _range_angle(work, pad)
    mag = np.abs(spectrum)
    update = np.empty((32, pad), dtype=complex)     # 32 rows at a time
    tol = 1e-9 * float(mag.max())
    exact = True
    for step in range(max_components):
        flat = int(np.argmax(mag))
        if not exact and not _updated_decides(mag, flat, tol, t_gate):
            spectrum = _range_angle(work, pad)
            np.abs(spectrum, out=mag)
            flat = int(np.argmax(mag))
            exact = True
        peak = float(mag.flat[flat])
        if exact and not _count_clears(mag, peak, t_gate) \
                and peak < _median(mag) * t_gate:
            break
        p, q = divmod(flat, pad)
        u = (p - pad // 2) / (pad * du)
        if abs(u) > 1.0:
            break
        r = q * radar.max_range_m / pad
        a = steering_vector(math.degrees(math.asin(u)), m_r,
                            radar.element_spacing, radar.carrier_wavelength)
        b = _beat(np.array(2.0 * r / SPEED_OF_LIGHT), waveform, n).ravel()
        sig = np.outer(a, b)
        amp = np.vdot(sig, work) / (m_r * n)
        work -= amp * sig
        if step + 1 < max_components:
            col = amp * np.fft.fftshift(np.fft.fft(a, n=pad))
            row = np.fft.ifft(b, n=pad, norm="forward")
            for lo in range(0, pad, len(update)):
                rows = slice(lo, lo + len(update))
                np.multiply.outer(col[rows], row, out=update)
                spectrum[rows] -= update
                np.abs(spectrum[rows], out=mag[rows])
            exact = False
    return work


def _count_clears(mag: np.ndarray, peak: float, t_gate: float,
                  slack: float = 0.0) -> bool:
    """Do more than half the cells lie below ``peak / t_gate``, with room
    for a map ``slack`` off the exact one in any cell?  Then the exact
    median does too, and ``peak < median * t_gate`` is false."""
    gate = (peak - (1.0 + t_gate) * slack) / t_gate
    return int(np.count_nonzero(mag < gate)) > mag.size // 2


def _updated_decides(mag: np.ndarray, flat: int, tol: float,
                     t_gate: float) -> bool:
    """Does an updated spectrum within ``tol`` of the fresh one give the
    fresh one's step: the same argmax cell, and a peak above the gate?"""
    peak = float(mag.flat[flat])
    mag.flat[flat] = -1.0
    runner_up = float(mag.max())
    mag.flat[flat] = peak
    return peak - runner_up > 2.0 * tol \
        and _count_clears(mag, peak, t_gate, slack=tol)


def synthesize(spec: ScenarioSpec, keep_components: bool = False,
               include_noise: bool = True,
               ghost_suppression_db: float = 15.0) -> RadarEcho:
    """Build the full receiver frame for a scenario.

    Components by scene class:

        nlos                    wall + two-bounce target + noise
        los_no_surface          direct target + noise
        los_with_surface_no_mp  wall + direct target + noise
        los_with_surface_mp     wall + direct target + two-bounce ghost + noise

    The ghost return of a visible target reuses the two-bounce synthesizer at
    ``ghost_suppression_db`` below the target SNR.  Deterministic under
    spec.seed; sub-streams for the surface jitter, coefficient draws and
    noise are split from it so components can be reproduced in isolation.
    """
    radar = spec.radar
    waveform = WaveformConfig.from_bandwidth(radar.bandwidth_hz)
    ss = np.random.SeedSequence(spec.seed)
    seed_surface, seed_draw, seed_noise = (int(c.generate_state(1)[0])
                                           for c in ss.spawn(3))

    noise_var = calibrate_noise(spec.snr, radar)
    target_amp = amplitude_for_snr(spec.snr.target_snr_db, radar, noise_var)

    components: dict[str, np.ndarray] = {}

    if spec.surface is not None:
        points = discretize_surface(spec.surface, radar, rng_seed=seed_surface)
        reflectors = effective_reflectors(points, radar)
        draw = ScatterDraw.draw(len(reflectors), seed_draw)
        components["surface"] = synthesize_surface_echo(
            reflectors, radar, spec.surface, draw, waveform, amplitude=1.0)
    else:
        draw = ScatterDraw.draw(0, seed_draw)

    if spec.scene_class is SceneClass.NLOS:
        components["target"] = synthesize_target_echo(
            reflectors, radar, spec.surface, spec.target.xy, draw, waveform,
            amplitude=target_amp)
    elif spec.target is not None:
        components["target"] = synthesize_direct_echo(
            spec.target.xy, radar, waveform, amplitude=target_amp,
            coeff=draw.target_coeff)
        if spec.scene_class is SceneClass.LOS_SURFACE_MP:
            ghost_amp = amplitude_for_snr(
                spec.snr.target_snr_db - ghost_suppression_db, radar, noise_var)
            components["ghost"] = synthesize_target_echo(
                reflectors, radar, spec.surface, spec.target.xy, draw,
                waveform, amplitude=ghost_amp)

    if include_noise:
        components["noise"] = _noise(radar, noise_var,
                                     np.random.default_rng(seed_noise))

    samples = np.zeros((radar.num_rx, radar.num_samples), dtype=complex)
    for part in components.values():
        samples = samples + part
    return RadarEcho(samples=samples,
                     components=components if keep_components else None)


# ---------------------------------------------------------------------------
# binary echo export: 32-byte little-endian header + row-major complex64

_MAGIC = b"NLRE"
_HEADER = struct.Struct("<4sHHIIdQ")     # magic, version, pad, M_r, N, dr, seed
_VERSION = 1


def write_echo(path, echo: RadarEcho, radar: RadarConfig, seed: int = 0,
               metadata: dict | None = None) -> None:
    """Dump a frame to ``path`` and a JSON sidecar to ``path + '.json'``."""
    m_r, n = echo.samples.shape
    header = _HEADER.pack(_MAGIC, _VERSION, 0, m_r, n, radar.range_bin_m,
                          seed & 0xFFFFFFFFFFFFFFFF)
    assert len(header) == 32
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(echo.samples.astype(np.complex64)).tobytes())
    side = {"num_rx": m_r, "num_samples": n, "range_bin_m": radar.range_bin_m,
            "seed": seed, "dtype": "complex64", "layout": "row-major"}
    if metadata:
        side.update(metadata)
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump(side, f, indent=2, sort_keys=True)
        f.write("\n")


def read_echo(path) -> tuple[np.ndarray, dict]:
    """Load a frame written by write_echo; returns (samples, header fields)."""
    with open(path, "rb") as f:
        magic, version, _, m_r, n, dr, seed = _HEADER.unpack(f.read(32))
        if magic != _MAGIC:
            raise ValueError("not an echo file (bad magic)")
        data = np.frombuffer(f.read(), dtype=np.complex64).reshape(m_r, n)
    return data, {"version": version, "num_rx": m_r, "num_samples": n,
                  "range_bin_m": dr, "seed": seed}
