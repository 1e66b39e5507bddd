import numpy as np
import pytest

from nlosradar import (
    MAP_SIZE,
    RadarConfig,
    RangeAngleMap,
    compute_ra_map,
    extract_peaks,
    polar_to_xy,
    refine_peak_quadratic,
    scenario_from_doc,
    synthesize,
    synthesize_direct_echo,
    write_magnitude_csv,
    write_map_binary,
    xy_to_polar,
)
from nlosradar.echo import WaveformConfig, _median
from nlosradar.harness import reference_scene_doc
from nlosradar.ramap import Peak

from conftest import rayleigh_field  # noqa: E402 - shared test field


@pytest.fixture
def waveform(radar):
    return WaveformConfig.from_bandwidth(radar.bandwidth_hz)


def _impulse_map(radar, cells):
    values = np.zeros((MAP_SIZE, MAP_SIZE), dtype=complex)
    for (i, j), mag in cells.items():
        values[i, j] = mag
    return RangeAngleMap(values, radar)


def test_zero_echo_zero_map(radar):
    m = compute_ra_map(np.zeros((16, 128), dtype=complex), radar)
    assert np.all(m.values == 0)


def test_dimension_overflow(radar):
    with pytest.raises(ValueError):
        compute_ra_map(np.zeros((600, 128), dtype=complex), radar)


def test_boresight_scatterer_bins(radar, waveform):
    echo = synthesize_direct_echo((0.0, 15.0), radar, waveform)
    m = compute_ra_map(echo, radar)
    i, j = np.unravel_index(np.argmax(m.magnitude), m.magnitude.shape)
    assert (i, j) == (160, 256)
    assert m.magnitude[i, j] == pytest.approx(radar.num_rx * radar.num_samples,
                                              rel=1e-9)


def _unpruned_values(samples, window=None):
    """The full zero-padded 512 x 512 transform, FFT over every column."""
    m_r, n = samples.shape
    if window in ("hann", "hann2d"):
        samples = samples * np.hanning(m_r + 2)[1:-1][:, None]
        if window == "hann2d":
            samples = samples * np.hanning(n + 2)[1:-1][None, :]
    padded = np.zeros((MAP_SIZE, MAP_SIZE), dtype=complex)
    padded[:m_r, :n] = samples
    spatial = np.fft.fft(padded, axis=0)
    z = np.fft.ifft(spatial, axis=1) * MAP_SIZE
    z = np.fft.fftshift(z, axes=0)
    return z.T.copy()


@pytest.mark.parametrize("window", [None, "hann", "hann2d"])
@pytest.mark.parametrize("shape", [{}, {"num_rx": 8, "num_samples": 64}])
def test_pruned_transform_bit_identical_to_full(shape, window):
    """The blocked magnitude equals |full transform| bit for bit before the
    complex values exist; read afterwards, they equal the full transform."""
    radar = RadarConfig(**shape)
    rng = np.random.default_rng(21)
    waveform = WaveformConfig.from_bandwidth(radar.bandwidth_hz)
    frames = [synthesize_direct_echo(polar_to_xy(17.0, -12.0), radar, waveform)]
    for scale_exp in (-4, 0, 5):
        size = (radar.num_rx, radar.num_samples)
        frames.append(10.0**scale_exp * (rng.standard_normal(size)
                                         + 1j * rng.standard_normal(size)))
    frames += [frames[-1].astype(np.complex64),
               frames[-1].real.astype(np.float32)]
    for x in frames:
        m = compute_ra_map(x, radar, window=window)
        expected = _unpruned_values(x, window)
        assert m.magnitude.flags.c_contiguous
        assert np.array_equal(m.magnitude, np.abs(expected))
        assert "values" not in vars(m)
        assert m.values.dtype == expected.dtype == np.complex128
        assert np.array_equal(m.values, expected)
        assert m.values is m.values


def test_map_keeps_its_own_frame(radar):
    """Changing the caller's frame after the map is formed does not change
    the values the map forms later."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((16, 128)) + 1j * rng.standard_normal((16, 128))
    expected = _unpruned_values(x)
    m = compute_ra_map(x, radar)
    x[:] = 0.0
    assert np.array_equal(m.values, expected)


def test_axes(radar):
    m = compute_ra_map(np.zeros((16, 128), dtype=complex), radar)
    assert m.range_axis_m[0] == 0.0
    assert np.all(np.diff(m.range_axis_m) > 0)
    assert m.range_axis_m[-1] < radar.max_range_m
    assert m.angle_axis_deg[MAP_SIZE // 2] == pytest.approx(0.0)
    assert m.angle_axis_deg[0] == pytest.approx(-90.0)


def test_parseval(radar):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 128)) + 1j * rng.standard_normal((16, 128))
    m = compute_ra_map(x, radar)
    lhs = np.sum(np.abs(m.values)**2)
    rhs = MAP_SIZE**2 * np.sum(np.abs(x)**2)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_extract_two_impulses_in_order(radar):
    m = _impulse_map(radar, {(100, 256): 5.0, (300, 200): 3.0})
    peaks = extract_peaks(m, k=5)
    assert [(p.range_bin, p.angle_bin) for p in peaks] == [(100, 256), (300, 200)]
    assert peaks[0].magnitude == 5.0
    mags = [p.magnitude for p in peaks]
    assert mags == sorted(mags, reverse=True)


def test_extract_floor_gate_stops_early(radar):
    m = _impulse_map(radar, {(100, 256): 5.0})
    peaks = extract_peaks(m, k=3)
    assert len(peaks) == 1


def test_extract_exclusion_radius(radar):
    m = _impulse_map(radar, {(100, 256): 5.0, (103, 256): 4.0, (150, 256): 3.0})
    peaks = extract_peaks(m, k=5, exclusion_radius_bins=8)
    bins = [(p.range_bin, p.angle_bin) for p in peaks]
    assert (100, 256) in bins and (150, 256) in bins
    assert (103, 256) not in bins
    for a in range(len(peaks)):
        for b in range(a + 1, len(peaks)):
            d = np.hypot(peaks[a].range_bin - peaks[b].range_bin,
                         peaks[a].angle_bin - peaks[b].angle_bin)
            assert d > 8


def test_extract_peaks_are_local_maxima(radar, waveform):
    rng = np.random.default_rng(0)
    echo = sum(synthesize_direct_echo(polar_to_xy(r, a), radar, waveform)
               for r, a in [(10.0, -20.0), (20.0, 5.0), (30.0, 25.0)])
    echo = echo + 0.01 * (rng.standard_normal((16, 128))
                          + 1j * rng.standard_normal((16, 128)))
    m = compute_ra_map(echo, radar)
    mag = m.magnitude
    for p in extract_peaks(m, k=6):
        i, j = p.range_bin, p.angle_bin
        patch = mag[i - 1:i + 2, j - 1:j + 2]
        assert mag[i, j] >= patch.max()


def _local_maxima(mag):
    """Cells at least as large as every 3 x 3 neighbor (map edges excluded)."""
    out = np.zeros_like(mag, dtype=bool)
    c = mag[1:-1, 1:-1]
    out[1:-1, 1:-1] = (
        (c >= mag[:-2, 1:-1]) & (c >= mag[2:, 1:-1])
        & (c >= mag[1:-1, :-2]) & (c >= mag[1:-1, 2:])
        & (c >= mag[:-2, :-2]) & (c >= mag[:-2, 2:])
        & (c >= mag[2:, :-2]) & (c >= mag[2:, 2:])
    )
    return out


def _reference_peaks(ra_map, k, exclusion_radius_bins, noise_floor_db,
                     valid):
    """extract_peaks with the local-maximum test run over the whole map."""
    mag = ra_map.magnitude
    searchable = mag if valid is None else mag[valid]
    floor = float(np.median(searchable)) * 10.0 ** (noise_floor_db / 20.0)
    cand = _local_maxima(mag)
    if valid is not None:
        cand &= valid
    cand &= mag > floor
    ci, cj = np.nonzero(cand)
    cmag = mag[ci, cj]
    order = np.argsort(cmag, kind="stable")[::-1]
    ci, cj, cmag = ci[order], cj[order], cmag[order]
    alive = np.ones(ci.size, dtype=bool)
    peaks = []
    for idx in range(ci.size):
        if len(peaks) == k:
            break
        if not alive[idx]:
            continue
        i, j = int(ci[idx]), int(cj[idx])
        peaks.append(Peak(i, j, float(cmag[idx]),
                          float(ra_map.range_axis_m[i]),
                          float(ra_map.angle_axis_deg[j])))
        alive &= ((ci - i)**2 + (cj - j)**2) > exclusion_radius_bins**2
    return peaks


def test_extract_peaks_matches_full_map_local_maxima(radar):
    """Testing only the cells above the floor finds the peaks, in the
    order, that the local-maximum test over the whole map finds, also on
    plateaus, ties and map edges."""
    fov = compute_ra_map(np.zeros((16, 128)), radar).fov_mask()
    gated = fov & (np.arange(MAP_SIZE)[:, None] < 300)
    rng = np.random.default_rng(5)
    checked = 0
    for seed in range(4):
        # quantized Rayleigh magnitudes: plateaus and exact ties
        mag = np.round(4.0 * rayleigh_field((MAP_SIZE, MAP_SIZE), seed)) / 4.0
        # strong cells on and next to every edge
        mag[0, 40] = mag[MAP_SIZE - 1, 90] = mag[200, 0] = 50.0
        mag[300, MAP_SIZE - 1] = mag[1, 1] = mag[MAP_SIZE - 2, 300] = 40.0
        mag[100, 100] = mag[100, 101] = 30.0        # a two-cell plateau
        ra_map = RangeAngleMap(mag.astype(complex), radar)
        random_valid = rng.random((MAP_SIZE, MAP_SIZE)) < 0.6
        for valid in (None, fov, gated, random_valid):
            for k, radius, floor_db in ((400, 0, 3.0), (40, 4, 6.0),
                                        (22, 8, 12.0)):
                peaks = extract_peaks(ra_map, k, radius, floor_db, valid)
                assert peaks == _reference_peaks(ra_map, k, radius,
                                                 floor_db, valid)
                checked += len(peaks)
            assert extract_peaks(ra_map, 5, 8, 60.0, valid) == []
    assert checked > 1000


def test_median_equals_numpy_median(radar):
    """One partition gives np.median exactly: odd and even sizes, size 1,
    plateaus and ties, float32, and the FOV-masked and range-gated maps
    extract_peaks takes its floor over."""
    rng = np.random.default_rng(13)
    arrays = [np.array([2.5]), np.array([1.0, 2.0]), np.array([3.0, 3.0]),
              np.array([1.0, 1.0, 2.0, 2.0]), np.array([0.0, 1.0, 1.0])]
    for size in (2, 3, 4, 5, 10, 11, 1000, 1001):
        x = rng.random(size)
        arrays += [x, np.round(4.0 * x) / 4.0, np.round(x),
                   x.astype(np.float32)]
    mag = compute_ra_map(rng.standard_normal((16, 128)), radar).magnitude
    fov = compute_ra_map(np.zeros((16, 128)), radar).fov_mask()
    for field in (mag, np.round(rayleigh_field((MAP_SIZE, MAP_SIZE), 1))):
        for rows in (MAP_SIZE, 300, 151):
            gated = fov & (np.arange(MAP_SIZE)[:, None] < rows)
            arrays += [field[gated], field[:rows].ravel()]
    sizes = {a.size % 2 for a in arrays}
    assert sizes == {0, 1}
    for a in arrays:
        got = _median(a.copy())
        assert type(got) is float
        assert got == float(np.median(a)), (a.size, a.dtype)


def test_extract_validation(radar):
    m = _impulse_map(radar, {(100, 256): 5.0})
    with pytest.raises(ValueError):
        extract_peaks(m, k=0)
    with pytest.raises(ValueError):
        extract_peaks(m, k=MAP_SIZE * MAP_SIZE + 1)


def test_polar_round_trip(radar, waveform):
    echo = synthesize_direct_echo(polar_to_xy(21.0, -33.0), radar, waveform)
    m = compute_ra_map(echo, radar)
    peaks = extract_peaks(m, k=1)
    r, ang = xy_to_polar(polar_to_xy(peaks[0].range_m, peaks[0].angle_deg))
    assert r == pytest.approx(peaks[0].range_m, abs=1e-9)
    assert ang == pytest.approx(peaks[0].angle_deg, abs=1e-9)


def test_scaling_invariance_of_extraction(radar, waveform):
    echo = synthesize_direct_echo(polar_to_xy(12.0, 8.0), radar, waveform) \
        + synthesize_direct_echo(polar_to_xy(25.0, -15.0), radar, waveform) * 0.5
    a = extract_peaks(compute_ra_map(echo, radar), k=4)
    b = extract_peaks(compute_ra_map(echo * 3.0, radar), k=4)
    assert [(p.range_bin, p.angle_bin) for p in a] \
        == [(p.range_bin, p.angle_bin) for p in b]


def test_window_preserves_on_bin_peak(radar, waveform):
    echo = synthesize_direct_echo((0.0, 15.0), radar, waveform)
    m = compute_ra_map(echo, radar, window="hann")
    i, j = np.unravel_index(np.argmax(m.magnitude), m.magnitude.shape)
    assert (i, j) == (160, 256)
    m2 = compute_ra_map(echo, radar, window="hann2d")
    i2, j2 = np.unravel_index(np.argmax(m2.magnitude), m2.magnitude.shape)
    assert (i2, j2) == (160, 256)
    with pytest.raises(ValueError):
        compute_ra_map(echo, radar, window="hamming")


def test_refine_peak_quadratic_improves_off_bin(radar, waveform):
    echo = synthesize_direct_echo((0.0, 15.05), radar, waveform)
    m = compute_ra_map(echo, radar)
    i, j = np.unravel_index(np.argmax(m.magnitude), m.magnitude.shape)
    refined_r, refined_a = refine_peak_quadratic(m, int(i), int(j))
    assert abs(refined_r - 15.05) < abs(m.range_axis_m[i] - 15.05) + 1e-12
    assert abs(refined_a) < 0.3


def test_eight_reflector_recovery(radar, waveform):
    # eight isolated scatterers across the map, moderate noise
    rng = np.random.default_rng(9)
    truths = [(8.0 + 4.0 * n, -35.0 + 10.0 * n) for n in range(8)]
    echo = sum(synthesize_direct_echo(polar_to_xy(r, a), radar, waveform)
               for r, a in truths)
    noise = (rng.standard_normal((16, 128)) + 1j * rng.standard_normal((16, 128)))
    echo = echo + noise * (10 ** (-30.0 / 20.0) * np.sqrt(16 * 128 / 2))
    m = compute_ra_map(echo, radar)
    peaks = extract_peaks(m, k=8)
    recovered = 0
    for r, a in truths:
        u = np.sin(np.radians(a))
        for p in peaks:
            du = abs(np.sin(np.radians(p.angle_deg)) - u)
            if abs(p.range_m - r) <= radar.range_bin_m and du <= 2.0 / radar.num_rx:
                recovered += 1
                break
    assert recovered >= 6


def test_map_exports(tmp_path, radar, waveform):
    echo = synthesize_direct_echo((0.0, 15.0), radar, waveform)
    m = compute_ra_map(echo, radar)
    csv_path = tmp_path / "map.csv"
    write_magnitude_csv(m, csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == MAP_SIZE
    assert len(lines[0].split(",")) == MAP_SIZE

    bin_path = tmp_path / "map.bin"
    write_map_binary(m, bin_path, seed=4)
    assert bin_path.stat().st_size == 32 + MAP_SIZE * MAP_SIZE * 8
    assert (tmp_path / "map.bin.json").exists()


def test_map_binary_bytes_match_full_transform(tmp_path, radar):
    """The binary dump of a synthesized frame's map holds exactly the bytes
    the complex64 full transform gives, after the 32-byte header."""
    spec = scenario_from_doc(reference_scene_doc(30.0, 60.0)).with_seed(3)
    echo = synthesize(spec)
    m = compute_ra_map(echo, radar)
    path = tmp_path / "map.bin"
    write_map_binary(m, path, seed=3)
    data = path.read_bytes()
    assert data[:4] == b"NLRM"
    assert data[32:] == _unpruned_values(echo.samples).astype(np.complex64).tobytes()
