import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
from nlosradar.echo import (
    _SAMPLE_STEP,
    _SELECT_MIN,
    _bracketed,
    _median,
    _range_angle,
)
from nlosradar.harness import reference_scene_doc
from nlosradar.ramap import Peak, _argmax_cell

from conftest import InlineExecutor, rayleigh_field  # noqa: E402 - shared


def _impulse_map(radar, cells):
    magnitude = np.zeros((MAP_SIZE, MAP_SIZE))
    for (i, j), mag in cells.items():
        magnitude[i, j] = mag
    return RangeAngleMap(magnitude, radar)


def test_zero_echo_zero_map(radar):
    m = compute_ra_map(np.zeros((16, 128), dtype=complex), radar)
    assert np.all(m.magnitude == 0)


@pytest.mark.parametrize("grid", [np.zeros((MAP_SIZE, MAP_SIZE), dtype=complex),
                                  np.zeros((MAP_SIZE, MAP_SIZE - 1)),
                                  np.zeros((MAP_SIZE, MAP_SIZE, 1)),
                                  np.zeros(MAP_SIZE * MAP_SIZE)])
def test_map_rejects_all_but_a_real_512_grid(radar, grid):
    with pytest.raises(ValueError, match="real 512 x 512"):
        RangeAngleMap(grid, radar)


def test_dimension_overflow(radar):
    with pytest.raises(ValueError):
        compute_ra_map(np.zeros((600, 128), dtype=complex), radar)


def test_boresight_scatterer_bins():
    """A 15 m boresight return lands on row 15 / range_step_m at each
    bandwidth: the chirp follows the radar's bandwidth."""
    for bandwidth_hz, row in ((200e6, 80), (400e6, 160), (800e6, 320)):
        radar = RadarConfig(bandwidth_hz=bandwidth_hz)
        echo = synthesize_direct_echo((0.0, 15.0), radar)
        m = compute_ra_map(echo, radar)
        i, j = np.unravel_index(np.argmax(m.magnitude), m.magnitude.shape)
        assert row == 15.0 / m.range_step_m
        assert (i, j) == (row, 256)
        assert m.magnitude[i, j] == pytest.approx(
            radar.num_rx * radar.num_samples, rel=1e-9)


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
@pytest.mark.parametrize("shape", [{}, {"num_rx": 8, "num_samples": 64},
                                   {"num_rx": 12, "num_samples": 100},
                                   {"num_samples": 256}])
def test_pruned_transform_bit_identical_to_full(shape, window):
    """The blocked magnitude equals |full transform| bit for bit, and the
    complex untapered transform the binary export writes equals the full
    transform.  Frames of 100 and 256 samples fill a zero-padded block to
    other widths than 128, and 12 channels fill the channel buffer to other
    than 16."""
    radar = RadarConfig(**shape)
    rng = np.random.default_rng(21)
    frames = [synthesize_direct_echo(polar_to_xy(17.0, -12.0), radar)]
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
        if window is None:
            assert np.array_equal(_range_angle(x, MAP_SIZE).T, expected)


@pytest.mark.parametrize("window", [None, "hann", "hann2d"])
@pytest.mark.parametrize("shape", [{}, {"num_rx": 12, "num_samples": 100},
                                   {"num_samples": 256}])
def test_helper_map_bit_identical_to_serial(shape, window):
    """A map whose upper angle rows are formed on a helper equals the map
    formed on one thread bit for bit: when the helper runs its half, when
    it runs it at once, and when it is busy and the calling thread takes
    the half back."""
    radar = RadarConfig(**shape)
    rng = np.random.default_rng(6)
    size = (radar.num_rx, radar.num_samples)
    frame = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    serial = compute_ra_map(frame, radar, window=window).magnitude
    with ThreadPoolExecutor(max_workers=1) as helper:
        split = compute_ra_map(frame, radar, window=window, helper=helper)
        assert np.array_equal(split.magnitude, serial)
        release = threading.Event()
        busy = helper.submit(release.wait, 60.0)
        try:
            taken_back = compute_ra_map(frame, radar, window=window,
                                        helper=helper)
        finally:
            release.set()
        assert busy.result() is True
    assert np.array_equal(taken_back.magnitude, serial)
    inline = compute_ra_map(frame, radar, window=window, helper=InlineExecutor())
    assert np.array_equal(inline.magnitude, serial)
    assert split.magnitude.flags.c_contiguous


def test_argmax_cell_matches_masked_argmax(radar):
    """The blockwise search finds the cell ``np.argmax`` finds on the map
    with invalid cells set to -1: ties go to the first cell in row-major
    order, across blocks too, and a NaN wins as it does for ``np.argmax``."""
    rng = np.random.default_rng(4)
    for case in range(6):
        values = np.round(rng.uniform(0, 3, (MAP_SIZE, MAP_SIZE)))
        valid = rng.uniform(size=(MAP_SIZE, MAP_SIZE)) < 0.3
        if case == 4:
            values[[300, 40], [7, 500]] = np.nan
            valid[[300, 40], [7, 500]] = True
        if case == 5:
            valid[:] = False
            valid[[500, 3], [0, 9]] = True
        m = RangeAngleMap(values, radar)
        expected = divmod(int(np.argmax(np.where(valid, m.magnitude, -1.0))),
                          MAP_SIZE)
        assert _argmax_cell(m, valid) == expected


def test_fov_argmax_matches_masked_argmax(radar):
    """The strongest FOV cell is the one ``np.argmax`` finds on the map with
    every cell outside the field of view set to -1: ties go to the first
    cell in row-major order, stronger cells outside the band lose, and the
    first NaN inside the band wins."""
    rng = np.random.default_rng(6)
    cols = compute_ra_map(np.zeros((16, 128)), radar).fov_cols
    assert 0 < cols.start and cols.stop < MAP_SIZE
    for case in range(4):
        values = np.round(rng.uniform(0, 3, (MAP_SIZE, MAP_SIZE)))
        if case == 1:
            values[:, :cols.start] = values[:, cols.stop:] = 9.0
        if case >= 2:
            values[[10, 500], [cols.start - 1, cols.stop]] = np.nan
        if case == 3:
            values[[300, 40, 40], [cols.start + 5, cols.stop - 1, 0]] = np.nan
        m = RangeAngleMap(values, radar)
        fov = m.fov_mask()
        expected = divmod(int(np.argmax(np.where(fov, m.magnitude, -1.0))),
                          MAP_SIZE)
        assert _argmax_cell(m, fov) == expected
        if case == 3:
            assert expected == (40, cols.stop - 1)


def test_axes(radar):
    m = compute_ra_map(np.zeros((16, 128), dtype=complex), radar)
    assert m.range_axis_m[0] == 0.0
    assert np.all(np.diff(m.range_axis_m) > 0)
    assert m.range_axis_m[-1] < radar.max_range_m
    assert m.range_step_m == radar.max_range_m / MAP_SIZE
    assert np.array_equal(m.range_axis_m, np.arange(MAP_SIZE) * m.range_step_m)
    assert m.angle_axis_deg[MAP_SIZE // 2] == pytest.approx(0.0)
    assert m.angle_axis_deg[0] == pytest.approx(-90.0)


@pytest.mark.parametrize("fov_deg, band", [(60.0, (35, 478)), (90.0, (0, 512)),
                                           (0.05, (256, 257))])
def test_fov_cols_is_the_fov_band(fov_deg, band):
    """The field of view is one band of columns: every column whose angle
    lies within the half angle, and no other; the mask repeats it."""
    cfg = RadarConfig(fov_half_angle_deg=fov_deg)
    m = compute_ra_map(np.zeros((16, 128), dtype=complex), cfg)
    inside = np.flatnonzero(np.isfinite(m.angle_axis_deg)
                            & (np.abs(m.angle_axis_deg) <= fov_deg))
    assert (m.fov_cols.start, m.fov_cols.stop) == band
    assert np.array_equal(np.arange(*band), inside)
    assert np.array_equal(np.flatnonzero(m.fov_mask()[0]), inside)
    assert np.all(m.fov_mask() == m.fov_mask()[0])


def test_parseval(radar):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 128)) + 1j * rng.standard_normal((16, 128))
    m = compute_ra_map(x, radar)
    lhs = np.sum(m.magnitude**2)
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


def test_extract_peaks_are_local_maxima(radar):
    rng = np.random.default_rng(0)
    echo = sum(synthesize_direct_echo(polar_to_xy(r, a), radar)
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
    """extract_peaks with the local-maximum test run over the whole map and
    the search region given as a mask of ``valid`` cells."""
    mag = ra_map.magnitude
    if not valid.any():
        return []
    floor = float(np.median(mag[valid])) * 10.0 ** (noise_floor_db / 20.0)
    cand = _local_maxima(mag) & valid & (mag > floor)
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
    order, that the local-maximum test over the whole map finds inside the
    searched rectangle: the field of view, alone and cut at a range limit
    on a row, between rows and below the first; also on plateaus, ties,
    map edges and the edges of the field of view."""
    checked = 0
    for fov_deg in (radar.fov_half_angle_deg, 90.0):
        cfg = RadarConfig(fov_half_angle_deg=fov_deg)
        cols = compute_ra_map(np.zeros((16, 128)), cfg).fov_cols
        step = cfg.max_range_m / MAP_SIZE
        limits = (None, 300 * step, 300.5 * step, 0.5 * step, -1.0)
        for seed in range(5):
            # quantized Rayleigh magnitudes: plateaus and exact ties; the
            # last field is left unquantized, so every floor is its own
            mag = rayleigh_field((MAP_SIZE, MAP_SIZE), seed)
            if seed < 4:
                mag = np.round(4.0 * mag) / 4.0
            # strong cells on and next to every map edge, and on and next
            # to both edges of the field of view
            mag[0, 40] = mag[MAP_SIZE - 1, 90] = mag[200, 0] = 50.0
            mag[300, MAP_SIZE - 1] = mag[1, 1] = mag[MAP_SIZE - 2, 300] = 40.0
            mag[100, 100] = mag[100, 101] = 30.0        # a two-cell plateau
            # outside the field of view the level is higher, so a floor
            # taken over other cells than the rectangle's shows
            mag[:, :cols.start] += 1.0
            mag[:, cols.stop:] += 1.0
            for j in (cols.start - 1, cols.start, cols.stop - 1, cols.stop):
                mag[150 + j % 7, j % MAP_SIZE] = 45.0
            ra_map = RangeAngleMap(mag, cfg)
            for max_range_m in limits:
                valid = ra_map.fov_mask()
                if max_range_m is not None:
                    valid = valid & (ra_map.range_axis_m[:, None] <= max_range_m)
                for k, radius, floor_db in ((400, 0, 3.0), (40, 4, 6.0),
                                            (22, 8, 12.0)):
                    peaks = extract_peaks(ra_map, k, radius, floor_db,
                                          max_range_m)
                    assert peaks == _reference_peaks(ra_map, k, radius,
                                                     floor_db, valid)
                    checked += len(peaks)
                assert extract_peaks(ra_map, 5, 8, 60.0, max_range_m) == []
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
        before = a.copy()
        got = _median(a)
        assert type(got) is float
        assert got == float(np.median(a)), (a.size, a.dtype)
        assert np.array_equal(a, before)


def _median_fields():
    """2-D fields on both sides of the bracketing threshold, odd and even in
    size: Rayleigh noise, quantized (ties and plateaus), all-equal, float32,
    and a map with a strong ridge."""
    fields = []
    for shape in ((127, 129), (128, 127), (128, 128), (129, 129),
                  (256, 256), (MAP_SIZE, MAP_SIZE)):
        x = rayleigh_field(shape, shape[0] * shape[1])
        fields += [x, np.round(2.0 * x) / 2.0, x.astype(np.float32)]
    assert {f.size < _SELECT_MIN for f in fields} == {True, False}
    assert {f.size % 2 for f in fields if f.size < _SELECT_MIN} == {0, 1}
    assert {f.size % 2 for f in fields if f.size >= _SELECT_MIN} == {0, 1}
    fields.append(np.full((MAP_SIZE, MAP_SIZE), 0.75))
    ridge = rayleigh_field((MAP_SIZE, MAP_SIZE), 3)
    ridge[100:140, 200:300] += 50.0
    fields.append(ridge)
    return fields


def test_masked_median_equals_numpy_median(radar):
    """The bracketed selection gives ``np.median`` of a view exactly: the
    whole field, the FOV band, the band cut at 300 and 301 rows, column
    slices that are not contiguous, an inner window and a single cell, and
    NaN for an empty view, without changing the field."""
    band = compute_ra_map(np.zeros((16, 128)), radar).fov_cols
    checked = 0
    for field in _median_fields():
        before = field.copy()
        views = [field, field[:, ::3], field[1:, 2:-3], field[5:6, 7:8]]
        if field.shape == (MAP_SIZE, MAP_SIZE):
            views += [field[:, band], field[:301, band], field[:300, band],
                      field[:300, band.start:band.stop:2]]
        for view in views:
            got = _median(view)
            assert type(got) is float
            assert got == float(np.median(view)), (view.shape, field.dtype)
            checked += 1
        assert np.array_equal(field, before)
        assert np.isnan(_median(field[:0]))
        with pytest.warns(RuntimeWarning):
            assert np.isnan(np.median(field[:0]))
    assert checked == 100


def test_median_bracket_miss_falls_back(radar):
    """A view whose sampled cells all lie far above the rest puts the
    bracket above the median; the selection then copies and partitions the
    cells whole and still gives ``np.median``: on the whole field and on
    the FOV band, alone and cut at a range row."""
    band = compute_ra_map(np.zeros((16, 128)), radar).fov_cols
    step = np.s_[::_SAMPLE_STEP[0], ::_SAMPLE_STEP[1]]
    for region in (np.s_[:, :], np.s_[:, band], np.s_[:300, band]):
        field = rayleigh_field((MAP_SIZE, MAP_SIZE), 9)
        view = field[region]
        view[step] += 100.0
        n = view.size
        assert _bracketed(view, (n - 1) // 2, n // 2) is None
        assert _median(view) == float(np.median(view))


def test_extract_peaks_memory_peak():
    """Peak extraction over the FOV of a 512 map allocates under 1 MB: the
    noise floor's median copies only the cells near it, and candidates are
    searched in blocks of rows.  The Hann map of the raw reference frame,
    whose target sidelobe fan puts 35,000 cells above the floor, is the
    heaviest case Stage I meets; its fully tapered map cut at rung 1's range
    limit is the other kind of search Stage I makes."""
    spec = scenario_from_doc(reference_scene_doc(30.0, 60.0)).with_seed(0)
    frame = synthesize(spec).samples
    detection = compute_ra_map(frame, spec.radar)
    i, _ = _argmax_cell(detection, detection.fov_mask())
    gate = float(detection.range_axis_m[i]) - 4.5
    for window, max_range_m, count in (("hann", None, 40),
                                       ("hann2d", gate, 5)):
        ra_map = compute_ra_map(frame, spec.radar, window=window)
        expected = extract_peaks(ra_map, 40, 4, 12.0, max_range_m)
        tracemalloc.start()
        try:
            peaks = extract_peaks(ra_map, 40, 4, 12.0, max_range_m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks == expected and len(peaks) == count
        assert peak < 2**20, f"{window}: peak {peak / 2**20:.2f} MB"


def test_extract_validation(radar):
    m = _impulse_map(radar, {(100, 256): 5.0})
    with pytest.raises(ValueError):
        extract_peaks(m, k=0)
    with pytest.raises(ValueError):
        extract_peaks(m, k=MAP_SIZE * MAP_SIZE + 1)


def test_polar_round_trip(radar):
    echo = synthesize_direct_echo(polar_to_xy(21.0, -33.0), radar)
    m = compute_ra_map(echo, radar)
    peaks = extract_peaks(m, k=1)
    r, ang = xy_to_polar(polar_to_xy(peaks[0].range_m, peaks[0].angle_deg))
    assert r == pytest.approx(peaks[0].range_m, abs=1e-9)
    assert ang == pytest.approx(peaks[0].angle_deg, abs=1e-9)


def test_scaling_invariance_of_extraction(radar):
    echo = synthesize_direct_echo(polar_to_xy(12.0, 8.0), radar) \
        + synthesize_direct_echo(polar_to_xy(25.0, -15.0), radar) * 0.5
    a = extract_peaks(compute_ra_map(echo, radar), k=4)
    b = extract_peaks(compute_ra_map(echo * 3.0, radar), k=4)
    assert [(p.range_bin, p.angle_bin) for p in a] \
        == [(p.range_bin, p.angle_bin) for p in b]


def test_window_preserves_on_bin_peak(radar):
    echo = synthesize_direct_echo((0.0, 15.0), radar)
    m = compute_ra_map(echo, radar, window="hann")
    i, j = np.unravel_index(np.argmax(m.magnitude), m.magnitude.shape)
    assert (i, j) == (160, 256)
    m2 = compute_ra_map(echo, radar, window="hann2d")
    i2, j2 = np.unravel_index(np.argmax(m2.magnitude), m2.magnitude.shape)
    assert (i2, j2) == (160, 256)
    with pytest.raises(ValueError):
        compute_ra_map(echo, radar, window="hamming")


def test_refine_peak_quadratic_improves_off_bin(radar):
    echo = synthesize_direct_echo((0.0, 15.05), radar)
    m = compute_ra_map(echo, radar)
    i, j = np.unravel_index(np.argmax(m.magnitude), m.magnitude.shape)
    refined_r, refined_a = refine_peak_quadratic(m, int(i), int(j))
    assert abs(refined_r - 15.05) < abs(m.range_axis_m[i] - 15.05) + 1e-12
    assert abs(refined_a) < 0.3


def test_eight_reflector_recovery(radar):
    # eight isolated scatterers across the map, moderate noise
    rng = np.random.default_rng(9)
    truths = [(8.0 + 4.0 * n, -35.0 + 10.0 * n) for n in range(8)]
    echo = sum(synthesize_direct_echo(polar_to_xy(r, a), radar)
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


def test_map_exports(tmp_path, radar):
    echo = synthesize_direct_echo((0.0, 15.0), radar)
    m = compute_ra_map(echo, radar)
    csv_path = tmp_path / "map.csv"
    write_magnitude_csv(m, csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == MAP_SIZE
    assert len(lines[0].split(",")) == MAP_SIZE

    bin_path = tmp_path / "map.bin"
    write_map_binary(echo, radar, bin_path, seed=4)
    assert bin_path.stat().st_size == 32 + MAP_SIZE * MAP_SIZE * 8
    assert (tmp_path / "map.bin.json").exists()


def test_map_binary_bytes_match_full_transform(tmp_path, radar):
    """The binary dump of a synthesized frame's map holds exactly the bytes
    the complex64 full transform gives, after the 32-byte header."""
    spec = scenario_from_doc(reference_scene_doc(30.0, 60.0)).with_seed(3)
    echo = synthesize(spec)
    path = tmp_path / "map.bin"
    write_map_binary(echo.samples, radar, path, seed=3)
    data = path.read_bytes()
    assert data[:4] == b"NLRM"
    assert data[32:] == _unpruned_values(echo.samples).astype(np.complex64).tobytes()
