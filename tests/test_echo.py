import math
import warnings

import numpy as np
import pytest

from nlosradar import (
    OutOfWindowError,
    PointTarget,
    RadarConfig,
    ReflectiveSurface,
    SceneClass,
    ScenarioSpec,
    SnrSpec,
    amplitude_for_snr,
    calibrate_noise,
    compute_ra_map,
    polar_to_xy,
    read_echo,
    scattering_gain,
    scenario_from_doc,
    solve_prp,
    steering_vector,
    synthesize,
    synthesize_direct_echo,
    synthesize_surface_echo,
    synthesize_target_echo,
    target_from_prp,
    write_echo,
)
from nlosradar.echo import (
    SPEED_OF_LIGHT,
    ScatterDraw,
    _beat,
    _range_angle,
    suppress_point_returns,
)
from nlosradar.geometry import (
    CHIRP_DURATION_S,
    discretize_surface,
    effective_reflectors,
)
from nlosradar.harness import reference_scene_doc
from nlosradar.scenario import randomize_scenario


def test_waveform_product():
    """The chirp sweeps the radar's bandwidth in CHIRP_DURATION_S, within
    one rounding: the slope's quotient does not always round-trip exactly."""
    for bandwidth_hz in (200e6, 400e6, 800e6):
        radar = RadarConfig(bandwidth_hz=bandwidth_hz)
        assert radar.chirp_slope * CHIRP_DURATION_S == pytest.approx(
            radar.bandwidth_hz, rel=1e-15)


def test_steering_boresight_all_ones(radar):
    v = steering_vector(0.0, radar.num_rx, radar.element_spacing,
                        radar.carrier_wavelength)
    assert np.allclose(v, 1.0)


def test_steering_conjugate_symmetry(radar):
    v_pos = steering_vector(17.0, radar.num_rx, radar.element_spacing,
                            radar.carrier_wavelength)
    v_neg = steering_vector(-17.0, radar.num_rx, radar.element_spacing,
                            radar.carrier_wavelength)
    assert np.allclose(v_neg, np.conj(v_pos))
    assert np.allclose(np.abs(v_pos), 1.0)


def test_steering_30deg_half_wavelength_phases():
    lam = 4e-3
    v = steering_vector(30.0, 4, lam / 2, lam)
    phases = np.angle(v)
    expected = np.array([0.0, np.pi / 2, np.pi, -np.pi / 2])  # 3pi/2 wrapped
    assert np.allclose(np.exp(1j * phases), np.exp(1j * expected), atol=1e-12)


def test_scattering_gain_specular_and_null():
    # on the specular direction the lobe carries the full forward ratio
    g = scattering_gain(6.3, 2 * 25.0 + 6.3, 25.0, 0.846, 14.0)
    assert g**2 == pytest.approx(0.846**2, abs=1e-12)
    assert g**2 == pytest.approx(0.7157159999999999, abs=1e-6)
    # reversed direction is the null
    g180 = scattering_gain(0.0, 180.0, 0.0, 0.846, 14.0)
    assert g180 == pytest.approx(0.0, abs=1e-12)


def test_scattering_gain_90deg_deviation():
    g = scattering_gain(0.0, 90.0, 0.0, 0.846, 14.0)
    assert g**2 == pytest.approx(4.3683837890624994e-05, rel=1e-9)


def test_scattering_gain_monotone_decay():
    devs = np.arange(0.0, 181.0, 5.0)
    g = scattering_gain(0.0, devs, 0.0, 0.846, 14.0)
    assert np.all(np.diff(g) <= 1e-12)
    assert np.all(g <= 0.846 + 1e-12)


def test_calibrate_noise_processing_gain(radar):
    # unit per-sample amplitude at 0 dB raw gives 10 log10(M_r N) after gain
    snr = SnrSpec(surface_snr_db=10 * math.log10(16 * 128), target_snr_db=50.0)
    assert calibrate_noise(snr, radar) == pytest.approx(1.0, rel=1e-12)
    amp = amplitude_for_snr(snr.surface_snr_db, radar, noise_variance=1.0)
    assert amp == pytest.approx(1.0, rel=1e-12)


def test_delta_snr_is_difference():
    snr = SnrSpec(surface_snr_db=30.0, target_snr_db=55.0)
    assert snr.delta_snr_db == pytest.approx(25.0)


def test_single_reflector_peak_bins(radar):
    surf = ReflectiveSurface(center_x=0.0, center_y=15.0, length=0.05,
                             orientation_deg=0.0)
    pts = discretize_surface(surf, radar)
    refl = effective_reflectors(pts, radar)
    assert len(refl) == 1
    echo = synthesize_surface_echo(refl, radar, surf, ScatterDraw.unit(1))
    m = compute_ra_map(echo, radar)
    i, j = np.unravel_index(np.argmax(m.magnitude), m.magnitude.shape)
    assert (i, j) == (160, 256)            # padded bin of 15 m at boresight
    assert m.range_axis_m[i] == pytest.approx(15.0)


def test_full_forward_scatter_zeroes_surface_echo(radar):
    surf = ReflectiveSurface(center_x=0.0, center_y=15.0, length=4.0,
                             orientation_deg=0.0, backscatter_ratio=1.0)
    pts = discretize_surface(surf, radar)
    refl = effective_reflectors(pts, radar)
    echo = synthesize_surface_echo(refl, radar, surf,
                                   ScatterDraw.unit(len(refl)))
    assert np.all(echo == 0)


def test_two_symmetric_reflectors_symmetric_map(radar):
    from nlosradar.geometry import SurfacePointSet, polar_to_xy as p2x
    surf = ReflectiveSurface(center_x=0.0, center_y=15.0, length=8.0,
                             orientation_deg=0.0)
    xy = np.array([p2x(15.0, -20.0), p2x(15.0, 20.0)])
    r = np.hypot(xy[:, 0], xy[:, 1])
    ang = np.degrees(np.arctan2(xy[:, 0], xy[:, 1]))
    pts = SurfacePointSet(xy=xy, ranges=r, angles_deg=ang,
                          range_bins=np.round(r / radar.range_bin_m).astype(int))
    echo = synthesize_surface_echo(pts, radar, surf, ScatterDraw.unit(2))
    m = compute_ra_map(echo, radar)
    left = m.magnitude[:, 1:256]
    right = m.magnitude[:, 257:]
    assert np.allclose(left, right[:, ::-1], atol=1e-6 * m.magnitude.max())


def test_surface_echo_out_of_window(radar):
    surf = ReflectiveSurface(center_x=0.0, center_y=49.0, length=1.0,
                             orientation_deg=0.0)
    pts = discretize_surface(
        surf, RadarConfig(num_samples=256))          # wider window to build it
    with pytest.raises(OutOfWindowError):
        synthesize_surface_echo(pts, radar, surf,
                                ScatterDraw.unit(len(pts)))


def test_two_bounce_peak_at_apparent_range(radar, far_surface):
    target = target_from_prp(far_surface, 6.3, 11.9)
    prp = solve_prp(far_surface, target.xy)
    app = prp.r_radar_prp + prp.r_prp_target
    assert app == pytest.approx(34.9816634794964, abs=1e-9)

    pts = discretize_surface(far_surface, radar, rng_seed=1)
    refl = effective_reflectors(pts, radar)
    echo = synthesize_target_echo(refl, radar, far_surface, target.xy,
                                  ScatterDraw.unit(len(refl)))
    m = compute_ra_map(echo, radar)
    i, j = np.unravel_index(np.argmax(m.magnitude), m.magnitude.shape)
    assert abs(m.range_axis_m[i] - app) <= radar.range_bin_m
    u_err = abs(math.sin(math.radians(m.angle_axis_deg[j]))
                - math.sin(math.radians(prp.angle_deg)))
    assert u_err <= 2.0 / radar.num_rx


def test_zero_forward_scatter_zeroes_target_echo(radar):
    surf = ReflectiveSurface(center_x=0.0, center_y=15.0, length=8.0,
                             orientation_deg=0.0, backscatter_ratio=0.0)
    pts = discretize_surface(surf, radar)
    refl = effective_reflectors(pts, radar)
    echo = synthesize_target_echo(refl, radar, surf, (3.0, 8.0),
                                  ScatterDraw.unit(len(refl)))
    assert np.all(echo == 0)


def test_wider_lobe_does_not_lose_energy(radar):
    base = dict(center_x=2.0, center_y=18.0, length=8.0, orientation_deg=25.0)
    target = target_from_prp(ReflectiveSurface(**base), 6.3, 11.9)
    energies = []
    for psi in (20.0, 14.0, 8.0, 4.0):
        surf = ReflectiveSurface(**base, beamwidth_exponent=psi)
        pts = discretize_surface(surf, radar, rng_seed=0)
        refl = effective_reflectors(pts, radar)
        echo = synthesize_target_echo(refl, radar, surf, target.xy,
                                      ScatterDraw.draw(len(refl), seed=1))
        energies.append(float(np.sum(np.abs(echo)**2)))
    assert all(a <= b * (1 + 1e-9) for a, b in zip(energies, energies[1:]))


def test_off_segment_prp_returns_zeros_with_warning(radar):
    surf = ReflectiveSurface(center_x=0.0, center_y=10.0, length=1.0,
                             orientation_deg=0.0)
    pts = discretize_surface(surf, radar)
    refl = effective_reflectors(pts, radar)
    # the miss is a regular outcome: zeros, and no warning is issued
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        echo = synthesize_target_echo(refl, radar, surf, (9.0, 5.0),
                                      ScatterDraw.unit(len(refl)))
    assert echo.shape == (radar.num_rx, radar.num_samples)
    assert np.all(echo == 0)


def test_direct_echo_out_of_window(radar):
    with pytest.raises(OutOfWindowError):
        synthesize_direct_echo((0.0, 49.0), radar)


def _nlos_spec(radar, seed=0, snr=SnrSpec(30.0, 50.0)):
    surf = ReflectiveSurface(center_x=3.3, center_y=23.3, length=8.8,
                             orientation_deg=25.0)
    target = target_from_prp(surf, 6.3, 11.9)
    return ScenarioSpec(radar=radar, surface=surf, target=target, snr=snr,
                        scene_class=SceneClass.NLOS, seed=seed)


def test_synthesize_component_sum_identity(radar):
    spec = _nlos_spec(radar, seed=5)
    echo = synthesize(spec, keep_components=True)
    total = sum(echo.components.values())
    assert np.array_equal(echo.samples, total)
    assert set(echo.components) == {"surface", "target", "noise"}
    quiet = synthesize(spec, keep_components=True, include_noise=False)
    assert "noise" not in quiet.components
    assert np.array_equal(quiet.samples,
                          quiet.components["surface"] + quiet.components["target"])


def test_synthesize_deterministic(radar):
    spec = _nlos_spec(radar, seed=11)
    a = synthesize(spec)
    b = synthesize(spec)
    assert np.array_equal(a.samples, b.samples)
    c = synthesize(spec.with_seed(12))
    assert not np.array_equal(a.samples, c.samples)


def test_wall_only_scene(radar):
    surf = ReflectiveSurface(center_x=2.0, center_y=18.0, length=8.0,
                             orientation_deg=25.0)
    spec = ScenarioSpec(radar=radar, surface=surf, target=None,
                        snr=SnrSpec(30.0, 0.0),
                        scene_class=SceneClass.LOS_SURFACE_NO_MP, seed=0)
    echo = synthesize(spec, keep_components=True)
    assert set(echo.components) == {"surface", "noise"}


def test_ghost_component_for_visible_target(radar):
    surf = ReflectiveSurface(center_x=2.0, center_y=18.0, length=8.0,
                             orientation_deg=25.0)
    spec = ScenarioSpec(radar=radar, surface=surf,
                        target=PointTarget(*polar_to_xy(10.0, 30.0)),
                        snr=SnrSpec(30.0, 50.0),
                        scene_class=SceneClass.LOS_SURFACE_MP, seed=3)
    echo = synthesize(spec, keep_components=True)
    assert {"surface", "target", "ghost", "noise"} <= set(echo.components)
    # the ghost is suppressed relative to the direct return
    g = float(np.abs(echo.components["ghost"]).max())
    d = float(np.abs(echo.components["target"]).max())
    assert g < d


def test_noise_power_calibration(radar):
    var = 2.5
    total, count = 0.0, 0
    for seed in range(100):
        spec = _nlos_spec(radar, seed=seed,
                          snr=SnrSpec(10 * math.log10(16 * 128) - 10
                                      * math.log10(var), 0.0))
        echo = synthesize(spec, keep_components=True)
        n = echo.components["noise"]
        total += float(np.sum(np.abs(n)**2))
        count += n.size
    assert total / count == pytest.approx(var, rel=0.03)


def test_linear_amplitude_scaling_preserves_argmax(radar):
    echo = synthesize_direct_echo(polar_to_xy(12.0, 15.0), radar,
                                  amplitude=1.0)
    m1 = compute_ra_map(echo, radar)
    m2 = compute_ra_map(7.5 * echo, radar)
    assert np.argmax(m1.magnitude) == np.argmax(m2.magnitude)
    assert np.allclose(m2.magnitude, 7.5 * m1.magnitude, rtol=1e-9)


def test_echo_binary_round_trip(tmp_path, radar):
    spec = _nlos_spec(radar, seed=2)
    echo = synthesize(spec)
    path = tmp_path / "frame.bin"
    write_echo(path, echo, radar, seed=2, metadata={"scene_class": "nlos"})
    data, header = read_echo(path)
    assert header["num_rx"] == radar.num_rx
    assert header["num_samples"] == radar.num_samples
    assert header["range_bin_m"] == pytest.approx(radar.range_bin_m)
    assert header["seed"] == 2
    assert data.shape == echo.samples.shape
    assert np.allclose(data, echo.samples.astype(np.complex64))
    assert (tmp_path / "frame.bin.json").exists()
    assert path.stat().st_size == 32 + radar.num_rx * radar.num_samples * 8


def test_suppress_point_returns_removes_dominant(radar):
    strong = synthesize_direct_echo(polar_to_xy(30.0, 10.0), radar,
                                    amplitude=100.0)
    weak = synthesize_direct_echo(polar_to_xy(15.0, -20.0), radar,
                                  amplitude=1.0)
    cleaned = suppress_point_returns(strong + weak, radar, max_components=3,
                                     stop_db=6.0)
    m = compute_ra_map(cleaned, radar)
    i, j = np.unravel_index(np.argmax(m.magnitude), m.magnitude.shape)
    assert abs(m.range_axis_m[i] - 15.0) < 1.0
    assert abs(m.angle_axis_deg[j] + 20.0) < 2.0


def test_range_angle_transform_bit_identical_to_full_256():
    rng = np.random.default_rng(8)
    for shape in ((16, 128), (8, 64), (256, 256)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        padded = np.zeros((256, 256), dtype=complex)
        padded[:shape[0], :shape[1]] = x
        full = np.fft.fftshift(np.fft.ifft(np.fft.fft(padded, axis=0), axis=1)
                               * 256, axes=0)
        assert np.array_equal(_range_angle(x, 256), full)
    with pytest.raises(ValueError):
        _range_angle(np.zeros((16, 300), dtype=complex), 256)


@pytest.mark.parametrize("size", [256, 512])
@pytest.mark.parametrize("shape", [(12, 100), (16, 256)])
def test_range_angle_transform_bit_identical_at_odd_shapes(shape, size):
    """Frames that fill the padded buffers to other widths than the default
    16 x 128 still give the full padded transform, bit for bit."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    padded = np.zeros((size, size), dtype=complex)
    padded[:shape[0], :shape[1]] = x
    full = np.fft.fftshift(np.fft.ifft(np.fft.fft(padded, axis=0), axis=1)
                           * size, axes=0)
    assert np.array_equal(_range_angle(x, size), full)


def test_suppress_point_returns_continues_exactly():
    """Cancelling 8 components and then 16 more is cancelling 24 at once:
    a cancelled frame can be cancelled further without starting over."""
    continued = 0
    for seed, delta_db in ((1, 20.0), (2, 30.0), (3, 40.0), (4, 40.0)):
        spec = scenario_from_doc(reference_scene_doc(30.0, 30.0 + delta_db))
        x = synthesize(spec.with_seed(seed)).samples
        radar = spec.radar
        first = suppress_point_returns(x, radar, max_components=8)
        deep = suppress_point_returns(x, radar, max_components=24)
        assert np.array_equal(
            suppress_point_returns(first, radar, max_components=16), deep)
        continued += not np.array_equal(first, deep)
    assert continued > 0


def _reference_suppress(samples, radar, max_components=6, stop_db=18.0):
    """The cancellation loop that transforms the residual afresh and takes
    the full-map median at every step."""
    m_r, n = samples.shape
    pad = 256
    du = radar.element_spacing / radar.carrier_wavelength
    work = samples.astype(complex).copy()
    t_gate = 10.0 ** (stop_db / 20.0)
    for _ in range(max_components):
        mag = np.abs(_range_angle(work, pad))
        if float(mag.max()) < float(np.median(mag)) * t_gate:
            break
        p, q = np.unravel_index(int(np.argmax(mag)), mag.shape)
        u = (p - pad // 2) / (pad * du)
        if abs(u) > 1.0:
            break
        r = q * radar.max_range_m / pad
        a = steering_vector(math.degrees(math.asin(u)), m_r,
                            radar.element_spacing, radar.carrier_wavelength)
        b = _beat(np.array(2.0 * r / SPEED_OF_LIGHT), radar).ravel()
        sig = np.outer(a, b)
        amp = np.vdot(sig, work) / (m_r * n)
        work -= amp * sig
    return work


def _on_grid_returns(radar, returns):
    """Noiseless point returns, (angle bin, range bin, amplitude) each,
    centred on cells of the 256-point transform, so that cancelling them
    leaves nothing but rounding noise."""
    du = radar.element_spacing / radar.carrier_wavelength
    frame = np.zeros((radar.num_rx, radar.num_samples), dtype=complex)
    for p, q, amplitude in returns:
        a = steering_vector(math.degrees(math.asin((p - 128) / (256 * du))),
                            radar.num_rx, radar.element_spacing,
                            radar.carrier_wavelength)
        b = _beat(np.array(2.0 * q * radar.max_range_m / 256 / SPEED_OF_LIGHT),
                  radar).ravel()
        frame += amplitude * np.outer(a, b)
    return frame


@pytest.fixture(scope="module")
def cancellation_frames():
    frames = []
    for seed, delta_db in enumerate((10.0, 20.0, 30.0, 40.0)):
        spec = scenario_from_doc(reference_scene_doc(30.0, 30.0 + delta_db))
        frames.append(synthesize(spec.with_seed(seed)).samples)
    for seed, cls in enumerate((SceneClass.NLOS, SceneClass.LOS_NO_SURFACE,
                                SceneClass.LOS_SURFACE_MP) * 2):
        spec = randomize_scenario(cls, 50 + seed, preset="identification",
                                  snr=SnrSpec(30.0, 30.0 + 10.0 * seed))
        frames.append(synthesize(spec).samples)
    radar = RadarConfig()
    rng = np.random.default_rng(3)
    for i in range(9):
        frames.append(_on_grid_returns(radar, [
            (int(rng.integers(90, 166)), int(rng.integers(10, 200)),
             100.0 * rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform()))
            for _ in range(1 + i % 3)]))
    # two equal returns behind a strong one: near-ties for the argmax
    frames.append(_on_grid_returns(radar, [(120, 60, 100.0), (140, 90, 50j),
                                           (100, 150, -50.0)]))
    frames.append(_on_grid_returns(radar, [(156, 93, 100.0), (103, 47, 50.0),
                                           (155, 47, -50.0)]))
    # single precision: a noisy scene and a noiseless three-return frame
    frames.append(frames[0].astype(np.complex64))
    frames.append(frames[12].astype(np.complex64))
    return radar, frames


@pytest.mark.parametrize("shape", [{"num_rx": 12, "num_samples": 100},
                                   {"num_samples": 256}])
def test_suppress_point_returns_matches_fresh_transform_at_odd_shapes(shape):
    """Frames of 12 channels and 100 samples, and of 256 samples, fill the
    256-point spectrum to other widths than 16 x 128; the running spectrum
    still cancels what the fresh transform loop cancels, bit for bit."""
    doc = reference_scene_doc(30.0, 60.0)
    doc["radar"] = shape
    spec = scenario_from_doc(doc)
    radar = spec.radar
    frames = [synthesize(spec.with_seed(seed)).samples for seed in range(3)]
    frames.append(_on_grid_returns(radar, [(120, 60, 100.0), (140, 90, 50j)]))
    for frame in frames:
        for stop_db in (6.0, 18.0):
            assert np.array_equal(
                suppress_point_returns(frame, radar, 8, stop_db),
                _reference_suppress(frame, radar, 8, stop_db))


@pytest.mark.parametrize("max_components", (8, 24))
@pytest.mark.parametrize("stop_db", (6.0, 18.0, 30.0))
def test_suppress_point_returns_matches_fresh_transform_loop(
        cancellation_frames, stop_db, max_components):
    """The running spectrum and the count-decided stop cancel exactly the
    components a fresh transform and the full median would, bit for bit,
    also on noiseless frames whose residual ends as rounding noise."""
    radar, frames = cancellation_frames
    for frame in frames:
        assert np.array_equal(
            suppress_point_returns(frame, radar, max_components, stop_db),
            _reference_suppress(frame, radar, max_components, stop_db))


def test_suppress_point_returns_matches_on_the_stop_gate():
    """With the stop gate set to a step's own peak-to-median ratio, the
    stop decision rests on the last bits of the median; the count-decided
    stop must still make the fresh transform's decision."""
    spec = scenario_from_doc(reference_scene_doc(30.0, 50.0))
    radar = spec.radar
    for seed in range(4):
        x = synthesize(spec.with_seed(seed)).samples
        for steps in (1, 2):
            mag = np.abs(_range_angle(
                _reference_suppress(x, radar, steps, stop_db=0.0), 256))
            stop_db = 20.0 * math.log10(float(mag.max())
                                        / float(np.median(mag)))
            assert np.array_equal(
                suppress_point_returns(x, radar, steps + 2, stop_db),
                _reference_suppress(x, radar, steps + 2, stop_db))
