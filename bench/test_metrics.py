"""The benchmark's arithmetic on hand-made inputs.

    python3 -m pytest bench -q
"""

import math
import sys
import threading
import types

import numpy as np
import pytest

import checks
import metrics
import spans
from metrics import Span, TrialOutcome


def test_percentile_interpolates_between_ranks():
    xs = [7.0, 1.0, 3.0, 5.0]                      # sorted: 1 3 5 7
    assert metrics.percentile(xs, 0) == 1.0
    assert metrics.percentile(xs, 100) == 7.0
    assert metrics.median(xs) == 4.0
    assert metrics.percentile(xs, 25) == pytest.approx(2.5)
    assert metrics.percentile(xs, 95) == pytest.approx(6.7)
    assert metrics.percentile([2.0], 95) == 2.0
    ys = [float(v) for v in range(1, 201)]
    assert metrics.percentile(ys, 95) == pytest.approx(float(np.percentile(ys, 95)))
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_rmse_and_share():
    assert metrics.rmse([3.0, -4.0]) == pytest.approx(math.sqrt(12.5))
    assert metrics.rmse([2.0]) == 2.0
    with pytest.raises(ValueError):
        metrics.rmse([])
    assert metrics.share(3, 4) == 0.75
    assert metrics.share(0, 0) == 0.0


def test_self_time_subtracts_children():
    # trial 0..100 holds a 10..40 child, which holds 15..25, and a 50..90 child
    s = [Span(0, "harness.run_trial", 0, 100, None, 0),
         Span(1, "a", 10, 40, 0, 0),
         Span(2, "b", 15, 25, 1, 0),
         Span(3, "c", 50, 90, 0, 0)]
    own = metrics.self_times(s)
    assert own == {0: 30, 1: 20, 2: 10, 3: 40}
    assert sum(own.values()) == 100
    assert metrics.trial_self_time_gaps(s, "harness.run_trial") == [0]


def test_self_time_counts_overlapping_children_once():
    s = [Span(0, "p", 0, 100, None, None),
         Span(1, "x", 10, 50, 0, None),
         Span(2, "y", 30, 70, 0, None),
         Span(3, "z", 90, 120, 0, None)]      # runs past its parent's end
    assert metrics.self_times(s)[0] == 100 - 60 - 10


def test_gap_shows_a_span_outside_its_trial():
    s = [Span(0, "harness.run_trial", 0, 100, None, 0),
         Span(1, "a", 10, 40, None, 0)]           # lost its parent
    assert metrics.trial_self_time_gaps(s, "harness.run_trial") == [30]


def test_layer_metrics_per_trial_and_per_call():
    s = [Span(0, "t", 0, 4_000_000, None, 0),
         Span(1, "f", 0, 1_000_000, 0, 0),
         Span(2, "f", 1_000_000, 4_000_000, 0, 0),
         Span(3, "t", 0, 2_000_000, None, 3)]
    m = metrics.layer_metrics(s, ("t", "f", "g"), trials=2)
    assert m["f.calls_per_trial"] == 1.0
    assert m["f.self_ms_p50"] == pytest.approx(2.0)
    assert m["f.self_ms_per_trial"] == pytest.approx(2.0)
    assert m["t.self_ms_p50"] == pytest.approx(1.0)      # self: 0 ms and 2 ms
    assert m["t.self_ms_per_trial"] == pytest.approx(1.0)
    assert m["g.calls_per_trial"] == 0.0 and m["g.self_ms_p50"] == 0.0


def test_out_per_call():
    s = [Span(0, "e", 0, 1, None, None, out=1.0),
         Span(1, "e", 1, 2, None, None, out=0.0),
         Span(2, "e", 2, 3, None, None, out=0.0),
         Span(3, "x", 0, 3, None, None, out=9.0)]
    assert metrics.out_per_call(s, "e") == pytest.approx(1 / 3)
    assert metrics.out_per_call(s, "none") == 0.0


def test_quality_denominators():
    o = [
        # truth NLOS, wall detected, decided NLOS, 3 m off, 2 deg off
        TrialOutcome(True, True, 3.0, True, True, 2.0),
        # truth NLOS, wall missed, decided LOS, 4 m off
        TrialOutcome(True, False, 4.0, True, False, None),
        # surface-free LOS scene: no wall, counts in no wall denominator
        TrialOutcome(False, False, 0.5, False, False, None),
        # visible target with ghost, wall detected 4 deg off, decided NLOS
        TrialOutcome(False, True, 9.0, True, True, -4.0),
    ]
    q = metrics.quality(o)
    assert q["rmse_d_m"] == pytest.approx(math.sqrt((9 + 16) / 2))
    assert q["pr_i1_i1"] == 0.5
    assert q["surface_detect_rate"] == pytest.approx(2 / 3)
    assert q["surface_theta_rmse_deg"] == pytest.approx(math.sqrt((4 + 16) / 2))
    assert metrics.false_nlos_rate(o) == 0.5
    assert metrics.false_nlos_rate(o[:2]) == 0.0


def test_tracer_nests_and_restores():
    mod = types.ModuleType("nlosradar._bench_fake")
    calls = []

    def inner(x):
        return [x] * x

    def outer(x):
        calls.append(x)
        return len(mod.inner(x))

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    spans.LAYER_FUNCTIONS["t.outer"] = (mod.__name__, "outer", None)
    spans.LAYER_FUNCTIONS["t.inner"] = (mod.__name__, "inner", len)
    try:
        tracer = spans.Tracer(("t.outer", "t.inner"))
        with tracer.installed():
            threads = [threading.Thread(target=mod.outer, args=(n,))
                       for n in (2, 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        assert mod.outer is outer and mod.inner is inner
    finally:
        del sys.modules[mod.__name__]
        del spans.LAYER_FUNCTIONS["t.outer"], spans.LAYER_FUNCTIONS["t.inner"]
    by_id = {s.sid: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "t.inner"]
    assert sorted(s.out for s in inners) == [2, 3]
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "t.outer"
        assert parent.start <= s.start <= s.end <= parent.end
    assert sorted(calls) == [2, 3]


def test_mirror_and_polar_point():
    # the x axis mirrors y
    assert np.allclose(checks.mirror((3.0, 2.0), 0.0, 0.0), (3.0, -2.0))
    # the line y = x + 1 maps (0, 3) to (2, 1)
    assert np.allclose(checks.mirror((0.0, 3.0), 45.0, 1.0), (2.0, 1.0))
    assert np.allclose(checks.polar_point(2.0, 90.0), (2.0, 0.0))
    assert np.allclose(checks.polar_point(2.0, 0.0), (0.0, 2.0))


def test_walk_label_on_a_flat_wall():
    # wall y = 10 from x = -2 to 2; band |y - 10| <= 1, |x| <= 2 + 2.5
    est = types.SimpleNamespace(orientation_deg=0.0, intercept=10.0,
                                center_x=0.0, center_y=10.0, length=4.0)
    assert checks.walk_label(est, 1.0, (0.0, 10.5)) == "guard"
    assert checks.walk_label(est, 1.0, (0.0, 20.0)) == "nlos"
    assert checks.walk_label(est, 1.0, (4.0, 20.0)) == "nlos"  # clips the end
    assert checks.walk_label(est, 1.0, (0.0, 5.0)) == "los"
    assert checks.walk_label(est, 1.0, (20.0, 20.0)) == "los"
    assert checks.walk_label(est, 1.0, (9.0, 20.0)) == "nlos"  # (4.05, 9)
    # the ray to (10, 20) touches the band's corner (4.5, 9) and no more
    assert checks.walk_label(est, 1.0, (10.0, 20.0)) is None


def test_dft_cell_matches_fft_map_and_a_point_return():
    rng = np.random.default_rng(0)
    frame = rng.standard_normal((16, 128)) + 1j * rng.standard_normal((16, 128))
    mag = checks.magnitude_map(frame)
    for i, j in [(0, 0), (17, 256), (300, 91), (511, 511)]:
        assert abs(checks.dft_cell(frame, i, j)) == pytest.approx(mag[i, j], rel=1e-9)
    # a tone at spatial frequency 32/512 and fast-time frequency -64/512
    m = np.arange(16)[:, None]
    n = np.arange(128)[None, :]
    tone = np.exp(2j * np.pi * 32 * m / 512) * np.exp(-2j * np.pi * 64 * n / 512)
    mag = checks.magnitude_map(tone)
    assert np.unravel_index(np.argmax(mag), mag.shape) == (64, 256 + 32)
    assert mag[64, 288] == pytest.approx(16 * 128)

