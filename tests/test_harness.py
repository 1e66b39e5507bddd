import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from nlosradar import (
    Hypothesis,
    PointTarget,
    RadarConfig,
    ReflectiveSurface,
    SceneClass,
    ScenarioSpec,
    SnrSpec,
    SurfaceEstimate,
    compute_ra_map,
    decide,
    detect_surface,
    localize,
    randomize_scenario,
    scenario_from_doc,
    synthesize,
)
from nlosradar import MAP_SIZE, harness, ramap, surface
from nlosradar.classify import HypothesisDecision
from nlosradar.harness import (
    PipelineOptions,
    SweepSpec,
    TrialRecord,
    _aggregate,
    identification_rate,
    reference_scene_doc,
    rmse_d,
    rows_to_csv,
    run_sweep,
    run_trial,
    sweep_delta_snr,
    sweep_identification,
    trial_seed,
)

from conftest import InlineExecutor  # noqa: E402 - shared


def test_trial_seed_split_reproducible():
    a = trial_seed(7, 2, 13)
    b = trial_seed(7, 2, 13)
    c = trial_seed(7, 2, 14)
    d = trial_seed(8, 2, 13)
    assert a == b
    assert len({a, c, d}) == 3


def test_run_trial_nlos_reference_scene():
    spec = scenario_from_doc(reference_scene_doc(30.0, 60.0)).with_seed(0)
    rec = run_trial(spec, PipelineOptions())
    assert rec.ok
    assert rec.estimate.detected
    assert rec.stage1_rung == 0
    assert rec.decision.hypothesis is Hypothesis.NLOS
    assert rec.localization.feasible
    assert rec.error_d is not None and rec.error_d < 5.0
    assert set(rec.timings_ms) == {"synthesize", "ra_map", "stage1",
                                   "stage2", "stage3"}
    assert rec.timings_ms["ra_map"] > 0


def test_run_trial_los_no_surface():
    spec = randomize_scenario(SceneClass.LOS_NO_SURFACE, 4,
                              snr=SnrSpec(30.0, 55.0))
    rec = run_trial(spec, PipelineOptions())
    assert rec.ok
    assert not rec.estimate.detected
    assert rec.stage1_rung is None
    assert rec.decision.hypothesis is Hypothesis.LOS
    assert rec.error_d < 1.0          # direct peak sits on the target


@pytest.mark.parametrize("seed, rung", [(4, 1), (2, 2)])
def test_run_trial_later_stage1_rungs_find_the_wall(seed, rung):
    """Scenes whose wall only the gated full-taper rung (1) or the raw-frame
    rung (2) detects; each rung still places the wall near its truth."""
    spec = randomize_scenario(SceneClass.NLOS, seed, preset="identification",
                              snr=SnrSpec(30.0, 50.0))
    rec = run_trial(spec, PipelineOptions())
    assert rec.ok and rec.estimate.detected
    assert rec.stage1_rung == rung
    err = rec.surface_errors
    assert abs(err["theta_deg"]) < 3.0
    assert math.hypot(err["center_x"], err["center_y"]) < 1.0


@pytest.mark.parametrize("scene, rung", [
    ("reference", 0), ("identification-4", 1), ("identification-2", 2),
    ("surface_free", None)])
def test_detect_surface_matches_run_trial(scene, rung):
    """The library's Stage I, called on a frame and its detection map,
    returns the estimate and rung that ``run_trial`` records, on a scene of
    each rung and on one where no rung detects a wall."""
    snr = SnrSpec(30.0, 50.0)
    if scene == "reference":
        spec = scenario_from_doc(reference_scene_doc(30.0, 60.0)).with_seed(0)
    elif scene == "surface_free":
        spec = randomize_scenario(SceneClass.LOS_NO_SURFACE, 4,
                                  preset="identification", snr=snr)
    else:
        seed = int(scene.split("-")[1])
        spec = randomize_scenario(SceneClass.NLOS, seed,
                                  preset="identification", snr=snr)
    rec = run_trial(spec, PipelineOptions())
    echo = synthesize(spec)
    est, got = detect_surface(echo.samples, spec.radar,
                              lambda: compute_ra_map(echo.samples, spec.radar),
                              seed=spec.seed)
    assert got == rec.stage1_rung == rung
    assert est == rec.estimate


@pytest.mark.parametrize("scene", ["reference", "surface_free"])
def test_run_trial_memory_peak(scene, monkeypatch):
    """A trial's live allocations stay under 10 MB: maps hold magnitudes
    only, so a trial never keeps a complex 512 x 512 map (4 MB each).  The
    surface-free scene climbs all three Stage I rungs, forming four maps:
    the detection map in the harness and one per rung in Stage I."""
    if scene == "reference":
        spec = scenario_from_doc(reference_scene_doc(30.0, 60.0)).with_seed(0)
        maps = 2
    else:
        spec = randomize_scenario(SceneClass.LOS_NO_SURFACE, 4,
                                  preset="identification",
                                  snr=SnrSpec(30.0, 50.0))
        maps = 4
    formed = []

    def counted(*args, **kwargs):
        formed.append(None)
        return compute_ra_map(*args, **kwargs)

    monkeypatch.setattr(harness, "compute_ra_map", counted)
    monkeypatch.setattr(surface, "compute_ra_map", counted)
    run_trial(spec, PipelineOptions())          # warm up first-call caches
    formed.clear()
    tracemalloc.start()
    try:
        rec = run_trial(spec, PipelineOptions())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.ok and len(formed) == maps
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_run_trial_largest_frame():
    # 256 samples is the largest frame point-return cancellation takes
    doc = reference_scene_doc(30.0, 60.0)
    doc["radar"] = {"num_samples": 256}
    rec = run_trial(scenario_from_doc(doc), PipelineOptions())
    assert rec.ok and rec.estimate.detected


def test_run_trial_truth_surface_noiseless():
    # Stages II and III on the true wall: the 70 dB target is decided NLOS
    # and localized through the wall's specular geometry
    spec = scenario_from_doc(reference_scene_doc(30.0, 70.0)).with_seed(1)
    estimate = SurfaceEstimate.from_truth(spec.surface)
    decision = decide(estimate,
                      compute_ra_map(synthesize(spec).samples, spec.radar))
    assert decision.hypothesis is Hypothesis.NLOS
    loc = localize(decision, estimate)
    assert loc.hypothesis is Hypothesis.NLOS and loc.feasible


def test_run_trial_captures_stage_errors(radar):
    # target beyond the unambiguous window: synthesis must fail, the record
    # must carry the error, and no exception may escape
    spec = ScenarioSpec(radar=radar, surface=None,
                        target=PointTarget(0.0, 49.0),
                        snr=SnrSpec(30.0, 50.0),
                        scene_class=SceneClass.LOS_NO_SURFACE, seed=0)
    rec = run_trial(spec, PipelineOptions())
    assert not rec.ok
    assert "OutOfWindow" in rec.error
    assert rec.localization is None


@pytest.mark.parametrize("workers", [1, 2])
def test_unexpected_stage_error_escapes_run_sweep(workers, monkeypatch):
    # only the errors a well-formed scene can raise are recorded per trial;
    # a fault in the program must reach the caller, threaded or not
    def broken(*args, **kwargs):
        raise RuntimeError("stage fault")

    monkeypatch.setattr(harness, "decide", broken)
    sweep = sweep_delta_snr(grid=(20.0,), trials_per_point=2, seed=0)
    with pytest.raises(RuntimeError, match="stage fault"):
        run_sweep(sweep, PipelineOptions(), workers=workers)


def _helper_scenes():
    """The reference scene (rung 0), the surface-free scene that forms four
    maps, and the scenes only rungs 1 and 2 detect."""
    snr = SnrSpec(30.0, 50.0)
    return [scenario_from_doc(reference_scene_doc(30.0, 60.0)).with_seed(0),
            randomize_scenario(SceneClass.LOS_NO_SURFACE, 4,
                               preset="identification", snr=snr),
            randomize_scenario(SceneClass.NLOS, 4, preset="identification",
                               snr=snr),
            randomize_scenario(SceneClass.NLOS, 2, preset="identification",
                               snr=snr)]


def test_helper_thread_map_changes_no_record(monkeypatch):
    """Forming the detection map on the helper thread, and the upper half
    of every Stage I map there too, gives the records that forming them
    inline on the calling thread gives, on scenes of rungs 0, 1, 2 and
    None."""
    specs = _helper_scenes()
    threads = []
    halves = []

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return compute_ra_map(*args, **kwargs)

    range_rows = ramap._range_rows

    def recorded_rows(spectrum, magnitude, lo, hi):
        halves.append((threading.get_ident(), lo, hi))
        range_rows(spectrum, magnitude, lo, hi)

    monkeypatch.setattr(harness, "compute_ra_map", recorded)
    monkeypatch.setattr(ramap, "_range_rows", recorded_rows)
    threaded = [run_trial(spec) for spec in specs]
    assert len(threads) == len(specs)
    assert threading.get_ident() not in threads
    # the four scenes form 1, 3, 2 and 3 Stage I maps, each in two halves
    stage1 = [(t, lo, hi) for t, lo, hi in halves if (lo, hi) != (0, MAP_SIZE)]
    assert len(stage1) == 2 * 9
    assert {(lo, hi) for _, lo, hi in stage1} == \
        {(0, MAP_SIZE // 2), (MAP_SIZE // 2, MAP_SIZE)}
    assert all(t == threading.get_ident()
               for t, lo, _ in stage1 if lo == 0)
    assert any(t != threading.get_ident() for t, _, _ in stage1)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", InlineExecutor)
    inline = [run_trial(spec) for spec in specs]
    assert [r.stage1_rung for r in inline] == [0, None, 1, 2]
    assert [_comparable(r) for r in threaded] == \
        [_comparable(r) for r in inline]


@pytest.mark.parametrize("where", ["detection map", "cancellation",
                                   "helper half"])
def test_fault_on_either_thread_escapes_with_its_type(where, monkeypatch):
    """A fault in the map formed on the helper thread, in Stage I on the
    calling thread, or in the half of a Stage I map the helper forms,
    reaches the caller of ``run_trial`` and of ``run_sweep`` (serial and
    threaded) as itself, and no helper thread outlives the trial, whether
    it returns or raises."""
    class Fault(RuntimeError):
        pass

    def broken(*args, **kwargs):
        raise Fault(where)

    range_rows = ramap._range_rows

    def broken_upper_half(spectrum, magnitude, lo, hi):
        if lo == MAP_SIZE // 2:
            raise Fault(where)
        range_rows(spectrum, magnitude, lo, hi)

    spec = scenario_from_doc(reference_scene_doc(30.0, 60.0)).with_seed(0)
    baseline = threading.active_count()
    run_trial(spec)
    assert threading.active_count() == baseline
    if where == "detection map":
        monkeypatch.setattr(harness, "compute_ra_map", broken)
    elif where == "cancellation":
        monkeypatch.setattr(surface, "suppress_point_returns", broken)
    else:
        monkeypatch.setattr(ramap, "_range_rows", broken_upper_half)
    with pytest.raises(Fault, match=where):
        run_trial(spec)
    assert threading.active_count() == baseline
    sweep = sweep_delta_snr(grid=(20.0,), trials_per_point=2, seed=0)
    for workers in (1, 2):
        with pytest.raises(Fault, match=where):
            run_sweep(sweep, PipelineOptions(), workers=workers)
    assert threading.active_count() == baseline


def test_rmse_identity_against_stored_errors():
    spec0 = scenario_from_doc(reference_scene_doc(30.0, 60.0))
    records = [run_trial(spec0.with_seed(s), PipelineOptions())
               for s in range(8)]
    agg = rmse_d(records)
    manual = math.sqrt(np.mean([r.error_d**2 for r in records
                                if r.ok and r.error_d is not None]))
    assert agg == pytest.approx(manual, rel=1e-12)


def test_identification_rate():
    spec0 = scenario_from_doc(reference_scene_doc(30.0, 65.0))
    records = [run_trial(spec0.with_seed(s), PipelineOptions())
               for s in range(6)]
    rate = identification_rate(records)
    manual = np.mean([r.decision.hypothesis is Hypothesis.NLOS
                      for r in records if r.ok])
    assert rate == pytest.approx(manual)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(name="x", swept="nope", grid=(1.0,), trials_per_point=1,
                  base_scene={})
    with pytest.raises(ValueError):
        SweepSpec(name="x", swept="delta_snr", grid=(), trials_per_point=1,
                  base_scene={})
    with pytest.raises(ValueError):
        SweepSpec(name="x", swept="delta_snr", grid=(1.0,), trials_per_point=0,
                  base_scene={})
    with pytest.raises(ValueError):
        SweepSpec(name="x", swept="delta_snr", grid=(1.0,), trials_per_point=1,
                  base_scene={}, mode="other")
    # an identification sweep randomizes geometry and sweeps only delta_snr
    for swept in ("theta_w", "sigma_x"):
        with pytest.raises(ValueError, match="'mode'.*'swept'"):
            SweepSpec(name="x", swept=swept, grid=(5.0, 45.0),
                      trials_per_point=1, base_scene={}, mode="identification")
    # a list grid (as a JSON spec gives it) is kept as a tuple; numpy
    # numbers are numbers
    sweep = SweepSpec(name="x", swept="delta_snr", grid=[1, np.float64(2.5)],
                      trials_per_point=np.int64(2), base_scene={},
                      seed=np.int32(3))
    assert sweep.grid == (1, 2.5) and type(sweep.grid) is tuple


@pytest.mark.parametrize("key, value", [
    ("guard_m", -1.0), ("guard_m", math.nan), ("guard_m", math.inf),
    ("min_length", 0.0), ("min_length", -2.0), ("min_length", math.nan),
    ("ghost_suppression_db", math.inf), ("ghost_suppression_db", math.nan)])
def test_pipeline_options_refuse_a_value_naming_it(key, value):
    """A negative or NaN guard band once ran to a wrong decision."""
    with pytest.raises(ValueError, match=repr(key)):
        PipelineOptions(**{key: value})
    PipelineOptions(guard_m=0.0, ghost_suppression_db=-20.0)


@pytest.mark.parametrize("key, value", [
    ("grid", 5), ("grid", ["a"]), ("grid", [True]), ("grid", "12"),
    ("grid", {1.0: 2.0}), ("trials_per_point", 2.5),
    ("trials_per_point", "2"), ("trials_per_point", True), ("seed", "x"),
    ("seed", 1.5), ("seed", None), ("base_scene", 5), ("base_scene", []),
    ("grid", [float("nan")]), ("grid", [float("inf")]), ("seed", -1),
    ("trials_per_point", -2), ("swept", ["delta_snr"]), ("mode", None)])
def test_sweep_spec_rejects_wrongly_typed_values(key, value):
    """The library rejects a wrongly typed grid, trial count, seed or base
    scene with a ValueError naming the field, as the CLI does for a spec
    file."""
    kwargs = {"name": "x", "swept": "delta_snr", "grid": (1.0,),
              "trials_per_point": 1, "base_scene": {}, "seed": 0}
    kwargs[key] = value
    with pytest.raises(ValueError, match=repr(key)):
        SweepSpec(**kwargs)


@pytest.mark.parametrize("mode, swept, base_scene, message", [
    ("fixed", "theta_w", {"snr": {}}, "'base_scene' has no 'surface'"),
    ("fixed", "delta_snr", {"target": {"x": 0.0, "y": 9.0}},
     "'base_scene' has no 'snr'"),
    ("fixed", "delta_snr", {"snr": {"surface_db": "30"}}, "'surface_db'"),
    ("fixed", "d_w", {"surface": {"x": 2.0, "length": 8.0}},
     "missing key 'y', missing key 'theta_deg'"),
    ("identification", "delta_snr", {"surface": {"sigma_x": -0.1}},
     "irregularity sigma must be non-negative"),
    ("identification", "delta_snr", {"surface": {"sigma": 0.1}},
     "unknown key 'sigma'")])
def test_run_sweep_rejects_a_malformed_base_scene(mode, swept, base_scene,
                                                  message):
    """A base scene that lacks the swept section, or holds a value the
    scene reader refuses, is a ValueError naming the grid value and the
    key, raised before any trial runs."""
    sweep = SweepSpec(name="x", swept=swept, grid=(7.0,), trials_per_point=1,
                      base_scene=base_scene, mode=mode)
    with pytest.raises(ValueError, match="'grid' value 7.0: .*" + message):
        run_sweep(sweep)


def test_run_sweep_names_a_grid_value_the_scene_cannot_take():
    sweep = sweep_delta_snr(grid=(20.0, 1e308), trials_per_point=1)
    with pytest.raises(ValueError, match="'grid' value 1e[+]308: .*300 dB"):
        run_sweep(sweep)


def test_identification_sweep_reads_a_partial_surface():
    """An identification base scene may carry only the wall roughness."""
    sweep = sweep_identification(grid=(20.0,), trials_per_point=2, seed=3)
    _, (plain,) = run_sweep(sweep, keep_records=True)
    _, (rough,) = run_sweep(dataclasses.replace(sweep, base_scene={
        **sweep.base_scene, "surface": {"sigma_x": 0.2}}), keep_records=True)
    assert [r.truth_surface for r in rough] == [r.truth_surface for r in plain]
    assert [_comparable(r) for r in rough] != [_comparable(r) for r in plain]


def _comparable(record):
    return dataclasses.replace(record, timings_ms={})


def test_run_sweep_fixed_mode_rows():
    sweep = sweep_delta_snr(grid=(20.0, 40.0), trials_per_point=3, seed=5)
    rows, recs = run_sweep(sweep, PipelineOptions(), keep_records=True)
    assert [r["value"] for r in rows] == [20.0, 40.0]
    assert all(r["trials"] == 3 for r in rows)
    assert all(r["failures"] == 0 for r in rows)
    assert all(np.isfinite(r["rmse_d"]) for r in rows)
    assert len(recs) == 2 and len(recs[0]) == 3
    # swept variable applied: target SNR = surface + value
    for rec, target_db in zip((recs[0][0], recs[1][0]), (50.0, 70.0)):
        spec = scenario_from_doc(reference_scene_doc(30.0, target_db))
        assert _comparable(run_trial(spec.with_seed(rec.seed))) \
            == _comparable(rec)


def test_run_sweep_identification_mode_rows():
    sweep = sweep_identification(grid=(30.0,), trials_per_point=4, seed=2)
    rows, recs = run_sweep(sweep, PipelineOptions(), keep_records=True)
    assert len(recs[0]) == 8          # truth-NLOS plus truth-LOS ensembles
    classes = {r.scene_class for r in recs[0]}
    assert SceneClass.NLOS in classes
    assert classes & {SceneClass.LOS_NO_SURFACE, SceneClass.LOS_SURFACE_MP}
    assert 0.0 <= rows[0]["pr_i1_i1"] <= 1.0
    assert 0.0 <= rows[0]["pr_i1_i0"] <= 1.0


def test_sweep_csv_deterministic_and_worker_independent():
    sweep = sweep_delta_snr(grid=(25.0, 35.0), trials_per_point=4, seed=9)
    rows_a, _ = run_sweep(sweep, PipelineOptions(), workers=1)
    rows_b, _ = run_sweep(sweep, PipelineOptions(), workers=1)
    rows_c, _ = run_sweep(sweep, PipelineOptions(), workers=3)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_c)


def test_sweep_other_variables_modify_scene():
    base = reference_scene_doc()
    for swept, field, value in (("theta_w", "theta_deg", 35.0),
                                ("d_w", "length", 5.0),
                                ("sigma_x", "sigma_x", 0.2)):
        sweep = SweepSpec(name="t", swept=swept, grid=(value,),
                          trials_per_point=1, base_scene=base)
        _, recs = run_sweep(sweep, PipelineOptions(), keep_records=True)
        rec = recs[0][0]
        if field == "theta_deg":
            assert rec.truth_surface[3] == pytest.approx(value)
        elif field == "length":
            assert rec.truth_surface[2] == pytest.approx(value)
        else:
            assert rec.ok     # roughness only perturbs synthesis


def test_snr_w_sweep_sets_surface_level():
    sweep = SweepSpec(name="t", swept="snr_w", grid=(22.0,),
                      trials_per_point=1, base_scene=reference_scene_doc())
    _, recs = run_sweep(sweep, PipelineOptions(), keep_records=True)
    rec = recs[0][0]
    spec = scenario_from_doc(reference_scene_doc(22.0, 50.0))
    assert _comparable(run_trial(spec.with_seed(rec.seed))) == _comparable(rec)


def _hand_record(scene_class, walled, detected, error_xy, decided_nlos):
    surface = (2.0, 18.0, 8.0, 25.0) if walled else None
    est = (SurfaceEstimate.from_truth(ReflectiveSurface(2.0, 18.0, 8.0, 25.0))
           if detected else SurfaceEstimate.not_detected())
    hyp = Hypothesis.NLOS if decided_nlos else Hypothesis.LOS
    ex, ey = error_xy
    return TrialRecord(
        scene_class=scene_class, seed=0, truth_target=(0.0, 30.0),
        truth_surface=surface,
        estimate=est, decision=HypothesisDecision(hyp, 0.0, 30.0, 1.0, 320, 256),
        error_x=ex, error_y=ey, error_d=math.hypot(ex, ey))


def test_aggregate_identification_bases():
    records = [
        _hand_record(SceneClass.NLOS, True, True, (3.0, 4.0), True),
        _hand_record(SceneClass.NLOS, True, False, (0.0, 2.0), False),
        _hand_record(SceneClass.LOS_NO_SURFACE, False, False, (10.0, 10.0), False),
        _hand_record(SceneClass.LOS_SURFACE_MP, True, True, (6.0, 8.0), True),
        TrialRecord(scene_class=SceneClass.NLOS, seed=1,
                    truth_target=(0.0, 30.0),
                    truth_surface=(2.0, 18.0, 8.0, 25.0), error="ValueError: x"),
    ]
    row = _aggregate(20.0, records)
    assert (row["trials"], row["failures"]) == (5, 1)
    # detection over the three scenes that have a wall, not all four
    assert row["detect_rate"] == pytest.approx(2 / 3)
    # every position error over the same truth-NLOS trials
    assert row["rmse_x"] == pytest.approx(math.sqrt((9.0 + 0.0) / 2))
    assert row["rmse_y"] == pytest.approx(math.sqrt((16.0 + 4.0) / 2))
    assert row["rmse_d"] == pytest.approx(math.sqrt((25.0 + 4.0) / 2))
    assert math.hypot(row["rmse_x"], row["rmse_y"]) == pytest.approx(row["rmse_d"])
    assert row["pr_i1_i1"] == pytest.approx(0.5)
    assert row["pr_i1_i0"] == pytest.approx(0.5)


def test_aggregate_wall_free_point_has_no_detect_rate():
    rec = _hand_record(SceneClass.LOS_NO_SURFACE, False, False, (1.0, 1.0), False)
    assert math.isnan(_aggregate(0.0, [rec])["detect_rate"])


def test_threaded_sweep_leaves_warning_filters_alone():
    """Concurrent trials must not touch the process-wide warnings filters:
    a save-and-restore of that list in one thread can reinstate a filter
    another thread set meanwhile.  More threads than cores and a frequent
    thread switch provoke it; four threaded runs of 16 trials take seconds."""
    options = PipelineOptions()
    sweep = sweep_identification(grid=(20.0,), trials_per_point=8, seed=0)

    def comparable(by_point):
        return [_comparable(r) for p in by_point for r in p]

    expected = comparable(run_sweep(sweep, options, keep_records=True)[1])
    with warnings.catch_warnings():
        before = list(warnings.filters)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                _, threaded = run_sweep(sweep, options, workers=8,
                                        keep_records=True)
                assert warnings.filters == before
                assert comparable(threaded) == expected
        finally:
            sys.setswitchinterval(interval)
