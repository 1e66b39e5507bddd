"""Monte Carlo harness: trial pipeline, metrics and experiment sweeps.

A trial runs the full chain synthesize -> range-angle map -> surface
estimate -> hypothesis decision -> localization and records every stage
product together with per-parameter errors.  Sweeps evaluate a grid of one
scene variable with a fixed number of seeded trials per grid point and
aggregate localization RMSE and identification probabilities.

Seeding: a master seed is split counter-style over (grid point, trial)
via numpy SeedSequence spawn keys, so any single trial can be reproduced
in isolation and results are independent of execution order and worker
count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classify import Hypothesis, HypothesisDecision, decide
from .echo import OutOfWindowError, synthesize
from .geometry import GeometryError, ReflectiveSurface
from .localize import LocalizationResult, localize
from .ramap import compute_ra_map
from .scenario import (
    SceneClass,
    ScenarioSpec,
    SnrSpec,
    build_section,
    randomize_scenario,
    read_section,
    read_value,
    scenario_from_doc,
)
from .surface import SurfaceEstimate, detect_surface


@dataclass(frozen=True)
class PipelineOptions:
    """Knobs of the three-stage pipeline shared by all trials."""

    guard_m: float = 1.0
    min_length: float = 1.0
    ghost_suppression_db: float = 15.0


def default_k(spec: ScenarioSpec) -> int:
    """``run_trial``'s Stage I peak budget: the range cells the true wall
    occupies (6 to 64), or 35 without a wall.  Reading the true length, the
    harness's Stage I is not yet free of prior scene knowledge."""
    if spec.surface is None:
        return 35
    k = math.ceil(spec.surface.length / spec.radar.range_bin_m)
    return int(min(max(k, 6), 64))


@dataclass
class TrialRecord:
    scene_class: SceneClass
    seed: int
    truth_target: tuple[float, float] | None
    truth_surface: tuple[float, float, float, float] | None  # x, y, D, theta
    estimate: SurfaceEstimate | None = None
    stage1_rung: int | None = None      # ladder rung that detected the wall
    decision: HypothesisDecision | None = None
    localization: LocalizationResult | None = None
    error_x: float | None = None
    error_y: float | None = None
    error_d: float | None = None
    surface_errors: dict | None = None
    timings_ms: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def decided_nlos(self) -> bool | None:
        if self.decision is None:
            return None
        return self.decision.hypothesis is Hypothesis.NLOS


def _timed(fn, *args):
    """``fn(*args)`` and its wall time in ms, timed on the calling thread."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, 1e3 * (time.perf_counter() - t0)


def run_trial(spec: ScenarioSpec, options: PipelineOptions = PipelineOptions()) -> TrialRecord:
    """Run the full pipeline on one scenario.

    The detection map is formed on a helper thread while Stage I, which
    needs it only for its second rung, runs on the calling thread, and each
    Stage I map then forms half its rows on the same helper, queued behind
    the detection map; the helper belongs to this call and is joined before
    it returns or raises.  ``timings_ms["ra_map"]`` is the detection map's
    own time on the helper.

    A ``GeometryError`` or ``OutOfWindowError``, which a well-formed scene
    can raise, is recorded in the trial record and does not abort the
    caller's batch; any other exception is a fault and propagates.
    """
    record = TrialRecord(
        scene_class=spec.scene_class, seed=spec.seed,
        truth_target=(spec.target.x, spec.target.y) if spec.target else None,
        truth_surface=(spec.surface.center_x, spec.surface.center_y,
                       spec.surface.length, spec.surface.orientation_deg)
        if spec.surface else None,
    )
    try:
        t0 = time.perf_counter()
        echo = synthesize(spec,
                          ghost_suppression_db=options.ghost_suppression_db)
        t1 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=1) as helper:
            detection = helper.submit(_timed, compute_ra_map, echo, spec.radar)
            estimate, record.stage1_rung = detect_surface(
                echo.samples, spec.radar, default_k(spec),
                lambda: detection.result()[0], seed=spec.seed,
                min_length=options.min_length, helper=helper)
            t2 = time.perf_counter()
            ra_map, map_ms = detection.result()
        t3 = time.perf_counter()
        decision = decide(estimate, ra_map, guard_m=options.guard_m)
        t4 = time.perf_counter()
        loc = localize(decision, estimate)
        t5 = time.perf_counter()

        record.estimate = estimate
        record.decision = decision
        record.localization = loc
        record.timings_ms = {
            "synthesize": 1e3 * (t1 - t0), "ra_map": map_ms,
            "stage1": 1e3 * (t2 - t1), "stage2": 1e3 * (t4 - t3),
            "stage3": 1e3 * (t5 - t4),
        }
        if spec.target is not None:
            record.error_x = loc.x - spec.target.x
            record.error_y = loc.y - spec.target.y
            record.error_d = math.hypot(record.error_x, record.error_y)
        if spec.surface is not None and estimate.detected:
            record.surface_errors = {
                "center_x": estimate.center_x - spec.surface.center_x,
                "center_y": estimate.center_y - spec.surface.center_y,
                "length": estimate.length - spec.surface.length,
                "theta_deg": estimate.orientation_deg
                - spec.surface.orientation_deg,
            }
    except (GeometryError, OutOfWindowError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def rmse(values) -> float:
    arr = np.asarray(list(values), dtype=float)
    return float(np.sqrt(np.mean(arr**2))) if arr.size else float("nan")


def rmse_d(records: list[TrialRecord]) -> float:
    """Euclidean localization RMSE over the trials that produced an estimate."""
    return rmse(r.error_d for r in records if r.ok and r.error_d is not None)


def rmse_d_standard_error(records: list[TrialRecord]) -> float:
    """Delta-method standard error of the Euclidean RMSE."""
    sq = np.asarray([r.error_d**2 for r in records
                     if r.ok and r.error_d is not None])
    if sq.size < 2:
        return float("nan")
    mean_sq = float(np.mean(sq))
    if mean_sq == 0.0:
        return 0.0
    se_mean = float(np.std(sq, ddof=1)) / math.sqrt(sq.size)
    return se_mean / (2.0 * math.sqrt(mean_sq))


def identification_rate(records: list[TrialRecord]) -> float:
    """Fraction of decided-NLOS outcomes among completed trials."""
    flags = [r.decided_nlos for r in records if r.ok and r.decided_nlos is not None]
    return float(np.mean(flags)) if flags else float("nan")


# ---------------------------------------------------------------------------
# sweeps

# each swept variable's (section, key) in the scene document
SWEPT_VARIABLES = {"delta_snr": ("snr", "target_db"), "snr_w": ("snr", "surface_db"),
                   "theta_w": ("surface", "theta_deg"), "d_w": ("surface", "length"),
                   "sigma_x": ("surface", "sigma_x")}


@dataclass(frozen=True)
class SweepSpec:
    """One experiment family: a grid over one scene variable.

    mode "fixed" reruns a fixed base scene (seeded draws and noise vary per
    trial); mode "identification" randomizes scene geometry per trial from
    the identification preset and runs matched truth-NLOS and truth-LOS
    ensembles to estimate Pr(I1|I1) and Pr(I1|I0), and sweeps only
    delta_snr.  ``grid`` is a non-empty list or tuple of finite numbers,
    kept as a tuple of floats; ``trials_per_point`` (at least 1) and
    ``seed`` are non-negative integers; ``base_scene`` is a scene document.
    """

    name: str
    swept: str
    grid: tuple
    trials_per_point: int
    base_scene: dict
    mode: str = "fixed"
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.swept, str) or self.swept not in SWEPT_VARIABLES:
            raise ValueError(f"'swept' must be one of {tuple(SWEPT_VARIABLES)}, "
                             f"not {self.swept!r}")
        if self.mode not in ("fixed", "identification"):
            raise ValueError("'mode' must be 'fixed' or 'identification', "
                             f"not {self.mode!r}")
        if self.mode == "identification" and self.swept != "delta_snr":
            raise ValueError("an identification sweep ('mode') takes 'swept' "
                             f"= 'delta_snr', not {self.swept!r}")
        if not (isinstance(self.grid, (list, tuple)) and self.grid):
            raise ValueError(f"'grid' must be a non-empty list, not {self.grid!r}")
        object.__setattr__(self, "grid", tuple(
            read_value("sweep", "grid", v) for v in self.grid))
        for key in ("trials_per_point", "seed", "base_scene"):
            object.__setattr__(self, key,
                               read_value("sweep", key, getattr(self, key)))
        if self.trials_per_point < 1:
            raise ValueError("'trials_per_point' must be at least 1")


def trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    """Counter-style split: any (point, trial) is reproducible in isolation."""
    ss = np.random.SeedSequence(master_seed,
                                spawn_key=(point_index, trial_index))
    return int(ss.generate_state(1)[0])


def _apply_swept(doc: dict, swept: str, value: float) -> dict:
    section, key = SWEPT_VARIABLES[swept]
    if section not in doc:
        raise ValueError(f"'base_scene' has no {section!r} to sweep {swept!r} in")
    if swept == "delta_snr":
        value += build_section(doc, "snr").surface_snr_db
    return {**doc, section: {**read_section(doc, section, partial=True),
                             key: value}}


def _fixed_point_specs(sweep: SweepSpec, point_index: int,
                       value: float) -> list[ScenarioSpec]:
    base = scenario_from_doc(_apply_swept(sweep.base_scene, sweep.swept, value))
    return [base.with_seed(trial_seed(sweep.seed, point_index, j))
            for j in range(sweep.trials_per_point)]


def _identification_point_specs(sweep: SweepSpec, point_index: int,
                                value: float) -> list[ScenarioSpec]:
    doc = sweep.base_scene
    snr_w = build_section(doc, "snr").surface_snr_db
    snr = SnrSpec(surface_snr_db=snr_w, target_snr_db=snr_w + value)
    sigma_x = read_section(doc, "surface", partial=True).get(
        "sigma_x", ReflectiveSurface.irregularity_sigma)
    # a truth-NLOS ensemble, then a truth-LOS one alternating its two classes
    n = sweep.trials_per_point
    classes = [SceneClass.NLOS] * n + [
        SceneClass.LOS_SURFACE_MP if j % 2 else SceneClass.LOS_NO_SURFACE
        for j in range(n)]
    return [randomize_scenario(cls, trial_seed(sweep.seed, point_index, j),
                               preset="identification", snr=snr, sigma_x=sigma_x)
            for j, cls in enumerate(classes)]


CSV_COLUMNS = ("value", "trials", "failures", "rmse_d", "se_rmse_d",
               "rmse_x", "rmse_y", "pr_i1_i1", "pr_i1_i0", "detect_rate",
               "rmse_surface_theta_deg", "rmse_surface_center_m",
               "rmse_surface_length_m")


def _aggregate(value: float, records: list[TrialRecord]) -> dict:
    ok = [r for r in records if r.ok]
    truth_nlos = [r for r in ok if r.scene_class is SceneClass.NLOS]
    truth_los = [r for r in ok if r.scene_class is not SceneClass.NLOS]
    located = truth_nlos if truth_nlos else ok      # basis of every position error
    walled = [r.estimate.detected for r in ok
              if r.truth_surface is not None and r.estimate is not None]
    row: dict = {
        "value": value,
        "trials": len(records),
        "failures": len(records) - len(ok),
        "rmse_d": rmse_d(located),
        "se_rmse_d": rmse_d_standard_error(located),
        "rmse_x": rmse(r.error_x for r in located if r.error_x is not None),
        "rmse_y": rmse(r.error_y for r in located if r.error_y is not None),
        "pr_i1_i1": identification_rate(truth_nlos),
        "pr_i1_i0": identification_rate(truth_los),
        "detect_rate": float(np.mean(walled)) if walled else float("nan"),
    }
    surf = [r.surface_errors for r in ok if r.surface_errors is not None]
    row["rmse_surface_theta_deg"] = rmse(s["theta_deg"] for s in surf)
    row["rmse_surface_center_m"] = rmse(
        math.hypot(s["center_x"], s["center_y"]) for s in surf)
    row["rmse_surface_length_m"] = rmse(s["length"] for s in surf)
    return row


def run_sweep(sweep: SweepSpec, options: PipelineOptions = PipelineOptions(),
              workers: int = 1, keep_records: bool = False):
    """Run every grid point and aggregate per-point metrics.

    Returns (rows, records_by_point); the latter is populated only when
    ``keep_records`` is true.  Output is identical for any worker count:
    trials are aggregated in (point, trial) index order after execution.
    ``workers`` trials run at once, each on up to two threads (see
    ``run_trial``).
    """
    tasks: list[tuple[int, ScenarioSpec]] = []
    point_specs = _fixed_point_specs if sweep.mode == "fixed" \
        else _identification_point_specs
    for i, value in enumerate(sweep.grid):
        try:
            tasks.extend((i, s) for s in point_specs(sweep, i, value))
        except ValueError as exc:
            raise ValueError(f"sweep 'grid' value {value!r}: {exc}") from None

    if workers <= 1:
        records = [run_trial(spec, options) for _, spec in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda t: run_trial(t[1], options), tasks))

    by_point: list[list[TrialRecord]] = [[] for _ in sweep.grid]
    for (i, _), rec in zip(tasks, records):
        by_point[i].append(rec)
    rows = [_aggregate(value, point)
            for value, point in zip(sweep.grid, by_point)]
    return rows, (by_point if keep_records else [])


def _fmt(v) -> str:
    if v is None or isinstance(v, float) and math.isnan(v):
        return ""
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(rows_to_csv(rows))


# ---------------------------------------------------------------------------
# canonical experiment families


def reference_scene_doc(snr_surface_db: float = 30.0,
                        snr_target_db: float = 50.0) -> dict:
    """The common evaluation scene: an 8 m wall at (2, 18) tilted 25 degrees,
    target anchored 11.9 m beyond the specular point at bearing 6.3 degrees."""
    return {
        "surface": {"x": 2.0, "y": 18.0, "length": 8.0, "theta_deg": 25.0,
                    "lambda": 0.846, "psi": 14.0, "sigma_x": 0.0},
        "target": {"phi_ko_deg": 6.3, "r2": 11.9},
        "snr": {"surface_db": snr_surface_db, "target_db": snr_target_db},
        "scene_class": "nlos",
    }


def sweep_delta_snr(grid=(10.0, 20.0, 30.0, 40.0), trials_per_point: int = 200,
                    snr_surface_db: float = 30.0, seed: int = 0) -> SweepSpec:
    """Localization RMSE versus target-minus-surface SNR on the fixed scene."""
    return SweepSpec(name="delta_snr", swept="delta_snr", grid=tuple(grid),
                     trials_per_point=trials_per_point,
                     base_scene=reference_scene_doc(snr_surface_db), seed=seed)


def sweep_identification(grid=(0.0, 10.0, 20.0, 30.0, 40.0),
                         trials_per_point: int = 200,
                         snr_surface_db: float = 30.0, seed: int = 0) -> SweepSpec:
    """Pr(I1|I1) and Pr(I1|I0) versus differential SNR on randomized scenes."""
    return SweepSpec(name="identification", swept="delta_snr", grid=tuple(grid),
                     trials_per_point=trials_per_point,
                     base_scene={"snr": {"surface_db": snr_surface_db,
                                         "target_db": snr_surface_db}},
                     mode="identification", seed=seed)


def sweep_irregularity(grid=(0.0, 0.1, 0.2, 0.3), trials_per_point: int = 200,
                       snr_target_db: float = 55.0, seed: int = 0) -> SweepSpec:
    """Localization RMSE versus wall roughness on the fixed scene."""
    return SweepSpec(name="irregularity", swept="sigma_x", grid=tuple(grid),
                     trials_per_point=trials_per_point,
                     base_scene=reference_scene_doc(30.0, snr_target_db),
                     seed=seed)


def sweep_surface_angle(grid=(5.0, 15.0, 25.0, 35.0, 45.0),
                        trials_per_point: int = 200,
                        snr_target_db: float = 50.0, seed: int = 0) -> SweepSpec:
    """Localization RMSE versus wall orientation on the fixed scene."""
    doc = reference_scene_doc(30.0, snr_target_db)
    doc["target"] = {"phi_ko_deg": 9.46, "r2": 11.89}
    return SweepSpec(name="surface_angle", swept="theta_w", grid=tuple(grid),
                     trials_per_point=trials_per_point, base_scene=doc, seed=seed)


def sweep_surface_length(grid=(1.0, 3.0, 5.0, 7.0, 9.0, 11.0),
                         trials_per_point: int = 200,
                         snr_target_db: float = 50.0, seed: int = 0) -> SweepSpec:
    """Localization RMSE versus wall length on the fixed scene."""
    doc = reference_scene_doc(30.0, snr_target_db)
    doc["target"] = {"phi_ko_deg": 9.46, "r2": 11.89}
    return SweepSpec(name="surface_length", swept="d_w", grid=tuple(grid),
                     trials_per_point=trials_per_point, base_scene=doc, seed=seed)


SWEEP_FAMILIES = {
    "delta_snr": sweep_delta_snr,
    "identification": sweep_identification,
    "irregularity": sweep_irregularity,
    "surface_angle": sweep_surface_angle,
    "surface_length": sweep_surface_length,
}
