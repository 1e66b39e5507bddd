"""Around-the-corner automotive radar toolkit.

Synthesizes multipath receiver echoes for planar scenes with a single
reflective surface, forms calibrated range-angle maps, and runs the
three-stage localization pipeline (surface estimation, LOS/NLOS
identification, target localization) together with a reproducible Monte
Carlo experiment harness.
"""

from .classify import (
    FovMasks,
    Hypothesis,
    HypothesisDecision,
    build_masks,
    decide,
    write_masks_pgm,
)
from .echo import (
    OutOfWindowError,
    RadarEcho,
    ScatterDraw,
    amplitude_for_snr,
    calibrate_noise,
    read_echo,
    scattering_gain,
    steering_vector,
    synthesize,
    synthesize_direct_echo,
    synthesize_surface_echo,
    synthesize_target_echo,
    write_echo,
)
from .geometry import (
    SPEED_OF_LIGHT,
    GeometryError,
    OutsideFovError,
    PointTarget,
    PrpSolution,
    RadarConfig,
    ReflectiveSurface,
    SurfacePointSet,
    discretize_surface,
    effective_reflectors,
    ground_truth_target,
    mirror_across_surface,
    occludes,
    polar_to_xy,
    range_to_prp,
    solve_prp,
    xy_to_polar,
)
from .harness import (
    PipelineOptions,
    SweepSpec,
    TrialRecord,
    identification_rate,
    reference_scene_doc,
    rmse_d,
    run_sweep,
    run_trial,
    sweep_delta_snr,
    sweep_identification,
    sweep_irregularity,
    sweep_surface_angle,
    sweep_surface_length,
    trial_seed,
    write_sweep_csv,
)
from .localize import LocalizationResult, localize
from .ramap import (
    MAP_SIZE,
    Peak,
    RangeAngleMap,
    compute_ra_map,
    extract_peaks,
    refine_peak_quadratic,
    write_magnitude_csv,
    write_map_binary,
)
from .scenario import (
    IDENTIFICATION_PRESET,
    TRAINING_PRESET,
    SceneClass,
    ScenarioSpec,
    SnrSpec,
    apparent_position,
    load_scenario,
    randomize_scenario,
    save_scenario,
    scenario_from_doc,
    target_from_prp,
    validate_scenario,
)
from .surface import (
    FitError,
    NoConsensusError,
    SurfaceEstimate,
    detect_surface,
    estimate_surface,
    fit_ls,
    fit_ransac,
)

__version__ = "0.1.0"
