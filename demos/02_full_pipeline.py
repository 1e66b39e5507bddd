"""Walk one scene through the full three-stage pipeline, stage by stage.

Stage I fits the reflective surface to the strongest map peaks, Stage II
splits the field of view into visible/occluded regions and decides
LOS (I0) versus NLOS (I1) from the masked argmax, and Stage III inverts
the two-bounce geometry into a Cartesian target estimate.
"""

import numpy as np

import nlosradar as nr
from nlosradar.harness import PipelineOptions, run_trial

radar = nr.RadarConfig()
wall = nr.ReflectiveSurface(center_x=2.0, center_y=18.0, length=8.0,
                            orientation_deg=25.0)
target = nr.target_from_prp(wall, phi_ko_deg=6.3, r2=11.9)
spec = nr.ScenarioSpec(radar=radar, surface=wall, target=target,
                       snr=nr.SnrSpec(30.0, 60.0),
                       scene_class=nr.SceneClass.NLOS, seed=1)

# --- the stages, spelled out -------------------------------------------
echo = nr.synthesize(spec)
ra = nr.compute_ra_map(echo, radar)

# the target return is 30 dB above the wall here; cancel the dominant
# point returns before hunting for the wall ridge, and taper the channel
# axis so angle sidelobes do not masquerade as wall cells
from nlosradar.echo import suppress_point_returns

cleaned = suppress_point_returns(echo.samples, radar, max_components=8)
stage1_map = nr.compute_ra_map(cleaned, radar, window="hann")
est = nr.estimate_surface(stage1_map, k=22)
print("Stage I  :", "detected" if est.detected else "no surface")
if est.detected:
    print(f"           theta = {est.orientation_deg:.2f} deg (truth 25), "
          f"center = ({est.center_x:.2f}, {est.center_y:.2f}) (truth (2, 18)),"
          f" length = {est.length:.2f} m (truth 8), "
          f"{est.inlier_count} inliers")

dec = nr.decide(est, ra, guard_m=1.0)
print(f"Stage II : {dec.hypothesis.value} "
      f"({'occluded region' if dec.hypothesis is nr.Hypothesis.NLOS else 'visible region'}), "
      f"peak at {dec.peak_range_m:.2f} m @ {dec.peak_angle_deg:.2f} deg")

res = nr.localize(dec, est)
err = np.hypot(res.x - target.x, res.y - target.y)
print(f"Stage III: target at ({res.x:.2f}, {res.y:.2f}) m, "
      f"truth ({target.x:.2f}, {target.y:.2f}), error {err:.2f} m")
if res.r_radar_prp is not None:
    print(f"           path split: R1 = {res.r_radar_prp:.2f} m, "
          f"R2 = {res.r_prp_target:.2f} m")

# --- same thing through the harness, with bookkeeping ------------------
rec = run_trial(spec, PipelineOptions())
print(f"\nharness record: hypothesis {rec.decision.hypothesis.value}, "
      f"error {rec.error_d:.2f} m, stage timings "
      f"{ {k: round(v, 1) for k, v in rec.timings_ms.items()} } ms")

# export the region masks for a look (0 excluded / 128 LOS / 255 NLOS)
masks = nr.build_masks(est, ra, guard_m=1.0)
nr.write_masks_pgm(masks, "masks.pgm")
print("wrote masks.pgm")
