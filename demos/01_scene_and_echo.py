"""Build an around-the-corner scene, synthesize its raw echo, and look at
where the returns land on the range-angle map.

The scene: an 8.8 m wall 23 m ahead, tilted 25 degrees, and a point target
hidden around it.  The target is reached only via the specular bounce off
the wall, so its return shows up at the *apparent* range R1 + R2 along the
bearing of the specular point -- several meters beyond the wall itself.
"""

import numpy as np

import nlosradar as nr

radar = nr.RadarConfig()
print(f"radar: {radar.num_rx} channels x {radar.num_samples} samples, "
      f"range bin {radar.range_bin_m} m, window {radar.max_range_m} m")

wall = nr.ReflectiveSurface(center_x=3.3, center_y=23.3, length=8.8,
                            orientation_deg=25.0)
target = nr.target_from_prp(wall, phi_ko_deg=6.3, r2=11.9)
print(f"wall support line: y = x*tan(25 deg) + {wall.intercept:.3f}")
print(f"hidden target at ({target.x:.2f}, {target.y:.2f}) m")

prp = nr.solve_prp(wall, target.xy)
print(f"specular point: bearing {prp.angle_deg:.2f} deg, "
      f"R1 = {prp.r_radar_prp:.2f} m, R2 = {prp.r_prp_target:.2f} m; "
      f"apparent range {prp.r_radar_prp + prp.r_prp_target:.2f} m")

spec = nr.ScenarioSpec(radar=radar, surface=wall, target=target,
                       snr=nr.SnrSpec(surface_snr_db=30.0, target_snr_db=55.0),
                       scene_class=nr.SceneClass.NLOS, seed=7)
echo = nr.synthesize(spec, keep_components=True)
print(f"\nraw frame: {echo.samples.shape}, components: "
      f"{sorted(echo.components)}")

ra = nr.compute_ra_map(echo.samples, radar)
i, j = np.unravel_index(np.argmax(ra.magnitude), ra.magnitude.shape)
print(f"map argmax: {ra.range_axis_m[i]:.2f} m @ {ra.angle_axis_deg[j]:.2f} "
      f"deg  (the two-bounce return, NOT the physical target position)")

# the wall ridge and the target blob, separated per component
for name in ("surface", "target"):
    comp = nr.compute_ra_map(echo.components[name], radar)
    ci, cj = np.unravel_index(np.argmax(comp.magnitude), comp.magnitude.shape)
    print(f"  {name:8s} peak: {comp.range_axis_m[ci]:6.2f} m @ "
          f"{comp.angle_axis_deg[cj]:6.2f} deg")

nr.write_echo("echo.bin", echo, radar, seed=spec.seed,
              metadata={"scene_class": spec.scene_class.value})
nr.write_magnitude_csv(ra, "ra_map.csv")
print("\nwrote echo.bin (+ echo.bin.json sidecar) and ra_map.csv")
