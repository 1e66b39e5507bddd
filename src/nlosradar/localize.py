"""Target localization (Stage III).

Under LOS conditions the peak's polar cell is the target position.  Under
NLOS conditions the peak range is the two-bounce path half-length
R1 + R2: the surface estimate fixes R1 along the peak bearing,

    R1 = b / (cos(phi) - tan(theta) * sin(phi)),

R2 is the remainder, and the Cartesian position follows from the specular
geometry

    x = R1 sin(phi) + R2 sin(2 theta + phi)
    y = R1 cos(phi) - R2 cos(2 theta + phi).

Geometrically infeasible NLOS peaks (bearing diverging from the surface
line, a support line through or behind the radar, or a peak closer than
the surface itself) degrade to a flagged result carrying the direct polar
conversion, rather than being silently reclassified as LOS.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import Hypothesis, HypothesisDecision
from .geometry import (
    GeometryError,
    ground_truth_target,
    polar_to_xy,
    range_to_prp,
)
from .surface import SurfaceEstimate


@dataclass
class LocalizationResult:
    hypothesis: Hypothesis
    x: float
    y: float
    feasible: bool = True
    r_radar_prp: float | None = None
    r_prp_target: float | None = None
    phi_ko_deg: float | None = None

    def to_csv_row(self) -> str:
        def num(v):
            return "" if v is None else f"{v:.6f}"
        return (f"{self.hypothesis.value},{self.x:.6f},{self.y:.6f},"
                f"{num(self.r_radar_prp)},{num(self.r_prp_target)},"
                f"{num(self.phi_ko_deg)},{self.feasible}")


def localize(decision: HypothesisDecision,
             estimate: SurfaceEstimate | None = None) -> LocalizationResult:
    """Convert the Stage II decision into a Cartesian target estimate.

    I0 decisions convert the peak cell directly.  I1 decisions require a
    detected surface estimate and run the two-bounce inversion; infeasible
    geometry yields feasible=False with the polar fallback position.
    """
    if decision.hypothesis is Hypothesis.LOS:
        xy = polar_to_xy(decision.peak_range_m, decision.peak_angle_deg)
        return LocalizationResult(hypothesis=Hypothesis.LOS,
                                  x=float(xy[0]), y=float(xy[1]))

    if estimate is None or not estimate.detected:
        raise ValueError("NLOS localization requires a detected surface estimate")

    phi = decision.peak_angle_deg
    fallback = polar_to_xy(decision.peak_range_m, phi)
    try:
        r1 = range_to_prp(estimate.intercept, estimate.orientation_deg, phi)
    except GeometryError:
        return LocalizationResult(hypothesis=Hypothesis.NLOS,
                                  x=float(fallback[0]), y=float(fallback[1]),
                                  feasible=False, phi_ko_deg=phi)
    r2 = decision.peak_range_m - r1
    if r2 <= 0.0:
        return LocalizationResult(hypothesis=Hypothesis.NLOS,
                                  x=float(fallback[0]), y=float(fallback[1]),
                                  feasible=False, r_radar_prp=r1,
                                  r_prp_target=r2, phi_ko_deg=phi)

    xy = ground_truth_target(phi, r1, r2, estimate.orientation_deg)
    return LocalizationResult(hypothesis=Hypothesis.NLOS,
                              x=float(xy[0]), y=float(xy[1]),
                              feasible=True, r_radar_prp=r1, r_prp_target=r2,
                              phi_ko_deg=phi)
