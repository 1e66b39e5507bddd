"""Arithmetic of the benchmark: percentiles, RMSE, shares, span self time,
and the quality and per-layer figures built from them.

Pure Python on plain values, so that ``test_metrics.py`` can check every
formula on hand-made inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating linearly between
    closest ranks (numpy's default "linear" method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def rmse(values) -> float:
    xs = list(values)
    if not xs:
        raise ValueError("RMSE of no values")
    return math.sqrt(sum(x * x for x in xs) / len(xs))


def share(hits: int, base: int) -> float:
    """``hits`` over ``base``; 0.0 when the base is empty, so that a
    per-layer figure with no cases on a workload still reads as a number."""
    return hits / base if base else 0.0


@dataclass
class Span:
    """One timed call of a wrapped function; times in nanoseconds."""

    sid: int
    name: str
    start: int
    end: int
    parent: int | None
    trial: int | None       # sid of the enclosing run_trial span
    out: float | None = None  # count taken from the result, if any

    @property
    def duration(self) -> int:
        return self.end - self.start


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - _covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def trial_self_time_gaps(spans: list[Span], trial_name: str) -> list[int]:
    """For every trial span: |sum of self times inside it - its duration|.

    Every span of a trial descends from the trial span, so its self times
    partition the trial's duration; a gap means a lost, misparented or
    overlapping span."""
    own = self_times(spans)
    total: dict[int, int] = {}
    for s in spans:
        if s.trial is not None:
            total[s.trial] = total.get(s.trial, 0) + own[s.sid]
    return [abs(total.get(s.sid, 0) - s.duration)
            for s in spans if s.name == trial_name]


def layer_metrics(spans: list[Span], names, trials: int) -> dict[str, float]:
    """``F.calls_per_trial``, ``F.self_ms_p50`` and ``F.self_ms_per_trial``
    for every name F; 0.0 for a function that was never called."""
    own = self_times(spans)
    per_name: dict[str, list[float]] = {n: [] for n in names}
    for s in spans:
        if s.name in per_name:
            per_name[s.name].append(1e-6 * own[s.sid])
    out = {}
    for n in names:
        ms = per_name[n]
        out[f"{n}.calls_per_trial"] = share(len(ms), trials)
        out[f"{n}.self_ms_p50"] = median(ms) if ms else 0.0
        out[f"{n}.self_ms_per_trial"] = share(sum(ms), trials) if ms else 0.0
    return out


def out_per_call(spans: list[Span], name: str) -> float:
    """Mean of the result counts recorded on the spans named ``name``."""
    outs = [s.out for s in spans if s.name == name]
    return share(sum(outs), len(outs))


@dataclass(frozen=True)
class TrialOutcome:
    """What the quality metrics need from one completed trial."""

    truth_nlos: bool
    decided_nlos: bool
    error_d: float | None          # |estimate - truth|, None without target
    has_wall: bool
    detected: bool
    theta_error_deg: float | None  # None unless has_wall and detected


def quality(outcomes: list[TrialOutcome]) -> dict[str, float]:
    """End-to-end result quality, each over its own denominator:

    rmse_d_m               truth-NLOS trials
    pr_i1_i1               truth-NLOS trials
    surface_detect_rate    scenes with a wall
    surface_theta_rmse_deg scenes with a wall in which one was detected
    """
    nlos = [o for o in outcomes if o.truth_nlos]
    walls = [o for o in outcomes if o.has_wall]
    detected = [o for o in walls if o.detected]
    return {
        "rmse_d_m": rmse(o.error_d for o in nlos),
        "pr_i1_i1": share(sum(o.decided_nlos for o in nlos), len(nlos)),
        "surface_detect_rate": share(len(detected), len(walls)),
        "surface_theta_rmse_deg": rmse(o.theta_error_deg for o in detected),
    }


def false_nlos_rate(outcomes: list[TrialOutcome]) -> float:
    """Pr(I1|I0): truth-LOS trials decided NLOS over truth-LOS trials."""
    los = [o for o in outcomes if not o.truth_nlos]
    return share(sum(o.decided_nlos for o in los), len(los))
