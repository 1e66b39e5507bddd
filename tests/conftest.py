from concurrent.futures import Future

import numpy as np
import pytest

from nlosradar import RadarConfig, ReflectiveSurface


def brute_force_label(surface, cell_xy, guard_m, samples=4000):
    """Independent dense-sampling LOS/NLOS/guard classification of a cell:
    walks the radar-to-cell segment testing membership in the guard band
    (the segment thickened by +/- guard_m in intercept and lengthened by
    2.5 * guard_m past each end)."""
    p = np.asarray(cell_xy, dtype=float)
    slope, icept = surface.slope, surface.intercept
    ux, uy = surface.direction
    c_along = float(surface.center @ surface.direction)
    half = surface.length / 2.0 + 2.5 * guard_m

    def in_band(q):
        g = q[1] - slope * q[0] - icept
        s = q[0] * ux + q[1] * uy - c_along
        return abs(g) <= guard_m and abs(s) <= half

    if in_band(p):
        return "guard"
    for t in np.linspace(0.0, 1.0, samples):
        if in_band(t * p):
            return "nlos"
    return "los"


@pytest.fixture
def radar():
    return RadarConfig()


@pytest.fixture
def eval_surface():
    """The common evaluation wall: 8 m at (2, 18), tilted 25 degrees."""
    return ReflectiveSurface(center_x=2.0, center_y=18.0, length=8.0,
                             orientation_deg=25.0)


@pytest.fixture
def far_surface():
    """The far 8.8 m wall at (3.3, 23.3), tilted 25 degrees."""
    return ReflectiveSurface(center_x=3.3, center_y=23.3, length=8.8,
                             orientation_deg=25.0)


def rayleigh_field(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * np.abs(rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))


class InlineExecutor:
    """A stand-in for a trial's helper pool that runs each task at once on
    the calling thread."""

    def __init__(self, max_workers=1):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future
