"""Property tests: the two-bounce geometry round trip and the LOS/NLOS masks
against an independent oracle, on walls and targets drawn by hypothesis, and
the command line on malformed scene files and sweep specs.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""

import contextlib
import copy
import functools
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlosradar import (
    MAP_SIZE,
    RadarConfig,
    RangeAngleMap,
    ReflectiveSurface,
    SurfaceEstimate,
    build_masks,
    ground_truth_target,
    polar_to_xy,
    range_to_prp,
    reference_scene_doc,
    save_scenario,
    scenario_from_doc,
    solve_prp,
)
from nlosradar.cli import main

from conftest import brute_force_label

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


def _walls(center_x=(0.0, 6.0), center_y=(8.0, 22.0), length=(1.0, 13.0),
           orientation=(1.0, 46.0)):
    return st.builds(ReflectiveSurface,
                     center_x=st.floats(*center_x),
                     center_y=st.floats(*center_y),
                     length=st.floats(*length),
                     orientation_deg=st.floats(*orientation))


@PROPERTY
@given(surf=_walls(), x=st.floats(-5.0, 12.0), y=st.floats(2.0, 14.0))
def test_solve_prp_then_ground_truth_recovers_target(surf, x, y):
    assume(surf.signed_offset((x, y)) > 0.1)
    prp = solve_prp(surf, (0.0, 0.0), (x, y))
    xy = ground_truth_target(prp.angle_deg, prp.r_radar_prp,
                             prp.r_prp_target, surf.orientation_deg)
    assert np.max(np.abs(xy - (x, y))) < 1e-9


@PROPERTY
@given(surf=_walls(), phi=st.floats(-30.0, 40.0), r2=st.floats(0.5, 20.0))
def test_ground_truth_then_solve_prp_recovers_path(surf, phi, r2):
    p = math.radians(phi)
    # keep away from grazing incidence, where the inversion is ill-conditioned
    assume(math.cos(p) - surf.slope * math.sin(p) > 0.1)
    r1 = range_to_prp(surf.intercept, surf.orientation_deg, phi)
    target = ground_truth_target(phi, r1, r2, surf.orientation_deg)
    prp = solve_prp(surf, (0.0, 0.0), target)
    assert abs(prp.angle_deg - phi) < 1e-7
    assert abs(prp.r_radar_prp - r1) < 1e-7
    assert abs(prp.r_prp_target - r2) < 1e-7


@functools.cache
def _flat_map() -> RangeAngleMap:
    return RangeAngleMap(np.zeros((MAP_SIZE, MAP_SIZE)),
                         RadarConfig())


@PROPERTY
@given(surf=_walls(center_x=(-6.0, 6.0), center_y=(6.0, 30.0),
                   orientation=(0.0, 75.0)),
       guard_m=st.sampled_from((0.5, 1.0, 2.0)),
       cells=st.lists(st.tuples(st.integers(1, MAP_SIZE - 1),
                                st.integers(0, MAP_SIZE - 1)),
                      min_size=1, max_size=4))
def test_region_matches_brute_force(surf, guard_m, cells):
    m = _flat_map()
    masks = build_masks(SurfaceEstimate.from_truth(surf), m, guard_m=guard_m)
    for i, j in cells:
        if not m.fov_mask()[i, j]:
            continue
        cell = polar_to_xy(m.range_axis_m[i], m.angle_axis_deg[j])
        expected = brute_force_label(surf, cell, guard_m)
        assert masks.union[i, j] == (expected != "guard"), (surf, cell)
        if expected != "guard":
            assert masks.region(i, j).name.lower() == expected, (surf, cell)


@functools.cache
def _reference_documents():
    """The reference scene as a scene file holds it (every section, a
    Cartesian target) and with its polar target, and one-trial fixed and
    identification sweep specs."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        save_scenario(scenario_from_doc(reference_scene_doc()), path)
        saved = json.loads(path.read_text())
    polar = dict(saved, target=reference_scene_doc()["target"])
    sweep = {"name": "t", "swept": "delta_snr", "grid": [20.0],
             "trials_per_point": 1, "mode": "fixed", "seed": 0,
             "base_scene": reference_scene_doc()}
    identification = dict(sweep, mode="identification")
    return {"scene": saved, "polar": polar, "sweep": sweep,
            "identification": identification}


_BAD_VALUES = (None, "8", True, [1.0], {}, math.nan, math.inf, -math.inf,
               1e15, -1e15, -1.0, 0)


def _paths(doc, prefix=()):
    """Every key path in ``doc``, into nested objects and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(data=st.data())
def test_malformed_input_is_a_config_error_naming_its_key(tmp_path_factory,
                                                          data):
    """A scene file or sweep spec with one value replaced by a null, a
    string, a bool, a list, an object, NaN, an infinity, a huge or a
    non-positive number, with one key deleted or with an unknown key added,
    exits 0, 2 or 3 and never raises; a configuration error (exit 2) names
    the key it broke or the section holding it."""
    documents = _reference_documents()
    which = data.draw(st.sampled_from(sorted(documents)))
    doc = copy.deepcopy(documents[which])
    path = data.draw(st.sampled_from(list(_paths(doc))))
    *parents, key = path
    holder = functools.reduce(lambda d, k: d[k], parents, doc)
    action = data.draw(st.sampled_from(("set", "delete", "add")))
    if action == "set":
        holder[key] = data.draw(st.sampled_from(_BAD_VALUES))
    elif action == "delete" or isinstance(holder, list):
        del holder[key]
    else:
        holder["bogus"], key = 1.0, "bogus"

    out = tmp_path_factory.mktemp("input")
    file = out / "input.json"
    file.write_text(json.dumps(doc))
    option = "--scene" if which in ("scene", "polar") else "--spec"
    command = "pipeline" if option == "--scene" else "sweep"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, option, str(file), "--out-dir", str(out)])
    assert code in (0, 2, 3)
    if code == 2:
        names = [k for k in (*parents, key) if isinstance(k, str)]
        assert any(re.search(rf"\b{name}\b", err.getvalue())
                   for name in names), err.getvalue()
