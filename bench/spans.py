"""Spans around the program's public functions, recorded from outside it.

Each wrapped function is replaced, for the duration of a ``with`` block, in
every ``nlosradar`` module that holds it, so calls are caught wherever the
caller looks the function up (``harness.compute_ra_map``,
``classify.build_masks``, ...).  Spans are kept in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time

from metrics import Span

TRIAL = "harness.run_trial"

# span name -> (defining module, attribute, count taken from the result)
LAYER_FUNCTIONS = {
    "scenario.randomize_scenario": ("nlosradar.scenario", "randomize_scenario", None),
    "geometry.discretize_surface": ("nlosradar.geometry", "discretize_surface", None),
    "echo.synthesize": ("nlosradar.echo", "synthesize", None),
    "echo.synthesize_surface_echo": ("nlosradar.echo", "synthesize_surface_echo", None),
    "echo.synthesize_target_echo": ("nlosradar.echo", "synthesize_target_echo", None),
    "echo.suppress_point_returns": ("nlosradar.echo", "suppress_point_returns", None),
    "ramap.compute_ra_map": ("nlosradar.ramap", "compute_ra_map", None),
    "ramap.extract_peaks": ("nlosradar.ramap", "extract_peaks", len),
    "surface.estimate_surface": ("nlosradar.surface", "estimate_surface",
                                 lambda est: float(est.detected)),
    "surface.fit_ransac": ("nlosradar.surface", "fit_ransac", None),
    "classify.decide": ("nlosradar.classify", "decide", None),
    "classify.build_masks": ("nlosradar.classify", "build_masks", None),
    "localize.localize": ("nlosradar.localize", "localize", None),
    TRIAL: ("nlosradar.harness", "run_trial", None),
}


class Tracer:
    """Records a span per call of each wrapped function.

    Parent and trial are tracked per thread, so the spans of trials run
    concurrently by ``run_sweep`` keep their own nesting.  Times are
    integer nanoseconds, so self times add up exactly.  ``trial_hook``,
    if given, is called as ``trial_hook(args, kwargs, result)`` after each
    ``run_trial`` call.
    """

    def __init__(self, names, trial_hook=None):
        self.names = tuple(names)
        self.spans: list[Span] = []
        self._trial_hook = trial_hook
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _wrap(self, name, fn, count):
        local, hook = self._local, self._trial_hook

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            trial = sid if name == TRIAL else (parent[1] if parent else None)
            stack.append((sid, trial))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            span = Span(sid=sid, name=name, start=start, end=end,
                        parent=parent[0] if parent else None, trial=trial,
                        out=count(result) if count else None)
            with self._lock:
                self.spans.append(span)
            if hook is not None and name == TRIAL:
                hook(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every wrapped function in each loaded ``nlosradar``
        module that refers to it, and restore the originals on exit."""
        saved = []
        try:
            for name in self.names:
                module, attr, count = LAYER_FUNCTIONS[name]
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(name, original, count)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "nlosradar":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, original in reversed(saved):
                setattr(mod, key, original)
