#!/usr/bin/env python3
"""Benchmark of the Monte Carlo trial: throughput, latency and result quality.

    python3 bench/run.py                         # every workload, one table
    python3 bench/run.py --workload fixed_wall --seed 3 --seconds 45 --trace 0

A run sets up (import, sweep construction, one warm-up sweep), then runs
whole rounds of the workload's sweep through ``nlosradar.harness.run_sweep``
until ``--seconds`` have passed, checks every trial's outputs (see
``checks.py``), and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every layer's public
functions are wrapped in spans (``spans.py``) and the metrics are the
per-layer ones.  A fuller record, with the machine and commit, goes to
``bench/out/``.  The exit code is 0 when every check passed.

The workloads, seeds and metrics are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import metrics
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

GRID = (10.0, 20.0, 30.0, 40.0)     # differential SNR, dB, at a 30 dB wall

# trials_per_point gives 48-trial rounds: the delta_snr sweep runs
# trials_per_point trials per grid point, the identification sweep twice
# that (half truth-NLOS, half truth-LOS).
WORKLOADS = {
    "fixed_wall": {"family": "delta_snr", "trials_per_point": 12, "stream": 1},
    "random_scenes": {"family": "identification", "trials_per_point": 6,
                      "stream": 2},
}
EVAL_ROUNDS = 3         # rounds on fixed master seeds; the quality metrics
MIN_ROUNDS = 5          # 240 trials, so that 12 lie beyond trial_ms_p95
SETUP_SAMPLES = 5       # set-ups per run: this process, then fresh processes
RERUN_SAMPLE = 6        # trials rerun alone to check determinism
DEFAULT_SEED = 1
DEFAULT_SECONDS = 45

END_TO_END_UNITS = {
    "trials_per_s": "trial/s", "trial_ms_p50": "ms", "trial_ms_p95": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "rmse_d_m": "m", "pr_i1_i1": "1",
    "surface_detect_rate": "1", "surface_theta_rmse_deg": "deg",
}


def round_seed(seed: int, stream: int, index: int) -> int:
    """Master seed of a round.  The first EVAL_ROUNDS rounds are the same in
    every run, so the quality metrics measure the code and not the sample;
    the rest are drawn from ``--seed``."""
    if index < EVAL_ROUNDS:
        return 1000 * stream + index
    return 10**6 * (seed + 1) + 1000 * stream + index


def make_sweep(harness, workload: str, master_seed: int, grid=GRID,
               trials_per_point: int | None = None):
    spec = WORKLOADS[workload]
    family = harness.SWEEP_FAMILIES[spec["family"]]
    return family(grid=grid, seed=master_seed,
                  trials_per_point=trials_per_point or spec["trials_per_point"])


def setup(workload: str):
    """Import the program, build a sweep and run a one-point warm-up sweep.
    Returns the harness module and the pipeline options."""
    sys.path.insert(0, str(SRC))
    try:
        import nlosradar
        from nlosradar import harness
    except ImportError as exc:
        raise SystemExit(f"cannot import nlosradar from {SRC}: {exc}")
    if Path(nlosradar.__file__).resolve().parent != SRC / "nlosradar":
        raise SystemExit(f"imported nlosradar from {nlosradar.__file__}, "
                         f"not from {SRC}")
    stream = WORKLOADS[workload]["stream"]
    warm = make_sweep(harness, workload, 999 + 1000 * stream,
                      grid=GRID[:1], trials_per_point=1)
    harness.run_sweep(warm)
    return harness, harness.PipelineOptions()


def probe_setup(workload: str) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "nlosradar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "commit": commit,
            "source_sha256": digest.hexdigest()}


def outcome(spec, record) -> metrics.TrialOutcome:
    """The quality-relevant facts of one completed trial, from positions."""
    truth_nlos = spec.scene_class.value == "nlos"
    error_d = None
    if spec.target is not None:
        error_d = math.hypot(record.localization.x - spec.target.x,
                             record.localization.y - spec.target.y)
    est = record.estimate
    has_wall = spec.surface is not None
    theta_err = (est.orientation_deg - spec.surface.orientation_deg
                 if has_wall and est.detected else None)
    return metrics.TrialOutcome(
        truth_nlos=truth_nlos, decided_nlos=record.decided_nlos,
        error_d=error_d, has_wall=has_wall, detected=est.detected,
        theta_error_deg=theta_err)


def comparable(record):
    return dataclasses.replace(record, timings_ms={})


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    t_setup = time.perf_counter()
    harness, options = setup(workload)
    setup_samples = [time.perf_counter() - t_setup]

    import checks                   # numpy is loaded by now
    from nlosradar import synthesize

    # in both modes, so that traced and untraced runs differ only by the spans
    setup_samples += [probe_setup(workload) for _ in range(SETUP_SAMPLES - 1)]

    stream = WORKLOADS[workload]["stream"]
    trials: list = []               # (spec, record) in completion order

    def keep(args, kwargs, record):
        trials.append((args[0] if args else kwargs["spec"], record))

    workers = 1                     # closed loop, one trial at a time
    names = tuple(spans.LAYER_FUNCTIONS) if trace else (spans.TRIAL,)
    tracer = spans.Tracer(names, trial_hook=keep)
    rounds = []                     # (wall seconds, records in sweep order)
    with tracer.installed():
        start = time.perf_counter()
        index = 0
        while index < MIN_ROUNDS or time.perf_counter() - start < seconds:
            sweep = make_sweep(harness, workload, round_seed(seed, stream, index))
            t0 = time.perf_counter()
            _, by_point = harness.run_sweep(sweep, options, workers=workers,
                                            keep_records=True)
            rounds.append((time.perf_counter() - t0,
                           [r for point in by_point for r in point]))
            index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = [r for _, recs in rounds for r in recs]
    spec_of = {id(record): spec for spec, record in trials}
    wall_s = sum(w for w, _ in rounds)
    failed = sum(not r.ok for r in records)
    trial_spans = [s for s in tracer.spans if s.name == spans.TRIAL]
    latency_ms = [1e-6 * s.duration for s in trial_spans]

    # --- checks, outside the timed window
    problems = []
    if len(trial_spans) != len(records) or len(trials) != len(records):
        problems.append(f"{len(records)} records but {len(trial_spans)} "
                        f"run_trial calls")
    for spec, record in trials:
        if not record.ok:
            continue
        found = checks.check_geometry(record, options.min_length)
        echo = synthesize(spec, ghost_suppression_db=options.ghost_suppression_db)
        found += checks.check_map(record, echo.samples, spec.radar,
                                  options.guard_m)
        problems += [f"trial seed {spec.seed}: {p}" for p in found]
    step = max(1, len(trials) // RERUN_SAMPLE)
    for spec, record in trials[::step][:RERUN_SAMPLE]:
        if comparable(harness.run_trial(spec, options)) != comparable(record):
            problems.append(f"trial seed {spec.seed}: rerun alone differs")
    if workload == "random_scenes":
        # the same round under every available thread must give the same records
        nproc = len(os.sched_getaffinity(0))
        _, by_point = harness.run_sweep(
            make_sweep(harness, workload, round_seed(seed, stream, 0)),
            options, workers=max(2, nproc), keep_records=True)
        threaded = [comparable(r) for point in by_point for r in point]
        if threaded != [comparable(r) for r in rounds[0][1]]:
            problems.append(f"round 0 differs under {max(2, nproc)} threads")
    if trace:
        gaps = metrics.trial_self_time_gaps(tracer.spans, spans.TRIAL)
        if any(gaps):
            problems.append(f"{sum(1 for g in gaps if g)} trials whose span self "
                            "times do not sum to the run_trial duration")

    outcomes = [outcome(spec_of[id(r)], r) for r in records if r.ok]
    evaluated = [r for _, recs in rounds[:EVAL_ROUNDS] for r in recs]
    quality = metrics.quality([outcome(spec_of[id(r)], r)
                               for r in evaluated if r.ok])

    trials_per_s = len(records) / wall_s
    if trace:
        values = metrics.layer_metrics(tracer.spans, names, len(trial_spans))
        values["surface.estimate_surface.detected_per_call"] = \
            metrics.out_per_call(tracer.spans, "surface.estimate_surface")
        values["ramap.extract_peaks.peaks_per_call"] = \
            metrics.out_per_call(tracer.spans, "ramap.extract_peaks")
        values["classify.false_nlos_rate"] = metrics.false_nlos_rate(outcomes)
        values["harness.run_sweep.worker_busy_share"] = \
            1e-9 * sum(s.duration for s in trial_spans) / (wall_s * workers)
        units = {name: layer_unit(name) for name in values}
    else:
        values = {
            "trials_per_s": trials_per_s,
            "trial_ms_p50": metrics.percentile(latency_ms, 50),
            "trial_ms_p95": metrics.percentile(latency_ms, 95),
            "setup_s": metrics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            **quality,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine(), "rounds": len(rounds),
        "eval_trials": len(evaluated), "wall_s": wall_s, "trials_per_s": trials_per_s,
        "trial_ms_quartiles": [metrics.percentile(latency_ms, q)
                               for q in (25, 50, 75)],
        "setup_samples_s": setup_samples, "problems": problems[:50],
        "errors": sorted({r.error for r in records if not r.ok}),
        "result": result,
    }
    if trace:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w",
                  encoding="utf-8") as f:
            for s in tracer.spans:
                f.write(json.dumps(dataclasses.asdict(s)) + "\n")
    return result, detail


def layer_unit(name: str) -> str:
    if name.endswith(".calls_per_trial"):
        return "call/trial"
    if name.endswith(".self_ms_p50"):
        return "ms"
    if name.endswith(".self_ms_per_trial"):
        return "ms/trial"
    if name.endswith(".peaks_per_call"):
        return "peak/call"
    return "1"


def run_one(args) -> int:
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    m = detail["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} commit={m['commit']} "
          f"source={m['source_sha256'][:12]} record={path.relative_to(ROOT)}")
    for problem in detail["problems"]:
        print(f"# CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
            text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines:
            continue
        print(lines[0] if len(lines) > 1 else f"# {name}")
        results[name] = json.loads(lines[-1])
    if len(results) < len(WORKLOADS):
        return 1
    for name, res in results.items():
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key:48s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.workload)
        print(time.perf_counter() - t0)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
