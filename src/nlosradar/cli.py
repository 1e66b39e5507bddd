"""Command-line front end.

Subcommands:
    simulate   one scene file -> raw echo (and optional map) exports
    pipeline   one scene file -> full three-stage run, printed + CSV row
    sweep      sweep spec file or named family -> aggregate CSV (+ SVG)
    masks      one scene file -> estimated-surface region masks as PGM

Exit codes: 0 success, 2 configuration error, 3 trial-failure fraction
above threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import harness
from .classify import build_masks, write_masks_pgm
from .echo import OutOfWindowError, synthesize, write_echo
from .geometry import GeometryError
from .localize import LocalizationResult
from .plotting import write_line_chart
from .ramap import compute_ra_map, write_magnitude_csv, write_map_binary
from .scenario import check_keys, load_scenario
from .surface import detect_surface


def _pipeline_options(args) -> harness.PipelineOptions:
    return harness.PipelineOptions(guard_m=args.guard_m)


def _exports(accepted: tuple[str, ...], text: str) -> frozenset[str]:
    """``--export``: a comma list of names from ``accepted``."""
    names = frozenset(text.split(","))
    unknown = sorted(names - set(accepted))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown export {', '.join(map(repr, unknown))}; "
            f"choose from {','.join(accepted)}")
    return names


def _integer(least: int, text: str) -> int:
    """An integer option of at least ``least``."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least {least}, not {text!r}")
    return value


def _fraction(text: str) -> float:
    """``--max-failures``: a fraction of the trials, in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a number in [0, 1], not {text!r}")
    return value


def _add_common(p, exports: tuple[str, ...]):
    """The options every subcommand takes; ``exports`` are the names it
    writes, the first the default."""
    p.add_argument("--seed", type=functools.partial(_integer, 0), default=None,
                   help="override the scene/master seed")
    p.add_argument("--out-dir", type=Path, default=Path("."),
                   help="output directory (created if missing)")
    p.add_argument("--guard-m", type=float, default=1.0,
                   help="guard band half-width around the estimated surface")
    p.add_argument("--export", type=functools.partial(_exports, exports),
                   default=exports[0],
                   help=f"comma list from {{{','.join(exports)}}}")


def _load_scene(args):
    spec = load_scenario(args.scene)
    return spec if args.seed is None else spec.with_seed(args.seed)


def _cmd_simulate(args) -> int:
    spec = _load_scene(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    echo = synthesize(spec)
    write_echo(args.out_dir / "echo.bin", echo, spec.radar, seed=spec.seed,
               metadata={"scene_class": spec.scene_class.value})
    if "csv" in args.export:
        write_magnitude_csv(compute_ra_map(echo.samples, spec.radar),
                            args.out_dir / "ra_map.csv")
    if "bin" in args.export:
        write_map_binary(echo.samples, spec.radar, args.out_dir / "ra_map.bin",
                         seed=spec.seed)
    print(f"wrote {args.out_dir / 'echo.bin'}")
    return 0


def _cmd_pipeline(args) -> int:
    spec = _load_scene(args)
    record = harness.run_trial(spec, _pipeline_options(args))
    if record.error is not None:
        print(f"trial failed: {record.error}", file=sys.stderr)
        return 3
    est, dec, loc = record.estimate, record.decision, record.localization
    print(f"scene class     : {record.scene_class.value}")
    print(f"surface detected: {est.detected}"
          + (f"  (theta={est.orientation_deg:.2f} deg, length={est.length:.2f} m)"
             if est.detected else ""))
    print(f"hypothesis      : {dec.hypothesis.value}")
    print(f"peak            : {dec.peak_range_m:.2f} m @ {dec.peak_angle_deg:.2f} deg")
    print(f"target estimate : ({loc.x:.3f}, {loc.y:.3f}) m"
          + ("" if loc.feasible else "  [infeasible geometry]"))
    if record.error_d is not None:
        print(f"position error  : {record.error_d:.3f} m")
    if "csv" in args.export:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        out = args.out_dir / "trial.csv"
        header, row = LocalizationResult.CSV_HEADER, loc.to_csv_row()
        if record.truth_target is not None:
            header += LocalizationResult.TRUTH_CSV_HEADER
            row += (f",{record.truth_target[0]:.6f}"
                    f",{record.truth_target[1]:.6f},{record.error_d:.6f}")
        out.write_text(header + "\n" + row + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


def _sweep_spec(args) -> harness.SweepSpec:
    """The sweep named by ``--family`` or ``--spec``; ``--trials`` and
    ``--seed`` override the family's or the file's values when given."""
    if args.family is not None:
        overrides = {"seed": args.seed or 0}
        if args.trials is not None:
            overrides["trials_per_point"] = args.trials
        return harness.SWEEP_FAMILIES[args.family](**overrides)
    with open(args.spec, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"sweep spec {args.spec} must be an object, not {doc!r}")
    if args.trials is not None:
        doc["trials_per_point"] = args.trials
    if args.seed is not None:
        doc["seed"] = args.seed
    check_keys(f"sweep spec {args.spec}", doc, harness.SweepSpec)
    return harness.SweepSpec(**doc)


def _cmd_sweep(args) -> int:
    sweep = _sweep_spec(args)
    rows, _ = harness.run_sweep(sweep, _pipeline_options(args),
                                workers=args.workers)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / f"sweep_{sweep.name}.csv"
    harness.write_sweep_csv(rows, csv_path)
    print(f"wrote {csv_path}")
    if "svg" in args.export:
        svg_path = args.out_dir / f"sweep_{sweep.name}.svg"
        if sweep.mode == "identification":
            series = {"Pr(I1|I1)": ([r["pr_i1_i1"] for r in rows], None),
                      "Pr(I1|I0)": ([r["pr_i1_i0"] for r in rows], None)}
            ylabel = "probability"
        else:
            series = {"RMSE_d": ([r["rmse_d"] for r in rows],
                                 [r["se_rmse_d"] for r in rows])}
            ylabel = "RMSE_d [m]"
        write_line_chart(svg_path, [r["value"] for r in rows], series,
                         title=sweep.name, xlabel=sweep.swept, ylabel=ylabel)
        print(f"wrote {svg_path}")

    total = sum(r["trials"] for r in rows)
    failed = sum(r["failures"] for r in rows)
    if total and failed / total > args.max_failures:
        print(f"{failed}/{total} trials failed", file=sys.stderr)
        return 3
    return 0


def _cmd_masks(args) -> int:
    spec, options = _load_scene(args), _pipeline_options(args)
    try:
        echo = synthesize(spec,
                          ghost_suppression_db=options.ghost_suppression_db)
        ra_map = compute_ra_map(echo.samples, spec.radar)
        estimate, _ = detect_surface(
            echo.samples, spec.radar, lambda: ra_map, seed=spec.seed,
            min_length=options.min_length)
    except (GeometryError, OutOfWindowError) as exc:
        print(f"trial failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not estimate.detected:
        print("no surface detected; nothing to mask", file=sys.stderr)
        return 3
    masks = build_masks(estimate, ra_map, guard_m=options.guard_m)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "masks.pgm"
    write_masks_pgm(masks, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlosradar",
        description="Around-the-corner radar simulation and localization pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="synthesize one scene and export")
    p_sim.add_argument("--scene", required=True, type=Path)
    _add_common(p_sim, ("csv", "bin"))
    p_sim.set_defaults(fn=_cmd_simulate)

    p_pipe = sub.add_parser("pipeline", help="run the three-stage pipeline")
    p_pipe.add_argument("--scene", required=True, type=Path)
    _add_common(p_pipe, ("csv",))
    p_pipe.set_defaults(fn=_cmd_pipeline)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", type=Path, help="sweep spec JSON file")
    group.add_argument("--family", choices=sorted(harness.SWEEP_FAMILIES),
                       help="named built-in experiment family")
    p_sweep.add_argument("--trials", type=functools.partial(_integer, 1),
                         default=None, help="trials per grid point")
    p_sweep.add_argument("--workers", type=functools.partial(_integer, 1),
                         default=1,
                         help="trials run at once, each on up to two threads")
    p_sweep.add_argument("--max-failures", type=_fraction, default=0.1,
                         help="tolerated trial-failure fraction before exit 3")
    _add_common(p_sweep, ("csv", "svg"))
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_masks = sub.add_parser("masks", help="export LOS/NLOS masks as PGM")
    p_masks.add_argument("--scene", required=True, type=Path)
    _add_common(p_masks, ("pgm",))
    p_masks.set_defaults(fn=_cmd_masks)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
