"""Records check: every ``TrialRecord`` field but ``timings_ms``, and every
sweep CSV, hashed and compared with ``tests/records.json``.

The test runs the quick set: the benchmark's six evaluation rounds and
criterion 9's sweep, 298 trials.  The full set adds the five sweep families
at 18 trials per point (seed 5) and criteria 6-8's sweeps, 4,020 trials:

    python tests/test_records.py --check          # the quick set
    python tests/test_records.py --check --full   # the full set
    python tests/test_records.py --write          # regenerate records.json

``--check`` exits 0 when every digest matches, 1 naming the first sweep and
trial that differ, and 2 when the digests are not comparable.  Floats are
hashed as ``float.hex``, so a change in the last bit of any field shows.
The bits depend on the numpy build, so digests recorded under another
numpy, Python or machine are not comparable: the test skips, and the
command names the one that regenerates them.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import numbers
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":      # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nlosradar.harness import (  # noqa: E402
    SWEEP_FAMILIES,
    PipelineOptions,
    rows_to_csv,
    run_sweep,
    sweep_delta_snr,
    sweep_identification,
    sweep_irregularity,
)

RECORDS = Path(__file__).resolve().parent / "records.json"
WRITE = "python tests/test_records.py --write"
GRID = (10.0, 20.0, 30.0, 40.0)


def sweeps(full: bool) -> dict:
    """{name: SweepSpec} of the quick set, or of the full set."""
    out = {}
    for i in range(3):
        out[f"fixed_wall round {i}"] = sweep_delta_snr(
            grid=GRID, trials_per_point=12, seed=1000 + i)
        out[f"random_scenes round {i}"] = sweep_identification(
            grid=GRID, trials_per_point=6, seed=2000 + i)
    out["criterion 9"] = sweep_delta_snr(grid=(20.0, 40.0), trials_per_point=5,
                                         seed=900)
    if full:
        for name, family in SWEEP_FAMILIES.items():
            out[f"family {name}"] = family(trials_per_point=18, seed=5)
        out["criterion 6"] = sweep_delta_snr(grid=GRID, trials_per_point=200,
                                             seed=100)
        out["criterion 7"] = sweep_identification(grid=GRID,
                                                  trials_per_point=200, seed=200)
        out["criterion 8"] = sweep_irregularity(grid=(0.0, 0.1, 0.2, 0.3),
                                                trials_per_point=200, seed=300)
    return out


def machine() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def _plain(value):
    """``value`` as JSON-ready data, floats as ``float.hex``."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.name != "timings_ms"}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    raise TypeError(f"cannot hash a {type(value).__name__}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(sweep) -> dict:
    """The sweep's CSV digest, one digest of all its records, and the first
    eight hex digits of each record's own, in (point, trial) order."""
    rows, by_point = run_sweep(sweep, PipelineOptions(), keep_records=True)
    trials = [_sha(json.dumps(_plain(r), sort_keys=True))
              for point in by_point for r in point]
    return {"csv": _sha(rows_to_csv(rows)), "records": _sha("".join(trials)),
            "trials": " ".join(t[:8] for t in trials)}


def differences(recorded: dict, full: bool):
    """Yield a line per sweep whose CSV or records differ from ``recorded``,
    naming its first differing trial."""
    for name, sweep in sweeps(full).items():
        now, then = digest(sweep), recorded["sweeps"][name]
        if now["records"] != then["records"]:
            pairs = zip(now["trials"].split(), then["trials"].split())
            first = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
            per_point = len(now["trials"].split()) // len(sweep.grid)
            where = "a trial" if first is None else (
                f"trial {first % per_point} of grid value "
                f"{sweep.grid[first // per_point]} (record {first})")
            yield f"sweep {name!r}: {where} differs"
        elif now["csv"] != then["csv"]:
            yield f"sweep {name!r}: the CSV differs"


def not_comparable(recorded: dict) -> str | None:
    if recorded["machine"] == machine():
        return None
    return (f"not comparable: recorded under {recorded['machine']}, "
            f"running under {machine()}; regenerate with {WRITE}")


def test_records_match_the_recorded_digests():
    recorded = json.loads(RECORDS.read_text(encoding="utf-8"))
    reason = not_comparable(recorded)
    if reason:
        pytest.skip(reason)
    found = list(differences(recorded, full=False))
    assert not found, "; ".join(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help=f"compare with {RECORDS.name}")
    mode.add_argument("--write", action="store_true",
                      help=f"regenerate {RECORDS.name} from the full set")
    parser.add_argument("--full", action="store_true",
                        help="check the full 4,020-trial set")
    args = parser.parse_args(argv)
    if args.write:
        doc = {"machine": machine(),
               "sweeps": {name: digest(s) for name, s in sweeps(True).items()}}
        RECORDS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {RECORDS}")
        return 0
    recorded = json.loads(RECORDS.read_text(encoding="utf-8"))
    reason = not_comparable(recorded)
    if reason:
        print(reason, file=sys.stderr)
        return 2
    for line in differences(recorded, args.full):
        print(line, file=sys.stderr)
        return 1
    print(f"records identical ({'full' if args.full else 'quick'} set)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
