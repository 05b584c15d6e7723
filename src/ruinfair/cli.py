"""Command-line driver.

    ruinfair run --config FILE [--sweep NAME] [--out DIR]
    ruinfair validate --config FILE

``run`` executes the named sweep (or every sweep in the file) and writes
``sweep_<name>.csv`` and ``manifest_<name>.json`` into the output directory.
``validate`` also prints each sweep's work size (values x replications x
schemes x channels frames).
Exit codes: 0 on success, 2 on configuration errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .config import load_scenario
from .errors import ConfigError
from .experiment import emit_csv, emit_manifest, run_sweep
from .sim import Scheme

__all__ = ["main"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinfair",
        description="Ruin-driven LTE-U/WiFi duty-cycle sharing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run sweeps and write CSV + manifest")
    run.add_argument("--config", required=True, help="scenario JSON file")
    run.add_argument("--sweep", default=None, help="sweep name (default: all sweeps)")
    run.add_argument("--out", default=".", help="output directory (default: .)")

    validate = sub.add_parser("validate", help="parse and validate a scenario file")
    validate.add_argument("--config", required=True, help="scenario JSON file")

    return parser


def _cmd_validate(config_path: str) -> int:
    """Check the config and print each sweep's work size in simulated frames.

    One frame is one long frame on one WAP's channel under one scheme.
    """
    config = load_scenario(config_path)
    print(f"{config_path}: OK ({len(config.sweeps)} sweep(s): {', '.join(sorted(config.sweeps))})")
    reps = config.seeds.replications
    schemes = len(Scheme)
    channels = config.topology.channels
    for name in sorted(config.sweeps):
        values = len(config.sweeps[name].values)
        print(
            f"  {name}: {values} values x {reps} replications x {schemes} schemes "
            f"x {channels} channels = {values * reps * schemes * channels} frames"
        )
    return EXIT_OK


def _cmd_run(config_path: str, sweep_name: Optional[str], out_dir: str) -> int:
    # An --out that mkdir cannot make a directory of is refused before any
    # work: the path, or else its nearest existing ancestor, must be one.
    out = Path(out_dir)
    existing = next(path for path in (out, *out.parents) if os.path.lexists(path))
    if not existing.is_dir():
        raise ConfigError(f"--out {out_dir}: {existing} is not a directory")
    config = load_scenario(config_path)
    names = [sweep_name] if sweep_name is not None else list(config.sweeps)
    paths = {name: (out / f"sweep_{name}.csv", out / f"manifest_{name}.json") for name in names}
    # A directory where an output file goes would fail its write after the
    # earlier sweeps' files are written, so it too is refused before any
    # work.  A symlink is replaced, whatever it points to.
    for path in (path for pair in paths.values() for path in pair):
        if path.is_dir() and not path.is_symlink():
            raise ConfigError(f"--out {out_dir}: {path} is a directory")

    # Every sweep runs before anything is written, so a failing one leaves
    # no output directory and no files behind.
    results = {name: run_sweep(config, name) for name in names}
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in results.items():
        csv_path, manifest_path = paths[name]
        emit_csv(rows, csv_path)
        emit_manifest(config, name, manifest_path)
        print(f"wrote {csv_path} and {manifest_path}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args.config)
        return _cmd_run(args.config, args.sweep, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 (CLI boundary)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
