#!/usr/bin/env python3
"""Measure a checkout and write the numbers to a ``BENCH_<label>.json`` file.

For each workload of ``BENCHMARK.json`` it runs ``perfbench/run.py
--trace 0`` once per seed of a fixed set and records every run, plus the
median, quartiles, IQR and best of each end-to-end metric; ``--trace 1``
runs at the same seeds give every per-layer metric's median, and one more
at seed 0 the per-layer metrics of the digest-checked run.  It also times two
end-to-end wall clocks, ``ruinfair run`` on the default ``{}`` scenario and
the Tier-1 suite, and tabulates the Monte Carlo kernels against the scalar
reference ``_pure`` (asserting equal counts while timing).  ``perfbench/``
is only called, never changed.  Usage, from the root of a checkout:

    python benchmarks/bench.py --label LABEL [--root DIR]

``--root`` measures another checkout (its ``src``, ``perfbench`` and
tests) with this script; the file is written to ``BENCH_<label>.json`` in
the current directory.  A file takes about five minutes on two CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

SEEDS = [1, 2, 3, 4, 5]  # perfbench seeds; seed 0 is the digest-checked one
SECONDS = 8.0  # perfbench --seconds per run
CLI_REPEAT = 5
KERNEL_TRIALS = 100_000
KERNEL_REPEAT = 3

# (name, kernel, arguments before trials and seed, share of KERNEL_TRIALS).
# Cases with many draws per trial run a fraction of the trials, so the
# scalar reference stays quick; the chance cases at lam = 100 and 500 make
# the lockstep kernel carry its products and totals over many blocks.
KERNEL_CASES = [
    (
        "ruin_mc_count (u=0.01, c=0.001, rate=450, n=10)",
        "ruin_mc_count",
        (0.01, 0.001, 450.0, 10),
        1,
    ),
    ("ruin_mc_count (u=5, c=2, rate=0.5, n=20)", "ruin_mc_count", (5.0, 2.0, 0.5, 20), 1),
    (
        "chance_mc_count (alpha=4ms, thr=9ms, lam=1, mu=450)",
        "chance_mc_count",
        (0.004, 0.009, 1.0, 450.0),
        1,
    ),
    (
        "chance_mc_count (alpha=4ms, thr=0.3s, lam=100, mu=450)",
        "chance_mc_count",
        (0.004, 0.3, 100.0, 450.0),
        1 / 100,
    ),
    (
        "chance_mc_count (alpha=4ms, thr=1.1s, lam=500, mu=450)",
        "chance_mc_count",
        (0.004, 1.1, 500.0, 450.0),
        1 / 500,
    ),
]


def _src_env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def _perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int):
    """One ``perfbench/run.py`` run: its env line and its result line."""
    command = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(
        [sys.executable, *command],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    return json.loads(out[0])["env"], json.loads(out[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def measure_workloads(root: Path, seeds: list[int], seconds: float) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    env, workloads = {}, {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds:
            env, result = _perfbench(root, workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "failed": result["failed"], "attempted": result["attempted"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        summary = {}
        for name, direction in better.items():
            values = [run["metrics"][name] for run in runs]
            stats = _summary(values)
            stats["best"] = min(values) if direction == "lower" else max(values)
            summary[name] = stats
        traced = []
        for seed in [0, *seeds]:
            _, result = _perfbench(root, workload, seed, seconds, 1)
            traced.append({"seed": seed, "correct": result["correct"],
                           **{k: v["value"] for k, v in result["metrics"].items()}})
        layers = [name for name in traced[0] if name not in ("seed", "correct")]
        workloads[workload] = {
            "runs": runs,
            "summary": summary,
            "trace_seed0": traced[0],
            "trace_runs": traced[1:],
            "trace_median": {name: statistics.median(run[name] for run in traced[1:])
                             for name in layers},
        }
    return env, workloads


def measure_cli(root: Path, repeat: int) -> dict:
    """Wall time of ``ruinfair run`` on ``{}``, interpreter start included."""
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "default.json"
        config.write_text("{}")
        for i in range(repeat):
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "ruinfair.cli", "run", "--config", str(config),
                 "--out", str(Path(tmp) / f"out{i}")],
                cwd=root, env=_src_env(root), check=True, capture_output=True,
            )
            times.append(time.perf_counter() - started)
    return {"runs_s": times, "median_s": statistics.median(times), "best_s": min(times)}


def measure_tier1(root: Path) -> dict:
    """Wall time and outcome line of one Tier-1 run (no test cache kept)."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=root, env=_src_env(root), capture_output=True, text=True,
    )
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": done.returncode, "outcome": lines[-1] if lines else ""}


def _best_of(fn, args, repeat):
    best, result = float("inf"), None
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def measure_kernels(root: Path, trials: int, repeat: int) -> list[dict]:
    """Lockstep against the scalar reference, best of ``repeat`` each."""
    sys.path.insert(0, str(root / "src"))
    from ruinfair._kernels import _lockstep, _pure

    table = []
    for name, kernel, kernel_args, share in KERNEL_CASES:
        call_args = (*kernel_args, max(1, round(trials * share)), 42)
        pure_s, expected = _best_of(getattr(_pure, kernel), call_args, repeat)
        lockstep_s, result = _best_of(getattr(_lockstep, kernel), call_args, repeat)
        if result != expected:
            raise SystemExit(f"{name}: lockstep {result} != pure {expected}")
        table.append({"case": name, "trials": call_args[-2], "pure_s": pure_s,
                      "lockstep_s": lockstep_s, "speedup": pure_s / lockstep_s})
        print(f"{name:<56} pure {pure_s:8.3f}s  lockstep {lockstep_s:8.4f}s  "
              f"{pure_s / lockstep_s:6.1f}x", file=sys.stderr)
    return table


def _tree(root: Path) -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE.parent)
    args = parser.parse_args()
    root = args.root.resolve()

    env, workloads = measure_workloads(root, SEEDS, SECONDS)
    report = {
        "tree": _tree(root),
        "env": env,
        "settings": {"seeds": SEEDS, "seconds": SECONDS, "cli_repeat": CLI_REPEAT,
                     "kernel_trials": KERNEL_TRIALS, "kernel_repeat": KERNEL_REPEAT},
        "workloads": workloads,
        "cli_run_default": measure_cli(root, CLI_REPEAT),
        "tier1": measure_tier1(root),
        "kernels": measure_kernels(root, KERNEL_TRIALS, KERNEL_REPEAT),
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
