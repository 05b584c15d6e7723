#!/usr/bin/env python3
"""Measure a checkout and write the numbers to a ``BENCH_<label>.json`` file.

For each workload of ``BENCHMARK.json`` it runs ``perfbench/run.py
--trace 0`` once per seed of a fixed set and records every run, plus the
median, quartiles, IQR and best of each end-to-end metric; ``--trace 1``
runs at the same seeds give every per-layer metric's median, and one more
at seed 0 the per-layer metrics of the digest-checked run.  It also times two
end-to-end wall clocks, ``ruinfair run`` on the default ``{}`` scenario and
the Tier-1 suite, and tabulates the Monte Carlo kernels against the scalar
references of the checkout's ``tests/oracles.py`` (asserting equal counts
while timing).  The kernel seconds are raw; each case also records
``ref_s``, perfbench's host-speed reference for the kernels
(``splitmix_draws``) timed just before it, so kernel times from different
files compare as ratios to their ``ref_s``.  ``perfbench/`` is only called
or loaded, never changed.  Usage, from the root of a checkout:

    python benchmarks/bench.py --label LABEL [--root DIR]

``--root`` measures another checkout (its ``src``, ``perfbench`` and
tests) with this script; the file is written to ``BENCH_<label>.json`` in
the current directory.  A file takes about five minutes on two CPUs.
``--seeds`` replaces the untraced runs' seeds (default 1-5).

To compare a change with its parent:

    python benchmarks/bench.py --label LABEL --against PARENT_DIR --seeds S1 ... S10

measures both checkouts and writes ``BENCH_<label>-parent.json`` for
``PARENT_DIR`` and ``BENCH_<label>.json`` for ``--root``.  The untraced
runs are taken in pairs, the parent and the change at the same seed, and
the side that runs first alternates from pair to pair; give at least ten
seeds that were not used while the change was written (default 1-10).
The ``ruinfair run`` timings, ``CLI_REPEAT`` a checkout, alternate between
the two checkouts run by run, and the two Tier-1 runs follow each other.  Both files carry a
``pairs`` section: every pair, each side's median and quartiles, and per
metric the change's wins, losses and ties, the median gap (change minus
parent) and the parent's IQR; and each side's ``ruinfair run`` median.
Every untraced run also keeps perfbench's unscaled pass time
(``raw_pass_s``, from its info line), compared pair by pair next to
``pass_s`` but never claimed.
``claim`` is true when the change won at least nine tenths of the pairs
and its median beats the parent's by more than the parent's IQR.  The
``ruin_mc_count`` kernel cases are also timed in one process, the parent's
and the change's kernels called alternately ``KERNEL_PAIRS`` times each,
and ``pairs.kernels`` keeps each side's median and best and the change's
wins.  Such a run takes about fifteen minutes on two CPUs.
"""

from __future__ import annotations

import argparse
import importlib.util
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
PAIR_SEEDS = list(range(1, 11))
PAIR_SHARE = 0.9  # share of the pairs the change must win to claim a gain
SECONDS = 8.0  # perfbench --seconds per run
CLI_REPEAT = 20
KERNEL_TRIALS = 100_000
KERNEL_REPEAT = 3
KERNEL_PAIRS = 25  # alternating parent/change calls of each ruin case

# (name, kernel, arguments before trials and seed, share of KERNEL_TRIALS).
# Cases with many draws per trial run a fraction of the trials, so the
# scalar reference stays quick.  The full-size ruin cases step 65,536-path
# chunks, one period per block; the 2,000-trial case is mc-crosscheck's call
# size, where a block holds several periods.  The chance cases at lam = 100
# and 500 make the lockstep kernel carry its products and totals over many
# blocks.  The collision-draw cases clip each total at a 10 ms frame, as the
# sweeps do: at rates 100-500 every stream is certified at the cap with the
# faster logarithm, at rate 2 few are, and the mixed case runs both the
# faster and the libm pass in one call (see ``_collision_draws``).
KERNEL_CASES = [
    (
        "ruin_mc_count (u=0.01, c=0.001, rate=450, n=10)",
        "ruin_mc_count",
        (0.01, 0.001, 450.0, 10),
        1,
    ),
    ("ruin_mc_count (u=5, c=2, rate=0.5, n=20)", "ruin_mc_count", (5.0, 2.0, 0.5, 20), 1),
    (
        "ruin_mc_count (u=5, c=2, rate=0.5, n=20, 2000 trials)",
        "ruin_mc_count",
        (5.0, 2.0, 0.5, 20),
        0.02,
    ),
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
    (
        "compound_poisson_totals (lam=100..500, mu=450, cap=10ms)",
        "compound_poisson_totals",
        ((100.0, 200.0, 300.0, 400.0, 500.0), 450.0, 0.01),
        1 / 100,
    ),
    (
        "compound_poisson_totals (lam=2, mu=450, cap=10ms)",
        "compound_poisson_totals",
        ((2.0,), 450.0, 0.01),
        1 / 10,
    ),
    (
        "compound_poisson_totals (lam=2,100,300,500, mu=450, cap=10ms)",
        "compound_poisson_totals",
        ((2.0, 100.0, 300.0, 500.0), 450.0, 0.01),
        1 / 100,
    ),
]


def _src_env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def _perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int):
    """One ``perfbench/run.py`` run: its env line, its info and its result line."""
    command = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(
        [sys.executable, *command],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    return json.loads(out[0])["env"], json.loads(out[1])["info"], json.loads(out[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def _metrics(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def _untraced(roots: list[Path], workload: str, seeds: list[int], seconds: float):
    """One ``--trace 0`` run per root and seed; the root that runs first at a
    seed rotates from seed to seed.  Returns the env line and each root's
    runs, each with perfbench's unscaled pass time ``raw_pass_s``."""
    env, runs = {}, [[] for _ in roots]
    for i, seed in enumerate(seeds):
        for k in [(i + j) % len(roots) for j in range(len(roots))]:
            env, info, result = _perfbench(roots[k], workload, seed, seconds, 0)
            runs[k].append({"seed": seed, "first": k == i % len(roots),
                            "correct": result["correct"], "failed": result["failed"],
                            "attempted": result["attempted"], "metrics": _metrics(result),
                            "raw_pass_s": info["raw_pass_s"]})
            print(f"{roots[k]} {workload} seed {seed}: {runs[k][-1]['metrics']}",
                  file=sys.stderr)
    return env, runs


def _summaries(runs: list[dict], better: dict) -> dict:
    summary = {}
    for name, direction in better.items():
        values = [run["metrics"][name] for run in runs]
        stats = _summary(values)
        stats["best"] = min(values) if direction == "lower" else max(values)
        summary[name] = stats
    return summary


def _traced(root: Path, workload: str, seeds: list[int], seconds: float) -> dict:
    traced = []
    for seed in [0, *seeds]:
        _, _, result = _perfbench(root, workload, seed, seconds, 1)
        traced.append({"seed": seed, "correct": result["correct"], **_metrics(result)})
    layers = [name for name in traced[0] if name not in ("seed", "correct")]
    return {
        "trace_seed0": traced[0],
        "trace_runs": traced[1:],
        "trace_median": {name: statistics.median(run[name] for run in traced[1:])
                         for name in layers},
    }


def measure_workloads(roots: list[Path], seeds: list[int], seconds: float) -> list[tuple]:
    """Each root's env line and workloads section; the untraced runs of
    the roots alternate (see ``_untraced``)."""
    spec = json.loads((roots[0] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    measured = [({}, {}) for _ in roots]
    for workload in [w["name"] for w in spec["workloads"]]:
        env, runs = _untraced(roots, workload, seeds, seconds)
        for root, (root_env, workloads), root_runs in zip(roots, measured, runs):
            root_env.update(env)
            workloads[workload] = {"runs": root_runs, "summary": _summaries(root_runs, better),
                                   **_traced(root, workload, seeds, seconds)}
    return measured


def _paired(parent: list[float], change: list[float], sign: float) -> dict:
    """Each side's median and quartiles, and the change's wins, losses and
    ties over the pairs (``sign`` is 1 when lower is better, -1 when higher)."""
    # Positive when the change is better.
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    base, side = _summary(parent), _summary(change)
    return {
        "parent": {k: base[k] for k in ("median", "q1", "q3")},
        "change": {k: side[k] for k in ("median", "q1", "q3")},
        "wins": sum(g > 0 for g in gains),
        "losses": sum(g < 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "median_gap": side["median"] - base["median"],
        "median_ratio": side["median"] / base["median"],
        "parent_iqr": base["iqr"],
    }


def compare(parent: dict, change: dict, better: dict) -> dict:
    """Pair by pair, the change's workloads section against the parent's.
    Next to ``pass_s`` comes ``raw_pass_s``, the same pass unscaled by the
    host-speed reference; it is reported, never claimed."""
    pairs = {}
    for workload, side in change.items():
        base = parent[workload]
        metrics = {}
        for name, direction in better.items():
            sign = 1.0 if direction == "lower" else -1.0
            stats = _paired([p["metrics"][name] for p in base["runs"]],
                            [c["metrics"][name] for c in side["runs"]], sign)
            stats["claim"] = (stats["wins"] >= PAIR_SHARE * len(base["runs"])
                              and -sign * stats["median_gap"] > stats["parent_iqr"])
            metrics[name] = stats
            if name == "pass_s":
                metrics["raw_pass_s"] = _paired([p["raw_pass_s"] for p in base["runs"]],
                                                [c["raw_pass_s"] for c in side["runs"]], sign)
        pairs[workload] = {
            "runs": [{"seed": p["seed"], "parent_first": p["first"],
                      "parent": {**p["metrics"], "raw_pass_s": p["raw_pass_s"]},
                      "change": {**c["metrics"], "raw_pass_s": c["raw_pass_s"]}}
                     for p, c in zip(base["runs"], side["runs"])],
            "metrics": metrics,
        }
    return pairs


def measure_cli(roots: list[Path], repeat: int) -> list[dict]:
    """Wall time of ``ruinfair run`` on ``{}`` in each root, interpreter
    start included.  The roots take turns run by run, and the root that runs
    first rotates from run to run, as the untraced perfbench runs do."""
    times = [[] for _ in roots]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "default.json"
        config.write_text("{}")
        for i in range(repeat):
            for k in [(i + j) % len(roots) for j in range(len(roots))]:
                started = time.perf_counter()
                subprocess.run(
                    [sys.executable, "-m", "ruinfair.cli", "run", "--config", str(config),
                     "--out", str(Path(tmp) / f"out{k}-{i}")],
                    cwd=roots[k], env=_src_env(roots[k]), check=True, capture_output=True,
                )
                times[k].append(time.perf_counter() - started)
    return [{"runs_s": t, "median_s": statistics.median(t), "best_s": min(t)} for t in times]


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


def _best_of(fn, args, repeat, before=lambda: None):
    best, result = float("inf"), None
    for _ in range(repeat):
        before()
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def _load(name: str, path: Path):
    """Import the module file ``path`` as ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _collision_draws(scalar, lockstep):
    """Scalar and lockstep collision totals with the chance kernels' calling
    convention, ``(rates, mu, cap, trials, seed)``: each of the first
    ``trials // len(rates)`` streams, stream ``i`` drawn from
    ``substream_seed(seed, i)``, is drawn at every rate, and each total is
    clipped at ``cap``; the totals come rate by rate."""
    from ruinfair.prng import substream_seed

    def pure(rates, mu, cap, trials, seed):
        seeds = [substream_seed(seed, i) for i in range(trials // len(rates))]
        draws = (scalar.sample_collisions(rate, mu, s) for rate in rates for s in seeds)
        return [min(draw.total, cap) for draw in draws]

    def lockstep_totals(rates, mu, cap, trials, seed):
        states = lockstep._substreams(seed, 0, trials // len(rates))
        return lockstep.compound_poisson_totals(states, rates, mu, cap).ravel().tolist()

    return pure, lockstep_totals


def _kernels_of(root: Path):
    """The checkout's ``ruinfair._kernels``, imported afresh from its ``src``."""
    # Another checkout's ruinfair may have been loaded before: load this one.
    for name in [m for m in sys.modules if m.partition(".")[0] == "ruinfair"]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    return importlib.import_module("ruinfair._kernels")


def _call_args(kernel_args: tuple, share: float, trials: int) -> tuple:
    return (*kernel_args, max(1, round(trials * share)), 42)


def measure_ruin_pairs(roots: list[Path], trials: int, pairs: int) -> dict:
    """The ``ruin_mc_count`` cases of ``KERNEL_CASES`` with both checkouts'
    kernels loaded in one process, called alternately, parent then change,
    ``pairs`` times each after one untimed call each: per case, each side's
    median and best and the change's wins.  Both sides' counts must agree."""
    sides = [_kernels_of(root) for root in roots]
    table = {}
    for name, kernel, kernel_args, share in KERNEL_CASES:
        if kernel != "ruin_mc_count":
            continue
        call_args = _call_args(kernel_args, share, trials)
        counts = {kernels.ruin_mc_count(*call_args) for kernels in sides}
        if len(counts) != 1:
            raise SystemExit(f"{name}: parent and change count {sorted(counts)}")
        times = [[] for _ in sides]
        for _ in range(pairs):
            for kernels, side in zip(sides, times):
                started = time.perf_counter()
                kernels.ruin_mc_count(*call_args)
                side.append(time.perf_counter() - started)
        parent, change = times
        table[name] = {
            "pairs": pairs,
            "parent": {"median_s": statistics.median(parent), "best_s": min(parent)},
            "change": {"median_s": statistics.median(change), "best_s": min(change)},
            "wins": sum(c < p for p, c in zip(parent, change)),
            "losses": sum(c > p for p, c in zip(parent, change)),
        }
        print(f"{name:<56} parent {statistics.median(parent):8.4f}s  "
              f"change {statistics.median(change):8.4f}s  "
              f"wins {table[name]['wins']}/{pairs}", file=sys.stderr)
    return table


def measure_kernels(root: Path, trials: int, repeat: int) -> list[dict]:
    """Lockstep against the scalar reference, best of ``repeat`` each.

    The kernels are the checkout's ``ruinfair._kernels``.
    """
    kernels = _kernels_of(root)

    # The checkout's scalar Monte Carlo counts, and the reference work that
    # perfbench scales the kernels' workload by.
    scalar = _load("oracles", root / "tests" / "oracles.py")
    host_reference = _load("workloads", root / "perfbench" / "workloads.py").splitmix_draws

    # The lockstep chance kernel keeps its last chunk's draws for the next
    # call; clearing them before each timed call times the draws, not a
    # cache hit.
    clear = kernels._chance_draws.cache_clear
    table = []
    for name, kernel, kernel_args, share in KERNEL_CASES:
        call_args = _call_args(kernel_args, share, trials)
        if kernel == "compound_poisson_totals":
            pure_fn, lockstep_fn = _collision_draws(scalar, kernels)
        else:
            pure_fn, lockstep_fn = getattr(scalar, kernel), getattr(kernels, kernel)
        ref_s, _ = _best_of(host_reference, (), repeat)
        pure_s, expected = _best_of(pure_fn, call_args, repeat)
        lockstep_s, result = _best_of(lockstep_fn, call_args, repeat, clear)
        if result != expected:
            raise SystemExit(f"{name}: lockstep {result} != pure {expected}")
        table.append({"case": name, "trials": call_args[-2], "ref_s": ref_s,
                      "pure_s": pure_s, "lockstep_s": lockstep_s,
                      "speedup": pure_s / lockstep_s})
        print(f"{name:<56} ref {ref_s:7.4f}s  pure {pure_s:8.3f}s  "
              f"lockstep {lockstep_s:8.4f}s  {pure_s / lockstep_s:6.1f}x", file=sys.stderr)
    return table


def _tree(root: Path) -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def _report(root: Path, env: dict, workloads: dict, settings: dict, cli: dict,
            tier1: dict) -> dict:
    return {
        "tree": _tree(root),
        "env": env,
        "settings": settings,
        "workloads": workloads,
        "cli_run_default": cli,
        "tier1": tier1,
        "kernels": measure_kernels(root, KERNEL_TRIALS, KERNEL_REPEAT),
    }


def _write(label: str, report: dict) -> None:
    out = Path(f"BENCH_{label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE.parent)
    parser.add_argument("--against", type=Path, help="parent checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+")
    args = parser.parse_args()
    roots = [args.root.resolve()]
    if args.against:
        roots.insert(0, args.against.resolve())
    seeds = args.seeds or (PAIR_SEEDS if args.against else SEEDS)
    settings = {"seeds": seeds, "seconds": SECONDS, "cli_repeat": CLI_REPEAT,
                "kernel_trials": KERNEL_TRIALS, "kernel_repeat": KERNEL_REPEAT,
                "kernel_pairs": KERNEL_PAIRS}
    measured = measure_workloads(roots, seeds, SECONDS)
    # The two end-to-end clocks of both roots run next to each other, so
    # that the host's drift over the workloads' minutes does not split them.
    clis = measure_cli(roots, CLI_REPEAT)
    tier1s = [measure_tier1(root) for root in roots]
    reports = [_report(root, env, workloads, settings, cli, tier1)
               for root, (env, workloads), cli, tier1 in zip(roots, measured, clis, tier1s)]
    if args.against:
        parent, change = reports
        spec = json.loads((roots[1] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        pairs = compare(parent["workloads"], change["workloads"], better)
        cli_medians = {"parent_median_s": clis[0]["median_s"],
                       "change_median_s": clis[1]["median_s"]}
        kernels = measure_ruin_pairs(roots, KERNEL_TRIALS, KERNEL_PAIRS)
        parent["pairs"] = change["pairs"] = {"parent": parent["tree"],
                                             "change": change["tree"], "workloads": pairs,
                                             "cli_run_default": cli_medians,
                                             "kernels": kernels}
        _write(f"{args.label}-parent", parent)
    _write(args.label, reports[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
