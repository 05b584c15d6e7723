#!/usr/bin/env python3
"""ruinfair benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout (no build or install step; the library is
imported from ``src``):

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 36 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  ``--trace 0``
repeats passes of the workload for ``--seconds`` seconds (at least one
whole pass) and reports the end-to-end metrics, each time scaled for host
speed (see ``REF_S``); ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics of the traced one.  Output files go to
``.bench_build/perfbench/<workload>``.  Every whole pass is checked: model
invariants at any seed and, at seed 0, the digests in ``digests.json``
(``--record-digests`` rewrites the workload's entry from one pass at seed 0).

Information lines come first on standard output; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 2 means the benchmark could not run (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import spans
from workloads import (
    DIGESTS, POINT, ROOT, WORKLOADS, Checks, import_ruinfair, recorded_digests,
)

HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
STEP_SPAN = "bench.step"

# Host speed on a shared machine swings by up to 1.8x over seconds to
# minutes, and CPU time swings with it.  Every time a run reports is
# therefore scaled to a nominal host: a step's raw time t is reported as
# t * REF_S / r, where r is the time of the workload's reference work
# (``work.reference``) measured just before it, at most REF_EVERY_S
# earlier; set-up is scaled likewise by SETUP_REF_S over a reference
# interpreter start.  The raw times are printed on the information line.
REF_S = 0.008
REF_EVERY_S = 0.25
SETUP_REF_S = 0.13


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _declared_metrics(spec: dict, trace: bool) -> dict[str, str]:
    entries = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def _check_names(spec: dict) -> list[str]:
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not spans.NAME_RE.fullmatch(n)]
    if len(set(names)) != len(names):
        bad.append("(duplicate names)")
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != set(spans.PER_LAYER_METRICS):
        bad.append("(per_layer differs from spans.PER_LAYER_METRICS)")
    return bad


def environment(rf) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "backend": rf.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def reference(work: Callable[[], object]) -> float:
    """Time one run of fixed reference work."""
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def _clocked(args: list[str]) -> float:
    """Run a fresh interpreter that prints its monotonic clock when done; the
    time from start to that reading.  Linux shares the clock between
    processes, so interpreter exit and the wait are not timed."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S, capture_output=True, text=True,
    ).stdout.split()[-1]
    return float(done) - started


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median (scaled, raw) time for a fresh interpreter to import ruinfair
    and parse and validate the workload's inputs (``probe.py``).

    Each probe is scaled by a fresh interpreter importing NumPy, timed just
    before it, which meets the same process-start and import costs.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        ref_s = _clocked(["-c", "import time, numpy; print(time.perf_counter())"])
        raw.append(_clocked([str(HERE / "probe.py"), workload, str(seed)]))
        scaled.append(raw[-1] * SETUP_REF_S / ref_s)
    return statistics.median(scaled), statistics.median(raw)


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_untraced(work, args, out_dir: Path, checks: Checks, recorded) -> tuple[dict, dict]:
    """Repeat passes for ``args.seconds`` and time each step of each pass.

    After the first pass, a step starts only if its median time so far fits
    before the deadline; a pass cut short is not checked.  A pass is
    estimated as the sum over its steps of each step's median (scaled) time.
    """
    setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    work.prepare(args.seed)
    raw_s: list[list[float]] = []  # per step, its raw times
    scaled_s: list[list[float]] = []  # per step, its times scaled by REF_S / ref_s
    kinds: list[str] = []
    reference(work.reference)  # warm-up
    refs = [reference(work.reference)]
    ref_at = time.perf_counter()
    deadline = ref_at + args.seconds
    passes, info = 0, {}
    while not passes or time.perf_counter() < deadline:
        outputs: dict = {}
        steps = work.run_pass(out_dir, outputs)
        i = 0
        while True:
            if passes and i < len(raw_s):
                if time.perf_counter() + statistics.median(raw_s[i]) > deadline:
                    steps.close()
                    break
            if time.perf_counter() - ref_at >= REF_EVERY_S:
                refs.append(reference(work.reference))
                ref_at = time.perf_counter()
            started = time.perf_counter()
            kind = next(steps, None)
            step = time.perf_counter() - started
            if kind is None:
                passes += 1
                info = work.check(outputs, checks, recorded)
                break
            if i == len(raw_s):
                raw_s.append([])
                scaled_s.append([])
                kinds.append(kind)
            raw_s[i].append(step)
            scaled_s[i].append(step * REF_S / refs[-1])
            i += 1
        if i == 0:  # not even the first step fits any more
            break
    pass_s = sum(map(statistics.median, scaled_s))
    metrics = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "work_per_s": work.work_per_pass() / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info.update(
        passes=passes,
        samples_per_step=min(map(len, raw_s)),
        raw_setup_s=raw_setup_s,
        raw_pass_s=sum(map(statistics.median, raw_s)),
        ref_ms=1e3 * statistics.median(refs),
        refs=len(refs),
    )
    # Per-point latency (scaled) exists on mc-crosscheck only, so it is
    # printed, not reported as a metric (every metric is reported on every
    # workload).
    point_s = [x for kind, samples in zip(kinds, scaled_s) if kind == POINT for x in samples]
    if point_s:
        info.update(
            points=len(point_s),
            point_p50_ms=1e3 * statistics.median(point_s),
            point_p95_ms=1e3 * percentile(point_s, 95),
        )
    return metrics, info


def full_pass(work, out_dir: Path, tracer=None) -> tuple[float, dict]:
    """One whole pass; traced, each step is a root span ``bench.step``."""
    outputs: dict = {}
    steps = work.run_pass(out_dir, outputs)
    started = time.perf_counter()
    if tracer is None:
        for _ in steps:
            pass
    else:
        while tracer.run(STEP_SPAN, next, steps, None) is not None:
            pass
    return time.perf_counter() - started, outputs


def run_traced(work, args, out_dir: Path, checks: Checks, recorded) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass with every layer wrapped."""
    work.prepare(args.seed)
    untraced_s, outputs = full_pass(work, out_dir)
    work.check(outputs, checks, recorded)

    tracer = spans.Tracer()
    missing = tracer.install()
    try:
        work.prepare(args.seed)  # traced, for config.parse
        traced_s, outputs = full_pass(work, out_dir, tracer)
    finally:
        tracer.uninstall()
    info = work.check(outputs, checks, recorded)

    metrics = tracer.layer_metrics()
    metrics[spans.OVERHEAD_METRIC[0]] = traced_s / untraced_s - 1.0
    if work.kind == "sweep":
        for kernel in ("kernels.ruin_mc_count", "kernels.chance_mc_count"):
            checks.expect(metrics[f"{kernel}.calls"] == 0, f"{kernel}: not called by sweeps")
    with open(out_dir / "trace.json", "w", encoding="utf-8") as out:
        json.dump(
            {"fields": spans.Span._fields, "spans": tracer.spans, "metrics": metrics}, out
        )
    info.update(missing_layers=missing, untraced_s=untraced_s, traced_s=traced_s)
    return metrics, info


def record(work, workload: str, out_dir: Path) -> int:
    """Rewrite the workload's digests from one pass at seed 0."""
    work.prepare(0)
    digests = work.digests(full_pass(work, out_dir)[1])
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    recorded[workload] = digests
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({workload: digests}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    bad = _check_names(spec)
    if bad:
        return _fail(f"BENCHMARK.json names rejected: {bad}")
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        rf = import_ruinfair()
    except ImportError as exc:
        return _fail(f"cannot import ruinfair from this checkout: {exc}")

    out_dir = OUT_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload]()
    if args.record_digests:
        return record(work, args.workload, out_dir)

    checks = Checks()
    recorded = recorded_digests(args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    metrics, info = run(work, args, out_dir, checks, recorded)

    declared = _declared_metrics(spec, bool(args.trace))
    if set(metrics) != set(declared):
        return _fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    print(json.dumps({"env": environment(rf), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({"info": info, "digests_checked": recorded is not None}))
    for failure in checks.failures:
        print(f"FAILED CHECK: {failure}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]} for name in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
