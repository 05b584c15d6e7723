#!/usr/bin/env python3
"""Benchmark the Monte Carlo kernel backends against the scalar reference.

Every backend produces bit-identical results (asserted here while timing);
the only difference is speed.  The compiled backend is timed only where it
was built.  Cases with many draws per trial run a fraction of ``--trials``
(shown in the case name), so the scalar reference stays quick; the
``chance_mc_count`` cases at lam = 100 and 500 make the lockstep kernel
carry its Poisson products and duration totals over many blocks.  Usage:

    python benchmarks/bench_backends.py [--trials N] [--repeat R]
"""

import argparse
import time

from ruinfair._kernels import _lockstep, _pure


def _load_fast():
    try:
        from ruinfair._kernels import _fast
    except ImportError:
        return None
    return _fast


# (name, kernel, arguments before trials and seed, share of --trials)
CASES = [
    (
        "ruin_mc_count (u=0.01, c=0.001, rate=450, n=10)",
        "ruin_mc_count",
        (0.01, 0.001, 450.0, 10),
        1,
    ),
    (
        "ruin_mc_count (u=5, c=2, rate=0.5, n=20)",
        "ruin_mc_count",
        (5.0, 2.0, 0.5, 20),
        1,
    ),
    (
        "chance_mc_count (alpha=4ms, thr=9ms, lam=1, mu=450)",
        "chance_mc_count",
        (0.004, 0.009, 1.0, 450.0),
        1,
    ),
    (
        "chance_mc_count (alpha=4ms, thr=0.3s, lam=100, mu=450), trials/100",
        "chance_mc_count",
        (0.004, 0.3, 100.0, 450.0),
        1 / 100,
    ),
    (
        "chance_mc_count (alpha=4ms, thr=1.1s, lam=500, mu=450), trials/500",
        "chance_mc_count",
        (0.004, 1.1, 500.0, 450.0),
        1 / 500,
    ),
]


def _time(fn, args, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    backends = [_pure, _lockstep]
    fast = _load_fast()
    if fast is None:
        print("compiled backend not built; timing pure and lockstep only")
    else:
        backends.append(fast)

    name_width = max(len(name) for name, _, _, _ in CASES)
    header = f"{'case':<{name_width}}"
    for backend in backends:
        header += f"  {backend.BACKEND:>10}"
        if backend is not _pure:
            header += f"  {'speedup':>8}"
    print(header)
    print("-" * len(header))

    for name, kernel, kernel_args, share in CASES:
        call_args = (*kernel_args, max(1, round(args.trials * share)), 42)
        pure_time, pure_result = _time(getattr(_pure, kernel), call_args, args.repeat)
        line = f"{name:<{name_width}}  {pure_time:>9.3f}s"
        for backend in backends[1:]:
            took, result = _time(getattr(backend, kernel), call_args, args.repeat)
            assert result == pure_result, f"{backend.BACKEND} disagrees with pure"
            line += f"  {took:>9.4f}s  {pure_time / took:>7.1f}x"
        print(line)


if __name__ == "__main__":
    main()
