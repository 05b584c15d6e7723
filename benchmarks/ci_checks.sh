#!/usr/bin/env bash
# The checks CI makes after Tier-1, runnable on any checkout with NumPy:
#
#   bash benchmarks/ci_checks.sh
#
# from anywhere; it works from the root of the checkout it sits in and
# stops at the first failing check.  In order:
#
# 1. The shipped layout, without building: setuptools finds the one
#    package ruinfair under src/ (as pyproject.toml's packages.find does),
#    and the kernels are the single module src/ruinfair/_kernels.py.
# 2. Every installed interpreter that pyproject.toml's requires-python
#    admits (python3.N on PATH, and each pyenv version when pyenv is
#    installed) compiles src/, tests/, perfbench/ and benchmarks/.
# 3. Same seed, same bytes at every SIMD level, end to end: the default
#    scenario's CSVs (whose water-filling takes log1p over 2-D arrays), a
#    congested lambda_base sweep's (whose collision draws read the counts
#    at rates 100 to 500 off one sequence of products per cell, in one
#    kernel run), a 30,000-replication wst_count sweep's (90,000 cells a
#    key, so each key takes two kernel blocks, and the fast-log
#    certificate runs at every rate, 1 to 10) and those of 2,000 UEs behind
#    one WAP (4,000 uniforms of the UE drops) are written again with
#    NumPy's dispatch held to its baseline, and compared with cmp.  The
#    CLI is imported from src/, as Tier-1 does.
# 4. The benchmark's self-test, perfbench/selftest.py.
# 5. perfbench/run.py on every workload at seed 0 and seed 1 untraced, and
#    at seed 0 traced: nine runs, each of whose last line must read
#    "correct": true.  Seed 0 is checked against the recorded digests; seed
#    1 has none, but the model invariants (alpha* follows the policy,
#    monotone in LTE-U airtime, counts in range) are checked at every seed.
#    The traced run (--trace 1) wraps every layer the library still has and
#    lists the ones it lacks in its info line.
# 6. mc-crosscheck at seed 0 again with NumPy's dispatch held to its
#    baseline: its ruin and chance counts, checked against the digests,
#    rest on _K covering the gap between np.log and libm's logarithm at
#    every SIMD level, not only at the host's.

set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== shipped layout"
python3 -c 'import setuptools, sys; found = setuptools.find_packages("src"); print(found); sys.exit(found != ["ruinfair"])'
test -f src/ruinfair/_kernels.py

echo "== compileall with every admitted interpreter"
minimum=$(sed -n 's/^requires-python = ">=\([0-9.]*\)"$/\1/p' pyproject.toml)
test -n "$minimum"
candidates=()
for minor in $(seq "${minimum#3.}" 30); do
    candidates+=("python3.$minor")
done
if command -v pyenv > /dev/null; then
    candidates+=("$(pyenv root)"/versions/*/bin/python3)
fi
seen=" "
for py in "${candidates[@]}"; do
    # A pyenv shim of a version that is not selected is on PATH but fails.
    exe=$("$py" -c 'import os, sys; print(os.path.realpath(sys.executable))' 2> /dev/null) || continue
    admitted=$("$py" -c "import sys; print(sys.version_info[:2] >= tuple(map(int, '$minimum'.split('.'))))")
    if [[ $admitted != True || $seen == *" $exe "* ]]; then
        continue
    fi
    seen+="$exe "
    echo "$("$py" -c 'import platform; print(platform.python_version())') ($exe)"
    PYTHONPYCACHEPREFIX="$tmp/pycache" "$py" -m compileall -q src tests perfbench benchmarks
done
test "$seen" != " "

echo "== same CSVs at NumPy's baseline SIMD dispatch"
echo '{}' > "$tmp/scenario.json"
echo '{"policy":{"kind":"thresholded_linear"},"sweeps":{"lambda":{"variable":"lambda_base","values":[10,20,30,40,50]}}}' > "$tmp/lambda.json"
echo '{"seeds":{"replications":30000},"sweeps":{"w":{"variable":"wst_count","values":[5,10,20,50]}}}' > "$tmp/wst.json"
echo '{"topology":{"wap_count":1,"ue_count":2000}}' > "$tmp/ues.json"
ruinfair() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m ruinfair.cli "$@"
}
for scenario in scenario lambda wst ues; do
    ruinfair run --config "$tmp/$scenario.json" --out "$tmp/out/$scenario"
    NPY_ENABLE_CPU_FEATURES=NONE ruinfair run --config "$tmp/$scenario.json" --out "$tmp/baseline/$scenario"
    for csv in "$tmp/out/$scenario"/sweep_*.csv; do
        name=$scenario/${csv##*/}
        cmp "$csv" "$tmp/baseline/$name"
        echo "$name: same bytes"
    done
done

echo "== benchmark self-test"
python3 perfbench/selftest.py

echo "== benchmark output checks"
# run.py exits 0 on wrong output, so the verdict is read from its last line.
checked_run() {
    out=$(python3 perfbench/run.py "$@" --seconds 1)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | tail -n 1 | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
}
for args in "--seed 0 --trace 0" "--seed 1 --trace 0" "--seed 0 --trace 1"; do
    for workload in sweep-default sweep-congested mc-crosscheck; do
        checked_run --workload "$workload" $args
    done
done

echo "== Monte Carlo counts at NumPy's baseline SIMD dispatch"
NPY_ENABLE_CPU_FEATURES=NONE checked_run --workload mc-crosscheck --seed 0

echo "== all checks passed"
