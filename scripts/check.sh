#!/usr/bin/env bash
# One-stop local gate: runs exactly what CI runs, skipping tools that
# are not installed (mypy/ruff are dev extras; the analyzer and pytest
# only need the package itself).
#
#   ./scripts/check.sh          # analyzer + mypy + ruff + tests + claims + perf
#   ./scripts/check.sh fast     # analyzer only (about 3 s)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
export PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"

failed=0
run() {
    echo "==> $*"
    "$@" || failed=1
}

# One analyzer invocation covers every rule: the CLI parses src/ into
# a single Project, and the interprocedural layer (call graph + effect
# table) is memoised on it, so intraprocedural and call-graph rules
# share one parse pass.  The time budget keeps that property honest --
# if analysis regresses past 3s the dev loop gate fails loudly instead
# of quietly slowing every commit.
run python -m repro.devtools.analyzer src/ --strict --time-budget 3

if [ "${1:-}" = "fast" ]; then
    exit "$failed"
fi

if command -v mypy >/dev/null 2>&1; then
    run mypy --strict src/
else
    echo "==> mypy not installed; skipping (pip install -e .[dev])"
fi

if command -v ruff >/dev/null 2>&1; then
    run ruff check src/
else
    echo "==> ruff not installed; skipping (pip install -e .[dev])"
fi

run python -m pytest -x -q

# Paper claims (CI's claims job): every bench regenerates its table or
# figure at the default scale, asserts the paper's claim about it and
# writes it into EXPERIMENTS.md.  The run must leave that file as it
# found it: a difference is a number the change moved.
experiments_before="$(mktemp)"
cp EXPERIMENTS.md "$experiments_before"
run python -m pytest benchmarks/ -q
run diff -u "$experiments_before" EXPERIMENTS.md
rm -f "$experiments_before"

# Store layout (CI's bench-smoke job): a parallel fig7 run, its cached
# rerun, then no record or trace may hold an inline array, the output
# blobs must exist, and no blob or trace may lie outside the cache's
# own layout.
store_dir="$(mktemp -d)"
run python -m repro.bench fig7 --jobs 2 --datasets cora amazon-photo \
    --cache-dir "$store_dir" --output "$store_dir/out"
run python -m repro.bench fig7 --jobs 2 --datasets cora amazon-photo \
    --cache-dir "$store_dir"
run python scripts/check_store.py "$store_dir"
rm -rf "$store_dir"
# A --no-cache run keeps its results and traces in a private temporary
# store and removes it at exit: its TMPDIR ends empty.
no_cache_tmp="$(mktemp -d)"
run env TMPDIR="$no_cache_tmp" python -m repro.bench fig7 --no-cache \
    --datasets cora
run test -z "$(ls -A "$no_cache_tmp")"
rm -rf "$no_cache_tmp"

# Replay end to end: with its result record cleared, a repeated submit
# must replay exactly the phases its first run recorded in the cache
# (the smoke asserts it via /metrics) while still streaming progress.
run python -m repro.serve smoke

# Engine gate (CI's perf-smoke job): the batched engine must beat the
# scalar one on a tiny fixed workload.
run python scripts/bench_sim_speed.py --smoke

# Perf gate over the committed BENCH_sim.json trajectory: the newest
# entry's replay headline and cold-run engine-only aggregate speedups
# must not have regressed >10% against the previous same-workload entry.
run python scripts/bench_sim_speed.py --check-regression

# Repository benchmark self-tests, then every workload end to end at
# smoke scale with stats digests checked against perf/expected.json.
run python -m pytest perf/tests -q
run python3 perf/run.py --smoke

exit "$failed"
