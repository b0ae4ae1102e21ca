#!/usr/bin/env bash
# CI entry point. Fully offline: the workspace has no registry
# dependencies (uu-check replaces rand/proptest/criterion), so every step
# must pass with --offline on a clean checkout.
#
#   ./ci.sh          # build (warnings are errors), test, fuzz smoke
#
# Knobs (see DESIGN.md "Testing & fuzzing"):
#   UU_CHECK_SEED   replay a whole fuzz run (decimal or 0x-hex)
#   UU_CHECK_CASES  per-property case budget (ci.sh smoke uses 200)
#   UU_JOBS         worker count for the parallel sweep/fuzz engine
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, offline, deny warnings) =="
RUSTFLAGS="${RUSTFLAGS:-} -Dwarnings" cargo build --release --offline --all-targets

echo "== test =="
cargo test -q --offline

echo "== fuzz smoke (200 cases per property) =="
UU_CHECK_CASES=200 cargo test -q --offline --release -p uu-tests

echo "== parallel determinism: uu-fuzz stdout must not depend on UU_JOBS =="
# Same seed, serial vs 4 workers. stdout carries the corpus verdicts, the
# per-case digests and (on failure) the shrunk spec; stderr carries the
# timings. Any scheduling leak into the report shows up as a diff here.
mkdir -p target/ci
t1=$(date +%s)
UU_CHECK_CASES=200 UU_JOBS=1 ./target/release/uu-fuzz > target/ci/fuzz-j1.txt
t2=$(date +%s)
UU_CHECK_CASES=200 UU_JOBS=4 ./target/release/uu-fuzz > target/ci/fuzz-j4.txt
t3=$(date +%s)
diff target/ci/fuzz-j1.txt target/ci/fuzz-j4.txt
echo "fuzz smoke identical across UU_JOBS (serial $((t2-t1))s, 4 workers $((t3-t2))s)"

echo "== fault-injection smoke: degraded reports must not depend on UU_JOBS =="
# Three fault kinds (a pass panic, a silent miscompile, a one-shot memory
# fault), each swept at one and four workers on one benchmark. The sweep
# must complete, the fault report must record the degradation, and the
# whole report directory must be byte-identical across worker counts
# (see DESIGN.md "Fault tolerance & crash recovery").
for fault in 'panic@3' 'miscompile@2:7' 'mem@40'; do
  for jobs in 1 4; do
    out="target/ci/fault-${fault//[@:]/-}-j${jobs}"
    rm -rf "$out"
    UU_FAULT="$fault" UU_JOBS="$jobs" \
      ./target/release/uu-harness fig7 --fast --bench bezier-surface --out "$out" \
      > /dev/null
  done
  diff -r "target/ci/fault-${fault//[@:]/-}-j1" "target/ci/fault-${fault//[@:]/-}-j4"
  # The fault report must actually record a degradation, not a clean run.
  if grep -q 'ran cleanly' "target/ci/fault-${fault//[@:]/-}-j1/faults.txt"; then
    echo "fault $fault left no trace in faults.txt" >&2
    exit 1
  fi
  echo "fault $fault: contained, diagnosed, identical across UU_JOBS"
done

echo "== meld smoke: golden snapshots, study determinism, injected meld panic =="
# The meld golden before/after snapshots must match the checked-in files
# (the full test suite above runs them too; this rung re-runs just the
# meld ones so a meld regression is named in the CI log).
cargo test -q --offline --release -p uu-core --test golden golden_meld > /dev/null
# The three-way unmerge/meld study must be byte-identical at 1 and 4
# workers, like every other report artifact.
for jobs in 1 4; do
  rm -rf "target/ci/study-j${jobs}"
  UU_JOBS="$jobs" ./target/release/uu-harness study --bench mandelbrot \
    --out "target/ci/study-j${jobs}" > /dev/null
done
diff -r target/ci/study-j1 target/ci/study-j4
# A panic injected into pass invocation 1 — the meld invocation of every
# uu<k>+meld compile — must be contained (study completes), must leave a
# `meld#1` trace in the fig9 diag column, and must stay byte-identical
# across worker counts.
for jobs in 1 4; do
  out="target/ci/study-fault-j${jobs}"
  rm -rf "$out"
  UU_FAULT='panic@1' UU_JOBS="$jobs" \
    ./target/release/uu-harness study --bench mandelbrot --out "$out" > /dev/null
done
diff -r target/ci/study-fault-j1 target/ci/study-fault-j4
if ! grep -q 'meld#1' target/ci/study-fault-j1/fig9.csv; then
  echo "injected meld panic left no meld#1 trace in fig9.csv" >&2
  exit 1
fi
echo "meld smoke: golden + study + faulted study identical across UU_JOBS"

echo "== engine identity: checked-in results-fast/ must reproduce byte-identically =="
# The decoded execution engine must not change a single reported byte
# relative to the committed reports (the cycle model is engine-invariant).
# The sweep launches every kernel config many times, so after the first
# launch of each function this rung runs almost entirely on the
# cross-launch decode cache — the byte-identical diff is also the
# cached-decode identity gate (a stale or mis-keyed cache entry would
# surface here as a report diff).
rm -rf target/ci/results-fast
./target/release/uu-harness all --fast --out target/ci/results-fast > /dev/null
diff -r results-fast target/ci/results-fast
echo "results-fast (cached-decode sweep) reproduces byte-identically"

echo "== cache smoke: cached fast sweep, cold then warm, must match the reference =="
# Cache-aware sweep identity: the fast sweep through a disk cache (cold,
# then warm) must be byte-identical to the cacheless reference directory
# produced by the engine-identity rung above. The cache stats each run
# prints on stderr must be valid versioned JSON.
rm -rf target/ci/sweep-cache
for pass in cold warm; do
  rm -rf "target/ci/results-fast-cache-$pass"
  t0=$(date +%s)
  UU_CACHE_DIR=target/ci/sweep-cache \
    ./target/release/uu-harness all --fast --out "target/ci/results-fast-cache-$pass" \
    > /dev/null 2> "target/ci/cache-$pass.log"
  eval "t_$pass=$(( $(date +%s) - t0 ))"
  diff -r target/ci/results-fast "target/ci/results-fast-cache-$pass"
  sed -n '/^cache stats JSON:$/,$p' "target/ci/cache-$pass.log" | tail -n +2 \
    > "target/ci/cache-stats-$pass.json"
  ./target/release/uu-jsonck "target/ci/cache-stats-$pass.json"
  grep -q '"stats_version": 3' "target/ci/cache-stats-$pass.json"
done
echo "cached fast sweep byte-identical (cold ${t_cold}s, warm ${t_warm}s)"

echo "== simulator throughput bench smoke + BENCH_sim.json well-formedness =="
# Smoke only — no thresholds; the JSON is the perf trajectory artifact.
# Bench binaries run with CWD = the package dir, so the artifact dir
# must be absolute to land under the workspace target/.
UU_BENCH_SAMPLES=3 UU_BENCH_WARMUP_MS=20 UU_BENCH_DIR="$PWD/target/ci/uu-bench" \
  cargo bench -q --offline -p uu-bench --bench sim > /dev/null
./target/release/uu-jsonck target/ci/uu-bench/BENCH_sim.json
# The same bench loop under the verify-uniform oracle (reference engine
# cross-checking every scalarization decision) on a two-app slice — the
# full suite under the oracle is too slow for a smoke rung. Filtered
# runs skip the suite-total/fast-sweep aggregates (see sim.rs), so this
# JSON can never be mistaken for a trajectory row.
UU_SIMT_ENGINE=verify-uniform UU_BENCH_APPS=bezier-surface,quicksort \
  UU_BENCH_SAMPLES=3 UU_BENCH_WARMUP_MS=20 \
  UU_BENCH_DIR="$PWD/target/ci/uu-bench-vu" \
  cargo bench -q --offline -p uu-bench --bench sim > /dev/null
./target/release/uu-jsonck target/ci/uu-bench-vu/BENCH_sim.json
# The committed trajectory artifact at the repo root must stay parseable.
./target/release/uu-jsonck BENCH_sim.json

echo "== compile throughput bench smoke + BENCH_compile.json well-formedness =="
# One app keeps the smoke fast; the committed full-matrix trajectory in
# BENCH_compile.json is validated alongside the freshly generated JSON.
# Dense side-tables and delta snapshots must never reach report bytes:
# the engine-identity rung above already diffed results-fast/, so this
# rung only needs the bench artifacts to be well-formed.
UU_BENCH_APPS=bezier-surface UU_BENCH_SAMPLES=3 UU_BENCH_WARMUP_MS=20 \
  UU_BENCH_DIR="$PWD/target/ci/uu-bench" \
  cargo bench -q --offline -p uu-bench --bench compile > /dev/null
./target/release/uu-jsonck target/ci/uu-bench/BENCH_compile.json
./target/release/uu-jsonck BENCH_compile.json

echo "ci.sh: all green"
