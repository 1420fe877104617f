#!/usr/bin/env bash
# Full verification ladder: lint, tier-1 tests, optimized perf gate (GP
# engine speedups + transport latency/recovery ceilings), the sanitizer
# tiers (ASan+UBSan+LSan, TSan, then standalone UBSan with every finding
# fatal), the lockdep tier (whole suite plus the
# transport smoke with runtime lock-order checking fatal), and the
# multi-process transport smoke under both sanitizers.
#
#   scripts/check.sh            # every tier
#   scripts/check.sh --fast     # lint + tier-1 + release smoke + benchmark
#                               # smoke only
#
# Builds live under build/, build-release/, build-asan/, build-tsan/,
# build-ubsan/, and build-lockdep/ so repeat runs are incremental. Tier 1
# configures build/ with no build type, which the top-level CMakeLists.txt
# turns into Release: it is the -O3 suite with asserts off (NDEBUG). The
# lockdep tier is the Debug one: the affinity asserts and the EXPECT_DEATH
# coverage only exist without NDEBUG. All builds carry EDGEBOL_WERROR=ON: a
# warning anywhere is a failure here even though plain developer builds stay
# lenient.
# A summary table of tier outcomes prints on exit, success or failure; the
# release tier's line names the attempt on which each re-measured gate
# passed, e.g. "pass (gp 1/3, transport 1/3, ingest 1/3, fleet 2/3)", or
# "FAIL 3/3" for a gate that failed every attempt.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

# Compile jobs per build: min(4, cores), as perfbench/run.py builds. A bare
# `cmake --build -j` hands make an unbounded -j, which after an edit to a
# widely included header starts a compiler for every stale file at once.
JOBS=$(( $(nproc) < 4 ? $(nproc) : 4 ))

declare -a TIER_NAMES=() TIER_STATUS=()
CURRENT_TIER=""
# The current tier's re-measured gates, each "<gate> <attempt>/3" (the
# attempt it passed on) or "<gate> FAIL 3/3"; the summary prints them.
declare -a GATES=()

gates_note() {  # " (gp 1/3, fleet 2/3)", or nothing without gates
  (( ${#GATES[@]} )) || return 0
  local joined
  printf -v joined '%s, ' "${GATES[@]}"
  printf ' (%s)' "${joined%, }"
}

gate_result() {  # $1 = gate, $2 = 1 when it passed, $3 = last attempt
  if [[ "$2" == 1 ]]; then GATES+=("$1 $3/3"); else GATES+=("$1 FAIL 3/3"); fi
}

summary() {
  echo
  echo "== tier summary =="
  printf '%-28s %s\n' "tier" "status"
  printf '%-28s %s\n' "----" "------"
  for i in "${!TIER_NAMES[@]}"; do
    printf '%-28s %s\n' "${TIER_NAMES[$i]}" "${TIER_STATUS[$i]}"
  done
  if [[ -n "$CURRENT_TIER" ]]; then
    printf '%-28s %s\n' "$CURRENT_TIER" "FAIL$(gates_note)"
  fi
}
trap summary EXIT

begin_tier() {
  CURRENT_TIER="$1"
  echo
  echo "== $1 =="
}

end_tier() {  # $1 = status (pass/skip note)
  TIER_NAMES+=("$CURRENT_TIER")
  TIER_STATUS+=("${1:-pass}$(gates_note)")
  CURRENT_TIER=""
  GATES=()
}

begin_tier "lint"
# clang-format verification rides along via --check (skips when the tool is
# absent); clang-tidy + invariant lints are the hard gate.
scripts/lint.sh --check
end_tier pass

begin_tier "tier-1 (-O3 release ctest)"
cmake -B build -S . -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build -j "$JOBS" >/dev/null
ctest --test-dir build --output-on-failure -j "$(nproc)"
end_tier pass

begin_tier "release smoke + perf gate"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DEDGEBOL_WERROR=ON \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" >/dev/null
cmake --build build-release -j "$JOBS" >/dev/null
ctest --test-dir build-release --output-on-failure -j "$(nproc)"
# Runtime smoke of surfaces no test binary runs end to end, each must exit
# 0: the single-cell O-RAN integration demo, the chaos bench (faults off vs
# on through OranManagedTestbed; it exits 1 unless the faulted run loses at
# most half its KPIs, keeps its violation rate within 2x the clean run's
# + 0.01, and ends on a finite, positive tail cost within 2x the clean
# run's; the violation rate is core::violates on the chosen policy's
# noise-free outcome, read against the thresholds the measured, slackened
# rate had, unchanged), the two benches that drive the safe-BO
# engine's other formulations (PowerBudgetBol, JointEdgeBol), and the
# long-horizon bench under both eviction policies: the only binary that
# drives one engine hundreds of periods past a full budget (the fused
# fold + evict cache pass every period), beside an unbounded engine whose
# pending folds the next select applies.
(cd build-release && ./examples/oran_integration >/dev/null \
  && ./bench/bench_chaos_convergence >/dev/null \
  && ./bench/bench_alt_formulation >/dev/null \
  && ./bench/bench_multi_service >/dev/null \
  && ./bench/bench_long_horizon --smoke >/dev/null \
  && ./bench/bench_long_horizon --smoke --eviction minlev >/dev/null)
# Engine-vs-reference correctness gate (1e-9) + per-phase timings; exits
# non-zero on mismatch (this includes the decide phase's engine-vs-legacy
# decision identity check). BENCH_gp.json lands in build-release/.
# Perf gates, two invocations over the same JSON (speedup mode and --ceiling
# mode are mutually exclusive in perf_gate.py):
#  1. Speedups: every phase must keep the engine at >= 0.95x of the
#     reference, `track` included: the in-place tiled rebuild reads well
#     above parity at smoke size, so it needs no floor of its own.
#  2. Decision-path ceiling: one full decision (every constraint bound +
#     safe set + acquisition, one sweep on the calling thread) at the full
#     11^4 grid with the budget at 200 must stay under 1 ms at p99, for an
#     engine without a pool (_t1) and for one whose surrogates hold an
#     8-thread pool (_t8; measured on a shared 4-vCPU host at -O2: p50
#     0.12-0.17 ms, p99 0.19-0.26 ms either way; see DESIGN.md
#     "Performance model").
# Timings interleave the two sides rep-by-rep (best-of-9 each), but a
# CPU-steal burst on a shared box can still sink one side's ratio or land
# in a p99 sample; re-measuring up to 3 times separates that (passes
# eventually) from a real regression (fails all attempts). Correctness runs
# every attempt.
gate_ok=0
for attempt in 1 2 3; do
  (cd build-release && ./bench/bench_micro_gp --smoke)
  if python3 scripts/perf_gate.py build-release/BENCH_gp.json \
      --min-speedup 0.95 \
    && python3 scripts/perf_gate.py build-release/BENCH_gp.json \
      --ceiling decide_p99_ms_t1=1.0 --ceiling decide_p99_ms_t8=1.0; then
    gate_ok=1
    break
  fi
  echo "perf gate: attempt $attempt/3 below threshold; re-measuring"
done
gate_result gp "$gate_ok" "$attempt"
[[ "$gate_ok" == 1 ]]
# Transport bench: p99 indication-to-policy latency under a flood on a
# sibling connection of the same event loop, plus recovery time after a
# seeded 4s E2 partition, then the fleet phase (1000 cells as MuxEndpoint
# streams over 8 TCP connections). Smoke p99
# measures 30-45ms on an idle box; the 500ms ceiling is generous headroom
# for shared-CPU noise while still catching a real event-loop or
# backpressure regression (a blocking send on the hot path lands in the
# seconds). Recovery after the window is ~1s; 15s means reconnect/backoff
# supervision broke. Fleet ceilings:
#   p99_mux_ms=500          -> per-indication decision latency across 1000
#                              cells, each reply streamed as its cell is
#                              decided (measured p99 8.8-10.5ms on a shared
#                              4-vCPU host; the engine's dispatch, replies
#                              included, is 75-85% of the phase's wall);
#   mux_cells_shortfall=0   -> every cell completed every period;
#   mux_connections=8       -> the fleet really rode <= 8 connections.
# Timing metrics share the 3-attempt re-measure discipline; the
# deterministic ones must pass every attempt.
transport_ok=0
for attempt in 1 2 3; do
  (cd build-release && ./tools/bench_transport --smoke)
  if python3 scripts/perf_gate.py build-release/BENCH_transport.json \
      --ceiling p99_loaded_ms=500 --ceiling recovery_ms=15000 \
      --ceiling p99_mux_ms=500 --ceiling mux_cells_shortfall=0 \
      --ceiling mux_connections=8; then
    transport_ok=1
    break
  fi
  echo "transport gate: attempt $attempt/3 out of bounds; re-measuring"
done
gate_result transport "$transport_ok" "$attempt"
[[ "$transport_ok" == 1 ]]
# Mux ingest bench: one MuxEndpoint pair flooded over loopback (wire phase),
# then the decoder replayed standalone (decode phase). The gated floor is
# the BARE decode rate — >= 1M frames/s is the budget that keeps framing
# off the fleet's critical path (measured ~40M debug, ~80M release; the
# wire rate, ~1.7M frames/s, also lands above the floor but syscall cost
# makes it the noisier number, reported as wire_frames_per_sec).
ingest_ok=0
for attempt in 1 2 3; do
  (cd build-release && ./tools/load_ric --ingest --out BENCH_ingest.json)
  if python3 scripts/perf_gate.py build-release/BENCH_ingest.json \
      --metric-floor frames_per_sec=1000000; then
    ingest_ok=1
    break
  fi
  echo "ingest gate: attempt $attempt/3 below floor; re-measuring"
done
gate_result ingest "$ingest_ok" "$attempt"
[[ "$ingest_ok" == 1 ]]
# Fleet bench: 1000 heterogeneous cells through the batched engine at 8
# threads. Ceilings encode the fleet acceptance floor (all lower-is-better):
#   cells_shortfall=0          -> the run really drove >= 1000 cells;
#   us_per_decision_agg=200    -> >= 5000 decisions/sec aggregate
#                                 (measured ~40-50k on an idle 8-core box);
#   decide_p99_ms=1.0          -> per-cell select() p99 under 1 ms;
#   identity_mismatches=0      -> batched dispatch bit-identical to the
#                                 serial per-cell loop;
#   warm_cold_ratio=0.5        -> a warm-started joiner converges in at
#                                 most half the cold joiner's periods
#                                 (measured ~0.1; deterministic, so any
#                                 flake here is a real regression).
# Timing metrics share the 3-attempt re-measure discipline of the GP gate;
# the deterministic metrics must pass on every attempt.
fleet_ok=0
for attempt in 1 2 3; do
  (cd build-release && ./bench/bench_fleet --smoke)
  if python3 scripts/perf_gate.py build-release/BENCH_fleet.json \
      --ceiling cells_shortfall=0 --ceiling us_per_decision_agg=200 \
      --ceiling decide_p99_ms=1.0 --ceiling identity_mismatches=0 \
      --ceiling warm_cold_ratio=0.5; then
    fleet_ok=1
    break
  fi
  echo "fleet gate: attempt $attempt/3 below threshold; re-measuring"
done
gate_result fleet "$fleet_ok" "$attempt"
[[ "$fleet_ok" == 1 ]]
# Benchmark smoke: perfbench/ is a CMake package of its own over ../src, so
# no other tier compiles it. Build it (into .bench_build/) and run each
# BENCHMARK.json workload briefly: run.py must exit 0 (it checks the
# result's shape against BENCHMARK.json) and the run must report
# "correct": true (the workload's own correctness check passed).
for workload in cell_mobility fleet_wire; do
  result="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 2 | tail -n 1)"
  python3 - "$workload" "$result" <<'EOF'
import json, sys
workload, result = sys.argv[1], json.loads(sys.argv[2])
if result["correct"] is not True:
    sys.exit(f"perfbench {workload}: correct = {result['correct']}")
print(f"perfbench {workload}: correct, {result['attempted']} ops")
EOF
done
end_tier pass

if [[ "$FAST" == 1 ]]; then
  begin_tier "sanitizers (ASan/TSan/UBSan)"
  echo "skipped (--fast)"
  end_tier "SKIP (--fast)"
  begin_tier "lockdep (debug, fatal)"
  echo "skipped (--fast)"
  end_tier "SKIP (--fast)"
  echo
  echo "== fast checks passed =="
  exit 0
fi

begin_tier "ASan + UBSan + LSan"
# Leak detection is ON (no detect_leaks=0): ThreadPool shutdown and fixture
# teardown must release everything.
cmake -B build-asan -S . -DEDGEBOL_SANITIZE=address -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build-asan -j "$JOBS" >/dev/null
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
end_tier pass

begin_tier "TSan"
# Runs the whole suite once under ThreadSanitizer. Thread counts come from
# the tests themselves: each builds its own pools (1, 2, 4 and 8 threads
# across the suite), and no environment variable sizes any pool.
# tsan.supp is intentionally empty — races get fixed, not suppressed.
cmake -B build-tsan -S . -DEDGEBOL_SANITIZE=thread -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build-tsan -j "$JOBS" >/dev/null
TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)"
end_tier pass

begin_tier "UBSan (standalone, fatal)"
# -fno-sanitize-recover=all: the first UB report aborts the test, so this
# tier cannot pass with findings scrolling by (the ASan tier's UBSan is
# recoverable and halts via halt_on_error instead).
cmake -B build-ubsan -S . -DEDGEBOL_SANITIZE=undefined -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build-ubsan -j "$JOBS" >/dev/null
ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)"
end_tier pass

begin_tier "lockdep (debug, fatal)"
# Debug build (no NDEBUG): the EventLoop loop-affinity asserts are live and
# the sync death tests run. EDGEBOL_LOCKDEP=1 turns on runtime lock-order
# recording in common::Mutex; _FATAL=1 aborts on the first inversion, so a
# pass means the whole suite AND the three-process transport smoke ran with
# zero lock-order cycles against the DESIGN.md §5e hierarchy.
cmake -B build-lockdep -S . -DCMAKE_BUILD_TYPE=Debug -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build-lockdep -j "$JOBS" >/dev/null
EDGEBOL_LOCKDEP=1 EDGEBOL_LOCKDEP_FATAL=1 \
  ctest --test-dir build-lockdep --output-on-failure -j "$(nproc)"
EDGEBOL_LOCKDEP=1 EDGEBOL_LOCKDEP_FATAL=1 scripts/transport_smoke.sh build-lockdep
end_tier pass

begin_tier "transport (multi-process smoke)"
# Real three-OS-process O-RAN plane over TCP under both sanitizers: the
# loopback-equivalence check plus a partitioned run. Cross-process socket
# lifetimes, reconnect supervision, and shutdown ordering only get
# exercised here — in-process tests can't see them.
ASAN_OPTIONS=detect_leaks=1 scripts/transport_smoke.sh build-asan
TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1" \
  scripts/transport_smoke.sh build-tsan
end_tier pass

echo
echo "== all checks passed =="
