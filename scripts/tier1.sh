#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite.
#
# Usage: scripts/tier1.sh [preset] [--bench-smoke] [--scenario-fuzz [N]]
#                         [--gateway-smoke] [--store-smoke] [--verify-smoke]
#                         [--net-smoke] [--dispute-smoke] [--replication-smoke]
#   preset             "default" (the gate), or "tsan"/"asan"/"ubsan" for a
#                      full sanitizer suite run. Under "asan" and "ubsan"
#                      the whole ctest suite runs with the decoder fuzz
#                      corpus promoted to BTCFAST_FUZZ_ITERS=2000 (2000 x 5
#                      fixed seeds = 10k iterations per decoder) unless the
#                      caller already set it. Sanitizer builds pin the
#                      scalar SHA-256 fallback (src/crypto/CMakeLists.txt),
#                      so these two runs also keep the portable hashing
#                      kernel honest while the default build uses SHA-NI.
#   --bench-smoke      after the tests, run every bench_* binary once (the
#                      google-benchmark suite at its minimum iteration
#                      budget, the bounded hand-timed harnesses at full
#                      length) in a scratch cwd — catches bench bit-rot
#                      without touching the curated BENCH_*.json artifacts.
#                      Then scripts/bench_diff prints each fresh field
#                      against the committed BENCH_*.json (ratio and a
#                      +-10% noise-band flag); report only, never fails.
#   --scenario-fuzz [N]
#                      run the adversarial scenario fuzzer over N seeds
#                      (default 25) in the current preset's tree. On an
#                      invariant violation the harness prints a one-line
#                      repro ("fuzz_scenario_test --replay <seed>") and a
#                      minimized event trace, and this script fails.
#   --gateway-smoke    run the gateway serving bench in its short 1-vs-8
#                      thread configuration (BTCFAST_GATEWAY_SMOKE) in a
#                      scratch cwd and assert the 8-thread run scales by
#                      at least BTCFAST_GATEWAY_SCALE_FACTOR (default 3x)
#                      over the 1-thread run — auto-skipped when the
#                      machine has fewer hardware threads than the bench
#                      asks for, or when BTCFAST_SKIP_SCALE_CHECK is set.
#   --store-smoke      run the durability bench in its short configuration
#                      (BTCFAST_DURABILITY_SMOKE) in a scratch cwd.
#   --net-smoke        run the fork-based loopback load bench in its short
#                      configuration (BTCFAST_E13_SMOKE) in a scratch cwd,
#                      asserting accepts/s > 0 and that the ban + shed
#                      coverage invariants held. The bench's size knobs
#                      (BTCFAST_E13_CLIENTS / _REQUESTS / _PIPELINE) pass
#                      through for bigger machines.
#   --dispute-smoke    run the storm bench in its short configuration
#                      (BTCFAST_E14_SMOKE) in a scratch cwd, asserting
#                      disputes/s > 0, a nonzero dedup hit rate on the
#                      shared-segment workload, and byte-identical gas
#                      between the batch and naive paths.
#   --replication-smoke
#                      run the replication bench in its short configuration
#                      (BTCFAST_E15_SMOKE) in a scratch cwd, asserting
#                      nonzero quorum-gated acks and a byte-exact promoted
#                      image after failover.
#   --verify-smoke     the ECDSA verify-speed gate: run the hand-timed
#                      verify section of bench_micro_crypto
#                      (BTCFAST_VERIFY_SMOKE=1) in a scratch cwd and fail
#                      if the GLV cold / warm-precomp paths fall under
#                      their relative floors (1.5x / 2.0x vs the frozen
#                      shamir baseline), or if the 5x52 Fe engine differs
#                      from the U256 engine on any of 4096 random products
#                      and 4096 random squares. Set BTCFAST_VERIFY_BUDGET_US to
#                      additionally enforce an absolute cold-verify budget
#                      in microseconds; without it, the absolute check
#                      self-skips (wall-clock budgets are meaningless on
#                      an arbitrarily loaded or throttled runner).
set -euo pipefail
cd "$(dirname "$0")/.."

preset="default"
bench_smoke=0
verify_smoke=0
net_smoke=0
dispute_smoke=0
gateway_smoke=0
store_smoke=0
replication_smoke=0
scenario_fuzz=0
scenario_seeds=25
expect_seed_count=0
for arg in "$@"; do
  if [[ "$expect_seed_count" == 1 ]]; then
    expect_seed_count=0
    if [[ "$arg" =~ ^[0-9]+$ ]]; then
      scenario_seeds="$arg"
      continue
    fi
  fi
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    --gateway-smoke) gateway_smoke=1 ;;
    --store-smoke) store_smoke=1 ;;
    --verify-smoke) verify_smoke=1 ;;
    --net-smoke) net_smoke=1 ;;
    --dispute-smoke) dispute_smoke=1 ;;
    --replication-smoke) replication_smoke=1 ;;
    --scenario-fuzz) scenario_fuzz=1; expect_seed_count=1 ;;
    *) preset="$arg" ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

bindir="build"
case "$preset" in
  tsan) bindir="build-tsan" ;;
  asan) bindir="build-asan" ;;
  ubsan) bindir="build-ubsan" ;;
esac

case "$preset" in
  asan|ubsan) export BTCFAST_FUZZ_ITERS="${BTCFAST_FUZZ_ITERS:-2000}" ;;
esac

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$jobs"
ctest --preset "$preset" -j "$jobs"

repo_root="$PWD"

# Run one bench in a scratch cwd under $bindir (benches write BENCH_*.json
# into their cwd; a smoke run must not clobber the curated artifacts at
# the repo root with noisy throwaway numbers). Extra leading VAR=value
# arguments are passed through as environment.
smoke_bench() {
  local dir="$bindir/$1" target="$2"
  shift 2
  cmake --build --preset "$preset" -j "$jobs" --target "$target"
  mkdir -p "$dir"
  (cd "$dir" && env "$@" "$repo_root/$bindir/bench/$target")
}

# One value (number or bare word, quotes stripped) of a top-level-style
# "key": value line in a smoke JSON file.
json_field() {
  sed -n "s/^[[:space:]]*\"$2\":[[:space:]]*\"\{0,1\}\([0-9.a-z]*\)\"\{0,1\}.*/\1/p" "$1" | head -n1
}

fail() {
  echo "== $1: FAILED — $2 =="
  exit 1
}

positive() { awk -v v="$1" 'BEGIN{exit !(v > 0)}'; }

if [[ "$bench_smoke" == 1 ]]; then
  echo "== bench smoke (${bindir}) =="
  smoke_dir="$bindir/bench-smoke"
  mkdir -p "$smoke_dir"
  for bench in "$bindir"/bench/bench_*; do
    [[ -x "$bench" ]] || continue
    name="$(basename "$bench")"
    echo "-- $name"
    if [[ "$name" == "bench_micro_crypto" ]]; then
      # google-benchmark half at minimum iteration budget; the hand-timed
      # JSON half is already bounded and fast.
      (cd "$smoke_dir" && "$repo_root/$bench" --benchmark_min_time=0.001 >/dev/null)
    else
      (cd "$smoke_dir" && "$repo_root/$bench" >/dev/null)
    fi
  done
  echo "== bench smoke: all benches ran =="
  # Report only: how the fresh numbers sit against the committed
  # BENCH_*.json. One smoke run on a shared machine is no verdict, so
  # this never fails the run.
  scripts/bench_diff "$smoke_dir" . || echo "== bench_diff: could not run =="
fi

if [[ "$gateway_smoke" == 1 ]]; then
  # A short run of the concurrent gateway bench (1 and 8 customer
  # threads, shrunk payment volume). Thread-scaling assertion: the smoke
  # JSON records accepts/s at 1 and 8 threads plus the machine's hardware
  # thread count. On a machine with enough cores, 8 threads must beat 1
  # thread by the configured factor; on constrained runners the check is
  # meaningless and skips itself.
  echo "== gateway smoke bench (${bindir}) =="
  smoke_bench gateway-smoke bench_e11_gateway BTCFAST_GATEWAY_SMOKE=1
  smoke_json="$bindir/gateway-smoke/BENCH_e11_gateway.json"
  hw_threads="$(json_field "$smoke_json" hw_threads)"
  scale_threads="$(json_field "$smoke_json" scale_threads)"
  scale_ratio="$(json_field "$smoke_json" scale_ratio)"
  scale_factor="${BTCFAST_GATEWAY_SCALE_FACTOR:-3}"
  if [[ -n "${BTCFAST_SKIP_SCALE_CHECK:-}" ]]; then
    echo "== gateway scaling check: skipped (BTCFAST_SKIP_SCALE_CHECK) =="
  elif [[ -z "$hw_threads" || -z "$scale_ratio" || -z "$scale_threads" ]]; then
    fail "gateway scaling check" "cannot parse $smoke_json"
  elif awk -v h="$hw_threads" -v t="$scale_threads" 'BEGIN{exit !(h < t)}'; then
    echo "== gateway scaling check: skipped (${hw_threads} hardware threads < ${scale_threads} bench threads) =="
  elif awk -v r="$scale_ratio" -v f="$scale_factor" 'BEGIN{exit !(r >= f)}'; then
    echo "== gateway scaling check: ${scale_threads}-thread/1-thread = ${scale_ratio}x (>= ${scale_factor}x) =="
  else
    echo "== gateway scaling check: FAILED — ${scale_threads}-thread/1-thread = ${scale_ratio}x < ${scale_factor}x =="
    echo "   (override the floor with BTCFAST_GATEWAY_SCALE_FACTOR or skip with BTCFAST_SKIP_SCALE_CHECK)"
    exit 1
  fi
fi

if [[ "$store_smoke" == 1 ]]; then
  echo "== store smoke bench (${bindir}) =="
  smoke_bench store-smoke bench_e12_durability BTCFAST_DURABILITY_SMOKE=1
  echo "== store smoke: clean =="
fi

if [[ "$net_smoke" == 1 ]]; then
  # Real TCP clients, real bans, real sheds — and the smoke JSON must
  # show a nonzero accept rate with every coverage invariant intact.
  echo "== net smoke bench (${bindir}) =="
  smoke_bench net-smoke bench_e13_network BTCFAST_E13_SMOKE=1
  smoke_json="$bindir/net-smoke/BENCH_e13_network.json"
  accepts_s="$(json_field "$smoke_json" accepts_per_s)"
  coverage="$(json_field "$smoke_json" coverage_ok)"
  [[ -n "$accepts_s" && -n "$coverage" ]] || fail "net smoke" "cannot parse $smoke_json"
  [[ "$coverage" == yes ]] || fail "net smoke" "coverage_ok=$coverage"
  positive "$accepts_s" || fail "net smoke" "accepts_per_s=$accepts_s"
  echo "== net smoke: ${accepts_s} accepts/s over loopback, coverage intact =="
fi

if [[ "$dispute_smoke" == 1 ]]; then
  # The storm engine's whole value rests on a byte-parity claim (batch ==
  # one-at-a-time): the smoke JSON must show real throughput, real dedup,
  # and exact gas parity.
  echo "== dispute smoke bench (${bindir}) =="
  smoke_bench dispute-smoke bench_e14_dispute_storm BTCFAST_E14_SMOKE=1
  smoke_json="$bindir/dispute-smoke/BENCH_e14_dispute_storm.json"
  storm_rate="$(json_field "$smoke_json" disputes_per_s_storm)"
  hit_rate="$(json_field "$smoke_json" dedup_hit_rate)"
  gas_parity="$(json_field "$smoke_json" gas_parity)"
  [[ -n "$storm_rate" && -n "$hit_rate" && -n "$gas_parity" ]] ||
    fail "dispute smoke" "cannot parse $smoke_json"
  [[ "$gas_parity" == yes ]] || fail "dispute smoke" "gas_parity=$gas_parity"
  positive "$storm_rate" || fail "dispute smoke" "disputes_per_s_storm=$storm_rate"
  positive "$hit_rate" || fail "dispute smoke" "dedup_hit_rate=$hit_rate"
  echo "== dispute smoke: ${storm_rate} disputes/s, dedup hit rate ${hit_rate}, gas parity exact =="
fi

if [[ "$replication_smoke" == 1 ]]; then
  # Promotion correctness is a byte-exactness claim: the smoke JSON must
  # show quorum-gated acks actually flowing and an exact failover.
  echo "== replication smoke bench (${bindir}) =="
  smoke_bench replication-smoke bench_e15_replication BTCFAST_E15_SMOKE=1
  smoke_json="$bindir/replication-smoke/BENCH_e15_replication.json"
  quorum_acks="$(json_field "$smoke_json" quorum_gated_acks)"
  failover_exact="$(json_field "$smoke_json" failover_exact)"
  catchup_rate="$(json_field "$smoke_json" catchup_records_per_s)"
  [[ -n "$quorum_acks" && -n "$failover_exact" && -n "$catchup_rate" ]] ||
    fail "replication smoke" "cannot parse $smoke_json"
  [[ "$failover_exact" == yes ]] || fail "replication smoke" "failover_exact=$failover_exact"
  positive "$quorum_acks" || fail "replication smoke" "quorum_gated_acks=$quorum_acks"
  positive "$catchup_rate" || fail "replication smoke" "catchup_records_per_s=$catchup_rate"
  echo "== replication smoke: ${quorum_acks} quorum-gated acks, failover byte-exact, catch-up ${catchup_rate} records/s =="
fi

if [[ "$verify_smoke" == 1 ]]; then
  # The GLV + precomp verify engine must hold its speedup over the frozen
  # shamir baseline, and its field engine must match the U256 one.
  # Ratios are load-resilient (both sides run on the same machine in the
  # same process), so they are always enforced; the absolute microsecond
  # budget only applies when the caller pins one via
  # BTCFAST_VERIFY_BUDGET_US.
  echo "== verify smoke (${bindir}) =="
  smoke_bench verify-smoke bench_micro_crypto BTCFAST_VERIFY_SMOKE=1
  echo "== verify smoke: clean =="
fi

if [[ "$scenario_fuzz" == 1 ]]; then
  echo "== scenario fuzz (${scenario_seeds} seeds, ${bindir}) =="
  # On a violation the gtest batch prints the repro line + minimized trace
  # and exits nonzero, which fails the script via `set -e`.
  BTCFAST_SCENARIO_SEEDS="$scenario_seeds" \
    "$bindir/tests/fuzz_scenario_test" --gtest_filter='ScenarioFuzz.BatchSeeds'
  echo "== scenario fuzz: ${scenario_seeds} seeds clean =="
fi
