#!/usr/bin/env bash
# The one-command correctness gate: lint, the default build + full test
# suite, the ASan/UBSan and TSan matrices with HOTC_AUDIT=ON (lock-rank
# auditing + pool conservation checks compiled in), and clang-tidy over
# src/core + src/pool when a binary is available.
#
# Usage: tools/check.sh          (from anywhere; or `cmake --build build
#        --target check` after configuring)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n== %s ==\n' "$*"; }

step "lint: self-test"
python3 "$ROOT/tools/hotc_lint.py" --self-test

step "lint: src/"
python3 "$ROOT/tools/hotc_lint.py" --root "$ROOT/src"

step "build + test: default (tier-1)"
cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

step "static analysis: hotc_analyze (fixtures + src/)"
ctest --test-dir "$ROOT/build" -L analyze --output-on-failure -j "$JOBS"
"$ROOT/build/tools/hotc_analyze" --root "$ROOT" \
  --baseline "$ROOT/tools/analyze/baseline.txt" \
  --report "$ROOT/build/analyze_report.json"

step "smoke bench: pool + fig15 + sharing + diagnosis + prof + tiering + blackbox + hotc_top/prof"
SMOKE_DIR="$(mktemp -d)"
HOTC_SMOKE=1 HOTC_BENCH_DIR="$SMOKE_DIR" \
  "$ROOT/build/bench/bench_pool_concurrency" >/dev/null
HOTC_SMOKE=1 HOTC_BENCH_DIR="$SMOKE_DIR" \
  "$ROOT/build/bench/bench_fig15_overhead" >/dev/null
HOTC_SMOKE=1 HOTC_BENCH_DIR="$SMOKE_DIR" \
  "$ROOT/build/bench/bench_share" >/dev/null
HOTC_SMOKE=1 HOTC_BENCH_DIR="$SMOKE_DIR" \
  "$ROOT/build/bench/bench_diagnosis" >/dev/null
HOTC_SMOKE=1 HOTC_BENCH_DIR="$SMOKE_DIR" \
  "$ROOT/build/bench/bench_prof" >/dev/null
HOTC_SMOKE=1 HOTC_BENCH_DIR="$SMOKE_DIR" \
  "$ROOT/build/bench/bench_tiering" >/dev/null
HOTC_SMOKE=1 HOTC_BENCH_DIR="$SMOKE_DIR" \
  "$ROOT/build/bench/bench_blackbox" >/dev/null
python3 "$ROOT/tools/run_scenarios.py" "$ROOT/build/examples/scenario_runner" \
  "$ROOT"/examples/scenarios/*.json
HOTC_BENCH_DIR="$SMOKE_DIR" "$ROOT/build/tools/hotc_top" steady >/dev/null
HOTC_BENCH_DIR="$SMOKE_DIR" "$ROOT/build/tools/hotc_prof" steady >/dev/null
python3 -c "
import json, sys
doc = json.load(open('$SMOKE_DIR/BENCH_pool.json'))
assert doc['smoke'] is True
assert doc['gates']['eviction_order_matches'] is True
assert doc['gates']['hit_counts_match'] is True
s = doc['summary']
assert s['measured_speedup_at_8'] > 0, 'missing measured_speedup_at_8'
assert s['single_thread_overhead'] >= 0.95, (
    'sharded pool pays >5%% striping tax at 1 thread: %.3f'
    % s['single_thread_overhead'])
print('BENCH_pool.json: ok (1T overhead %.3fx, pair %0.f ns sharded, '
      '8T measured %.2fx)'
      % (s['single_thread_overhead'], s['ns_per_pair_sharded'],
         s['measured_speedup_at_8']))
doc = json.load(open('$SMOKE_DIR/BENCH_overhead.json'))
assert doc['smoke'] is True
assert doc['tracing']['gate_passed'] is True
print('BENCH_overhead.json: ok (%.2f%% overhead)'
      % doc['tracing']['overhead_pct'])
doc = json.load(open('$SMOKE_DIR/BENCH_share.json'))
assert doc['smoke'] is True
assert doc['gate_passed'] is True
print('BENCH_share.json: ok (%.1f%% fewer cold starts)'
      % doc['cold_start_reduction_pct'])
doc = json.load(open('$SMOKE_DIR/BENCH_diagnosis.json'))
assert doc['smoke'] is True
assert doc['gate_passed'] is True
print('BENCH_diagnosis.json: ok (drift restarts on=%d off=%d, '
      'replay %d records)'
      % (doc['drift']['restarts_on'], doc['drift']['restarts_off'],
         doc['journal']['replay_records_checked']))
doc = json.load(open('$SMOKE_DIR/BENCH_prof.json'))
assert doc['smoke'] is True
assert doc['overhead']['gate_passed'] is True, (
    'profiler overhead %.2f%% > 1%%' % doc['overhead']['overhead_pct'])
assert doc['contention']['band50_share'] >= 0.95, (
    'only %.1f%% of injected wait attributed to band 50'
    % (doc['contention']['band50_share'] * 100))
assert doc['ordering']['gate_passed'] is True
assert doc['gate_passed'] is True
print('BENCH_prof.json: ok (%.2f%% overhead, %.1f%% band-50 attribution)'
      % (doc['overhead']['overhead_pct'],
         doc['contention']['band50_share'] * 100))
doc = json.load(open('$SMOKE_DIR/BENCH_tiering.json'))
assert doc['smoke'] is True
assert doc['conservation_ok'] is True, 'snapshot ledger does not balance'
assert doc['equal_budget']['gate_passed'] is True
assert doc['memory_pressure']['gate_passed'] is True
assert doc['gate_passed'] is True
print('BENCH_tiering.json: ok (full-cold ratio %.1f%% -> %.1f%%, '
      'pressure full colds %d vs %d)'
      % (doc['equal_budget']['baseline']['full_cold_ratio'] * 100,
         doc['equal_budget']['tiering']['full_cold_ratio'] * 100,
         doc['memory_pressure']['tiering']['full_cold_starts'],
         doc['memory_pressure']['baseline']['full_cold_starts']))
folded = open('$SMOKE_DIR/OBS_profile.folded').read()
assert folded.strip(), 'OBS_profile.folded is empty'
cp = json.load(open('$SMOKE_DIR/OBS_critical_path.json'))
assert cp['ordered_prefix_fraction'] >= 0.99
print('OBS_profile.folded + OBS_critical_path.json: ok '
      '(%d folded lines, %.1f%% ordered)'
      % (len(folded.splitlines()), cp['ordered_prefix_fraction'] * 100))
health = json.load(open('$SMOKE_DIR/OBS_health.json'))
assert health['scenario'] == 'steady'
assert health['keys'] and health['slo'], 'health table is empty'
assert health['firing'] == 0, 'steady scenario has firing SLO alerts'
assert health['journal']['rejected'] == 0
hist = health['history']
assert hist['frames_retained'] > 0, 'TSDB retained no frames'
assert hist['keys'], 'history panel has no per-key series'
print('OBS_health.json: ok (%d keys, %d SLO series, 0 firing, '
      '%d history frames)'
      % (len(health['keys']), len(health['slo']), hist['frames_retained']))
doc = json.load(open('$SMOKE_DIR/BENCH_blackbox.json'))
assert doc['smoke'] is True
assert doc['provenance']['git_sha'], 'missing run provenance'
assert doc['overhead']['gate_passed'] is True, (
    'TSDB tick overhead %.2f%% > 1%%' % doc['overhead']['overhead_pct'])
assert doc['detector']['steady_false_alerts'] == 0
assert doc['detector']['detection_rate'] >= 0.95
assert doc['detector']['gate_passed'] is True
assert doc['gate_passed'] is True
print('BENCH_blackbox.json: ok (%.2f%% tick overhead, %.0f%% detection, '
      '0 false alerts)'
      % (doc['overhead']['overhead_pct'],
         doc['detector']['detection_rate'] * 100))
"
rm -rf "$SMOKE_DIR"

step "crash drill: blackbox dump -> postmortem round trip"
DRILL_DIR=$(mktemp -d)
# The drill dies by SIGABRT on purpose; suppress the core and expect 134.
set +e
(
  cd "$DRILL_DIR" || exit 1
  ulimit -c 0
  "$ROOT/build/tools/hotc_crashdrill" "$DRILL_DIR/OBS_blackbox.dump" \
    >"$DRILL_DIR/drill.log" 2>&1
)
DRILL_RC=$?
set -e
[ "$DRILL_RC" -ne 0 ] || { echo "crash drill did not crash"; exit 1; }
[ -s "$DRILL_DIR/OBS_blackbox.dump" ] || {
  echo "crash drill left no dump"; exit 1; }
"$ROOT/build/tools/hotc_postmortem" "$DRILL_DIR/OBS_blackbox.dump" \
  --json "$DRILL_DIR/OBS_postmortem.json" >"$DRILL_DIR/postmortem.log"
python3 - "$DRILL_DIR/OBS_postmortem.json" <<'PY'
import json, sys
pm = json.load(open(sys.argv[1]))
# The drill dies through the pre-abort hook, not a signal: signal stays 0
# and the seeded invariant failure travels in `reason`.
assert 'conservation' in pm['reason'], 'postmortem lost the abort reason'
assert pm['spans'] > 0, 'postmortem decoded no spans'
assert pm['decisions'] > 0, 'postmortem decoded no decisions'
assert pm['tsdb']['frames_decoded'] > 0, 'postmortem decoded no TSDB frames'
print('crash drill: ok (reason %r, %d spans, %d decisions, %d frames)'
      % (pm['reason'], pm['spans'], pm['decisions'],
         pm['tsdb']['frames_decoded']))
PY
# A truncated dump must be rejected, not half-decoded.
DUMP_BYTES=$(wc -c <"$DRILL_DIR/OBS_blackbox.dump")
head -c "$((DUMP_BYTES - 64))" "$DRILL_DIR/OBS_blackbox.dump" \
  >"$DRILL_DIR/truncated.dump"
if "$ROOT/build/tools/hotc_postmortem" "$DRILL_DIR/truncated.dump" \
    >/dev/null 2>&1; then
  echo "postmortem accepted a truncated dump"; exit 1
fi
echo "crash drill: truncated dump rejected"
rm -rf "$DRILL_DIR"

step "build + test: ASan/UBSan + HOTC_AUDIT"
cmake -B "$ROOT/build-asan" -S "$ROOT" \
  -DHOTC_SANITIZE=address,undefined -DHOTC_AUDIT=ON >/dev/null
cmake --build "$ROOT/build-asan" -j "$JOBS"
ctest --test-dir "$ROOT/build-asan" -L fuzz --output-on-failure -j "$JOBS"
ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS"

step "build + test: TSan + HOTC_AUDIT"
cmake -B "$ROOT/build-tsan" -S "$ROOT" \
  -DHOTC_SANITIZE=thread -DHOTC_AUDIT=ON >/dev/null
cmake --build "$ROOT/build-tsan" -j "$JOBS"
ctest --test-dir "$ROOT/build-tsan" -L tsan --output-on-failure -j "$JOBS"
ctest --test-dir "$ROOT/build-tsan" --output-on-failure -j "$JOBS"

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy: src/core + src/pool"
  # Needs a compile database; the default build dir provides one.
  cmake -B "$ROOT/build" -S "$ROOT" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p "$ROOT/build" "$ROOT"/src/core/*.cpp "$ROOT"/src/pool/*.cpp
else
  step "clang-tidy: not installed, skipping (config: .clang-tidy)"
fi

step "check: all gates passed"
