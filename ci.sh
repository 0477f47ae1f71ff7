#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> benchmark package build (perfbench/ is its own workspace)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test"
cargo test --workspace -q

echo "==> parallel harness equivalence (ASAP_JOBS=1 vs ASAP_JOBS=4)"
ASAP_JOBS=1 cargo test -q --test parallel_equivalence
ASAP_JOBS=4 cargo test -q --test parallel_equivalence

echo "==> telemetry run report (exporter round-trip validation)"
ASAP_TELEMETRY=1 ASAP_OPS=30 ASAP_THREADS=2 ASAP_REPORT_OUT=target/run_report.html \
  cargo run --release --example run_report
test -s target/run_report.html

echo "==> microbenchmarks build (run manually: cargo bench --bench micro)"
cargo bench -p asap-bench --bench micro --no-run

echo "==> figure smoke run (serial fig7, HM only)"
SMOKE_START=$(date +%s.%N)
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=1 ASAP_WALLCLOCK= \
  cargo bench -p asap-bench --bench fig7_speedup >/dev/null
SMOKE_SECS=$(awk "BEGIN{printf \"%.3f\", $(date +%s.%N) - $SMOKE_START}")
echo "    serial fig7 smoke: ${SMOKE_SECS}s"

echo "==> run-cache smoke (disk tier: second pass all hits, stdout identical)"
RC_DIR=$(mktemp -d)
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=1 ASAP_WALLCLOCK= \
  ASAP_RUNCACHE=disk ASAP_RUNCACHE_DIR="$RC_DIR" \
  cargo bench -p asap-bench --bench fig7_speedup >target/runcache_pass1.out 2>/dev/null
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=1 ASAP_WALLCLOCK= \
  ASAP_RUNCACHE=disk ASAP_RUNCACHE_DIR="$RC_DIR" \
  cargo bench -p asap-bench --bench fig7_speedup >target/runcache_pass2.out 2>target/runcache_pass2.err
cmp target/runcache_pass1.out target/runcache_pass2.out \
  || { echo "RUNCACHE FAILURE: cached stdout differs from fresh run" >&2; exit 1; }
grep -q ", 0 misses" target/runcache_pass2.err \
  || { echo "RUNCACHE FAILURE: second pass was not served entirely from cache" >&2; \
       grep "runcache:" target/runcache_pass2.err >&2 || true; exit 1; }
rm -rf "$RC_DIR"
echo "    cached rerun byte-identical, all cells hit"

echo "==> observability smoke (NDJSON stream valid, stdout untouched)"
EV_FILE=$(mktemp -u)
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=1 ASAP_WALLCLOCK= \
  ASAP_EVENTS="$EV_FILE" ASAP_PROGRESS=off \
  cargo bench -p asap-bench --bench fig7_speedup >target/obs_on.out 2>/dev/null
cargo run --release -q --example events_check -- "$EV_FILE" \
  || { echo "OBS FAILURE: event stream invalid" >&2; exit 1; }
cmp target/obs_on.out target/runcache_pass1.out \
  || { echo "OBS FAILURE: stdout changed with ASAP_EVENTS on (jobs=1)" >&2; exit 1; }
rm -f "$EV_FILE"
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=4 ASAP_WALLCLOCK= \
  ASAP_EVENTS="$EV_FILE" ASAP_PROGRESS=off \
  cargo bench -p asap-bench --bench fig7_speedup >target/obs_on_j4.out 2>/dev/null
cmp target/obs_on_j4.out target/runcache_pass1.out \
  || { echo "OBS FAILURE: stdout changed with ASAP_EVENTS on (jobs=4)" >&2; exit 1; }
rm -f "$EV_FILE"
echo "    event stream parseable and balanced; bench stdout byte-identical"

echo "==> obs-endpoint smoke (ASAP_HTTP live endpoints, stdout byte-identical)"
# Byte-identity first: quick fig7 passes with the server on must print
# exactly what the server-off pass (runcache_pass1.out) printed, at
# jobs 1 and 4. ASAP_RUNCACHE=off so the grid really runs.
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=1 ASAP_WALLCLOCK= ASAP_RUNCACHE=off \
  ASAP_HTTP=127.0.0.1:0 \
  cargo bench -p asap-bench --bench fig7_speedup >target/obs_http_j1.out 2>/dev/null
cmp target/obs_http_j1.out target/runcache_pass1.out \
  || { echo "HTTP FAILURE: stdout changed with ASAP_HTTP on (jobs=1)" >&2; exit 1; }
ASAP_BENCHES=HM ASAP_OPS=10 ASAP_JOBS=4 ASAP_WALLCLOCK= ASAP_RUNCACHE=off \
  ASAP_HTTP=127.0.0.1:0 \
  cargo bench -p asap-bench --bench fig7_speedup >target/obs_http_j4.out 2>/dev/null
cmp target/obs_http_j4.out target/runcache_pass1.out \
  || { echo "HTTP FAILURE: stdout changed with ASAP_HTTP on (jobs=4)" >&2; exit 1; }
# Live-endpoint fetches: a longer background run (bigger ops so the
# server is still up), port discovered from the stderr note, fetched
# with the std-only obs_client (no curl dependency in CI).
cargo build --release -q --example obs_client
HTTP_ERR=target/obs_http_live.err
: >"$HTTP_ERR"
ASAP_BENCHES=HM ASAP_OPS=2000 ASAP_JOBS=1 ASAP_WALLCLOCK= ASAP_RUNCACHE=off \
  ASAP_HTTP=127.0.0.1:0 \
  cargo bench -p asap-bench --bench fig7_speedup >target/obs_http_live.out 2>"$HTTP_ERR" &
HTTP_PID=$!
ADDR=
for _ in $(seq 1 300); do
  ADDR=$(sed -n 's|.*http server listening on http://||p' "$HTTP_ERR" | head -1)
  [ -n "$ADDR" ] && break
  kill -0 "$HTTP_PID" 2>/dev/null || break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "HTTP FAILURE: server address never appeared on stderr" >&2; \
                    cat "$HTTP_ERR" >&2; kill "$HTTP_PID" 2>/dev/null || true; exit 1; }
./target/release/examples/obs_client "$ADDR" /metrics >target/obs_http_metrics.txt \
  || { echo "HTTP FAILURE: /metrics not 200" >&2; kill "$HTTP_PID" 2>/dev/null || true; exit 1; }
grep -q "^# TYPE asap_" target/obs_http_metrics.txt \
  || { echo "HTTP FAILURE: /metrics is not Prometheus exposition" >&2; exit 1; }
./target/release/examples/obs_client "$ADDR" /progress >target/obs_http_progress.json \
  || { echo "HTTP FAILURE: /progress not 200" >&2; kill "$HTTP_PID" 2>/dev/null || true; exit 1; }
grep -q '"active":true' target/obs_http_progress.json \
  || { echo "HTTP FAILURE: /progress JSON malformed" >&2; exit 1; }
./target/release/examples/obs_client "$ADDR" /events 4096 >target/obs_http_events.txt \
  || { echo "HTTP FAILURE: /events not 200" >&2; kill "$HTTP_PID" 2>/dev/null || true; exit 1; }
grep -q '"ev":"run_meta"' target/obs_http_events.txt \
  || { echo "HTTP FAILURE: /events tail missing run_meta header" >&2; exit 1; }
wait "$HTTP_PID" \
  || { echo "HTTP FAILURE: observed fig7 run failed" >&2; exit 1; }
echo "    endpoints live (200s), stdout byte-identical at jobs 1 and 4"

echo "==> crash-point sweep smoke (CoW forks vs legacy re-runs, 32 points)"
# The example asserts every fork byte-identical to a full crash_after
# re-run, every recovery verified, and (at 32-64 points) the sweep at
# least 5x faster than the serial legacy path. ASAP_WALLCLOCK= keeps CI
# from appending host-dependent records to BENCH_WALLCLOCK.json.
ASAP_OPS=100 ASAP_THREADS=2 ASAP_CRASH_SWEEP=32 ASAP_WALLCLOCK= \
  cargo run --release -q --example crash_sweep >target/crash_sweep.out 2>target/crash_sweep.err
grep -q "all 32 forks identical to legacy re-runs" target/crash_sweep.out \
  || { echo "SWEEP FAILURE: fork equivalence line missing" >&2; \
       cat target/crash_sweep.err >&2; exit 1; }
sed -n 's/^crash_sweep: /    /p' target/crash_sweep.err

echo "==> benchmark crash-sweep correctness (perfbench, 1s; not a perf gate)"
# The benchmark's 1000-point sweep must stay correct: every fork recovers
# and repeats, and the results match the committed reference digest.
# Throughput is not checked here; the benchmark's own runs compare it.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload crash_sweep --seconds 1 --trace 0 >target/perfbench_sweep.out 2>target/perfbench_sweep.err
grep -q '"correct":true' target/perfbench_sweep.out \
  || { echo "PERFBENCH FAILURE: crash_sweep reported incorrect results" >&2; \
       cat target/perfbench_sweep.err >&2; exit 1; }
grep -q '"reference":"match"' target/perfbench_sweep.out \
  || { echo "PERFBENCH FAILURE: crash_sweep results differ from the reference" >&2; exit 1; }
echo "    crash_sweep correct, reference match"

echo "==> parallel sweep smoke (1000 lifecycle points, ASAP_SWEEP_JOBS=2 vs serial)"
# Snapshot-tree sweep over a 1000-point lifecycle plan, run twice: serial
# and with two fork workers. Stdout must be byte-identical (determinism
# at any ASAP_SWEEP_JOBS), every point must recover and match its legacy
# re-run, and on multi-CPU hosts the parallel pass must reach at least 2x
# the serial points/s (warn-only on 1-CPU hosts, where there is nothing
# to win).
ASAP_OPS=200 ASAP_THREADS=2 ASAP_CRASH_SWEEP=1000 ASAP_WALLCLOCK= ASAP_RUNCACHE=off \
  cargo run --release -q --example crash_sweep >target/sweep_serial.out 2>target/sweep_serial.err
ASAP_OPS=200 ASAP_THREADS=2 ASAP_CRASH_SWEEP=1000 ASAP_WALLCLOCK= ASAP_RUNCACHE=off \
  ASAP_SWEEP_JOBS=2 \
  cargo run --release -q --example crash_sweep >target/sweep_par.out 2>target/sweep_par.err
cmp target/sweep_serial.out target/sweep_par.out \
  || { echo "SWEEP FAILURE: parallel stdout differs from serial" >&2; exit 1; }
grep -q "all 1000 crash points recovered" target/sweep_serial.out \
  || { echo "SWEEP FAILURE: not every lifecycle point recovered" >&2; \
       cat target/sweep_serial.err >&2; exit 1; }
SERIAL_SECS=$(sed -n 's/^crash_sweep: 1000 points in \([0-9.]*\)s.*/\1/p' target/sweep_serial.err)
PAR_SECS=$(sed -n 's/^crash_sweep: 1000 points in \([0-9.]*\)s.*/\1/p' target/sweep_par.err)
[ -n "$SERIAL_SECS" ] && [ -n "$PAR_SECS" ] \
  || { echo "SWEEP FAILURE: throughput lines missing from stderr" >&2; exit 1; }
SWEEP_SPEEDUP=$(awk "BEGIN{printf \"%.2f\", $SERIAL_SECS / ($PAR_SECS + 1e-9)}")
echo "    1000 points: serial ${SERIAL_SECS}s, 2 workers ${PAR_SECS}s (${SWEEP_SPEEDUP}x); stdout byte-identical"
FAST_ENOUGH=$(awk "BEGIN{print ($SERIAL_SECS >= 2 * $PAR_SECS) ? 1 : 0}")
if [ "$FAST_ENOUGH" != 1 ]; then
  if [ "$(nproc)" -ge 2 ]; then
    echo "SWEEP FAILURE: 2 workers only ${SWEEP_SPEEDUP}x over serial (need >= 2x)" >&2; exit 1
  fi
  echo "    (speedup gate skipped: single-CPU host)"
fi

# Opt-in perf gate: warn (exit 0) when the smoke run exceeds the threshold.
if [ -n "${ASAP_PERF_GATE:-}" ]; then
  LAST=$(python3 - <<'EOF'
import json, sys
try:
    # Warm records measured the memoized path, not the simulator; only
    # cold entries are comparable (records predating the cache tag count
    # as cold).
    entries = [e for e in json.load(open("BENCH_WALLCLOCK.json"))
               if e.get("figure") == "fig7_speedup"
               and e.get("cache", "cold") != "warm"]
    print(entries[-1]["host_seconds"] if entries else "")
except Exception:
    print("")
EOF
)
  OVER=$(awk "BEGIN{print ($SMOKE_SECS > $ASAP_PERF_GATE) ? 1 : 0}")
  if [ "$OVER" = 1 ]; then
    echo "PERF WARNING: serial fig7 smoke ${SMOKE_SECS}s exceeds gate ${ASAP_PERF_GATE}s" >&2
    if [ -n "$LAST" ]; then
      DELTA=$(awk "BEGIN{printf \"%+.3f\", $SMOKE_SECS - $LAST}")
      echo "PERF WARNING: delta vs last BENCH_WALLCLOCK.json fig7 entry (${LAST}s): ${DELTA}s" >&2
    fi
  else
    echo "    perf gate ok (<= ${ASAP_PERF_GATE}s)"
  fi
  # Sweep throughput: compare the last two cold crash_sweep records'
  # points_per_sec (the wallclock field emit_wallclock_sweep writes).
  SWEEP_PPS=$(python3 - <<'EOF'
import json
try:
    entries = [e for e in json.load(open("BENCH_WALLCLOCK.json"))
               if e.get("figure") == "crash_sweep"
               and e.get("cache", "cold") != "warm"
               and "points_per_sec" in e]
    if len(entries) >= 2:
        print(entries[-2]["points_per_sec"], entries[-1]["points_per_sec"])
except Exception:
    pass
EOF
)
  if [ -n "$SWEEP_PPS" ]; then
    read -r PPS_PREV PPS_LAST <<<"$SWEEP_PPS"
    PPS_SLOW=$(awk "BEGIN{print ($PPS_LAST * 2 < $PPS_PREV) ? 1 : 0}")
    if [ "$PPS_SLOW" = 1 ]; then
      echo "PERF WARNING: crash_sweep throughput fell from ${PPS_PREV} to ${PPS_LAST} points/s" >&2
    else
      echo "    perf gate ok (crash_sweep ${PPS_LAST} points/s, prev ${PPS_PREV})"
    fi
  fi
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
