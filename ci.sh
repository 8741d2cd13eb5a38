#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, every paper report, the
# tier-1 test suite and the parallel-sweep regression benchmark.
# Everything resolves offline — the workspace has no external
# dependencies.
#
# Tiers:
#   ./ci.sh                     tier 1 — fast suite (slow full-figure
#                               sweeps are #[ignore]d)
#   ORDERLIGHT_TIER2=1 ./ci.sh  also runs the ignored tier-2 tests
#                               (full Figure 10/12/13 sweeps, every
#                               sweep-backed report printer and the
#                               large parallel-equivalence sweeps)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# Broken or private intra-doc links fail the build like any lint.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release

# Every paper table, figure and ablation printer behind
# `orderlight figure` must run to completion at a small job size and
# print exactly the committed transcript: the printers share one
# memoising runner, and sharing must not change a byte.
echo "==> orderlight figure all (every paper report, 8 KiB, cmp against the golden transcript)"
./target/release/orderlight figure all --data-kb 8 --jobs 2 | cmp - tests/golden/figure_all_8k.txt \
    || { echo "figure all differs from tests/golden/figure_all_8k.txt"; exit 1; }

# A reader that stops early must end the binary quietly: writes to a
# closed stdout used to panic, printing a backtrace on stderr.
echo "==> orderlight figure table1 | head -1 (closed stdout, empty stderr)"
pipe_err="$(mktemp)"
./target/release/orderlight figure table1 --data-kb 8 2> "$pipe_err" | head -1 > /dev/null
if [[ -s "$pipe_err" ]]; then
    echo "a closed stdout made orderlight write to stderr:"
    cat "$pipe_err"
    rm -f "$pipe_err"
    exit 1
fi
rm -f "$pipe_err"

# The tier-1 suite. Every command runs the event core; the suites
# that compare it with the dense reference core pin both (see
# DESIGN.md, "Quiescence contract").
echo "==> cargo test (workspace, tier 1)"
cargo test --workspace -q

# The benchmark package's own tests (perfbench/, a separate package):
# one untimed pass over every workload's scenarios must reproduce the
# committed per-workload result digests, so any change to simulated
# behaviour fails here rather than only under a benchmark run.
echo "==> cargo test (perfbench: committed result digests)"
cargo test --offline --manifest-path perfbench/Cargo.toml -q

if [[ "${ORDERLIGHT_TIER2:-0}" != "0" ]]; then
    echo "==> cargo test (tier 2: ignored full-figure sweeps)"
    cargo test --workspace -q -- --ignored
fi

# Calendar-queue differential gauntlet (tests/horizon_fuzz.rs):
# SplitMix64-seeded configurations sweeping refresh, BMF, TS size and
# the legal fault layers, asserting the dense and event cores agree on
# RunStats, controller stats, final DRAM bytes and ProfileReport bytes
# — at jobs=1 and jobs=8. Release mode: the gauntlet is 4 full runs
# per case. Tier 1 runs the small prefix; tier 2 the full 64 cases.
echo "==> horizon fuzz gauntlet (tier 1: small prefix, release)"
cargo test --release --test horizon_fuzz -q

# Tier 2 runs the full gauntlet under the `release-checked` profile:
# release code generation with every `debug_assert` live, so the
# controller's bank-mask recount (`recount_bank_state`), the ordering
# backend's `inflight_total` recount and the event core's LDST-head set
# check run on all 64 cases.
if [[ "${ORDERLIGHT_TIER2:-0}" != "0" ]]; then
    echo "==> horizon fuzz gauntlet (tier 2: full 64 cases, release + debug assertions)"
    cargo test --profile release-checked --test horizon_fuzz -q -- --include-ignored
fi

# Ordering-violation oracle gate, per backend: every ordering backend
# (orderlight, fence, seqnum, louvre, bulk) must run clean under the
# oracle, and the seeded drop-edge mutation must make the check fire
# for each (the `check --mutate` self-test exits non-zero if the
# deliberately broken schedule stays clean). The adversarial scheduler
# rides along on the mutation leg so the opened window is actually hit.
# The same check on the dense reference core is a tier-1 test
# (tests/ordering_oracle.rs).
echo "==> orderlight check (oracle gate, per backend)"
./target/release/orderlight check --data-kb 32 --faults all --seed 1
for backend in orderlight fence seqnum louvre bulk; do
    ./target/release/orderlight check --data-kb 32 --mode "$backend"
    ./target/release/orderlight check --data-kb 32 --mode "$backend" \
        --faults sched --mutate 0:0
done

# Cross-primitive comparison smoke: one checked run per backend,
# recording speedup vs. the fence baseline, violation-freedom and
# in-band metadata cost. Exits non-zero if any backend's run is dirty;
# the grep then gates on the records actually landing in the v6 JSON
# (canonical JSON: compact, keys sorted).
echo "==> orderlight compare-ordering (cross-primitive smoke)"
tmpcmp="$(mktemp)"
./target/release/orderlight compare-ordering --data-kb 8 --out "$tmpcmp"
grep -q '"schema":"orderlight/bench-sweep/v6"' "$tmpcmp" \
    || { echo "compare-ordering did not write a v6 document"; exit 1; }
for backend in orderlight fence seqnum louvre bulk; do
    grep -q "\"ordering\":\"$backend\"" "$tmpcmp" \
        || { echo "compare-ordering is missing the $backend record"; exit 1; }
done
rm -f "$tmpcmp"

# Stall-attribution profiler gate: profile the Figure 5 scenario pair
# (fence baseline and OrderLight). `profile` itself exits non-zero if a
# single stall cycle is attributed to no cause (the conservation
# invariant — which skip-boundary event synthesis must uphold
# bit-identically); `profile-verify` then re-reads the emitted JSON
# with the in-tree parser and re-checks the breakdown sums. That the
# dense reference core serializes the same fence report bytes is a
# tier-1 test (tests/profile_core_equivalence.rs).
echo "==> orderlight profile (conservation gate, fig05 scenario)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
./target/release/orderlight profile Add --mode fence --data-kb 32 --out "$tmpdir/fig05_fence"
./target/release/orderlight profile Add --mode orderlight --data-kb 32 --out "$tmpdir/fig05_ol"
./target/release/orderlight profile-verify "$tmpdir/fig05_fence.profile.json" \
    "$tmpdir/fig05_ol.profile.json"

# The value of `"key":` in a canonical-JSON fragment (empty if absent).
json_num() {
    grep -o "\"$1\":[0-9.e-]*" <<< "$2" | head -1 | grep -o '[0-9.e-]*$' || true
}

# Simulation-as-a-service smoke: start the daemon on an ephemeral
# loopback port, submit the fig05 OrderLight scenario from two
# concurrent clients, cmp both replies byte-for-byte against a direct
# in-process run (determinism makes a served reply exact), then assert
# a repeated request is answered from the scenario cache without
# re-simulating, and shut the daemon down cleanly.
echo "==> orderlight serve (service smoke: concurrency, cmp, cache)"
./target/release/orderlight serve --jobs 2 > "$tmpdir/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 100); do
    grep -q "listening on" "$tmpdir/serve.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on \([0-9.:]*\).*/\1/p' "$tmpdir/serve.log")"
[[ -n "$addr" ]] || { echo "serve did not report a listening address"; exit 1; }
./target/release/orderlight submit --addr "$addr" --workload Add --data-kb 32 \
    --out "$tmpdir/served_a.json" > /dev/null &
client_a=$!
./target/release/orderlight submit --addr "$addr" --workload Add --data-kb 32 \
    --out "$tmpdir/served_b.json" > /dev/null &
client_b=$!
wait "$client_a" "$client_b" \
    || { echo "a concurrent submit failed"; exit 1; }
./target/release/orderlight submit --local --workload Add --data-kb 32 \
    --out "$tmpdir/direct.json"
cmp "$tmpdir/served_a.json" "$tmpdir/direct.json" \
    || { echo "served reply A differs from the direct run"; exit 1; }
cmp "$tmpdir/served_b.json" "$tmpdir/direct.json" \
    || { echo "served reply B differs from the direct run"; exit 1; }
./target/release/orderlight submit --addr "$addr" --workload Add --data-kb 32 \
    > "$tmpdir/cached.out"
grep -q '"cached":true' "$tmpdir/cached.out" \
    || { echo "repeated request was not answered from the cache"; exit 1; }

# Telemetry-plane scrape: after the two concurrent submits (plus the
# cached repeat above) the live metrics registry must attribute every
# request — at least two results, at least one cache hit, the same
# hits and misses as the `stats` reply — and the flight recorder must
# hold all three scenario requests. `top --once` must render the same
# snapshot as a one-screen summary.
echo "==> orderlight serve (telemetry scrape: metrics, flightrec, top)"
./target/release/orderlight submit --addr "$addr" --metrics-text > "$tmpdir/metrics.txt"
requests_result="$(awk '$1 == "orderlight_requests_result" {print $2}' "$tmpdir/metrics.txt")"
cache_hits="$(awk '$1 == "orderlight_cache_hits" {print $2}' "$tmpdir/metrics.txt")"
[[ -n "$requests_result" && "$requests_result" -ge 2 ]] \
    || { echo "metrics report requests_result=$requests_result, want >= 2"; exit 1; }
[[ -n "$cache_hits" && "$cache_hits" -ge 1 ]] \
    || { echo "metrics report cache_hits=$cache_hits, want >= 1"; exit 1; }
# One set of books: the `stats` reply's hits and misses are the
# registry's `cache.hits` and `cache.misses` scraped just above.
cache_misses="$(awk '$1 == "orderlight_cache_misses" {print $2}' "$tmpdir/metrics.txt")"
stats_reply="$(./target/release/orderlight submit --addr "$addr" --stats | head -1)"
stats_hits="$(json_num hits "$stats_reply")"
stats_misses="$(json_num misses "$stats_reply")"
[[ -n "$stats_hits" && "$stats_hits" == "$cache_hits" \
    && -n "$stats_misses" && "$stats_misses" == "$cache_misses" ]] \
    || { echo "stats reply hits/misses $stats_hits/$stats_misses differ from metrics" \
        "$cache_hits/$cache_misses"; exit 1; }
./target/release/orderlight submit --addr "$addr" --flightrec > "$tmpdir/flightrec.out"
recorded="$(grep -o '"outcome":"result-' "$tmpdir/flightrec.out" | wc -l)"
[[ "$recorded" -ge 3 ]] \
    || { echo "flight recorder holds $recorded requests, want >= 3"; exit 1; }
./target/release/orderlight top --addr "$addr" --once > "$tmpdir/top.out"
grep -q "^requests " "$tmpdir/top.out" && grep -q "^cache " "$tmpdir/top.out" \
    || { echo "orderlight top did not render the metrics snapshot"; exit 1; }

./target/release/orderlight submit --addr "$addr" --shutdown > /dev/null
wait "$serve_pid" || { echo "serve did not exit cleanly"; exit 1; }
trap 'rm -rf "$tmpdir"' EXIT

# Cross-core and profile regression gate: re-runs every figure series
# under the cycle core, the event core and a worker pool in release
# mode, failing on any bit-level mismatch, and under the event core
# with the profiler attached, failing on any conservation violation.
# Records per-cause stall deltas, the observability overhead and the
# event-core speedup in the schema-v6 JSON, alongside the per-backend
# ordering comparison records.
echo "==> orderlight bench (core + pool + observability regression)"
./target/release/orderlight bench --out BENCH_sweep.json
echo "    wrote BENCH_sweep.json"
grep -q '"schema":"orderlight/bench-sweep/v6"' BENCH_sweep.json \
    || { echo "bench did not write a v6 document"; exit 1; }
grep -q '"ordering":"louvre"' BENCH_sweep.json \
    || { echo "bench JSON is missing the per-backend ordering records"; exit 1; }

# Observability overhead budget: the profiled event-core fig05 sweep
# must cost at most 1.5x its unprofiled CPU time. Every timed leg runs
# on one thread and is timed on that thread's CPU clock, so a busy
# neighbour on the host does not move the ratio. The bench record is
# canonical JSON (compact, keys sorted), so in the fig05 entry
# "overhead" directly follows "figure" and grep suffices. A missing
# entry fails the gate. The two CPU times the ratio divides are
# printed beside it, with the profiled leg's wall time, so a ratio that
# moved because one side changed reads as such.
echo "==> observability overhead budget (fig05 <= 1.5x)"
fig05_entry="$(grep -o '"figure":"fig05","overhead":[^{]*{[^}]*},"stalls":{[^}]*}[^}]*' \
    BENCH_sweep.json || true)"
overhead="$(json_num overhead "$fig05_entry")"
echo "    fig05 profiled/unprofiled overhead: ${overhead}x" \
    "($(json_num profiled_seconds "$fig05_entry") s / $(json_num unprofiled_seconds "$fig05_entry") s CPU;" \
    "profiled $(json_num profiled_wall_seconds "$fig05_entry") s wall)"
[[ -n "$overhead" ]] || { echo "bench JSON has no fig05 overhead entry"; exit 1; }
awk -v o="$overhead" 'BEGIN { exit !(o <= 1.5) }' \
    || { echo "fig05 observability overhead ${overhead}x exceeds the 1.5x budget"; exit 1; }

# Event-core speedup gate: the calendar-queue core must keep its edge
# over the dense core on the fence-heavy fence-ts16 sweep. Each side is
# the fastest of five alternating repetitions, in the running thread's
# CPU time; five bench runs on a 2-vCPU host read 3.49x-3.63x, and the
# 2.5x floor absorbs what noise the CPU clock still sees. In canonical
# key order the entry's scalar keys run from "cycle_points_per_sec" to
# "figure". A missing entry fails the gate. The dense and event CPU
# and wall times behind the ratio are printed beside it.
echo "==> event-core speedup gate (fence-ts16 >= 2.5x)"
speed_entry="$(grep -o '"cycle_points_per_sec":[^{}]*"figure":"fence-ts16"' BENCH_sweep.json \
    || true)"
speedup="$(json_num event_speedup "$speed_entry")"
echo "    fence-ts16 event-core speedup: ${speedup}x" \
    "($(json_num cycle_seconds "$speed_entry") s dense / $(json_num event_seconds "$speed_entry") s event CPU;" \
    "$(json_num cycle_wall_seconds "$speed_entry") s / $(json_num event_wall_seconds "$speed_entry") s wall)"
[[ -n "$speedup" ]] || { echo "bench JSON has no fence-ts16 speedup entry"; exit 1; }
awk -v s="$speedup" 'BEGIN { exit !(s >= 2.5) }' \
    || { echo "fence-ts16 event speedup ${speedup}x below the 2.5x floor"; exit 1; }

# Busy-series floor: the event core is never slower than the dense core,
# even on fig10, the series that holds the GPU host points (beside its
# fence and OrderLight points). There nearly every cycle executes and
# the event core runs mostly in dense bursts. Same fastest-of-five CPU
# legs and canonical key order as above.
echo "==> event-core busy-series floor (fig10 >= 1.0x)"
busy_entry="$(grep -o '"cycle_points_per_sec":[^{}]*"figure":"fig10"' BENCH_sweep.json || true)"
busy_speedup="$(json_num event_speedup "$busy_entry")"
echo "    fig10 event-core speedup: ${busy_speedup}x" \
    "($(json_num cycle_seconds "$busy_entry") s dense / $(json_num event_seconds "$busy_entry") s event CPU;" \
    "$(json_num cycle_wall_seconds "$busy_entry") s / $(json_num event_wall_seconds "$busy_entry") s wall)"
[[ -n "$busy_speedup" ]] || { echo "bench JSON has no fig10 speedup entry"; exit 1; }
awk -v s="$busy_speedup" 'BEGIN { exit !(s >= 1.0) }' \
    || { echo "fig10 event speedup ${busy_speedup}x below the 1.0x floor"; exit 1; }

echo "CI green."
