#!/usr/bin/env bash
# CI smoke lanes, one per invocation: `ci_smoke.sh <job>`.
#
# Each lane drives the *release binaries* (no toolchain needed), so the CI
# matrix runs them as independent jobs off one shared cached build. Runs
# locally too: `cargo build --release && scripts/ci_smoke.sh remote-store`.
#
# Environment:
#   BIN_DIR  directory holding runtime/table5/annotate/rtlt-stored
#            (default target/release)
#   SMOKE_TMP scratch root (default: a fresh mktemp -d)
set -euo pipefail

job="${1:?usage: ci_smoke.sh <warm-cache|cross-validate|incremental-annotation|live-annotate|cache-maintenance|remote-store|compressed-store|multiplexed-store|perf-gate>}"
BIN_DIR="${BIN_DIR:-target/release}"
BIN_DIR="$(cd "$BIN_DIR" && pwd)"
SMOKE_TMP="${SMOKE_TMP:-$(mktemp -d)}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

json_num() { # json_num FIELD FILE — the number N of the first "FIELD": N
  # Fails the lane when the field is absent or not a number: a NaN renders
  # as null, and awk would read an empty value as 0 and pass any upper bound.
  local v
  v=$(grep -o "\"$1\": *[^,}]*" "$2" | head -n1 | sed 's/^"[^"]*": *//')
  if ! [[ $v =~ ^-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$ ]]; then
    echo "error: $2: \"$1\" is ${v:-absent}, not a number" >&2
    return 1
  fi
  echo "$v"
}
json_digest() { # json_digest FILE — the suite_digest hex
  grep -o '"suite_digest": *"[a-f0-9]*"' "$1" | grep -o '[a-f0-9]\{64\}'
}

case "$job" in
  # Warm-cache check: the second run must answer suite preparation from
  # the artifact store (>= 90 % prepare-stage hits, and a non-vacuous
  # lookup count — 0 lookups would also report 100 %). The cache dir is
  # job-local on purpose: stage keys carry PIPELINE_EPOCH, and persisting
  # caches across source changes could serve stale artifacts if an epoch
  # bump is forgotten.
  warm-cache)
    cd "$SMOKE_TMP"
    RTLT_FAST=1 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/rtlt-cache"
    RTLT_FAST=1 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/rtlt-cache"
    rate=$(json_num prepare_hit_rate_pct BENCH_runtime.json)
    lookups=$(json_num prepare_lookups BENCH_runtime.json)
    echo "warm prepare-stage hit rate: ${rate}% over ${lookups} lookups"
    awk -v r="$rate" -v n="$lookups" 'BEGIN { exit !(r >= 90 && n >= 21) }'
    ;;

  # Cross-validation smoke: `table5` cold, then warm, in one cache dir,
  # and cold again on one worker in a second. The fold schedule changes
  # how fast, never what: the three stdouts must be byte-identical. The
  # warm run must take every fold's stack from the store (0 `model`
  # misses, one disk hit per fold).
  cross-validate)
    cd "$SMOKE_TMP"
    RTLT_FAST=1 "$BIN_DIR/table5" --cache-dir "$SMOKE_TMP/cv-cache" > cv-cold.txt
    RTLT_FAST=1 "$BIN_DIR/table5" --cache-dir "$SMOKE_TMP/cv-cache" > cv-warm.txt
    sed -n '/"model": {/,/}/p' BENCH_table5.json > cv-warm-model.json
    misses=$(json_num misses cv-warm-model.json)
    hits=$(json_num disk_hits cv-warm-model.json)
    RTLT_FAST=1 RTLT_THREADS=1 "$BIN_DIR/table5" --cache-dir "$SMOKE_TMP/cv-cache-1" > cv-one.txt
    echo "warm cross-validation: ${hits} fold stacks from disk, ${misses} model misses"
    cmp cv-cold.txt cv-warm.txt
    cmp cv-cold.txt cv-one.txt
    test "$misses" -eq 0
    test "$hits" -eq 3
    ;;

  # Incremental-annotation smoke: prepare a multi-module design, edit one
  # module, then stream edits to three more lanes and a revert to the base
  # through the same session. --selfcheck asserts that only the edited
  # module's cones are re-derived, that every revision is byte-identical to
  # a cold recompute (its prediction bit for bit), and that each streamed
  # edit reuses the resident revision; the bin exits non-zero if any of
  # that breaks. The edit computes exactly its cone's 4 shards. The median warm edit (edit_ms_p50) is then gated against
  # warm_edit_ms in the committed baseline with the perf gate's 25 % slack,
  # and the path rows an edit re-walks through the forests are held to 5 %
  # of total_rows per edited lane (the first edit, and the worst streamed
  # edit, whose revert edits four lanes at once): a silent fallback to
  # walking the whole design fails here. A second --selfcheck run in the
  # same cache dir must pass too, and computes the edit's 4 shards again:
  # the store keeps no per-cone rows, only each design's `featurize` entry.
  incremental-annotation)
    cd "$SMOKE_TMP"
    RTLT_FAST=1 "$BIN_DIR/annotate" --selfcheck --cache-dir "$SMOKE_TMP/rtlt-cache"
    grep -o '"speedup": *[0-9.]*' BENCH_annotate.json
    dirty=$(json_num dirty_shards BENCH_annotate.json)
    echo "fresh cache dir: the edit computed ${dirty} shards"
    test "$dirty" -eq 4
    edit_ms=$(json_num edit_ms_p50 BENCH_annotate.json)
    begin_ms=$(json_num begin_ms_p50 BENCH_annotate.json)
    step_ms=$(json_num step_ms_p50 BENCH_annotate.json)
    finish_ms=$(json_num finish_ms_p50 BENCH_annotate.json)
    walked=$(json_num walked_rows BENCH_annotate.json)
    stream_walked=$(json_num stream_walked_rows_per_lane_max BENCH_annotate.json)
    rows=$(json_num total_rows BENCH_annotate.json)
    base_edit=$(json_num warm_edit_ms "$REPO_ROOT/ci/bench-baseline.json")
    summary="warm edit p50 ${edit_ms}ms (begin ${begin_ms} + step ${step_ms} + finish ${finish_ms} ms; baseline ${base_edit}ms, limit $(awk -v b="$base_edit" 'BEGIN{printf "%.1f", b*1.25}')ms); re-walked ${walked} rows on the first edit, at most ${stream_walked} per lane of a streamed edit, of ${rows} (limit 5 %)"
    echo "$summary"
    echo "$summary" >> "${GITHUB_STEP_SUMMARY:-/dev/null}"
    awk -v e="$edit_ms" -v b="$base_edit" 'BEGIN { exit !(e > 0 && e <= b * 1.25) }'
    awk -v w="$walked" -v s="$stream_walked" -v n="$rows" \
      'BEGIN { exit !(n > 0 && w <= 0.05 * n && s <= 0.05 * n) }'
    RTLT_FAST=1 "$BIN_DIR/annotate" --selfcheck --cache-dir "$SMOKE_TMP/rtlt-cache"
    dirty=$(json_num dirty_shards BENCH_annotate.json)
    echo "same cache dir, second run: the edit computed ${dirty} shards"
    test "$dirty" -eq 4
    ;;

  # Live annotation service smoke: start `annotate --serve`, drive one
  # scripted edit over TCP with `annotate --connect --selfcheck`, and
  # assert (a) the edit was actually served remotely in one round trip,
  # (b) the warm EDIT→ANNOTATE wall time is < 25 % of a cold full
  # prepare, and (c) byte-identity with the local loop (the selfcheck).
  # Then kill the server and re-run the client: it must degrade to local
  # recompute — used_remote flips false, byte-identity still holds.
  live-annotate)
    cd "$SMOKE_TMP"
    mkdir -p serve-wd client-wd
    # `exec` so $! is the server binary itself, not a wrapping subshell —
    # the kill below must reach the process holding the socket.
    (cd serve-wd && RTLT_FAST=1 exec "$BIN_DIR/annotate" --serve --addr=127.0.0.1:7463 \
      --cache-dir "$SMOKE_TMP/live-cache" > serve.log 2>&1) &
    SERVE_PID=$!
    trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
    for _ in $(seq 1 120); do
      grep -q "listening on" serve-wd/serve.log 2>/dev/null && break
      kill -0 $SERVE_PID 2>/dev/null || { echo "server died during startup"; cat serve-wd/serve.log; exit 1; }
      sleep 1
    done
    grep "listening on" serve-wd/serve.log
    (cd client-wd && RTLT_FAST=1 "$BIN_DIR/annotate" --connect=127.0.0.1:7463 --selfcheck \
      --cache-dir "$SMOKE_TMP/live-client-cache")
    remote=$(grep -o '"used_remote": *[a-z]*' client-wd/BENCH_annotate.json | grep -o '[a-z]*$')
    turns=$(json_num live_round_trips client-wd/BENCH_annotate.json)
    frac=$(json_num warm_over_cold client-wd/BENCH_annotate.json)
    echo "live edit: used_remote=${remote} round_trips=${turns} warm/cold=${frac}"
    test "$remote" = "true"
    awk -v f="$frac" -v t="$turns" 'BEGIN { exit !(f < 0.25 && t == 1) }'
    kill $SERVE_PID 2>/dev/null || true
    wait $SERVE_PID 2>/dev/null || true
    (cd client-wd && RTLT_FAST=1 "$BIN_DIR/annotate" --connect=127.0.0.1:7463 --selfcheck \
      --cache-dir "$SMOKE_TMP/live-client-cache")
    remote=$(grep -o '"used_remote": *[a-z]*' client-wd/BENCH_annotate.json | grep -o '[a-z]*$')
    identical=$(grep -o '"byte_identical": *[a-z]*' client-wd/BENCH_annotate.json | grep -o '[a-z]*$')
    echo "dead-server rerun: used_remote=${remote} byte_identical=${identical}"
    test "$remote" = "false"
    test "$identical" = "true"
    ;;

  # Disk-tier maintenance round-trip: stats, then a full eviction. The
  # stats table of the cold run's cache must list exactly the namespaces a
  # prepare + fit writes, so a retired namespace coming back, or a stage
  # that stops writing, fails the lane.
  cache-maintenance)
    cd "$SMOKE_TMP"
    RTLT_FAST=1 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/rtlt-cache"
    "$BIN_DIR/runtime" --cache-stats --cache-dir "$SMOKE_TMP/rtlt-cache" | tee cache-stats.txt
    namespaces=$(awk '/^-+$/ { t = 1; next } /^total:/ { t = 0 } t { print $1 }' cache-stats.txt | xargs)
    echo "disk namespaces: ${namespaces}"
    test "$namespaces" = "blast featurize label model"
    "$BIN_DIR/runtime" gc 0 --cache-dir "$SMOKE_TMP/rtlt-cache" | grep -q "KiB remain"
    ;;

  # Shared artifact service smoke: two disjoint local caches against one
  # rtlt-stored. The first run populates the server (write-back); the
  # second starts cold locally and must draw >= 90 % of its prepare
  # artifacts from the remote tier — through the batched (GETM) prefetch —
  # producing a byte-identical suite digest.
  remote-store)
    cd "$SMOKE_TMP"
    "$BIN_DIR/rtlt-stored" --addr 127.0.0.1:7979 --dir "$SMOKE_TMP/stored" &
    STORED_PID=$!
    trap 'kill $STORED_PID 2>/dev/null || true' EXIT
    sleep 1
    RTLT_FAST=1 RTLT_STORE_REMOTE=127.0.0.1:7979 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/remote-a"
    digest_a=$(json_digest BENCH_runtime.json)
    RTLT_FAST=1 RTLT_STORE_REMOTE=127.0.0.1:7979 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/remote-b"
    digest_b=$(json_digest BENCH_runtime.json)
    remote=$(json_num prepare_remote_hits BENCH_runtime.json)
    batched=$(json_num prepare_batched_hits BENCH_runtime.json)
    lookups=$(json_num prepare_lookups BENCH_runtime.json)
    echo "second run: ${remote}/${lookups} prepare artifacts from the remote tier (${batched} batched)"
    awk -v r="$remote" -v b="$batched" -v n="$lookups" \
      'BEGIN { exit !(n >= 21 && r >= 0.9 * n && b >= 1) }'
    test "$digest_a" = "$digest_b"
    ;;

  # Compressed store: a cold then warm run in one cache. The warm run's
  # featurize frames read off disk must be <= 60 % of the bytes they decode
  # to (a raw frame is the payload plus one byte, so this bounds packed
  # against raw frames), and both suite digests must be byte-identical —
  # compression changes how artifacts rest, never what they decode to.
  compressed-store)
    cd "$SMOKE_TMP"
    RTLT_FAST=1 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/packed-cache"
    digest_cold=$(json_digest BENCH_runtime.json)
    RTLT_FAST=1 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/packed-cache"
    digest_warm=$(json_digest BENCH_runtime.json)
    packed=$(json_num featurize_stored_read_bytes BENCH_runtime.json)
    decoded=$(json_num featurize_read_bytes BENCH_runtime.json)
    rate=$(json_num prepare_hit_rate_pct BENCH_runtime.json)
    echo "warm featurize frame bytes: ${packed} for ${decoded} decoded ($(awk -v p="$packed" -v d="$decoded" 'BEGIN{if (d > 0) printf "%.1f%% saved", 100*(1-p/d); else print "n/a"}'))"
    awk -v p="$packed" -v d="$decoded" -v h="$rate" \
      'BEGIN { exit !(d > 0 && p <= 0.6 * d && h >= 90) }'
    test "$digest_cold" = "$digest_warm"
    ;;

  # Multiplexed wire: a cold populate against a fresh server (tagged
  # frames, 8-deep fire-and-forget PUT window). Its wire round trips are
  # gated against remote_populate_round_trips in the committed baseline
  # with the perf gate's limit (1.25x + 1): a fall-back to one exchange
  # per operation (~2x the turnarounds) fails. A warm pull from the
  # populated server then answers the whole prepare set in a handful of
  # turns, and with the server killed a fresh run degrades to recompute —
  # same digest, no remote.
  multiplexed-store)
    cd "$SMOKE_TMP"
    "$BIN_DIR/rtlt-stored" --addr 127.0.0.1:7983 --dir "$SMOKE_TMP/mux-pipe-store" &
    PIPE_PID=$!
    trap 'kill $PIPE_PID 2>/dev/null || true' EXIT
    sleep 1
    RTLT_FAST=1 RTLT_STORE_REMOTE=127.0.0.1:7983 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/mux-pipe-a"
    digest_pipe=$(json_digest BENCH_runtime.json)
    rt_pipe=$(json_num remote_round_trips BENCH_runtime.json)
    base_rt=$(json_num remote_populate_round_trips "$REPO_ROOT/ci/bench-baseline.json")
    summary="populate round trips: ${rt_pipe} (baseline ${base_rt}, limit $(awk -v b="$base_rt" 'BEGIN{printf "%.0f", b*1.25+1}'))"
    echo "$summary"
    echo "$summary" >> "${GITHUB_STEP_SUMMARY:-/dev/null}"
    awk -v p="$rt_pipe" -v b="$base_rt" 'BEGIN { exit !(p > 0 && p <= b * 1.25 + 1) }'
    RTLT_FAST=1 RTLT_STORE_REMOTE=127.0.0.1:7983 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/mux-pipe-b"
    digest_warm=$(json_digest BENCH_runtime.json)
    rt_warm=$(json_num remote_round_trips BENCH_runtime.json)
    remote=$(json_num prepare_remote_hits BENCH_runtime.json)
    lookups=$(json_num prepare_lookups BENCH_runtime.json)
    echo "warm pull: ${remote}/${lookups} prepare artifacts remote in ${rt_warm} round trips"
    awk -v w="$rt_warm" -v p="$rt_pipe" -v r="$remote" -v n="$lookups" \
      'BEGIN { exit !(n >= 21 && r >= 0.9 * n && w >= 1 && w * 10 <= p) }'
    test "$digest_warm" = "$digest_pipe"
    kill $PIPE_PID 2>/dev/null || true
    wait $PIPE_PID 2>/dev/null || true
    RTLT_FAST=1 RTLT_STORE_REMOTE=127.0.0.1:7983 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/mux-dead"
    digest_dead=$(json_digest BENCH_runtime.json)
    echo "dead-server digest=$digest_dead populated digest=$digest_pipe"
    test "$digest_dead" = "$digest_pipe"
    ;;

  # Perf-regression gate: cold + warm run, then diff the cold-prepare and
  # warm-prepare wall times, hit rate and frame bytes read against the
  # committed baseline; >25 % regression on any axis fails. The cold run's
  # prepare seconds are captured before the warm run overwrites
  # BENCH_runtime.json — that column is what guards the shared-cone
  # featurize kernel. All values land in the job summary.
  perf-gate)
    cd "$SMOKE_TMP"
    RTLT_FAST=1 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/perf-cache"
    cold_secs=$(json_num suite_prep_seconds BENCH_runtime.json)
    RTLT_FAST=1 "$BIN_DIR/runtime" --cache-dir "$SMOKE_TMP/perf-cache"
    fresh_secs=$(json_num suite_prep_seconds BENCH_runtime.json)
    fresh_rate=$(json_num prepare_hit_rate_pct BENCH_runtime.json)
    fresh_bytes=$(json_num prepare_stored_read_bytes BENCH_runtime.json)
    fresh_turns=$(json_num prepare_round_trips BENCH_runtime.json)
    fresh_inf=$(json_num inference_median BENCH_runtime.json)
    base_cold=$(json_num cold_prepare_seconds "$REPO_ROOT/ci/bench-baseline.json")
    base_secs=$(json_num suite_prep_seconds "$REPO_ROOT/ci/bench-baseline.json")
    base_rate=$(json_num prepare_hit_rate_pct "$REPO_ROOT/ci/bench-baseline.json")
    base_bytes=$(json_num prepare_stored_read_bytes "$REPO_ROOT/ci/bench-baseline.json")
    base_turns=$(json_num prepare_round_trips "$REPO_ROOT/ci/bench-baseline.json")
    base_inf=$(json_num inference_median "$REPO_ROOT/ci/bench-baseline.json")
    summary="perf gate: cold prepare ${cold_secs}s (baseline ${base_cold}s, limit $(awk -v b="$base_cold" 'BEGIN{printf "%.3f", b*1.25}')s), warm prepare ${fresh_secs}s (baseline ${base_secs}s, limit $(awk -v b="$base_secs" 'BEGIN{printf "%.3f", b*1.25}')s), hit rate ${fresh_rate}% (baseline ${base_rate}%, floor $(awk -v b="$base_rate" 'BEGIN{printf "%.1f", b*0.75}')%), bytes read ${fresh_bytes} (baseline ${base_bytes}, limit $(awk -v b="$base_bytes" 'BEGIN{printf "%.0f", b*1.25}')), round trips ${fresh_turns} (baseline ${base_turns}, limit $(awk -v b="$base_turns" 'BEGIN{printf "%.0f", b*1.25+1}')), inference median ${fresh_inf}ms (baseline ${base_inf}ms, limit $(awk -v b="$base_inf" 'BEGIN{printf "%.3f", b*1.25}')ms)"
    echo "$summary"
    echo "$summary" >> "${GITHUB_STEP_SUMMARY:-/dev/null}"
    # Round trips get +1 absolute slack on top of the 25 % margin: this
    # lane runs without a remote, so the expected value is exactly 0 and
    # a pure percentage gate would reject any future count at all. The
    # inference-median column guards the flat SoA predict kernel.
    awk -v c="$cold_secs" -v bc="$base_cold" \
        -v s="$fresh_secs" -v bs="$base_secs" -v r="$fresh_rate" -v br="$base_rate" \
        -v y="$fresh_bytes" -v by="$base_bytes" -v t="$fresh_turns" -v bt="$base_turns" \
        -v i="$fresh_inf" -v bi="$base_inf" \
      'BEGIN { exit !(c <= bc * 1.25 && s <= bs * 1.25 && r >= br * 0.75 && y <= by * 1.25 && t <= bt * 1.25 + 1 && i <= bi * 1.25) }'
    ;;

  *)
    echo "error: unknown smoke job '$job'" >&2
    exit 2
    ;;
esac
echo "[ci-smoke] $job OK"
