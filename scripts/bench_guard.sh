#!/usr/bin/env sh
# Bench-regression guard: regenerates BENCH_runtime.json with the full
# perf_report and compares two numbers against those committed in the
# repository: end_to_end.fast_serial_s (the Table II grid) and
# energy_front_end.ns_per_sample (the Eq. (1) front end).
#
#   scripts/bench_guard.sh [tolerance-percent]
#
# Fails (exit 1) when either fresh number regresses by more than the
# tolerance (default 15 %). Speedups and small wobbles are
# informational only — the committed file is never modified; run
# `cargo run --release -p emsc-examples --example perf_report` from the
# repository root and commit the result to re-baseline deliberately.
#
# POSIX sh + awk only, so it runs in CI images and the dev container
# without extra tooling.
set -eu

TOLERANCE="${1:-15}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
COMMITTED="$ROOT/BENCH_runtime.json"

[ -f "$COMMITTED" ] || { echo "bench_guard: no committed $COMMITTED"; exit 1; }

extract() {
    # First "$2" value inside the "$1" section of file $3 (both keys
    # are unique within their sections).
    awk -F: -v section="\"$1\"" -v key="\"$2\"" '
        index($1, section) { inside = 1 }
        inside && index($1, key) { gsub(/[ ,]/, "", $2); print $2; exit }
    ' "$3"
}

FRESH_DIR="$(mktemp -d)"
trap 'rm -rf "$FRESH_DIR"' EXIT INT TERM

# perf_report writes BENCH_runtime.json into the current directory, so
# run it from the scratch dir to leave the committed baseline untouched.
(cd "$FRESH_DIR" && cargo run --release --quiet \
    --manifest-path "$ROOT/Cargo.toml" -p emsc-examples --example perf_report)

STATUS=0
for METRIC in end_to_end.fast_serial_s energy_front_end.ns_per_sample; do
    SECTION="${METRIC%%.*}"
    KEY="${METRIC#*.}"
    BASELINE="$(extract "$SECTION" "$KEY" "$COMMITTED")"
    [ -n "$BASELINE" ] || { echo "bench_guard: no $METRIC in committed baseline"; exit 1; }
    FRESH="$(extract "$SECTION" "$KEY" "$FRESH_DIR/BENCH_runtime.json")"
    [ -n "$FRESH" ] || { echo "bench_guard: perf_report produced no $METRIC"; exit 1; }
    awk -v name="$METRIC" -v base="$BASELINE" -v fresh="$FRESH" -v tol="$TOLERANCE" 'BEGIN {
        delta = (fresh - base) / base * 100.0
        printf "bench_guard: %s committed %.3f, fresh %.3f (%+.1f%%, tolerance +%s%%)\n",
               name, base, fresh, delta, tol
        if (delta > tol + 0.0) {
            printf "bench_guard: REGRESSION — %s is %.1f%% worse than the committed baseline\n", name, delta
            exit 1
        }
        if (delta < -tol - 0.0) {
            # Markedly faster is not a failure, but the baseline is stale.
            printf "bench_guard: note — %s is much better; consider re-baselining BENCH_runtime.json\n", name
        }
        exit 0
    }' || STATUS=1
done
exit "$STATUS"
