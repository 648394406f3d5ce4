#!/bin/sh
# Engine-throughput gate: run one picobench figure (default: the fig4
# sweep), record host seconds and events/sec into BENCH_engine.json, and
# fail if throughput regressed more than 20% against the checked-in
# baseline (scripts/perf_baseline.json).
#
# The gating metric is engine/equiv_events_per_sec: (events processed +
# events elided by semantics-preserving batching) per host second.
# Counting elided events makes the number a *per-packet-equivalent*
# throughput, so it stays comparable when a change moves work between
# the per-packet and batched paths; a change that merely skipped
# simulation work would show up as a byte-diff in check.sh instead.
#
# A warn-only ledger-overhead FOM re-runs the figure with latency
# ledgers armed (--breakdown), prints the per-event cost ratio against
# the unarmed run, and compares the armed equiv_events_per_sec with the
# baseline's ledger_equiv_events_per_sec (the ratio alone reads a faster
# unarmed path as costlier bookkeeping); skip with PICO_PERF_LEDGER=0.
#
# Informative wall-clock FOMs come from the faults, serve and scale
# figures (below).  Their host seconds are recorded next to the
# throughput numbers (and refreshed into the baseline) but only warn,
# never fail — the hard gate stays fig4's equiv_events_per_sec.
#
# The baseline is host-specific (wall-clock!); refresh it on your machine
# with:  scripts/perf.sh --update   (or PICO_PERF_UPDATE=1 scripts/perf.sh)
#
# Usage: scripts/perf.sh                (from the repo root)
#        scripts/perf.sh --update
#        PICO_PERF_FIG=imb scripts/perf.sh

set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--update" ]; then
  PICO_PERF_UPDATE=1
fi

fig="${PICO_PERF_FIG:-fig4}"
out="${PICO_PERF_JSON:-BENCH_engine.json}"
baseline="scripts/perf_baseline.json"

dune build bin/picobench.exe 2>/dev/null || dune build bin/picobench.exe

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# json_key FILE KEY: print the number stored under KEY in a flat JSON
# object (picobench reports, the baseline), or nothing.
json_key() {
  awk -F': ' -v key="\"$2\"" '$0 ~ key { gsub(/[ ,]/, "", $2); print $2 }' "$1"
}

PICO_JOBS="${PICO_JOBS:-1}" dune exec --no-build bin/picobench.exe -- \
  "$fig" --json "$tmp/$fig.json" > /dev/null

metric() {
  json_key "$tmp/$1.json" "$1/engine/$2"
}

events="$(metric "$fig" events)"
elided="$(metric "$fig" events_elided)"
host="$(metric "$fig" host_seconds)"
eps="$(metric "$fig" events_per_sec)"
eeps="$(metric "$fig" equiv_events_per_sec)"

if [ -z "$eeps" ]; then
  echo "perf.sh: no engine metrics for figure '$fig' in picobench JSON" >&2
  exit 1
fi

# Ledger overhead (warn-only): re-run the same figure with latency
# ledgers armed (--breakdown) and compare per-event throughput.  Arming
# ledgers cannot change results (check.sh gates that); this FOM watches
# what the bookkeeping costs in host time.  Skip with PICO_PERF_LEDGER=0.
ledger_eeps=null
if [ "${PICO_PERF_LEDGER:-1}" = "1" ]; then
  PICO_JOBS="${PICO_JOBS:-1}" dune exec --no-build bin/picobench.exe -- \
    "$fig" --json "$tmp/ledger.json" --breakdown "$tmp/ledger.bd" > /dev/null
  ledger_eeps="$(json_key "$tmp/ledger.json" "$fig/engine/equiv_events_per_sec")"
  if [ -z "$ledger_eeps" ]; then
    echo "perf.sh: no engine metrics in ledger-armed run" >&2
    exit 1
  fi
  awk -v on="$ledger_eeps" -v off="$eeps" 'BEGIN {
    ratio = off / on;
    printf "perf.sh: ledgers armed: %.4g equiv events/sec (%.2fx cost vs off)\n",
      on, ratio;
    # ~1.8x is the expected steady-state bookkeeping cost on the tiny
    # quick-scale fig4; warn only when it grows well past that.
    if (ratio > 2.5)
      print "perf.sh: WARN: ledger bookkeeping >2.5x per-event cost" > "/dev/stderr";
  }'
fi

# Warn-only wall-clock FOMs: whole-figure host seconds of three figures
# that exercise layers fig4 does not.
#   faults: the injector over every fault family — SDMA halts, IKC
#     drops, and the fabric link-fault degradation sweep — so it watches
#     what fault bookkeeping and the failover/retry machinery cost.
#   serve: the inertness check plus the offered-load sweep — open-loop
#     replay, admission queues, breaker bookkeeping and the nearest-rank
#     quantile sort.
#   scale: the 64-256-node sweep on the sharded engine, whose whole
#     point is finishing in minutes; its unsharded oversubscribed
#     fat-tree tail has its own sub-sweep timer
#     (scale/engine/ft_host_seconds).
# Skip each with PICO_PERF_FAULTS=0 / PICO_PERF_SERVE=0 / PICO_PERF_SCALE=0
# (check.sh does: it just byte-checked these figures twice).

# figure_key FIGURE KEY: print report key FIGURE/KEY from the JSON of a
# `picobench FIGURE` run, failing loudly when it is missing.
figure_key() {
  v="$(json_key "$tmp/$1.json" "$1/$2")"
  if [ -z "$v" ]; then
    echo "perf.sh: no $1/$2 in picobench $1 JSON" >&2
    exit 1
  fi
  echo "$v"
}

# figure_seconds FIGURE: run `picobench FIGURE` and print its host
# seconds (the JSON report stays in $tmp for further keys).
figure_seconds() {
  dune exec --no-build bin/picobench.exe -- "$1" --json "$tmp/$1.json" > /dev/null
  figure_key "$1" engine/host_seconds
}

faults_host=null
serve_host=null
scale_host=null
ft_host=null
if [ "${PICO_PERF_FAULTS:-1}" = "1" ]; then
  faults_host="$(figure_seconds faults)"
fi
if [ "${PICO_PERF_SERVE:-1}" = "1" ]; then
  serve_host="$(figure_seconds serve)"
fi
if [ "${PICO_PERF_SCALE:-1}" = "1" ]; then
  scale_host="$(figure_seconds scale)"
  ft_host="$(figure_key scale engine/ft_host_seconds)"
fi

cat > "$out" <<EOF
{
  "schema": "picodriver-perf-v1",
  "figure": "$fig",
  "events": $events,
  "events_elided": $elided,
  "host_seconds": $host,
  "events_per_sec": $eps,
  "equiv_events_per_sec": $eeps,
  "ledger_equiv_events_per_sec": $ledger_eeps,
  "faults_host_seconds": $faults_host,
  "serve_host_seconds": $serve_host,
  "scale_host_seconds": $scale_host,
  "ft_scale_host_seconds": $ft_host
}
EOF

printf 'perf.sh: %s: %s events (+%s elided) in %ss = %s equiv events/sec\n' \
  "$fig" "$events" "$elided" "$host" "$eeps"

if [ "${PICO_PERF_UPDATE:-0}" = "1" ]; then
  cp "$out" "$baseline"
  echo "perf.sh: baseline updated: $baseline"
  exit 0
fi

if [ ! -f "$baseline" ]; then
  echo "perf.sh: no baseline ($baseline); run PICO_PERF_UPDATE=1 scripts/perf.sh"
  exit 0
fi

base_eeps="$(json_key "$baseline" equiv_events_per_sec)"
base_fig="$(awk -F': ' '/"figure"/ { gsub(/[ ",]/,"",$2); print $2 }' "$baseline")"

if [ "$base_fig" != "$fig" ]; then
  echo "perf.sh: baseline is for '$base_fig', not '$fig'; skipping comparison"
  exit 0
fi

# Armed throughput against the baseline's (warn-only, like the ratio).
base_ledger="$(json_key "$baseline" ledger_equiv_events_per_sec)"
if [ "$ledger_eeps" != null ] && [ -n "$base_ledger" ] \
   && [ "$base_ledger" != null ]; then
  awk -v now="$ledger_eeps" -v base="$base_ledger" 'BEGIN {
    ratio = now / base;
    printf "perf.sh: ledgers armed: %.2fx of baseline (%.4g vs %.4g equiv events/sec)\n",
      ratio, now, base;
    if (ratio < 0.8)
      print "perf.sh: WARN: armed throughput >20% below checked-in baseline" > "/dev/stderr";
  }'
fi

awk -v now="$eeps" -v base="$base_eeps" 'BEGIN {
  ratio = now / base;
  printf "perf.sh: %.2fx of baseline (%.4g vs %.4g equiv events/sec)\n",
    ratio, now, base;
  if (ratio < 0.8) {
    print "perf.sh: FAIL: >20% regression vs checked-in baseline" > "/dev/stderr";
    exit 1;
  }
}'

# The wall-clock FOMs warn only: they mix engine throughput with pool
# scheduling, host-side aggregation and machine load, so they are trend
# indicators.  warn LABEL NOW BASELINE-KEY
warn() {
  base="$(json_key "$baseline" "$3")"
  if [ "$2" != null ] && [ -n "$base" ] && [ "$base" != null ]; then
    awk -v label="$1" -v now="$2" -v base="$base" 'BEGIN {
      ratio = now / base;
      printf "perf.sh: %s %.2fx of baseline wall clock (%.3gs vs %.3gs)\n",
        label, ratio, now, base;
      if (ratio > 1.5)
        printf "perf.sh: WARN: %s >1.5x slower than baseline\n", label > "/dev/stderr";
    }'
  fi
}

warn "scale sweep" "$scale_host" scale_host_seconds
warn "armed faults" "$faults_host" faults_host_seconds
warn "serve figure" "$serve_host" serve_host_seconds
warn "fat-tree tail" "$ft_host" ft_scale_host_seconds

echo "perf.sh: OK"
