#!/bin/sh
# Repository check gate: full build (warnings are errors), the whole test
# suite, and the parallel-harness determinism contract — every gated
# picobench figure must render byte-identically whatever PICO_JOBS is
# set to, and must print its inertness OK lines.
#
# Usage: scripts/check.sh          (from the repo root)
#        PICO_CHECK_JOBS=8 scripts/check.sh

set -eu

cd "$(dirname "$0")/.."

jobs="${PICO_CHECK_JOBS:-4}"

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The JSON report must be byte-identical too, apart from the keys that
# are host wall-clock by design (engine/host_seconds and sub-sweep
# timers like engine/ft_host_seconds, engine/*_per_sec) and the echoed
# jobs setting itself.
mask_json() {
  grep -v -E '"[^"]*/engine/([a-z_]*host_seconds|[a-z_]*_per_sec)"|"jobs":' \
    "$1" > "$1.masked"
}

# gate FIGURE "EXTRA FLAGS" [OK-LINE ...]
#
# Runs `picobench FIGURE EXTRA FLAGS --json ...` at jobs=1 and
# jobs=$jobs.  Stdout and the masked JSON report must be byte-identical,
# and the jobs=1 stdout must contain a line starting with each OK-LINE.
# In EXTRA FLAGS, @OUT@ stands for a per-run file prefix: a breakdown
# written to @OUT@.bd is a pure function of the simulated results (no
# wall-clock, host or jobs keys), so it is byte-diffed UNMASKED and must
# carry the schema marker.
gate() {
  fig="$1"
  flags="$2"
  shift 2
  echo "== determinism: picobench $fig, jobs=1 vs jobs=$jobs =="
  for j in 1 "$jobs"; do
    out="$tmp/$fig.$j"
    f="$(printf '%s' "$flags" | sed "s#@OUT@#$out#g")"
    # $f is deliberately unquoted: it is a list of flags.
    PICO_JOBS="$j" dune exec --no-build bin/picobench.exe -- "$fig" $f \
      --json "$out.json" > "$out.out"
    mask_json "$out.json"
  done
  seq="$tmp/$fig.1"
  par="$tmp/$fig.$jobs"
  if ! diff -u "$seq.out" "$par.out"; then
    echo "FAIL: $fig output differs between jobs=1 and jobs=$jobs" >&2
    exit 1
  fi
  if ! diff -u "$seq.json.masked" "$par.json.masked"; then
    echo "FAIL: $fig JSON differs between jobs=1 and jobs=$jobs" >&2
    exit 1
  fi
  if [ -f "$seq.bd" ]; then
    if ! diff -u "$seq.bd" "$par.bd"; then
      echo "FAIL: $fig breakdown JSON differs between jobs=1 and jobs=$jobs" >&2
      exit 1
    fi
    if ! grep -q '"schema": "picodriver-breakdown-v1"' "$seq.bd"; then
      echo "FAIL: $fig breakdown JSON missing schema marker" >&2
      exit 1
    fi
  fi
  for ok in "$@"; do
    if ! grep -q -- "^$ok" "$seq.out"; then
      echo "FAIL: $fig did not print '$ok'" >&2
      exit 1
    fi
  done
}

gate all "-s quick"

# Faults is the hardest figure for the latency-ledger breakdown:
# recovery phases and fallback submits land in the ledgers too.  With
# every fault rate at its zero default, arming the injector must be a
# complete no-op; the same law holds for the fabric link-fault streams
# (all-zero fabric rates, or an armed injector whose schedule drew no
# windows, leave flat and fat-tree worlds byte-identical to the
# injector-absent run).
gate faults "--breakdown @OUT@.bd" \
  "zero-rate fault install: OK" \
  "fabric faults zero-rate: OK"

# A cluster built with no topology argument must be byte-identical to an
# explicit Topology.Flat build: the calibrated flat model stays the
# default, and every paper figure stays on it.
gate fabric "" \
  "flat-topology default: OK"

# The sharded at-scale sweep.  That sharding and latency ledgers change
# no result is test/test_scale.ml's law (run by `dune runtest` above).
gate scale ""

# With the admission/breaker knobs at their zero defaults the serve
# layer is inert: no RNG split, empty plans, and a legacy world
# byte-identical to the pre-serve tree.  The serve fingerprint's
# shard-on/off and ledger laws live in test/test_serve.ml.
gate serve "" \
  "serve defaults inert: OK"

# Engine throughput (wall-clock, host-specific): informative, never gates
# the build — machines differ and CI boxes are noisy.  The scale, faults
# and serve sweeps were byte-checked twice just above, so perf.sh skips
# re-running them.
echo "== engine throughput (non-fatal) =="
if ! PICO_PERF_SCALE=0 PICO_PERF_FAULTS=0 PICO_PERF_SERVE=0 scripts/perf.sh; then
  echo "WARN: perf.sh reported a throughput regression (non-fatal)" >&2
fi

echo "OK: all checks passed (output identical at jobs=1 and jobs=$jobs)"
