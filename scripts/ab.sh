#!/bin/sh
# A/B host-cost comparison of the working tree against a git revision,
# by the rule of interleaved pairs: on one perfbench workload, or on any
# command.
#
# Usage: scripts/ab.sh REV WORKLOAD [PAIRS]        (from anywhere in the
#        scripts/ab.sh REV [PAIRS] -- CMD [ARG...]  repo; PAIRS defaults
#                                                   to 10)
#
# REV is exported with `git archive` into a temporary directory (side A);
# the working tree is side B.  In the first form both run
#   python3 perfbench/run.py --workload WORKLOAD --seed S --trace 0
# with their own benchmark code and default run length.  After a
# discarded one-pass warm-up per side (it builds .bench_build/), the pairs
# alternate ABBA — pair i runs A first when i is even, B first when odd —
# and each pair takes a fresh seed from the clock (printed, so any pair
# can be re-run by hand).
#
# In the second form both trees are built with `dune build` (a discarded
# warm-up), then CMD runs from each tree's root in the same ABBA pairs,
# e.g. `scripts/ab.sh HEAD 4 -- _build/default/bin/picobench.exe scale -j 2`.
# Each run's wall seconds and its own peak RSS (the ru_maxrss of its
# wait4 rusage, which covers the processes it waited for) are recorded,
# and the two sides' stdout must be equal in every pair.
#
# Printed, for each host metric (wall_s, setup_s and peak_rss_mb; a
# command has wall_s and peak_rss_mb; lower is better for all three):
# each side's median and quartiles, every
# pair's values, the pairs B won (ties count for neither) and the
# verdict (a gain is shown when B wins at least 9 in 10 pairs and the
# medians differ by more than A's interquartile range).  Then each
# side's attempted/failed operations, summed over every pass of every
# run and counted one plain pass per seed, and its plain passes per run.
# perfbench sums failures over every pass of a run, and how many passes
# fit depends on host speed, so the failure share is judged per pass:
# each run's counts are divided by its pass count, which is exact
# because every pass repeats bit for bit.  When the runs have failures
# and the two sides of a pair fitted different numbers of plain passes,
# those pairs are named; that skew moves the summed share only.
#
# Exit status: 0 when every pair's simulated figures (sim_ns.*, p50_ns.*,
# p99_ns.*) are equal on both sides, every run's counts divide evenly by
# its pass count, and B's failure share per pass is not higher than A's
# (for a command: when both sides printed the same stdout in every
# pair); 1 otherwise; 2 on a usage or run error.  Nothing is fetched:
# REV must be in the local repository.

set -eu

usage() {
  echo "usage: scripts/ab.sh REV WORKLOAD [PAIRS]" >&2
  echo "       scripts/ab.sh REV [PAIRS] -- CMD [ARG...]" >&2
  exit 2
}
[ $# -ge 2 ] || usage
rev="$1"
shift
pairs=10
workload=""
if [ "$1" = "--" ] || { [ $# -ge 2 ] && [ "$2" = "--" ]; }; then
  [ "$1" = "--" ] || { pairs="$1"; shift; }
  shift
  [ $# -ge 1 ] || usage
else
  [ $# -le 2 ] || usage
  workload="$1"
  pairs="${2:-10}"
fi
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac

root="$(git rev-parse --show-toplevel)"
commit="$(git -C "$root" rev-parse --verify "$rev^{commit}")" || exit 2

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/a"
git -C "$root" archive "$commit" | tar -x -C "$work/a"

# run_cmd SIDE PAIR CMD...: one run of CMD from SIDE's root; "PAIR 1 JSON"
# is appended to $work/SIDE.runs, in run's format, and its stdout is left
# in $work/SIDE.out.
run_cmd() {
  side="$1"
  key="$2"
  shift 2
  dir="$root"
  [ "$side" = a ] && dir="$work/a"
  if ! metrics="$(cd "$dir" && python3 -c '
import json, os, subprocess, sys, time
with open(sys.argv[1], "wb") as out, open(sys.argv[2], "wb") as err:
    t0 = time.monotonic()
    child = subprocess.Popen(sys.argv[3:], stdout=out, stderr=err)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - t0
child.returncode = os.waitstatus_to_exitcode(status)
if child.returncode:
    sys.exit(f"exit status {child.returncode}")
print(json.dumps({"metrics": {"wall_s": {"value": wall},
                              "peak_rss_mb": {"value": usage.ru_maxrss / 1024}}}))
' "$work/$side.out" "$work/$side.err" "$@")"; then
    echo "ab.sh: side $side failed in pair $key:" >&2
    cat "$work/$side.err" >&2
    exit 2
  fi
  printf '%s 1 %s\n' "$key" "$metrics" >> "$work/$side.runs"
}

# run SIDE SEED [ARGS]: one benchmark run; "SEED PASSES JSON" is appended
# to $work/SIDE.runs (PASSES: the plain passes the run fitted in).
run() {
  side="$1"
  seed="$2"
  shift 2
  dir="$root"
  [ "$side" = a ] && dir="$work/a"
  if ! (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
          --seed "$seed" --trace 0 "$@" > "$work/$side.out" \
          2> "$work/$side.err") \
     || ! tail -n 1 "$work/$side.out" | grep -q '^{'; then
    echo "ab.sh: side $side failed on seed $seed:" >&2
    cat "$work/$side.err" >&2
    exit 2
  fi
  passes="$(sed -n 's/.* note: \([0-9]*\) passes in .*/\1/p' "$work/$side.out")"
  if [ -z "$passes" ]; then
    echo "ab.sh: side $side printed no pass count on seed $seed" >&2
    exit 2
  fi
  printf '%s %s %s\n' "$seed" "$passes" "$(tail -n 1 "$work/$side.out")" \
    >> "$work/$side.runs"
}

if [ -n "$workload" ]; then
  seed0="$(date +%s)"
  echo "ab.sh: A = $rev ($commit), B = working tree; $workload, $pairs pairs"
  echo "ab.sh: warm-up: build both sides, one pass each (discarded)"
  run a "$seed0" --seconds 0
  run b "$seed0" --seconds 0
  rm -f "$work/a.runs" "$work/b.runs"
else
  seed0=0
  echo "ab.sh: A = $rev ($commit), B = working tree; $pairs pairs of: $*"
  echo "ab.sh: warm-up: dune build on both sides"
  for dir in "$work/a" "$root"; do
    if ! (cd "$dir" && dune build 2> "$work/build.err"); then
      echo "ab.sh: dune build failed in $dir:" >&2
      cat "$work/build.err" >&2
      exit 2
    fi
  done
fi

# one SIDE KEY [CMD...]: one timed run of either form; KEY is the seed
# of a perfbench run and the pair number of a command run.
one() {
  if [ -n "$workload" ]; then run "$1" "$2"; else run_cmd "$@"; fi
}

differ=""
i=0
while [ "$i" -lt "$pairs" ]; do
  key=$((seed0 + 1 + i))
  if [ $((i % 2)) -eq 0 ]; then one a "$key" "$@"; one b "$key" "$@"
  else one b "$key" "$@"; one a "$key" "$@"; fi
  i=$((i + 1))
  if [ -z "$workload" ] && ! cmp -s "$work/a.out" "$work/b.out"; then
    differ="$differ $i"
    echo "ab.sh: pair $i/$pairs: stdout differs"
    diff "$work/a.out" "$work/b.out" | head -n 20
  fi
  echo "ab.sh: pair $i/$pairs done${workload:+ (seed $key)}"
done

status=0
python3 - "$work/a.runs" "$work/b.runs" "${workload:-}" <<'EOF' || status=$?
import json
import statistics
import sys


def load(path):
    runs = {}
    for line in open(path):
        seed, passes, doc = line.split(" ", 2)
        runs[int(seed)] = dict(json.loads(doc), passes=int(passes))
    return runs


a, b = load(sys.argv[1]), load(sys.argv[2])
perfbench = sys.argv[3] != ""
seeds = sorted(a)
value = lambda run, name: run["metrics"][name]["value"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


metrics = (("wall_s", "setup_s", "peak_rss_mb") if perfbench
           else ("wall_s", "peak_rss_mb"))
print(f"{'metric':12s} {'side':4s} {'q1':>12s} {'median':>12s} {'q3':>12s}")
for name in metrics:
    for side, runs in (("A", a), ("B", b)):
        q1, q2, q3 = quartiles([value(runs[s], name) for s in seeds])
        print(f"{name:12s} {side:4s} {q1:12.6g} {q2:12.6g} {q3:12.6g}")

for name in metrics:
    xa = [value(a[s], name) for s in seeds]
    xb = [value(b[s], name) for s in seeds]
    print(f"{name} per pair ({'seed' if perfbench else 'pair'}: A B): "
          + "  ".join(
        f"{s}: {va:.4g} {vb:.4g}" for s, va, vb in zip(seeds, xa, xb)))
    wins = sum(vb < va for va, vb in zip(xa, xb))
    losses = sum(vb > va for va, vb in zip(xa, xb))
    qa1, ma, qa3 = quartiles(xa)
    mb = statistics.median(xb)
    gap, iqr = ma - mb, qa3 - qa1
    change = f" ({(mb / ma - 1) * 100:+.1f} %)" if ma else ""
    print(f"{name}: B lower in {wins} of {len(seeds)} pairs, higher in "
          f"{losses}; median A {ma:.6g}, B {mb:.6g}{change}; "
          f"gap {gap:.6g} against A's IQR {iqr:.6g}")
    shown = wins * 10 >= 9 * len(seeds) and gap > iqr
    print(f"{name} verdict: " + ("gain shown" if shown else "no gain shown")
          + " (needs B lower in >= 9/10 of pairs and a median gap > "
          "A's IQR)")

if not perfbench:
    sys.exit(0)

same = True
status = 0
for s in seeds:
    names = [n for n in a[s]["metrics"]
             if n.startswith(("sim_ns.", "p50_ns.", "p99_ns."))]
    diff = [n for n in names if value(a[s], n) != value(b[s], n)]
    if diff:
        print(f"seed {s}: simulated figures differ: {', '.join(diff)}")
        same = False
        status = 1
    if not (a[s]["correct"] and b[s]["correct"]):
        print(f"seed {s}: a run reports failed checks "
              f"(A correct={a[s]['correct']}, B correct={b[s]['correct']})")
        status = 1
share = {}
for side, runs in (("A", a), ("B", b)):
    att = sum(runs[s]["attempted"] for s in seeds)
    fail = sum(runs[s]["failed"] for s in seeds)
    per_pass = {}
    for s in seeds:
        r = runs[s]
        if r["attempted"] % r["passes"] or r["failed"] % r["passes"]:
            print(f"side {side}, seed {s}: {r['failed']}/{r['attempted']} "
                  f"do not divide by {r['passes']} passes; the passes did "
                  "not repeat")
            status = 1
        per_pass[s] = (r["failed"] // r["passes"],
                       r["attempted"] // r["passes"])
    pp_fail = sum(f for f, _ in per_pass.values())
    pp_att = sum(n for _, n in per_pass.values())
    share[side] = pp_fail / pp_att if pp_att else 0.0
    print(f"side {side}: failed/attempted {fail}/{att} summed "
          f"(share {fail / att if att else 0.0:.3g}), {pp_fail}/{pp_att} "
          f"per pass (share {share[side]:.3g}); per pair, per pass: "
          + " ".join(f"{f}/{n}" for f, n in (per_pass[s] for s in seeds)))
    print(f"side {side}: plain passes per run: "
          + " ".join(str(runs[s]["passes"]) for s in seeds))
skew = [s for s in seeds if a[s]["passes"] != b[s]["passes"]]
if skew and any(runs[s]["failed"] for runs in (a, b) for s in seeds):
    print("plain passes differ in pair(s) " + ", ".join(
        f"seed {s} (A {a[s]['passes']}, B {b[s]['passes']})" for s in skew)
        + ": failures are summed over every pass of a run, so this skew "
        "moves the summed share; the per-pass share does not see it")
if share["B"] > share["A"]:
    print("B's failure share per pass is higher than A's")
    status = 1
print("simulated figures: " + ("identical in every pair" if same
                               else "DIFFER (see above)"))
sys.exit(status)
EOF
if [ -n "$differ" ]; then
  echo "stdout: DIFFERS in pair(s)$differ"
  exit 1
fi
[ -n "$workload" ] || echo "stdout: identical in every pair"
exit "$status"
