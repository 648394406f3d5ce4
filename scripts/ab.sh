#!/bin/sh
# A/B host-cost comparison of the working tree against a git revision on
# one perfbench workload, by the rule of interleaved pairs.
#
# Usage: scripts/ab.sh REV WORKLOAD [PAIRS]    (from anywhere in the repo;
#        PAIRS defaults to 10)
#
# REV is exported with `git archive` into a temporary directory (side A);
# the working tree is side B.  Both run
#   python3 perfbench/run.py --workload WORKLOAD --seed S --trace 0
# with their own benchmark code and default run length.  After a
# discarded one-pass warm-up per side (it builds .bench_build/), the pairs
# alternate ABBA — pair i runs A first when i is even, B first when odd —
# and each pair takes a fresh seed from the clock (printed, so any pair
# can be re-run by hand).
#
# Printed, for each host metric (wall_s, setup_s and peak_rss_mb; lower
# is better for all three): each side's median and quartiles, every
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
# its pass count, and B's failure share per pass is not higher than A's;
# 1 otherwise; 2 on a usage or run error.  Nothing is fetched: REV must
# be in the local repository.

set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: scripts/ab.sh REV WORKLOAD [PAIRS]" >&2
  exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"

root="$(git rev-parse --show-toplevel)"
commit="$(git -C "$root" rev-parse --verify "$rev^{commit}")" || exit 2

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/a"
git -C "$root" archive "$commit" | tar -x -C "$work/a"

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

seed0="$(date +%s)"
echo "ab.sh: A = $rev ($commit), B = working tree; $workload, $pairs pairs"
echo "ab.sh: warm-up: build both sides, one pass each (discarded)"
run a "$seed0" --seconds 0
run b "$seed0" --seconds 0
rm -f "$work/a.runs" "$work/b.runs"

i=0
while [ "$i" -lt "$pairs" ]; do
  seed=$((seed0 + 1 + i))
  if [ $((i % 2)) -eq 0 ]; then run a "$seed"; run b "$seed"
  else run b "$seed"; run a "$seed"; fi
  i=$((i + 1))
  echo "ab.sh: pair $i/$pairs done (seed $seed)"
done

python3 - "$work/a.runs" "$work/b.runs" <<'EOF'
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
seeds = sorted(a)
value = lambda run, name: run["metrics"][name]["value"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


metrics = ("wall_s", "setup_s", "peak_rss_mb")
print(f"{'metric':12s} {'side':4s} {'q1':>12s} {'median':>12s} {'q3':>12s}")
for name in metrics:
    for side, runs in (("A", a), ("B", b)):
        q1, q2, q3 = quartiles([value(runs[s], name) for s in seeds])
        print(f"{name:12s} {side:4s} {q1:12.6g} {q2:12.6g} {q3:12.6g}")

for name in metrics:
    xa = [value(a[s], name) for s in seeds]
    xb = [value(b[s], name) for s in seeds]
    print(f"{name} per pair (seed: A B): " + "  ".join(
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
