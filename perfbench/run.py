#!/usr/bin/env python3
"""The repository benchmark: host cost and exact simulated results of the
PicoDriver simulator on four workloads (pingpong, umt, serve, obs).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, in turn

Run from the root of a checkout.  The runner builds perfbench/main.exe
with dune (build tree in .bench_build/), then runs fresh single-domain
processes of it, one pass of the workload each, for about S seconds.  Host figures are the median over passes; simulated figures must
repeat bit for bit in every pass.  With --trace 1 it then runs one traced
pass (the program's latency ledgers armed) and reports the per-layer
figures.  Every metric is printed by name with its unit; the last line of
stdout is the JSON result.  Metric names and units come from
BENCHMARK.json at the root of the checkout.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")
WORKLOADS = ["pingpong", "umt", "serve", "obs"]
# Every run, including its build check and traced pass, ends well within
# the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def find_dune():
    """dune on PATH, else the bin of an opam switch (the active one first)."""
    found = shutil.which("dune")
    if found:
        return found
    root = os.environ.get("OPAMROOT", os.path.expanduser("~/.opam"))
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.join(root, "*")))
    for prefix in filter(None, prefixes):
        dune = os.path.join(prefix, "bin", "dune")
        if os.access(dune, os.X_OK):
            return dune
    raise BenchError("dune not found: put an OCaml toolchain on PATH")


def build():
    dune = find_dune()
    # The compiler and ocamlfind live beside dune in an opam switch; the
    # compiler's temporary files stay inside the build tree.
    path = os.path.dirname(dune) + os.pathsep + os.environ.get("PATH",
                                                               os.defpath)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", PATH=path, TMPDIR=tmp)
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD,
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if proc.returncode != 0 or not os.path.exists(EXE):
        raise BenchError(f"build failed (dune exit {proc.returncode})")


def one_pass(workload, seed, deadline, armed=False, spans=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--out", OUT]
    if armed:
        cmd.append("--armed")
    if spans:
        cmd += ["--spans", spans]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("no time left for another pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded the run's deadline")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def median(passes, pick):
    return statistics.median(pick(p) for p in passes)


def run_workload(workload, seed, seconds, trace, contract):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    passes = []
    # Passes run back to back until less than half a pass's time is left.
    while True:
        passes.append(one_pass(workload, seed, deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            break
    problems = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    sim = passes[0]["sim"]
    problems += [f"{n} differs between passes" for n in sim
                 if any(p["sim"][n] != sim[n] for p in passes[1:])]
    host = {k: median(passes, lambda p, k=k: p["host"][k])
            for k in passes[0]["host"]}
    notes = [f"{len(passes)} passes in {time.monotonic() - start:.1f} s; "
             "host figures are medians over passes"]
    for os_tag in ("linux", "mck", "hfi"):
        notes.append(f"p50_ns.{os_tag} and p99_ns.{os_tag} over "
                     f"{sim['ops.' + os_tag]:.0f} operations")

    if trace:
        spans = os.path.join(OUT, f"spans-{workload}.json")
        traced = one_pass(workload, seed, deadline, armed=True, spans=spans)
        problems += traced["failures"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        # Ledger and observability figures come from the traced pass; host
        # times ("s", "ns") are medians over the plain passes; every other
        # per-layer figure is exact and must repeat in every pass.
        host_time = {m["name"] for m in contract["per_layer"]
                     if m["unit"] in ("s", "ns")}
        layer = {}
        for n, v in passes[0]["layer"].items():
            if n.startswith(("lat.", "obs.")):
                layer[n] = traced["layer"][n]
            elif n in host_time:
                layer[n] = median(passes, lambda p, n=n: p["layer"][n])
            else:
                layer[n] = v
                if any(p["layer"][n] != v for p in passes[1:]):
                    problems.append(f"{n} differs between passes")
        # The traced pass re-runs its worlds unarmed in the same process:
        # the ratio compares the same worlds with and without ledgers.
        layer["obs.traced_ratio"] = (traced["host"]["wall_s"]
                                     / traced["twin_wall_s"])
        notes.append(f"traced pass: wall {traced['host']['wall_s']:.3f} s, "
                     f"unarmed {traced['twin_wall_s']:.3f} s, "
                     f"spans in {os.path.relpath(spans, ROOT)}")
        if workload == "serve":
            notes.append("ref_err: serve has no paper reference (unvalidated)")
        with open(os.path.join(OUT, f"layers-{workload}.json"), "w") as f:
            json.dump(layer, f, indent=1, sort_keys=True)
        kind, values = "per_layer", layer
    else:
        kind, values = "end_to_end", dict(host, **sim)
    names = [m["name"] for m in contract[kind]]
    units = {m["name"]: m["unit"] for m in contract[kind]}
    missing = [n for n in names if n not in values]
    # A traced pass reports exactly the contract's per-layer figures.
    extra = [n for n in values if n not in units] if trace else []
    if missing or extra:
        raise BenchError(f"pass figures do not match BENCHMARK.json {kind}: "
                         f"missing {missing}, unlisted {extra}")
    for n in names:
        print(f"{workload:8s} {n:40s} {values[n]:>22.9g} {units[n]}")
    for n in notes:
        print(f"{workload:8s} note: {n}")
    for p in problems:
        print(f"{workload:8s} CHECK FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0x5EED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            contract = json.load(f)
        seconds = (args.seconds if args.seconds is not None
                   else contract["run_seconds"])
        build()
        if args.workload == "all":
            results = {w: run_workload(w, args.seed, seconds, args.trace,
                                       contract) for w in WORKLOADS}
            ok = all(r["correct"] for r in results.values())
            print(json.dumps({"correct": ok, "workloads": results}))
            return 0 if ok else 1
        result = run_workload(args.workload, args.seed, seconds, args.trace,
                              contract)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
