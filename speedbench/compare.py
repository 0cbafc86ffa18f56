"""Interleaved A/B comparison of two builds of the benchmark.

    python3 speedbench/compare.py BASE_EXE CAND_EXE --workload W [--pairs 10]

BASE_EXE and CAND_EXE are two built speedbench.exe binaries (build each
checkout with `dune build ./speedbench/speedbench.exe`; give both the same
speedbench/ sources, so only the library differs). Pair i runs both with
seed i + 1 for BENCHMARK.json's run_seconds, alternating which side goes
first. For every end-to-end metric it prints each side's median and
quartiles, the candidate's win fraction and a verdict:

  gain        the candidate wins at least 9/10 of the pairs and its median
              is better by more than the base's interquartile range;
  regression  the candidate loses at least 9/10 of the pairs and its median
              is worse by more than the base's interquartile range, or its
              median is worse by more than the metric's bound in
              BENCHMARK.json;
  unresolved  the base's own spread is wider than the bound;
  same        otherwise.

Pairs run back to back, so a slow phase of the host hits both sides of a
pair; that is why the paired rules can resolve differences well below the
bound, which has to absorb drift between runs made far apart.

A change meant only to make the simulator faster must keep every
simulated output identical, so any pair whose run digests differ is
flagged, as is a run on either side that reports incorrect output, and a
candidate with more failures than the base.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(exe, workload, seed, seconds):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    return json.loads(lines[-1]), digest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("cand")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    base, cand, flags = [], [], []
    for i in range(args.pairs):
        seed = i + 1
        sides = [("base", args.base), ("cand", args.cand)]
        if i % 2:
            sides.reverse()
        got = {}
        for name, exe in sides:
            got[name] = run(exe, args.workload, seed, seconds)
            print(f"pair {i} seed {seed} {name} done", file=sys.stderr)
        (b, bd), (c, cd) = got["base"], got["cand"]
        base.append(b)
        cand.append(c)
        if bd != cd:
            flags.append(f"pair {i} (seed {seed}): digest {bd} -> {cd}")
        for name, r in (("base", b), ("candidate", c)):
            if not r["correct"]:
                flags.append(f"pair {i} (seed {seed}): {name} output incorrect")
        if c["failed"] > b["failed"]:
            flags.append(f"pair {i} (seed {seed}): failures {b['failed']} -> {c['failed']}")

    print(f"workload {args.workload}, {args.pairs} pairs, {seconds} s per run")
    print(f"{'metric':<18} {'base q1/med/q3':>34} {'cand q1/med/q3':>34} {'wins':>6}  verdict")
    for name, m in spec.items():
        bv = [r["metrics"][name]["value"] for r in base]
        cv = [r["metrics"][name]["value"] for r in cand]
        lower = m["better"] == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(bv, cv))
        losses = sum((c > b) if lower else (c < b) for b, c in zip(bv, cv))
        bq1, bmed, bq3 = quartiles(bv)
        cq1, cmed, cq3 = quartiles(cv)
        worse = (cmed - bmed) if lower else (bmed - cmed)
        if wins >= 0.9 * len(bv) and -worse > bq3 - bq1:
            verdict = "gain"
        elif (losses >= 0.9 * len(bv) and worse > bq3 - bq1) or worse > m["bound"] * bmed:
            verdict = "regression"
        elif (bq3 - bq1) > m["bound"] * bmed:
            verdict = "unresolved"
        else:
            verdict = "same"
        fmt = lambda a, b, c: f"{a:.4g}/{b:.4g}/{c:.4g}"
        print(f"{name:<18} {fmt(bq1, bmed, bq3):>34} {fmt(cq1, cmed, cq3):>34} "
              f"{wins / len(bv):>6.2f}  {verdict}")
    for f in flags:
        print("FLAG", f)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
