"""Self-test of the benchmark harness (about 5 s).

    python3 speedbench/selftest.py

Runs the harness's own unit checks (percentile helper, fuzz scenario
steering), a --smoke run of every workload in BENCHMARK.json
with tracing off and on, checking that the last line is the promised
JSON object with exactly the metrics BENCHMARK.json names, and checks
that the benchmark refuses to run outside a full checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RUN = ["sh", os.path.join("speedbench", "run.sh")]


def fail(msg):
    print("FAIL", msg)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = subprocess.run(RUN + ["--selftest"], cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0 or "selftest ok" not in out.stdout:
        fail("harness unit checks:\n" + out.stdout + out.stderr)

    for w in bench["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            out = subprocess.run(
                RUN + ["--workload", w["name"], "--seed", "1", "--seconds", "0",
                       "--trace", trace, "--smoke"],
                cwd=ROOT, capture_output=True, text=True)
            where = f"{w['name']} --trace {trace}"
            if out.returncode != 0:
                fail(f"{where}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: keys {sorted(res)}")
            if res["correct"] is not True:
                fail(f"{where}: incorrect output\n{out.stdout}")
            if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
                    and isinstance(res["failed"], int)):
                fail(f"{where}: attempted/failed {res['attempted']}/{res['failed']}")
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                fail(f"{where}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got) ^ set(want))}")
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    fail(f"{where}: {k} is not a number")
                if group == "end_to_end" and v["value"] <= 0:
                    fail(f"{where}: {k} = {v['value']}")

    # With nothing but BENCHMARK.json and the benchmark's own files, the
    # benchmark must fail fast without printing a result.
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".speedbench-out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        out = subprocess.run(RUN + ["--workload", bench["workloads"][0]["name"],
                                    "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or out.stdout.strip():
            fail("ran outside a full checkout")
    finally:
        shutil.rmtree(bare)
    print("selftest ok")


if __name__ == "__main__":
    main()
