"""Smoke test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at its minimal size (``--size smoke --seconds 1``),
untraced and traced, and checks that the run exits 0, that its outputs
are correct, and that its last line names exactly the metrics of
BENCHMARK.json (end-to-end untraced, per-layer traced), each with its
unit.  Then checks that a directory holding only BENCHMARK.json and the
benchmark's files, without the package source, makes the benchmark exit
with an error and no result.  Exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def run(cwd, workload, trace, size="smoke"):
    cmd = RUN + ["--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, wl["name"], trace)
            label = f"{wl['name']} trace {trace}"
            if proc.returncode != 0:
                fail(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{label}: {result['failed']} of {result['attempted']} checks failed")
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{label}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, "
                     f"units {[k for k in want if k in got and got[k] != want[k]]}")
            if not all(isinstance(v["value"], float) for v in result["metrics"].values()):
                fail(f"{label}: a metric value is not a number")
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} checks")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0, size="full")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            fail("bare directory: the benchmark did not refuse to run")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare directory: refused")


if __name__ == "__main__":
    main()
