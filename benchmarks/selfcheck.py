"""Self-check of the benchmark at tiny sizes (about a minute).

    python3 benchmarks/selfcheck.py

For every workload, in both modes, it runs one shrunken pass and confirms
that the run verifies its outputs, and that it emits exactly the metrics
BENCHMARK.json names, each with its unit and a finite value (end-to-end
values also non-zero).  It then confirms that a directory holding only
BENCHMARK.json and the benchmark's files makes the benchmark fail without a
result.  Exits 1 on the first mismatch.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace, timeout=300):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def fail(msg):
    print(f"selfcheck: FAIL: {msg}")
    sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{what} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{what}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                fail(f"{what}: verification failed:\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{what}: metrics/units {got} != BENCHMARK.json {want}")
            for name, m in result["metrics"].items():
                if not math.isfinite(m["value"]):
                    fail(f"{what}: {name} is {m['value']}")
                if trace == 0 and m["value"] == 0:
                    fail(f"{what}: end-to-end metric {name} is 0")
            print(f"selfcheck: {what}: ok ({result['attempted']} operations, "
                  f"{len(got)} metrics)")

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("the benchmark ran without the program's source")
    finally:
        shutil.rmtree(bare)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print("selfcheck: without the program's source: fails, no result: ok")


if __name__ == "__main__":
    main()
