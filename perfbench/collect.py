"""Run the benchmark over several seeds and record the results with metadata.

    python3 perfbench/collect.py --runs 10 --out perfbench/results/NAME.json

For each workload: ``--runs`` untraced runs, each with its own seed
(``--first-seed``, ``--first-seed + 1``, ...), then one traced run at the
first seed.  Per end-to-end metric the file records every value, the median
and the quartiles from ``statistics.quantiles(values, n=4)``, and the spread
(interquartile distance over the median) that ``BENCHMARK.json``'s bounds are
checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(ln[len("detail: "):]) for ln in lines
                  if ln.startswith("detail: "))
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]),
            "detail": detail}


def stats(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def metadata() -> dict:
    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True).stdout.strip() or None
        except OSError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(), "git_commit": git("rev-parse",
                                                               "HEAD"),
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    doc = {"metadata": metadata(), "run_seconds": bench["run_seconds"],
           "workloads": {}}
    for name in names:
        runs = [run_once(name, args.first_seed + i, bench["run_seconds"], 0)
                for i in range(args.runs)]
        traced = run_once(name, args.first_seed, bench["run_seconds"], 1)
        e2e = {m["name"]: stats([r["result"]["metrics"][m["name"]]["value"]
                                 for r in runs])
               for m in bench["end_to_end"]}
        doc["workloads"][name] = {
            "end_to_end": e2e,
            "all_correct": all(r["result"]["correct"] for r in runs + [traced]),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "run_wall_s": [r["wall_s"] for r in runs],
            "details": [r["detail"] for r in runs],
            "traced": {"seed": traced["seed"], "wall_s": traced["wall_s"],
                       "per_layer": {k: v["value"] for k, v in
                                     traced["result"]["metrics"].items()}},
        }
        print(f"{name}: " + ", ".join(
            f"{k} {v['median']:.6g} (spread {v['spread']:.3f})"
            for k, v in e2e.items()), flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
