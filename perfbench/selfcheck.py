"""Self-check of the benchmark at smoke size.

    python3 perfbench/selfcheck.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --smoke`` once
untraced and once traced and fails unless

* each run exits 0 and reports ``correct: true`` with no failed check;
* the untraced run emits exactly the ``end_to_end`` metrics, the traced run
  exactly the ``per_layer`` metrics, each with the unit ``BENCHMARK.json``
  gives it, as finite numbers (end-to-end ones nonzero);
* the traced run wrote its spans and a summary holding every per-layer
  metric.

It prints the tracing overhead as traced wall time against untraced wall
time, per run and per timed step.  Last, it copies only ``BENCHMARK.json``
and ``perfbench/`` into a temporary directory and checks that the benchmark
there exits non-zero without printing a result.  Smoke sizes measure
nothing; they only exercise the plumbing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc, time.perf_counter() - t0


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems: list[str] = []

    def expect(ok: bool, msg: str):
        if not ok:
            problems.append(msg)
            print(f"FAIL {msg}", flush=True)

    for wl in (w["name"] for w in bench["workloads"]):
        walls, details = {}, {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, walls[trace] = _run(ROOT, wl, trace)
            label = f"{wl} trace={trace}"
            expect(proc.returncode == 0,
                   f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            details[trace] = next(json.loads(ln[len("detail: "):])
                                  for ln in lines if ln.startswith("detail: "))
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: correct={result['correct']} "
                   f"failed={result['failed']}/{result['attempted']}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            expect(set(got) == set(want),
                   f"{label}: metrics differ from BENCHMARK.json: "
                   f"missing {sorted(set(want) - set(got))}, "
                   f"extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                expect(m["unit"] == unit, f"{label}: {name} unit {m['unit']}")
                v = m["value"]
                expect(isinstance(v, (int, float)) and math.isfinite(v)
                       and (trace or v != 0), f"{label}: {name} = {v!r}")
            if trace:
                summary = (HERE / "out" / "trace" / f"{wl}-seed1"
                           / "summary.json")
                expect((summary.parent / "spans.json").is_file(),
                       f"{label}: no spans.json")
                with open(summary) as fh:
                    per_layer = json.load(fh)["per_layer"]
                expect(set(per_layer) >= set(want),
                       f"{label}: summary lacks per-layer metrics")
        # The traced run of an in-process workload also runs a CLI session,
        # so its whole-run wall time is not all overhead; the per-step
        # ratios compare the same timed work with and without spans.
        print(f"{wl}: traced/untraced wall time {walls[1] / walls[0]:.2f} "
              f"({walls[1]:.1f} s / {walls[0]:.1f} s)", flush=True)
        if len(details) == 2:
            e0, e1 = details[0]["e2e"], details[1]["e2e"]
            for name in ("mul_per_s", "sim_cycles_per_s"):
                print(f"  time per unit of {name[:-6]} work, traced/untraced: "
                      f"{e0[name] / e1[name]:.2f}")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc, _ = _run(bare, bench["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without the sources: exit {proc.returncode}, "
               f"stdout {proc.stdout[-200:]!r}")

    print("self-check: " + ("ok" if not problems
                            else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
