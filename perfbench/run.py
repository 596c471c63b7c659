"""nttmul benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``spec.py`` and ``README.md``):

* ``cli-paper-ring``: a user's session of ``python -m nttmul.cli``
  subcommands at M = 1049089, N = 256, each in a fresh process;
* ``sim-paper-ring``: in-process ``run_stream`` at the same ring;
* ``generic-ring-1024``: in-process transform products and a
  structural-mode ``run_stream`` at M = 12289, N = 1024.

Every workload is a closed loop: the next call or process starts only after
the previous one has returned, and at most one child process runs at a time.
The benchmark times calls into the library's public functions from outside
the library, checks every output against the schoolbook oracle outside the
timed regions, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run wraps the library's
functions in spans and reports the per-layer ones, writing the spans and a
summary under ``perfbench/out/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import spec
from gate import Gate, check_products, check_report
from hostspeed import REF_CALIBRATION_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROC_TIMEOUT_S = 150


class BenchError(Exception):
    """The workload could not be measured; no result is printed."""


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    log: Path
    calibration_s: float = REF_CALIBRATION_S

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference host speed (see hostspeed.py)."""
        return self.wall_s * REF_CALIBRATION_S / self.calibration_s


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("NTTMUL_TRACE_DIR", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_proc(argv, cwd: Path, env: dict, log_name: str) -> Proc:
    """Run one child to completion; wall time and peak RSS from ``wait4``."""
    log = cwd / log_name
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=env,
                                stdout=fh, stderr=subprocess.STDOUT)
        deadline = t0 + PROC_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchError(f"{log_name}: no exit after {PROC_TIMEOUT_S} s")
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, log)


def _tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def _load_library():
    """Import the checkout's nttmul into this process (oracle and probes)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nttmul.params
    import nttmul.pipesim

    if not Path(nttmul.params.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported nttmul from {nttmul.params.__file__}, "
                         f"not from {SRC}")
    return nttmul.params, nttmul.pipesim


# ---------------------------------------------------------------------------
# CLI sessions

class Session:
    """``nttmul`` subcommands in fresh processes, one at a time.

    Traced sessions go through ``cli_traced.py``, which installs the span
    wrappers before calling ``nttmul.cli.main``.
    """

    def __init__(self, work: Path, env: dict, traced: bool, gate: Gate):
        self.work, self.env, self.traced, self.gate = work, env, traced, gate
        self.procs: list[dict] = []

    def run(self, cmd: str, *args) -> Proc:
        k = len(self.procs)
        run_id = f"cli.{cmd}#{k}"
        if self.traced:
            argv = [sys.executable, HERE / "cli_traced.py", f"spans{k}.json",
                    run_id, cmd, *args]
        else:
            argv = [sys.executable, "-m", "nttmul.cli", cmd, *args]
        before = calibrate()
        p = run_proc(argv, self.work, self.env, f"log{k}-{cmd}.txt")
        p.calibration_s = (before + calibrate()) / 2
        self.gate.check(p.rc == 0,
                        f"nttmul {cmd} exited {p.rc}: {_tail(p.log)}")
        self.procs.append({"cmd": cmd, "run": run_id, "wall_s": p.wall_s,
                           "rss_mb": p.rss_mb, "rc": p.rc})
        return p

    def spans(self) -> list:
        out = []
        for k in range(len(self.procs)):
            with open(self.work / f"spans{k}.json") as fh:
                out.extend(json.load(fh))
        return out


def _read_ndjson(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cli_session(sess: Session, wl: spec.Workload, records: int, seed: int,
                params_runs: int, repeats: int, seconds: float):
    """``params`` ``params_runs`` times, then passes of gen, gen, mul, sim,
    check and ``repeats - 1`` more of mul, sim, until the passes' wall time
    reaches ``seconds`` (at least one pass).

    Returns the oracle's parameters, the ``params`` processes and one dict
    per pass, whose ``procs`` maps each command to its processes.  Every
    output is checked against the schoolbook oracle between processes.
    """
    gate, work = sess.gate, sess.work
    setups, tables = [], []
    for i in range(params_runs):
        setups.append(sess.run("params", "--modulus", wl.M, "--n", wl.N,
                               "--out", f"tables{i}.json"))
        tables.append((work / f"tables{i}.json").read_bytes())
    for i, t in enumerate(tables[1:], start=1):
        gate.check(t == tables[0], f"params run {i}: table file differs")
    params_mod, _ = _load_library()
    params = params_mod.load_tables(work / "tables0.json")

    steps = (("mul", ("--method", "ntt", "--out", "products.ndjson")),
             ("sim", ("--mode", wl.mode, "--report", "report.json",
                      "--trace", "trace.csv")),
             ("check", ()))
    passes = []
    busy = 0.0
    while not passes or busy < seconds:
        procs = {"gen": [
            sess.run("gen", "--params", "tables0.json", "--count", records,
                     "--seed", seed, "--out", f"vectors{i}.ndjson")
            for i in (0, 1)]}
        gate.check((work / "vectors0.ndjson").read_bytes()
                   == (work / "vectors1.ndjson").read_bytes(),
                   "gen: two runs with one seed wrote different files")
        pairs = [(tuple(int(x) for x in r["a"]), tuple(int(x) for x in r["b"]))
                 for r in _read_ndjson(work / "vectors0.ndjson")]
        gate.check(len(pairs) == records,
                   f"gen: {len(pairs)} records, expected {records}")
        # mul and sim run ``repeats`` times, so that their medians sample
        # the host at several moments (see README, "Host noise").
        for rep in range(repeats):
            for cmd, args in steps if rep == 0 else steps[:2]:
                procs.setdefault(cmd, []).append(
                    sess.run(cmd, "--params", "tables0.json",
                             "--vectors", "vectors0.ndjson", *args))
            muls = [[int(x) for x in r["c"]]
                    for r in _read_ndjson(work / "products.ndjson")]
            check_products(gate, params, pairs, muls, "nttmul mul")
            with open(work / "report.json") as fh:
                doc = json.load(fh)
            check_products(gate, params, pairs,
                           [[int(x) for x in c] for c in doc["products"]],
                           "nttmul sim")
            report = doc["report"]
            check_report(gate, report, wl.N, wl.mode, "nttmul sim")
        busy += sum(p.wall_s for ps in procs.values() for p in ps)
        passes.append({"procs": procs,
                       "cycles": report["completion_cycles"][-1],
                       "steady": report["steady_cycles_per_mul"],
                       "first_mul": report["first_mul_latency"]})
    return params, setups, passes


def _trace_file(work: Path) -> dict:
    path = work / "trace.csv"
    with open(path, "rb") as fh:
        rows = sum(1 for _ in fh) - 1           # minus the header
    return {"rows": rows, "mb": path.stat().st_size / 2**20}


# ---------------------------------------------------------------------------
# workloads

def run_cli_workload(wl, args, work, env, gate):
    sess = Session(work, env, bool(args.trace), gate)
    records = spec.SMOKE_RECORDS if args.smoke else wl.records
    params_runs = 1 if args.trace or args.smoke else spec.SETUP_RUNS
    params, setups, passes = cli_session(
        sess, wl, records, args.seed, params_runs,
        1 if args.smoke else spec.CLI_REPEATS, args.seconds)
    med = statistics.median

    def procs(cmd):
        return [p for ps in passes for p in ps["procs"][cmd]]

    e2e = {
        "setup_s": med(p.scaled_s for p in setups),
        "peak_rss_mb": max(p["rss_mb"] for p in sess.procs),
        "mul_per_s": records / med(p.scaled_s for p in procs("mul")),
        "sim_cycles_per_s": passes[0]["cycles"]
        / med(p.scaled_s for p in procs("sim")),
        "sim_steady_cycles": passes[0]["steady"],
        "sim_first_mul_cycles": passes[0]["first_mul"],
    }
    detail = {"records": records, "passes": len(passes),
              "cli_params_s": med(p.wall_s for p in setups)}
    for cmd in spec.CLI_COMMANDS[1:]:
        detail[f"cli_{cmd}_s"] = med(p.wall_s for p in procs(cmd))
    layers = None
    if args.trace:
        from tracing import layer_metrics, layer_probes

        _, pipesim = _load_library()
        spans = sess.spans()
        probes = layer_probes(params, wl, args.seed, pipesim.run_stream,
                              args.smoke)
        layers = layer_metrics(spans, {p["run"] for p in sess.procs},
                               sess.procs, _trace_file(work), probes)
        _write_trace(args, spans, layers, sess.procs, probes)
    return e2e, detail, layers


def run_inprocess_workload(wl, args, work, env, gate):
    base = [sys.executable, HERE / "worker.py", "--workload", wl.name,
            "--seed", args.seed, "--seconds", args.seconds,
            "--trace", args.trace] + (["--smoke"] if args.smoke else [])
    runs = 1 if args.trace or args.smoke else spec.SETUP_RUNS
    results, rss = [], []
    for i in range(runs):
        role = "run" if i == runs - 1 else "setup"
        p = run_proc(base + ["--role", role, "--out", f"worker{i}.json"],
                     work, env, f"log-worker{i}.txt")
        if p.rc != 0:
            raise BenchError(f"worker {role} exited {p.rc}: {_tail(p.log)}")
        with open(work / f"worker{i}.json") as fh:
            results.append(json.load(fh))
        rss.append(p.rss_mb)
    res = results[-1]
    if not Path(res["nttmul_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"worker imported nttmul from {res['nttmul_file']}")
    gate.merge(res["gate"])
    units, mul_ms = res["units"], res["mul_ms"]
    med = statistics.median
    # Block k ran between calibrations k and k + 1 (see hostspeed.py).
    cal = res["calibration_s"]
    scale = [REF_CALIBRATION_S / ((cal[k] + cal[k + 1]) / 2)
             for k in range(len(units))]
    rates = [u["cycles"] / u["wall_s"] for u in units]
    e2e = {
        "setup_s": med(r["setup_s"] * REF_CALIBRATION_S
                       / r["setup_calibration_s"] for r in results),
        "peak_rss_mb": max(rss),
        "mul_per_s": 1e3 / med(t * scale[i // res["mul_block"]]
                               for i, t in enumerate(mul_ms)),
        "sim_cycles_per_s": med(x / s for x, s in zip(rates, scale)),
        "sim_steady_cycles": units[0]["steady"],
        "sim_first_mul_cycles": units[0]["first_mul"],
    }
    detail = {"mul_calls": len(mul_ms), "mul_p50_ms": med(mul_ms),
              "mul_p90_ms": statistics.quantiles(mul_ms, n=10)[-1],
              "sim_units": len(units), "sim_p50_cycles_per_s": med(rates),
              "calibration_p50_ms": med(cal) * 1e3}
    layers = None
    if args.trace:
        from tracing import layer_metrics

        # Every per-layer metric is reported on every workload, so a small
        # traced CLI session at this workload's ring supplies the CLI layer.
        sess = Session(work, env, True, gate)
        cli_session(sess, wl, spec.SMOKE_RECORDS if args.smoke
                    else spec.PROBE_RECORDS, args.seed, 1, 1, 0)
        spans = res["spans"] + sess.spans()
        layers = layer_metrics(spans, {"worker"}, sess.procs,
                               _trace_file(work), res["probes"])
        _write_trace(args, spans, layers, sess.procs, res["probes"])
    return e2e, detail, layers


def _write_trace(args, spans, layers, procs, probes) -> None:
    from tracing import summarize

    dest = OUT / "trace" / f"{args.workload}-seed{args.seed}"
    dest.mkdir(parents=True, exist_ok=True)
    with open(dest / "spans.json", "w") as fh:
        json.dump(spans, fh)
    with open(dest / "summary.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans_by_name": summarize(spans), "per_layer": layers,
                   "cli_processes": procs, "probes": probes}, fh, indent=2)


# ---------------------------------------------------------------------------

def _environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the self-check; not a measurement")
    args = ap.parse_args(argv)

    if not (SRC / "nttmul" / "__init__.py").is_file():
        print(f"error: no nttmul sources under {SRC}", file=sys.stderr)
        return 2
    wl = spec.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gate = Gate()
    t0 = time.perf_counter()
    try:
        run = run_cli_workload if wl.kind == "cli" else run_inprocess_workload
        e2e, detail, layers = run(wl, args, work, _child_env(), gate)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"error: {args.workload}: {e}", file=sys.stderr)
        for msg in gate.messages:
            print(f"  check failed: {msg}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in e2e.items():
        unit, label = spec.END_TO_END[name]
        print(f"{name:24} {value:14.6g} {unit:8} {label}")
    print(f"{'fail_ratio':24} {gate.failed}/{gate.attempted} checks failed")
    for msg in gate.messages:
        print(f"  check failed: {msg}")
    detail.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "smoke": args.smoke,
                   "wall_s": time.perf_counter() - t0, "e2e": e2e,
                   "env": _environment()})
    print("detail: " + json.dumps(detail, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": layers[k], "unit": unit}
                   for k, unit in spec.PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit}
                   for k, (unit, _) in spec.END_TO_END.items()}
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
