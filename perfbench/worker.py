"""Body of the in-process workloads, run by ``run.py`` as a fresh process.

A fresh process keeps ``nttmul.params``' cached context from hiding the
set-up.  The process times its own import plus ``build_params`` (set-up),
then, with ``--role run``, the reference phase and the simulator phase.
Every check runs outside the timed calls.  The result goes to ``--out`` as
JSON.
"""

import argparse
import json
import random
import sys
import time

import spec
from gate import Gate, check_products, check_report, random_pairs
from hostspeed import calibrate


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    wl = spec.WORKLOADS[args.workload]

    calib_before = calibrate(5)
    t_setup = time.perf_counter()     # nttmul is not imported before here
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer("worker")
        tracer.install()
    import nttmul.params
    import nttmul.pipesim
    import nttmul.polymul
    from nttmul.polymul import Polynomial

    if tracer:
        with tracer.span("bench.setup"):
            params = nttmul.params.build_params(wl.M, wl.N)
    else:
        params = nttmul.params.build_params(wl.M, wl.N)
    setup_s = time.perf_counter() - t_setup
    result = {"setup_s": setup_s,
              "setup_calibration_s": (calib_before + calibrate(5)) / 2,
              "nttmul_file": nttmul.params.__file__}
    if args.role == "setup":
        return _write(args.out, result)

    gate = Gate()
    M, N = wl.M, wl.N
    config = nttmul.pipesim.PipelineConfig(n=N, params=params, mode=wl.mode)
    mul_block = spec.SMOKE_MUL_BLOCK if args.smoke else wl.mul_block
    min_calls = mul_block if args.smoke else spec.MIN_MUL_CALLS
    unit_pairs = spec.SMOKE_UNIT_PAIRS if args.smoke else wl.unit_pairs
    min_units = 1 if args.smoke else spec.MIN_SIM_UNITS
    mul_rng = random.Random(f"{args.seed}/mul")
    sim_rng = random.Random(f"{args.seed}/sim")
    mul_ms, units = [], []

    # Phases (a) and (b) alternate block by block, so that both sample the
    # same stretch of the host's speed; each call and unit is timed alone.
    # The host speed is calibrated between blocks (see hostspeed.py).
    calibration = [calibrate()]
    t_start = time.perf_counter()
    while (len(mul_ms) < min_calls or len(units) < min_units
           or time.perf_counter() - t_start < args.seconds):
        # (a) reference products, one negacyclic_mul_ntt call each
        for _ in range(mul_block):
            pairs = random_pairs(mul_rng, M, N, 1)
            a, b = (Polynomial(x, M) for x in pairs[0])
            t0 = time.perf_counter()
            c = nttmul.polymul.negacyclic_mul_ntt(a, b, params)
            mul_ms.append((time.perf_counter() - t0) * 1e3)
            check_products(gate, params, pairs, [c.coeffs],
                           f"negacyclic_mul_ntt call {len(mul_ms)}")

        # (b) one back-to-back stream through the cycle-accurate model
        pairs = random_pairs(sim_rng, M, N, unit_pairs)
        polys = [(Polynomial(a, M), Polynomial(b, M)) for a, b in pairs]
        t0 = time.perf_counter()
        products, report = nttmul.pipesim.run_stream(polys, config)
        wall = time.perf_counter() - t0
        what = f"run_stream unit {len(units)}"
        check_products(gate, params, pairs, [p.coeffs for p in products],
                       what)
        check_report(gate, report.to_dict(), N, wl.mode, what)
        units.append({"wall_s": wall, "cycles": report.completion_cycles[-1],
                      "steady": report.steady_cycles_per_mul,
                      "first_mul": report.first_mul_latency})
        gate.check(units[-1]["first_mul"] == units[0]["first_mul"],
                   f"{what}: first_mul_latency differs from unit 0")
        calibration.append(calibrate())

    result.update({"mul_ms": mul_ms, "mul_block": mul_block, "units": units,
                   "calibration_s": calibration, "gate": gate.to_dict()})
    if tracer:
        from tracing import layer_probes
        probes = layer_probes(params, wl, args.seed,
                              tracer.originals["run_stream"], args.smoke)
        result.update({"spans": tracer.spans, "probes": probes})
    return _write(args.out, result)


def _write(path, result) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
