"""Spans, counters and layer probes for the benchmark's traced run.

Everything here sits outside the library: :func:`install` replaces public
functions of ``nttmul.modarith``, ``nttmul.params``, ``nttmul.polymul``,
``nttmul.pipesim`` and the names ``nttmul.cli`` imported from them with
wrappers that record one span per call.  Spans stay in memory and are written
out when the process ends.  Scalar kernels are called millions of times per
run, so they get no spans: :func:`count_modmuls` counts ``karatsuba_mul``
calls on a short probe stream and :func:`kernel_probe` times the kernels on
seeded operands.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import time

from gate import random_pairs
from spec import CLI_COMMANDS, PROBE_PAIRS, SMOKE_KERNEL_CALLS

# (span name, attribute, modules that hold the attribute).  ``nttmul.cli``
# binds these names at import, so it is patched alongside the defining module.
_WRAPPED = (
    ("modarith.validate", "validate_barrett_constants", ("modarith", "cli")),
    ("params.build", "build_params", ("params", "cli")),
    ("params.load_tables", "load_tables", ("params", "cli")),
    ("params.emit_tables", "emit_tables", ("params", "cli")),
    ("polymul.ntt_mul", "negacyclic_mul_ntt", ("polymul", "cli")),
    ("polymul.naive_mul", "naive_negacyclic_mul", ("polymul", "cli")),
    ("pipesim.run_stream", "run_stream", ("pipesim", "cli")),
)


def _stream_attrs(result) -> dict:
    products, report = result
    return {"products": len(products),
            "cycles": report.completion_cycles[-1] if products else 0,
            "total_regs": report.total_regs,
            "handoff_peak_pairs": report.handoff_peak_pairs}


class Tracer:
    """In-memory span recorder for one process (one ``run`` id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.originals: dict = {}
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    rec.update(attrs(out))
                return out
        return wrapper

    def install(self) -> None:
        """Patch the library's public functions with span-recording wrappers."""
        import nttmul.cli
        import nttmul.modarith
        import nttmul.params
        import nttmul.pipesim
        import nttmul.polymul

        mods = {"modarith": nttmul.modarith, "params": nttmul.params,
                "polymul": nttmul.polymul, "pipesim": nttmul.pipesim,
                "cli": nttmul.cli}
        ctx_cls = nttmul.modarith.ModulusContext
        create = ctx_cls.__dict__["create"].__func__
        ctx_cls.create = classmethod(self.wrap("modarith.create", create))
        for span_name, attr, holders in _WRAPPED:
            fn = getattr(mods[holders[0]], attr)
            self.originals[attr] = fn
            wrapped = self.wrap(span_name, fn,
                                _stream_attrs if attr == "run_stream" else None)
            for holder in holders:
                setattr(mods[holder], attr, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.rec = {"id": tracer._next_id, "run": tracer.run_id,
                    "parent": stack[-1] if stack else None, "name": name,
                    "start": None, "end": None}
        tracer._next_id += 1

    def __enter__(self):
        self.tracer._stack.append(self.rec["id"])
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(self.rec)
        return False


# ---------------------------------------------------------------------------
# probes: counted and microbenchmarked kernels

def count_modmuls(run_stream, config, pairs) -> float:
    """``karatsuba_mul`` calls per product of one stream through ``run_stream``.

    Pass the unwrapped ``run_stream`` so that the probe leaves no span; the
    counting wrapper is removed again before returning.
    """
    import nttmul.pipesim as ps

    orig = ps.karatsuba_mul
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return orig(*args)

    ps.karatsuba_mul = counting
    try:
        products, _ = run_stream(pairs, config)
    finally:
        ps.karatsuba_mul = orig
    return calls / len(products)


def kernel_probe(params, seed: int, calls: int = 20_000,
                 repeats: int = 5) -> dict:
    """ns per call of the scalar kernels, on operands drawn from ``seed``.

    Each figure is the median of ``repeats`` timed loops and includes the
    loop's own overhead.  Karatsuba runs at the operand width the simulator
    uses for this ring; the generic reducer uses this ring's context.
    """
    from nttmul.modarith import (FIXED_M, barrett_reduce_fixed,
                                 barrett_reduce_generic, karatsuba_mul)

    rng = random.Random(f"{seed}/kernels")
    M, ctx = params.M, params.ctx
    bits = (M - 1).bit_length()
    width = bits + (bits & 1)
    ops = [(rng.randrange(M), rng.randrange(M)) for _ in range(calls)]
    wide = [rng.randrange((M - 1) ** 2 + 1) for _ in range(calls)]
    fixed = [rng.randrange((FIXED_M - 1) ** 2 + 1) for _ in range(calls)]

    def timed(loop):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            loop()
            samples.append((time.perf_counter() - t0) / calls * 1e9)
        return statistics.median(samples)

    def kara():
        for a, b in ops:
            karatsuba_mul(a, b, width)

    def red_fixed():
        for v in fixed:
            barrett_reduce_fixed(v)

    def red_generic():
        for v in wide:
            barrett_reduce_generic(v, ctx)

    return {"karatsuba_ns": timed(kara), "reduce_fixed_ns": timed(red_fixed),
            "reduce_generic_ns": timed(red_generic)}


def layer_probes(params, wl, seed: int, run_stream, smoke: bool) -> dict:
    """Kernel ns per call, ``karatsuba_mul`` calls per product, and which
    reducer the simulator takes, for workload ``wl``'s ring and mode."""
    from nttmul.pipesim import PipelineConfig
    from nttmul.polymul import Polynomial

    probes = kernel_probe(params, seed,
                          calls=SMOKE_KERNEL_CALLS if smoke else 20_000)
    pairs = random_pairs(random.Random(f"{seed}/probe"), wl.M, wl.N,
                         PROBE_PAIRS)
    probes["modmuls_per_mul"] = count_modmuls(
        run_stream, PipelineConfig(n=wl.N, params=params, mode=wl.mode),
        [(Polynomial(a, wl.M), Polynomial(b, wl.M)) for a, b in pairs])
    probes["fixed_reducer"] = uses_fixed_reducer(params)
    return probes


def uses_fixed_reducer(params) -> bool:
    """True when the simulator takes the shift-add reducer for this ring."""
    from nttmul.modarith import FIXED_K, FIXED_M, FIXED_U_MIN

    ctx = params.ctx
    return (params.M == FIXED_M and ctx.barrett_k == FIXED_K
            and ctx.barrett_u == FIXED_U_MIN)


# ---------------------------------------------------------------------------
# summary and per-layer metrics

def _self_times(spans) -> dict:
    child = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child[key] = child.get(key, 0.0) + s["end"] - s["start"]
    return {(s["run"], s["id"]):
            s["end"] - s["start"] - child.get((s["run"], s["id"]), 0.0)
            for s in spans}


def summarize(spans) -> dict:
    """Per span name: call count, busy time and self time in ms."""
    selfs = _self_times(spans)
    out: dict = {}
    for s in spans:
        row = out.setdefault(s["name"], {"count": 0, "busy_ms": 0.0,
                                         "self_ms": 0.0})
        row["count"] += 1
        row["busy_ms"] += (s["end"] - s["start"]) * 1e3
        row["self_ms"] += selfs[(s["run"], s["id"])] * 1e3
    return dict(sorted(out.items()))


def layer_metrics(spans, primary_runs, cli_procs, trace_file, probes) -> dict:
    """Per-layer figures for one traced run.

    ``primary_runs`` names the processes that ran the workload itself; a
    layer figure comes from their spans when they made any, and from the
    whole run's spans otherwise.  ``cli_procs`` lists each CLI process with
    its ``cmd``, ``run`` id, wall time and peak RSS as seen from outside.
    """
    selfs = _self_times(spans)

    def pick(name):
        pool = [s for s in spans if s["name"] == name]
        main = [s for s in pool if s["run"] in primary_runs]
        if not (main or pool):
            raise RuntimeError(f"traced run recorded no {name} span")
        return main or pool

    def med_ms(name, self_time=False):
        picked = pick(name)
        vals = [selfs[(s["run"], s["id"])] if self_time
                else s["end"] - s["start"] for s in picked]
        return statistics.median(vals) * 1e3

    ntt = [s["end"] - s["start"] for s in pick("polymul.ntt_mul")]
    streams = pick("pipesim.run_stream")
    busy = sum(s["end"] - s["start"] for s in streams)
    cycles = sum(s["cycles"] for s in streams)
    products = sum(s["products"] for s in streams)
    longest = max(streams, key=lambda s: s["products"])
    ms_per_mul = busy / products * 1e3
    reduce_ns = (probes["reduce_fixed_ns"] if probes["fixed_reducer"]
                 else probes["reduce_generic_ns"])
    kernel_ms = probes["modmuls_per_mul"] * (
        probes["karatsuba_ns"] + reduce_ns) * 1e-6

    out = {
        "modarith.create_ms": med_ms("modarith.create"),
        "modarith.validate_ms": med_ms("modarith.validate"),
        "modarith.karatsuba_ns": probes["karatsuba_ns"],
        "modarith.reduce_fixed_ns": probes["reduce_fixed_ns"],
        "modarith.reduce_generic_ns": probes["reduce_generic_ns"],
        "params.build_ms": med_ms("params.build", self_time=True),
        "params.load_tables_ms": med_ms("params.load_tables", self_time=True),
        "polymul.ntt_mul_ms": statistics.median(ntt) * 1e3,
        "polymul.ntt_mul_p90_ms": statistics.quantiles(ntt, n=10)[-1] * 1e3,
        "polymul.naive_mul_ms": med_ms("polymul.naive_mul"),
        "pipesim.us_per_cycle": busy / cycles * 1e6,
        "pipesim.ms_per_mul": ms_per_mul,
        "pipesim.modmuls_per_mul": probes["modmuls_per_mul"],
        "pipesim.kernel_share": kernel_ms / ms_per_mul,
        "pipesim.total_regs": longest["total_regs"],
        "pipesim.handoff_peak_pairs": longest["handoff_peak_pairs"],
        "pipesim.trace_rows": trace_file["rows"],
        "pipesim.trace_mb": trace_file["mb"],
    }
    for cmd in CLI_COMMANDS:
        procs = [p for p in cli_procs if p["cmd"] == cmd]
        if not procs:
            raise RuntimeError(f"traced run ran no CLI {cmd} process")
        own = []
        for p in procs:
            root = [s for s in spans
                    if s["run"] == p["run"] and s["parent"] is None]
            inner = sum(s["end"] - s["start"] for s in spans
                        if s["run"] == p["run"] and root
                        and s["parent"] == root[0]["id"])
            own.append(p["wall_s"] - inner)
        out[f"cli.{cmd}.self_ms"] = statistics.median(own) * 1e3
        out[f"cli.{cmd}.peak_rss_mb"] = max(p["rss_mb"] for p in procs)
    return out

