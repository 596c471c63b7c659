"""Workload definitions and metric names shared by the benchmark's scripts.

``BENCHMARK.json`` at the repository root names the same workloads and
metrics; ``selfcheck.py`` verifies that every run emits exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass

PAPER_M = 1_049_089          # 2**20 + 2**9 + 1, the fixed shift-add reducer
DEFAULT_SEED = 1
CLI_COMMANDS = ("params", "gen", "mul", "sim", "check")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "cli": subprocess session; "inprocess": worker
    M: int
    N: int
    mode: str                # simulator mode
    records: int = 0         # cli: records per session
    mul_block: int = 0       # inprocess: negacyclic_mul_ntt calls per block
    unit_pairs: int = 0      # inprocess: pairs per run_stream unit


WORKLOADS = {w.name: w for w in (
    # Fresh CLI processes; every one re-derives and re-certifies the Barrett
    # constants, so set-up dominates.  64 records keep mul/sim/check doing
    # real work once set-up is cheap.
    Workload("cli-paper-ring", "cli", PAPER_M, 256, "schedule", records=64),
    # pipesim with the fixed reducer does most of the timed work; short
    # reference blocks give mul_per_s at N = 256.
    Workload("sim-paper-ring", "inprocess", PAPER_M, 256, "schedule",
             mul_block=20, unit_pairs=8),
    # Generic Barrett reducer: polymul's transform dominates phase (a);
    # phase (b) runs pipesim in structural mode with deep unit queues.
    Workload("generic-ring-1024", "inprocess", 12289, 1024, "structural",
             mul_block=5, unit_pairs=4),
)}

SETUP_RUNS = 3           # fresh set-ups per untraced run; setup_s is the median
CLI_REPEATS = 2          # mul and sim runs per cli pass
MIN_MUL_CALLS = 100      # p90 then has at least ten samples beyond it
MIN_SIM_UNITS = 3
PROBE_RECORDS = 4        # CLI session run by the traced in-process workloads
PROBE_PAIRS = 4          # stream used to count karatsuba_mul calls

# --smoke shrinks every size to check the plumbing quickly.
SMOKE_RECORDS = 4
SMOKE_MUL_BLOCK = 4
SMOKE_UNIT_PAIRS = 4
SMOKE_KERNEL_CALLS = 2_000

# name -> (unit, label).  "host" is time on the machine running the
# simulator, "scaled" to a reference host speed (hostspeed.py); "simulated"
# is time of the modelled hardware in clock cycles.
END_TO_END = {
    "setup_s": ("s", "host, scaled"),
    "peak_rss_mb": ("MB", "host memory"),
    "mul_per_s": ("1/s", "host, scaled"),
    "sim_cycles_per_s": ("1/s", "host, scaled"),
    "sim_steady_cycles": ("cycles", "simulated"),
    "sim_first_mul_cycles": ("cycles", "simulated"),
}

PER_LAYER = {
    "modarith.create_ms": "ms",
    "modarith.validate_ms": "ms",
    "modarith.karatsuba_ns": "ns",
    "modarith.reduce_fixed_ns": "ns",
    "modarith.reduce_generic_ns": "ns",
    "params.build_ms": "ms",
    "params.load_tables_ms": "ms",
    "polymul.ntt_mul_ms": "ms",
    "polymul.ntt_mul_p90_ms": "ms",
    "polymul.naive_mul_ms": "ms",
    "pipesim.us_per_cycle": "us",
    "pipesim.ms_per_mul": "ms",
    "pipesim.modmuls_per_mul": "count",
    "pipesim.kernel_share": "ratio",
    "pipesim.total_regs": "count",
    "pipesim.handoff_peak_pairs": "count",
    "pipesim.trace_rows": "count",
    "pipesim.trace_mb": "MB",
    **{f"cli.{cmd}.{m}": unit
       for cmd in CLI_COMMANDS
       for m, unit in (("self_ms", "ms"), ("peak_rss_mb", "MB"))},
}
